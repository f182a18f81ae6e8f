(* The quirk catalogue lives in the bottom-layer [quirkdef] library; this
   alias keeps every existing [Quirk.*] call site. Folding the library
   into this module was measured 4% slower on comfort-latest10
   (EXPERIMENTS.md, "The static reach analysis, deleted"). *)

include Quirkdef
