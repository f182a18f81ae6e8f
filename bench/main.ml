(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (§5), printing paper-reported values next to measured ones.

   Budgets are scaled from the paper's 200-hour / 250k-test-case campaigns
   down to minutes of laptop time; set COMFORT_BENCH_SCALE to an integer
   multiplier to run longer campaigns (default 1).

   Campaign throughput is measured by perfbench. The Fast = Reference
   campaign checks (identical reports in-process and on forked workers,
   executions per case, profiler residual, allocation per case) are part
   of `dune runtest`: see test/test_sharing.ml and test/test_profiler.ml.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table2     # one experiment
     dune exec bench/main.exe interp     # interpreter core ns/op + JSON
     dune exec bench/main.exe micro      # Bechamel micro-benchmarks

   See EXPERIMENTS.md for the recorded paper-vs-measured comparison. *)

module Table = Cutil.Table

let scale =
  match Sys.getenv_opt "COMFORT_BENCH_SCALE" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 1)
  | None -> 1

let campaign_budget = 6000 * scale
let fig8_budget = 3000 * scale
let fig9_samples = 600 * scale

let header title =
  Printf.printf "\n================ %s ================\n%!" title

(* Campaign results are reused across tables; memoised. *)
let comfort_result : Comfort.Campaign.result Lazy.t =
  lazy
    (let fz = Comfort.Campaign.comfort_fuzzer ~seed:11 () in
     (* the paper's main campaign runs against all 102 testbeds (51
        engine-version configurations x 2 modes) *)
     Comfort.Campaign.run ~testbeds:Engines.Engine.all_testbeds
       ~budget:campaign_budget fz)

(* ---------- Table 1 ---------- *)

let table1 () =
  header "Table 1: JS engines under test";
  let t =
    Table.create [ "JS Engine"; "Version"; "Build"; "Release"; "Supported ES" ]
  in
  List.iter
    (fun (c : Engines.Registry.config) ->
      Table.add_row t
        [
          Engines.Registry.engine_name c.Engines.Registry.cfg_engine;
          c.Engines.Registry.cfg_version;
          c.Engines.Registry.cfg_build;
          c.Engines.Registry.cfg_release;
          Engines.Registry.es_to_string c.Engines.Registry.cfg_es;
        ])
    Engines.Registry.all_configs;
  Table.print t;
  Printf.printf "configurations: %d (paper: 51); testbeds: %d (paper: 102)\n"
    (List.length Engines.Registry.all_configs)
    (List.length Engines.Engine.all_testbeds)

(* ---------- Table 2 ---------- *)

let paper_table2 =
  [
    ("V8", (4, 4, 3, 1)); ("ChakraCore", (7, 7, 5, 1)); ("JSC", (12, 11, 11, 3));
    ("SpiderMonkey", (3, 3, 3, 0)); ("Rhino", (44, 29, 29, 4));
    ("Nashorn", (18, 12, 2, 1)); ("Hermes", (16, 16, 15, 4));
    ("JerryScript", (35, 31, 31, 3)); ("QuickJS", (17, 14, 14, 4));
    ("Graaljs", (2, 2, 2, 0));
  ]

let table2 () =
  header "Table 2: bug statistics per engine";
  let res = Lazy.force comfort_result in
  let rows = Comfort.Report.table2 res in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "JS Engine"; "#Found"; "#Verified"; "#Fixed"; "#Test262"; "paper (F/V/Fx/T262)" ]
  in
  let totals = ref (0, 0, 0, 0) in
  List.iter
    (fun (name, s, v, f, a) ->
      let ps, pv, pf, pa =
        Option.value (List.assoc_opt name paper_table2) ~default:(0, 0, 0, 0)
      in
      let a', b', c', d' = !totals in
      totals := (a' + s, b' + v, c' + f, d' + a);
      Table.add_row t
        [
          name; string_of_int s; string_of_int v; string_of_int f; string_of_int a;
          Printf.sprintf "%d/%d/%d/%d" ps pv pf pa;
        ])
    rows;
  let a, b, c, d = !totals in
  Table.add_row t
    [ "Total"; string_of_int a; string_of_int b; string_of_int c; string_of_int d;
      "158/129/115/21" ];
  Table.print t;
  Printf.printf
    "campaign: %d test cases; %d ground-truth bugs seeded across the registry\n"
    res.Comfort.Campaign.cp_cases_run
    (Comfort.Report.ground_truth_total ())

(* ---------- Table 3 ---------- *)

let table3 () =
  header "Table 3: bugs per engine version (earliest-version attribution)";
  let res = Lazy.force comfort_result in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "JS Engine"; "Version"; "#Found"; "#Verified"; "#Fixed"; "#New" ]
  in
  List.iter
    (fun (e, v, s, ver, fix, nw) ->
      Table.add_row t
        [ e; v; string_of_int s; string_of_int ver; string_of_int fix; string_of_int nw ])
    (Comfort.Report.table3 res);
  Table.print t;
  print_endline
    "(paper Table 3: 33 versions with bugs; totals 158 found / 129 verified / 115 fixed / 109 new)"

(* ---------- Table 4 ---------- *)

let table4 () =
  header "Table 4: bugs per discovery mechanism";
  let res = Lazy.force comfort_result in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "Category"; "#Found"; "#Confirmed"; "#Fixed"; "#Test262"; "paper" ]
  in
  List.iter
    (fun (cat, s, v, f, a) ->
      let paper =
        if cat = "Test program generation" then "97/78/67/5" else "61/51/48/16"
      in
      Table.add_row t
        [ cat; string_of_int s; string_of_int v; string_of_int f; string_of_int a; paper ])
    (Comfort.Report.table4 res);
  Table.print t

(* ---------- Table 5 ---------- *)

let paper_table5 =
  [
    ("Object", "23/21/18"); ("String", "22/20/19"); ("Array", "17/12/9");
    ("TypedArray", "8/5/5"); ("Number", "5/4/4"); ("eval function", "4/4/4");
    ("DataView", "4/2/2"); ("JSON", "3/3/2"); ("RegExp", "2/2/1");
    ("Date", "2/1/1");
  ]

let table5 () =
  header "Table 5: top buggy object types";
  let res = Lazy.force comfort_result in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "API Type"; "#Found"; "#Confirmed"; "#Fixed"; "paper (S/C/F)" ]
  in
  List.iter
    (fun (ot, s, v, f) ->
      Table.add_row t
        [
          ot; string_of_int s; string_of_int v; string_of_int f;
          Option.value (List.assoc_opt ot paper_table5) ~default:"-";
        ])
    (Comfort.Report.table5 res);
  Table.print t

(* ---------- Figure 7 ---------- *)

let fig7 () =
  header "Figure 7: bugs per compiler component";
  let res = Lazy.force comfort_result in
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Left ]
      [ "Component"; "#Found"; "#Fixed"; "paper trend" ]
  in
  let trend = function
    | "CodeGen" -> "largest group"
    | "Implementation" -> "45 confirmed / 41 fixed"
    | "Strict mode" -> "reported separately"
    | _ -> "smaller group"
  in
  List.iter
    (fun (comp, s, f) ->
      Table.add_row t [ comp; string_of_int s; string_of_int f; trend comp ])
    (Comfort.Report.fig7 res);
  Table.print t

(* ---------- Figure 8 ---------- *)

let fig8 () =
  header "Figure 8: unique bugs over equal testing budget, per fuzzer";
  let fuzzers =
    Comfort.Campaign.comfort_fuzzer ~seed:11 () :: Baselines.Fuzzers.all ()
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "Fuzzer"; "25%"; "50%"; "75%"; "100% of budget" ]
  in
  let all_results =
    List.map
      (fun fz ->
        let res = Comfort.Campaign.run ~budget:fig8_budget fz in
        let at frac =
          let target = fig8_budget * frac / 100 in
          List.fold_left
            (fun acc (n, c) -> if n <= target then c else acc)
            0 res.Comfort.Campaign.cp_timeline
        in
        Table.add_row t
          [
            res.Comfort.Campaign.cp_fuzzer;
            string_of_int (at 25); string_of_int (at 50); string_of_int (at 75);
            string_of_int (at 100);
          ];
        res)
      fuzzers
  in
  Table.print t;
  (* exclusivity: bugs Comfort alone found, and bugs baselines found that
     Comfort missed (§5.3.1-2) *)
  let key d = (d.Comfort.Campaign.disc_engine, d.Comfort.Campaign.disc_quirk) in
  (match all_results with
  | comfort :: baselines ->
      let comfort_keys = List.map key comfort.Comfort.Campaign.cp_discoveries in
      let baseline_keys =
        List.concat_map
          (fun r -> List.map key r.Comfort.Campaign.cp_discoveries)
          baselines
      in
      let only_comfort =
        List.filter (fun k -> not (List.mem k baseline_keys)) comfort_keys
      in
      let only_baselines =
        List.sort_uniq compare
          (List.filter (fun k -> not (List.mem k comfort_keys)) baseline_keys)
      in
      Printf.printf
        "bugs only Comfort found: %d (paper: 31); bugs only baselines found: %d (paper: 29)\n"
        (List.length only_comfort)
        (List.length only_baselines);
      List.iter
        (fun (e, q) ->
          Printf.printf "  baseline-only: %s %s\n"
            (Engines.Registry.engine_name e)
            (Jsinterp.Quirk.to_string q))
        only_baselines
  | [] -> ());
  print_endline
    "(paper: Comfort found 60 unique bugs in 200h, more than any baseline; DeepSmith found 6)"

(* ---------- Figure 9 ---------- *)

let fig9 () =
  header "Figure 9: test-case quality per fuzzer";
  let fuzzers =
    Comfort.Campaign.comfort_fuzzer ~seed:31 () :: Baselines.Fuzzers.all ~seed:30 ()
  in
  let t =
    Table.create
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "Fuzzer"; "passing"; "stmt cov"; "branch cov"; "func cov"; "paper passing" ]
  in
  List.iter
    (fun fz ->
      let q = Comfort.Metrics.measure fz ~n:fig9_samples in
      let paper =
        match q.Comfort.Metrics.q_fuzzer with "Comfort" -> "80%" | _ -> "<60%"
      in
      Table.add_row t
        [
          q.Comfort.Metrics.q_fuzzer;
          Printf.sprintf "%.0f%%" (100.0 *. q.Comfort.Metrics.q_validity);
          Printf.sprintf "%.0f%%" (100.0 *. q.Comfort.Metrics.q_stmt_cov);
          Printf.sprintf "%.0f%%" (100.0 *. q.Comfort.Metrics.q_branch_cov);
          Printf.sprintf "%.0f%%" (100.0 *. q.Comfort.Metrics.q_func_cov);
          paper;
        ])
    fuzzers;
  Table.print t;
  let exn_rate =
    Comfort.Metrics.runtime_exception_rate
      (Comfort.Campaign.comfort_fuzzer ~seed:33 ())
      ~n:(fig9_samples / 2)
  in
  Printf.printf
    "runtime-exception rate of valid Comfort cases: %.0f%% (paper: ~18%%)\n"
    (100.0 *. exn_rate)

(* ---------- §5.2 listings ---------- *)

let listings () =
  header "Section 5.2 bug-example listings (reproduced end to end)";
  let check name ~engine ~version ~src ~expect_deviation =
    let cfg = Option.get (Engines.Registry.find_config ~engine ~version) in
    let tb = { Engines.Engine.tb_config = cfg; tb_mode = Engines.Engine.Normal } in
    let target = Engines.Engine.run ~fuel:2_000_000 tb src in
    let reference = Engines.Engine.run_reference ~fuel:2_000_000 src in
    let tsig = Comfort.Difftest.signature_of_result target in
    let rsig = Comfort.Difftest.signature_of_result reference in
    let deviates = tsig <> rsig in
    Printf.printf "%-46s %-20s %s\n" name
      (Engines.Registry.engine_name engine ^ " " ^ version)
      (if deviates = expect_deviation then
         Printf.sprintf "OK (%s | expected %s)"
           (Comfort.Difftest.signature_to_string tsig)
           (Comfort.Difftest.signature_to_string rsig)
       else "MISMATCH")
  in
  check "Fig. 2: substr(start, undefined)" ~engine:Engines.Registry.Rhino
    ~version:"1.7.12" ~expect_deviation:true
    ~src:
      {|function foo(str, start, len) { var ret = str.substr(start, len); return ret; }
var s = "Name: Albert";
var pre = "Name: ";
var len = undefined;
var name = foo(s, pre.length, len);
print(name);|};
  check "Listing 1: defineProperty on array length" ~engine:Engines.Registry.V8
    ~version:"8.5-d891c59" ~expect_deviation:true
    ~src:
      {|var foo = function() {
  var arrobj = [0, 1];
  Object.defineProperty(arrobj, "length", { value: 1, configurable: true });
};
try { foo(); print("no error"); } catch (e) { print(e.name); }|};
  check "Listing 2: reverse array fill (scaled 1/10)"
    ~engine:Engines.Registry.Hermes ~version:"0.1.1" ~expect_deviation:true
    ~src:
      {|var foo = function(size) {
  var array = new Array(size);
  while (size--) { array[size] = 0; }
};
var parameter = 90486;
foo(parameter);
print("done");|};
  check "Listing 3: new Uint32Array(3.14)" ~engine:Engines.Registry.SpiderMonkey
    ~version:"52.9" ~expect_deviation:true
    ~src:
      {|var foo = function(length) { var array = new Uint32Array(length); print(array.length); };
var parameter = 3.14;
foo(parameter);|};
  check "Listing 4: toFixed(-2)" ~engine:Engines.Registry.Rhino ~version:"1.7.12"
    ~expect_deviation:true
    ~src:
      {|var foo = function(num) { var p = num.toFixed(-2); print(p); };
var parameter = -634619;
foo(parameter);|};
  check "Listing 5: typed array set from string" ~engine:Engines.Registry.JSC
    ~version:"246135" ~expect_deviation:true
    ~src:
      {|var foo = function() { var e = '123'; A = new Uint8Array(5); A.set(e); print(A); };
foo();|};
  check "Listing 6: obj[true] = 10 appends" ~engine:Engines.Registry.QuickJS
    ~version:"2020-04-12" ~expect_deviation:true
    ~src:
      {|var foo = function() {
  var property = true;
  var obj = [1,2,5];
  obj[property] = 10;
  print(obj);
  print(obj[property]);
};
foo();|};
  check "Listing 7: eval for-loop without body"
    ~engine:Engines.Registry.ChakraCore ~version:"1.11.19" ~expect_deviation:true
    ~src:
      {|try { eval("for(var i = 0; i < 5; i++)"); print("compiled"); } catch (e) { print(e.name); }|};
  check "Listing 8: \"anA\".split(/^A/)" ~engine:Engines.Registry.JerryScript
    ~version:"2.3.0" ~expect_deviation:true
    ~src:
      {|var foo = function() { var a = "anA".split(/^A/); print(a); };
foo();|};
  check "Listing 9: normalize on empty string crash"
    ~engine:Engines.Registry.QuickJS ~version:"2020-04-12" ~expect_deviation:true
    ~src:
      {|var foo = function(str){ str.normalize(true); };
var parameter = "";
foo(parameter);|};
  check "Listing 10: String.prototype.big.call(null)"
    ~engine:Engines.Registry.Rhino ~version:"1.7.12" ~expect_deviation:true
    ~src:{|var v1 = String.prototype.big.call(null);
print(v1);|};
  check "Listing 11: Object.seal(new String(n))" ~engine:Engines.Registry.Rhino
    ~version:"1.7.12" ~expect_deviation:true
    ~src:
      {|function main() { var v2 = new String(2477); var v4 = Object.seal(v2); }
main();
print("ok");|};
  check "Listing 12: non-writable lastIndex + compile"
    ~engine:Engines.Registry.Rhino ~version:"1.7.12" ~expect_deviation:true
    ~src:
      {|var regexp5 = /a/g;
Object.defineProperty(regexp5, "lastIndex", { writable: false });
try { regexp5.compile("b"); print("no error"); } catch (e) { print(e.name); }|};
  check "Listing 13: named funcexpr binding" ~engine:Engines.Registry.Hermes
    ~version:"0.6.0" ~expect_deviation:true
    ~src:
      {|(function v1() {
  v1 = 20;
  print(v1 !== 20);
  print(typeof v1);
}());|}

(* ---------- spec extraction ---------- *)

let spec () =
  header "Section 3.1: specification rule extraction";
  let db = Lazy.force Specdb.Db.standard in
  print_endline (Specdb.Db.stats db);
  print_endline "(paper: ~82% of API and object specification rules extracted)";
  match Specdb.Db.lookup db "substr" with
  | e :: _ ->
      print_endline "Figure 4(b) JSON for String.prototype.substr:";
      print_endline (Specdb.Spec_ast.to_json e)
  | [] -> print_endline "substr entry missing!"

(* ---------- ablations ---------- *)

let ablate () =
  header "Ablations (DESIGN.md, section 4)";
  (* 1. top-k sweep *)
  Printf.printf "[1] top-k sampling vs syntactic validity and diversity (n=200):\n";
  List.iter
    (fun k ->
      let g = Comfort.Generator.create ~seed:41 ~top_k:k () in
      let samples = List.init 200 (fun _ -> Comfort.Generator.sample_program g) in
      let valid =
        List.length (List.filter Jsparse.Parser.is_valid samples)
      in
      let distinct = List.length (List.sort_uniq compare samples) in
      Printf.printf "  k=%-3d validity=%3.0f%%  distinct=%3.0f%%\n" k
        (100.0 *. Float.of_int valid /. 200.0)
        (100.0 *. Float.of_int distinct /. 200.0))
    [ 1; 5; 10; 50 ];
  (* 2. keeping invalid programs *)
  Printf.printf "[2] keep-invalid ratio vs parser-component bugs (budget=%d):\n"
    (fig8_budget / 2);
  List.iter
    (fun keep ->
      let fz =
        let gen = Comfort.Generator.create ~seed:43 ~keep_invalid:keep () in
        let dg = Comfort.Datagen.create ~seed:44 () in
        let pending = ref Seq.empty in
        let rec next () =
          match !pending () with
          | Seq.Cons (c, rest) ->
              pending := rest;
              c
          | Seq.Nil ->
              (match Comfort.Generator.next gen with
              | None -> ()
              | Some ((_, parse) as c) ->
                  pending :=
                    Seq.cons c
                      (match Comfort.Testcase.program_of parse with
                      | Some p -> Comfort.Datagen.mutate dg p
                      | None -> Seq.empty));
              next ()
        in
        Comfort.Campaign.make_fuzzer
          ~name:(Printf.sprintf "Comfort-keep%.0f%%" (100.0 *. keep))
          ~seed:43 ~raw:None
          (fun () -> Some (next ()))
      in
      let res = Comfort.Campaign.run ~budget:(fig8_budget / 2) fz in
      let parser_bugs =
        List.length
          (List.filter
             (fun d ->
               (Engines.Catalogue.find d.Comfort.Campaign.disc_quirk)
                 .Engines.Catalogue.component = Engines.Catalogue.Parser)
             res.Comfort.Campaign.cp_discoveries)
      in
      Printf.printf "  keep=%.0f%%: %d unique bugs, %d in the parser component\n"
        (100.0 *. keep)
        (List.length res.Comfort.Campaign.cp_discoveries)
        parser_bugs)
    [ 0.0; 0.2 ];
  (* 3. ECMA-262 guidance on/off *)
  Printf.printf "[3] spec-guided data generation on/off (budget=%d):\n"
    (fig8_budget / 2);
  List.iter
    (fun with_datagen ->
      let fz = Comfort.Campaign.comfort_fuzzer ~seed:45 ~with_datagen () in
      let res = Comfort.Campaign.run ~budget:(fig8_budget / 2) fz in
      Printf.printf "  datagen=%b: %d unique bugs\n" with_datagen
        (List.length res.Comfort.Campaign.cp_discoveries))
    [ true; false ];
  (* 4. LM context length *)
  Printf.printf "[4] LM context order vs validity (n=200):\n";
  List.iter
    (fun order ->
      let model = Lm.Model.train_bpe ~order Lm.Js_corpus.programs in
      let g = Comfort.Generator.create ~seed:46 ~model () in
      Printf.printf "  order=%d validity=%.0f%%\n" order
        (100.0 *. Comfort.Generator.validity_rate g ~n:200))
    [ 2; 3; 4; 6; 8 ];
  (* 5. dedup filter *)
  let res = Lazy.force comfort_result in
  Printf.printf
    "[5] Fig. 6 dedup tree: %d repeated miscompilations filtered across the campaign\n"
    res.Comfort.Campaign.cp_filtered_repeats;
  (* 6. feedback mutation of bug-exposing cases (§5.5 future work) *)
  Printf.printf "[6] feedback mutation of bug-exposing cases (equal budget %d):\n"
    (fig8_budget * 2 / 3);
  let fb = Comfort.Feedback.create (Comfort.Campaign.comfort_fuzzer ~seed:11 ()) in
  let fb_res =
    Comfort.Feedback.run_rounds ~rounds:4
      ~budget_per_round:(fig8_budget / 6) fb
  in
  let plain =
    Comfort.Campaign.run ~budget:(fig8_budget * 2 / 3)
      (Comfort.Campaign.comfort_fuzzer ~seed:11 ())
  in
  Printf.printf "  plain Comfort:    %d unique bugs\n"
    (List.length plain.Comfort.Campaign.cp_discoveries);
  Printf.printf "  Comfort+feedback: %d unique bugs (bank of %d exposing cases)\n"
    (List.length fb_res.Comfort.Campaign.cp_discoveries)
    (Comfort.Feedback.bank_size fb)

(* The first line a shell command prints, if it exits 0. *)
let command_line cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let line = In_channel.input_line ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> line
      | _ -> None)

(* Where a BENCH_*.json row was measured: cores, compiler, source. *)
let host_json () =
  let nproc =
    match Option.bind (command_line "nproc 2>/dev/null") int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  let commit =
    match command_line "git describe --always --dirty 2>/dev/null" with
    | Some c -> Printf.sprintf "%S" c
    | None -> "null"
  in
  Printf.sprintf {|{ "nproc": %d, "ocaml": %S, "commit": %s }|} nproc
    Sys.ocaml_version commit

(* ---------- interpreter-core micro-benchmark ---------- *)

(* ns/op for the Fast core (compiled closures in a copy-on-write
   realm) vs the Reference tree walker on four hand-written
   workload shapes, each stressing a different part of the interpreter
   (deep lexical scope chains, function calls, string building, property
   traffic), plus four generated programs: two whose array loops are
   element-key traffic and two that print a 64k-element array. Each
   program is parsed once up front; the timed body is execution only
   (under Fast the closure compilation is cached in the front end after
   the first run, matching production where one compile serves a whole
   testbed sweep). The [vote] row times [Difftest.judge] alone, in ns per
   judged 102-testbed sweep of the generated cases in [vote_cases]: its
   reference column judges Reference sweeps, where every testbed carries
   its own output string, and its fast column judges Fast sweeps, where
   each execution class shares one. Emits BENCH_interp.json. *)
let interp_programs =
  [
    ( "scope",
      {js|function f() {
  var a = 0, b = 1, c = 2, d = 3;
  for (var i = 0; i < 400; i = i + 1) {
    let t = a + b;
    a = b + c; b = c + d; c = d + t; d = t + i;
    a = a % 100003; b = b % 100003; c = c % 100003; d = d % 100003;
  }
  return a + b + c + d;
}
var r = 0;
for (var j = 0; j < 4; j = j + 1) { r = r + f(); }
print(r);|js}
    );
    ( "call",
      {js|function add(x, y) { return x + y; }
function mul(x, y) { return (x * y) % 10007; }
function step(s, i) { return add(mul(s, 3), mul(i, 7)) % 10007; }
var s = 1;
for (var i = 0; i < 900; i = i + 1) { s = step(s, i); }
print(s);|js}
    );
    ( "string",
      {js|var s = "";
for (var i = 0; i < 250; i = i + 1) { s = s + "ab" + i; }
var n = 0;
for (var j = 0; j < 200; j = j + 1) { n = n + s.charCodeAt(j); }
print(s.length + ":" + n);|js}
    );
    ( "property",
      {js|var o = { n: 0, m: 1 };
for (var i = 0; i < 700; i = i + 1) {
  o.n = (o.n + o.m) % 99991;
  o.m = o.m + 1;
  o["k" + (i % 7)] = o.n;
}
print(o.n + ":" + o.k3);|js}
    );
    (* generator output, verbatim: the comfort-102 campaign's seed 2
       case 279 and seed 3 case 222, the array-filling loops that
       dominated its interpreter time *)
    ( "gen-push",
      {js|var __obs = [];
var n = 32454;
var items = [1, 2, 5];
var out = undefined;
function foo(a, b) {
  if (b === 0) {
    return false;
  }
  for (var i = 0; i < n; i++) {
    __obs[__obs.length] = items.push(i * i);
  }
  return out;
}
var arg_a = "rvvhj";
var arg_b = false;
var result = foo(arg_a, arg_b);
print(result);
for (var __i = 0; __i < __obs.length; __i++) {
  print(__obs[__i]);
}
|js}
    );
    ( "gen-fill",
      {js|var size = 23789;
var array = [3, 1];
var value = 42971;
function foo(a, b) {
  while (size--) {
    array[size] = size;
  }
  return value;
}
var arg_a = 42;
var arg_b = true;
var result = foo(arg_a, arg_b);
print(result);
|js}
    );
    (* generator output, verbatim: the fuzzilli-102 campaign's seed 4
       case 575 and seed 1 case 286, whose printed arrays dominated its
       interpreter and vote time *)
    ( "gen-join",
      {js|var v = [1, 2, 5];
v[65535] = 10;
print(v);
print(v[2]);
|js}
    );
    ( "gen-typed",
      {js|var t = new Uint8Array(65535);
t.set([1, 2], 1);
print(t);
|js}
    );
  ]

(* the [vote] row's cases: the generated programs short enough to sweep
   over all 102 testbeds on the Reference path at bench start-up *)
let vote_cases = [ "gen-fill"; "gen-join"; "gen-typed" ]

let interp_bench () =
  header "Interpreter core: Fast vs Reference (ns/op)";
  let fuel = 5_000_000 in
  let open Jsinterp.Strategy in
  (* parity sanity check before timing anything: the Fast core must be
     observationally identical to the Reference tree walker, fuel
     accounting included *)
  List.iter
    (fun (name, src) ->
      let r = Jsinterp.Run.run ~fuel ~strategy:Reference src in
      let f = Jsinterp.Run.run ~fuel ~strategy:Fast src in
      if r.Jsinterp.Run.r_status <> Jsinterp.Run.Sts_normal then begin
        Printf.eprintf "interp bench %s: the reference run ended %s\n" name
          (Jsinterp.Run.status_to_string r.Jsinterp.Run.r_status);
        exit 1
      end;
      match Jsinterp.Run.differing_field r f with
      | None -> ()
      | Some field ->
          Printf.eprintf "interp bench %s: Fast and Reference differ in %s\n"
            name field;
          exit 1)
    interp_programs;
  let open Bechamel in
  let open Toolkit in
  let make_test ~strategy (name, src) =
    (* one front end per (program, strategy): Fast reuses its cached
       compilation across iterations, Reference never compiles *)
    let fe = Jsinterp.Run.parse_frontend src in
    Test.make
      ~name:(Printf.sprintf "%s/%s" name (Jsinterp.Strategy.to_string strategy))
      (Staged.stage (fun () ->
           ignore (Jsinterp.Run.run ~fuel ~strategy ~frontend:fe src)))
  in
  let vote_test ~strategy =
    let sweeps =
      List.map
        (fun name ->
          Comfort.Difftest.sweep_case ~strategy Engines.Engine.all_testbeds
            (Comfort.Testcase.make (List.assoc name interp_programs)))
        vote_cases
    in
    Test.make
      ~name:(Printf.sprintf "vote/%s" (Jsinterp.Strategy.to_string strategy))
      (Staged.stage (fun () ->
           List.iter (fun sw -> ignore (Comfort.Difftest.judge sw)) sweeps))
  in
  let tests =
    Test.make_grouped ~name:"interp"
      (List.concat_map
         (fun p ->
           List.map (fun strategy -> make_test ~strategy p) [ Reference; Fast ])
         interp_programs
      @ List.map (fun strategy -> vote_test ~strategy) [ Reference; Fast ])
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimate name strategy =
    match
      Hashtbl.find_opt results
        (Printf.sprintf "interp/%s/%s" name (Jsinterp.Strategy.to_string strategy))
    with
    | Some r -> (
        match Analyze.OLS.estimates r with Some (t :: _) -> Some t | _ -> None)
    | None -> None
  in
  let per_judge = Float.of_int (List.length vote_cases) in
  let rows =
    List.filter_map
      (fun (name, _) ->
        match (estimate name Reference, estimate name Fast) with
        | Some reference, Some fast -> Some (name, reference, fast)
        | _ -> None)
      interp_programs
    @
    match (estimate "vote" Reference, estimate "vote" Fast) with
    | Some reference, Some fast ->
        [ ("vote", reference /. per_judge, fast /. per_judge) ]
    | _ -> []
  in
  List.iter
    (fun (name, reference, fast) ->
      Printf.printf
        "  %-10s reference %10.0f ns/op   fast %10.0f ns/op (%.2fx)\n" name
        reference fast (reference /. fast))
    rows;
  let json =
    Printf.sprintf
      {|{
  "host": %s,
  "fuel": %d,
  "benchmarks": [
%s
  ]
}
|}
      (host_json ()) fuel
      (String.concat ",\n"
         (List.map
            (fun (name, reference, fast) ->
              Printf.sprintf
                {|    { "name": %S, "reference_ns_per_op": %.0f, "fast_ns_per_op": %.0f, "speedup": %.2f }|}
                name reference fast (reference /. fast))
            rows))
  in
  let oc = open_out "BENCH_interp.json" in
  output_string oc json;
  close_out oc;
  print_endline "wrote BENCH_interp.json"

(* ---------- Bechamel micro-benchmarks ---------- *)

let micro () =
  header "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let sample = List.nth Lm.Js_corpus.programs 3 in
  let parsed = Jsparse.Parser.parse_program sample in
  let model = Lazy.force Lm.Model.comfort in
  let db = Lazy.force Specdb.Db.standard in
  let rng = Cutil.Rng.create 99 in
  (* generate-stage rows on generated inputs: the first generated program
     with a Datagen mutant carrying a long fractional literal (as
     [Rng.float] draws print), that mutant's final AST, and a fixed
     64-token LM continuation, replayed from the same generator state on
     every run so each run samples the same tokens *)
  let has_frac src =
    let digit i = i < String.length src && src.[i] >= '0' && src.[i] <= '9' in
    let rec from i =
      match String.index_from_opt src i '.' with
      | None -> false
      | Some j ->
          (j > 0 && digit (j - 1) && List.for_all (fun d -> digit (j + d)) [ 1; 2; 3; 4; 5 ])
          || from (j + 1)
    in
    from 0
  in
  let gen = Comfort.Generator.create ~seed:5 () in
  let rec find_mutant () =
    let src = Comfort.Generator.sample_program gen in
    match
      List.find_opt
        (fun (m : Comfort.Datagen.mutant) -> has_frac m.Comfort.Datagen.m_source)
        (Comfort.Datagen.mutants_of_program (Comfort.Datagen.create ()) src)
    with
    | Some m -> (src, Jsparse.Parser.parse_program m.Comfort.Datagen.m_source)
    | None -> find_mutant ()
  in
  let dg_program, mutant_ast = find_mutant () in
  let dg = Comfort.Datagen.create () in
  let lm_prefix = "var a = function(x) {" in
  let lm_run stop =
    Lm.Model.generate model (Cutil.Rng.create 7) ~prefix:lm_prefix ~k:10
      ~max_tokens:64 ~stop
  in
  let lm_tokens =
    (* [stop] sees the prefix once, then each emitted token *)
    let calls = ref 0 in
    ignore (lm_run (fun _ -> incr calls; false));
    !calls - 1
  in
  let per_token = [ ("comfort/lm-token", lm_tokens) ] in
  let tests =
    Test.make_grouped ~name:"comfort"
      [
        Test.make ~name:"parse"
          (Staged.stage (fun () -> ignore (Jsparse.Parser.parse_program sample)));
        Test.make ~name:"print"
          (Staged.stage (fun () ->
               ignore (Jsast.Printer.program_to_string parsed)));
        Test.make ~name:"interp-run"
          (Staged.stage (fun () -> ignore (Jsinterp.Run.run ~fuel:100_000 sample)));
        Test.make ~name:"lm-sample"
          (Staged.stage (fun () ->
               ignore
                 (Lm.Model.generate model rng ~prefix:"var a = function(x) {"
                    ~k:10 ~max_tokens:120 ~stop:(Comfort.Generator.brace_stop ()))));
        Test.make ~name:"print-mutant"
          (Staged.stage (fun () ->
               ignore (Jsast.Printer.program_to_string mutant_ast)));
        Test.make ~name:"num-to-string-frac"
          (Staged.stage (fun () ->
               ignore (Jsinterp.Ops.number_to_string 76.5940989463188)));
        Test.make ~name:"datagen-mutate"
          (Staged.stage (fun () ->
               ignore (Comfort.Datagen.mutants_of_program dg dg_program)));
        Test.make ~name:"lm-token"
          (Staged.stage (fun () -> ignore (lm_run (fun _ -> false))));
        Test.make ~name:"spec-lookup"
          (Staged.stage (fun () -> ignore (Specdb.Db.lookup db "substr")));
        Test.make ~name:"regex-exec"
          (Staged.stage
             (let prog = Jsinterp.Regex.compile "(a|b)+c" "" in
              fun () -> ignore (Jsinterp.Regex.exec prog "abababac" 0)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      match (Analyze.OLS.estimates r, List.assoc_opt name per_token) with
      | Some (t :: _), Some n ->
          Printf.printf "  %-28s %12.1f ns/token (%d tokens/run)\n" name
            (t /. Float.of_int n) n
      | Some (t :: _), None -> Printf.printf "  %-28s %12.1f ns/run\n" name t
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    (List.sort compare rows)

(* ---------- main ---------- *)

let all () =
  table1 ();
  spec ();
  listings ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  fig7 ();
  fig8 ();
  fig9 ();
  ablate ();
  interp_bench ();
  micro ()

let () =
  let t0 = Unix.gettimeofday () in
  (match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "table4" -> table4 ()
  | "table5" -> table5 ()
  | "fig7" -> fig7 ()
  | "fig8" -> fig8 ()
  | "fig9" -> fig9 ()
  | "listings" -> listings ()
  | "spec" -> spec ()
  | "ablate" -> ablate ()
  | "interp" -> interp_bench ()
  | "micro" -> micro ()
  | "all" -> all ()
  | other ->
      Printf.eprintf
        "unknown experiment %s (try: table1..5, fig7..9, listings, spec, ablate, interp, micro, all)\n"
        other;
      exit 1);
  Printf.printf "\n[done in %.1fs]\n" (Unix.gettimeofday () -. t0)
