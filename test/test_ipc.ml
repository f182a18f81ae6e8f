(* The coordinator/worker framing codec (Ipc, DESIGN.md §14).

   The peer of this codec is a worker process that can be SIGKILLed
   between any two bytes, so the properties that matter are:

   - arbitrary closure-free values round-trip through a frame;
   - every malformed input — clean EOF, EOF mid-header, EOF mid-payload,
     garbage magic, a corrupted checksum, an undecodable payload —
     comes back as the matching typed [Ipc.error], never as a raised
     exception;
   - an adversarial length prefix bounces off [max_frame] before any
     allocation, so a corrupt frame cannot OOM the driver. *)

module Ipc = Comfort.Ipc

(* A frame written into a temp file, handed back as a readable fd.
   Pipes cap at the kernel buffer (64 KiB) without a concurrent reader;
   files don't, so large-frame and surgically-corrupted-frame tests go
   through here. *)
let with_frame_file (fill : Unix.file_descr -> unit)
    (check : Unix.file_descr -> unit) : unit =
  let path = Filename.temp_file "comfort-ipc" ".frame" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          fill fd;
          ignore (Unix.lseek fd 0 Unix.SEEK_SET);
          check fd))

let write_raw fd s =
  let b = Bytes.of_string s in
  let n = Unix.write fd b 0 (Bytes.length b) in
  Alcotest.(check int) "raw bytes written" (Bytes.length b) n

(* read the whole frame Ipc.write produced, as raw bytes, for surgery *)
let frame_bytes v =
  let buf = Buffer.create 256 in
  with_frame_file
    (fun fd -> Ipc.write fd v)
    (fun fd ->
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ());
  Buffer.contents buf

type payload = {
  p_tag : int;
  p_text : string;
  p_pairs : (int * string) list;
  p_opt : float option;
}

let gen_payload =
  QCheck2.Gen.(
    map
      (fun (tag, text, pairs, opt) ->
        { p_tag = tag; p_text = text; p_pairs = pairs; p_opt = opt })
      (quad int (string_size (0 -- 2000)) (small_list (pair int string))
         (option float)))

let roundtrip_prop =
  QCheck2.Test.make ~count:120 ~name:"ipc: arbitrary payloads round-trip"
    gen_payload (fun v ->
      let got = ref None in
      with_frame_file
        (fun fd -> Ipc.write fd v)
        (fun fd -> got := Some (Ipc.read fd));
      match !got with
      (* [compare], not [=]: the float option can draw a NaN *)
      | Some (Ok (v' : payload)) -> compare v' v = 0
      | _ -> false)

let roundtrip_over_pipe () =
  (* the production transport: both directions of a worker conversation
     through actual pipes, several frames back to back *)
  let r, w = Unix.pipe ~cloexec:false () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      let vs = [ `Task (1, "alpha"); `Task (2, "beta"); `Done [ 3; 4; 5 ] ] in
      List.iter (fun v -> Ipc.write w v) vs;
      List.iter
        (fun v ->
          match Ipc.read r with
          | Ok v' ->
              Alcotest.(check bool) "frame order and content" true (v' = v)
          | Error e -> Alcotest.failf "read failed: %s" (Ipc.error_to_string e))
        vs;
      Unix.close w;
      match Ipc.read r with
      | Error Ipc.Closed -> ()
      | Ok _ -> Alcotest.fail "read past EOF"
      | Error e ->
          Alcotest.failf "EOF between frames must be Closed, got %s"
            (Ipc.error_to_string e))

let large_frame_roundtrip () =
  (* a frame well past the pipe buffer, under max_frame: must survive *)
  let v = String.init 300_000 (fun i -> Char.chr (i mod 251)) in
  with_frame_file
    (fun fd -> Ipc.write fd v)
    (fun fd ->
      match Ipc.read fd with
      | Ok (v' : string) ->
          Alcotest.(check bool) "300kB payload intact" true (String.equal v v')
      | Error e -> Alcotest.failf "read failed: %s" (Ipc.error_to_string e))

let eof_mid_header_is_truncated () =
  let frame = frame_bytes (42, "mid-header") in
  with_frame_file
    (fun fd -> write_raw fd (String.sub frame 0 7))
    (fun fd ->
      match Ipc.read fd with
      | Error (Ipc.Truncated _) -> ()
      | Ok _ -> Alcotest.fail "truncated header decoded"
      | Error e ->
          Alcotest.failf "want Truncated, got %s" (Ipc.error_to_string e))

let eof_mid_payload_is_truncated () =
  let frame = frame_bytes (String.make 500 'x') in
  with_frame_file
    (fun fd -> write_raw fd (String.sub frame 0 (String.length frame - 100)))
    (fun fd ->
      match Ipc.read fd with
      | Error (Ipc.Truncated _) -> ()
      | Ok _ -> Alcotest.fail "truncated payload decoded"
      | Error e ->
          Alcotest.failf "want Truncated, got %s" (Ipc.error_to_string e))

let garbage_magic_is_corrupt () =
  with_frame_file
    (fun fd -> write_raw fd "XXXX garbage that is long enough for a header")
    (fun fd ->
      match Ipc.read fd with
      | Error (Ipc.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "garbage decoded"
      | Error e ->
          Alcotest.failf "want Corrupt, got %s" (Ipc.error_to_string e))

let oversized_prefix_rejected_without_allocation () =
  (* a header claiming a huge payload: must come back Oversized with the
     claimed size, and must not OOM — we prove "no allocation" by
     observing that the major heap does not grow while rejecting a
     prefix that claims more memory than the test machine has *)
  let claim = 0xFFFF_FF00 (* ~4 GiB as an unsigned u32 *) in
  let hdr = Bytes.create 16 in
  Bytes.blit_string "CFR1" 0 hdr 0 4;
  Bytes.set_int32_be hdr 4 (Int32.of_int claim);
  Bytes.set_int64_be hdr 8 0L;
  with_frame_file
    (fun fd -> write_raw fd (Bytes.to_string hdr))
    (fun fd ->
      let before = Gc.quick_stat () in
      (match Ipc.read fd with
      | Error (Ipc.Oversized n) ->
          Alcotest.(check int) "claimed length reported" claim n
      | Ok _ -> Alcotest.fail "oversized frame decoded"
      | Error e ->
          Alcotest.failf "want Oversized, got %s" (Ipc.error_to_string e));
      let after = Gc.quick_stat () in
      Alcotest.(check bool) "no heap growth for the claimed payload" true
        (after.Gc.heap_words - before.Gc.heap_words < claim / 8));
  (* negative-when-signed prefixes are the same attack; they must hit the
     bound, not wrap to a small positive length *)
  let hdr2 = Bytes.create 16 in
  Bytes.blit_string "CFR1" 0 hdr2 0 4;
  Bytes.set_int32_be hdr2 4 (-1l);
  Bytes.set_int64_be hdr2 8 0L;
  with_frame_file
    (fun fd -> write_raw fd (Bytes.to_string hdr2))
    (fun fd ->
      match Ipc.read fd with
      | Error (Ipc.Oversized n) ->
          Alcotest.(check bool) "u32 read unsigned" true (n = 0xFFFF_FFFF)
      | Ok _ -> Alcotest.fail "negative-length frame decoded"
      | Error e ->
          Alcotest.failf "want Oversized, got %s" (Ipc.error_to_string e))

let checksum_mismatch_is_corrupt () =
  let frame = Bytes.of_string (frame_bytes [ "checksummed"; "payload" ]) in
  (* flip one payload byte; the header (incl. stored checksum) is intact *)
  let i = Bytes.length frame - 3 in
  Bytes.set frame i (Char.chr (Char.code (Bytes.get frame i) lxor 0x20));
  with_frame_file
    (fun fd -> write_raw fd (Bytes.to_string frame))
    (fun fd ->
      match Ipc.read fd with
      | Error (Ipc.Corrupt what) ->
          Alcotest.(check bool) "checksum named" true
            (what = "checksum mismatch")
      | Ok _ -> Alcotest.fail "corrupted payload decoded"
      | Error e ->
          Alcotest.failf "want Corrupt, got %s" (Ipc.error_to_string e))

(* FNV-1a64 as the plain [String.iter] fold, reimplemented here to keep
   the codec's checksum honest *)
let fnv_reference s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
             0x100000001b3L)
    s;
  !h

let fnv_matches_reference_prop =
  QCheck2.Test.make ~count:300 ~name:"ipc: fnv64 equals the String.iter fold"
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(string_size ~gen:char (0 -- 2000))
    (fun s -> Int64.equal (Ipc.fnv64 s) (fnv_reference s))

let undecodable_payload_is_corrupt () =
  (* a well-formed frame (magic, length, checksum all valid) whose
     payload is not a Marshal stream: the Marshal failure must be caught
     and typed, not escape as an exception *)
  let payload = String.make 64 'z' in
  let hdr = Bytes.create 16 in
  Bytes.blit_string "CFR1" 0 hdr 0 4;
  Bytes.set_int32_be hdr 4 (Int32.of_int (String.length payload));
  Bytes.set_int64_be hdr 8 (fnv_reference payload);
  with_frame_file
    (fun fd -> write_raw fd (Bytes.to_string hdr ^ payload))
    (fun fd ->
      match Ipc.read fd with
      | Error (Ipc.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "non-Marshal payload decoded"
      | Error e ->
          Alcotest.failf "want Corrupt, got %s" (Ipc.error_to_string e))

let error_strings_are_distinct () =
  let msgs =
    List.map Ipc.error_to_string
      [
        Ipc.Closed;
        Ipc.Truncated "header: 3/16 bytes";
        Ipc.Oversized 123_456_789;
        Ipc.Corrupt "bad magic";
      ]
  in
  Alcotest.(check int) "four distinct diagnostics" 4
    (List.length (List.sort_uniq compare msgs))

(* --- hostile input over real worker-reply frames ---

   A forked campaign worker answers each dispatched case with an [R_done]
   reply carrying judged case reports, raw sweeps, or the message of a
   case that raised or failed its audit. The protocol
   types are private to the coordinator and the campaign; Marshal is
   structural, so these same-shaped mirrors encode to the very frames a
   worker sends. Every truncation and every byte mutation of such a frame
   must decode to a typed [Error] or to the original value, and must
   never raise. *)

type work =
  | W_judged of Comfort.Difftest.case_report list
  | W_swept of Comfort.Difftest.sweep list
  | W_failed of string
  | W_audit of string

type reply =
  | R_killme of int
  | R_done of {
      rd_seq : int;
      rd_reply : (work, string) result;
      rd_counters : int array;
    }

let reply_frames =
  lazy
    (let cases =
       (Comfort.Campaign.comfort_fuzzer ~seed:17 ()).Comfort.Campaign.fz_batch 3
     in
     let testbeds = Comfort.Campaign.default_testbeds () in
     (* a delta vector of the registry's real length *)
     let counters = Cutil.Counter.snapshot () in
     let finished seq w =
       R_done { rd_seq = seq; rd_reply = w; rd_counters = counters }
     in
     Array.of_list
       (List.map Ipc.encode
          [
            R_killme 7;
            finished 0
              (Ok
                 (W_judged
                    (List.map (Comfort.Difftest.run_case testbeds) cases)));
            finished 1
              (Ok
                 (W_swept
                    (List.map (Comfort.Difftest.sweep_case testbeds) cases)));
            finished 2 (Ok (W_failed "Failure(\"boom\")"));
            finished 3 (Ok (W_audit "testbed V8: output differs"));
            finished 4 (Error "worker died unexpectedly");
          ]))

(* truncate, or overwrite one to four bytes, of one real reply frame *)
let gen_hostile_frame =
  QCheck2.Gen.(
    map3
      (fun i truncate edits ->
        let frames = Lazy.force reply_frames in
        let frame = frames.(i mod Array.length frames) in
        let n = String.length frame in
        let hostile =
          if truncate then String.sub frame 0 (fst (List.hd edits) mod n)
          else begin
            let b = Bytes.of_string frame in
            List.iter
              (fun (at, byte) -> Bytes.set b (at mod n) (Char.chr byte))
              edits;
            Bytes.to_string b
          end
        in
        (frame, hostile))
      nat bool
      (list_size (1 -- 4) (pair nat (0 -- 255))))

let hostile_frame_prop =
  QCheck2.Test.make ~count:600
    ~name:"ipc: truncated or mutated reply frames decode to Error or the original"
    ~print:(fun (_, h) -> Printf.sprintf "%S" h)
    gen_hostile_frame
    (fun (frame, hostile) ->
      match (Ipc.decode hostile : (reply, Ipc.error) result) with
      | Error _ -> true
      (* a mutation that rewrote bytes to their own values *)
      | Ok v -> String.equal (Ipc.encode v) frame)

let suite =
  [
    Helpers.case "pipe: frames round-trip in order, EOF is Closed"
      roundtrip_over_pipe;
    Helpers.case "large frame survives" large_frame_roundtrip;
    Helpers.case "EOF mid-header -> Truncated" eof_mid_header_is_truncated;
    Helpers.case "EOF mid-payload -> Truncated" eof_mid_payload_is_truncated;
    Helpers.case "garbage magic -> Corrupt" garbage_magic_is_corrupt;
    Helpers.case "adversarial length -> Oversized, no allocation"
      oversized_prefix_rejected_without_allocation;
    Helpers.case "checksum mismatch -> Corrupt" checksum_mismatch_is_corrupt;
    Helpers.case "undecodable payload -> Corrupt"
      undecodable_payload_is_corrupt;
    Helpers.case "error diagnostics are distinct" error_strings_are_distinct;
  ]
  @ [
      QCheck_alcotest.to_alcotest roundtrip_prop;
      QCheck_alcotest.to_alcotest fnv_matches_reference_prop;
      QCheck_alcotest.to_alcotest
        ~rand:(Random.State.make [| 3 |])
        hostile_frame_prop;
    ]
