(* Length-prefixed Marshal framing over pipes — see ipc.mli and
   DESIGN.md §14. The decoder trusts nothing: the peer is a worker
   process that can be SIGKILLed between any two bytes. *)

type error =
  | Closed
  | Truncated of string
  | Oversized of int
  | Corrupt of string

let error_to_string = function
  | Closed -> "channel closed"
  | Truncated what -> Printf.sprintf "truncated frame (%s)" what
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes)" n
  | Corrupt what -> Printf.sprintf "corrupt frame (%s)" what

let magic = "CFR1"
let header_len = 4 + 4 + 8 (* magic + length + checksum *)
(* The payload-size bound [read] accepts: 64 MiB. *)
let max_frame = 64 * 1024 * 1024

(* FNV-1a over the payload. Cheap, dependency-free, and plenty to
   distinguish "worker died mid-write" from a well-formed frame; this is
   integrity against torn writes, not cryptography. *)
let fnv64 (s : string) : int64 =
  (* a [for] loop, not [String.iter]: a ref no closure captures stays an
     unboxed local, so the loop allocates nothing per byte *)
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

(* --- raw I/O helpers: EINTR-safe, partial-read/write-safe ---------- *)

let rec write_all fd buf off len =
  if len > 0 then
    let n =
      try Unix.write fd buf off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (off + n) (len - n)

(* Reads exactly [len] bytes; [Ok false] on immediate EOF (nothing
   read), [Error short] on EOF mid-buffer. *)
let really_read fd buf len : (bool, int) result =
  let rec go off =
    if off >= len then Ok true
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then Ok false else Error off
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* --- framing ------------------------------------------------------- *)

let encode (v : 'a) : string =
  let payload = Marshal.to_string v [] in
  let plen = String.length payload in
  let buf = Bytes.create (header_len + plen) in
  Bytes.blit_string magic 0 buf 0 4;
  Bytes.set_int32_be buf 4 (Int32.of_int plen);
  Bytes.set_int64_be buf 8 (fnv64 payload);
  Bytes.blit_string payload 0 buf header_len plen;
  Bytes.unsafe_to_string buf

let write_frame fd (frame : string) : unit =
  write_all fd (Bytes.unsafe_of_string frame) 0 (String.length frame)

let write fd (v : 'a) : unit = write_frame fd (encode v)

(* The header's payload length and checksum. *)
let parse_header (hdr : string) ~max_frame : (int * int64, error) result =
  if String.sub hdr 0 4 <> magic then Error (Corrupt "bad magic")
  else
    (* Read the length as unsigned: a negative int32 is an attack /
       corruption, and must bounce off the bound, not wrap. *)
    let plen = Int32.to_int (String.get_int32_be hdr 4) land 0xFFFFFFFF in
    if plen > max_frame then Error (Oversized plen)
    else Ok (plen, String.get_int64_be hdr 8)

let unmarshal_payload (payload : string) (sum : int64) : ('a, error) result =
  if fnv64 payload <> sum then Error (Corrupt "checksum mismatch")
  else if String.length payload < Marshal.header_size then
    Error (Corrupt "short payload")
  else
    try Ok (Marshal.from_string payload 0)
    with _ -> Error (Corrupt "undecodable payload")

let decode (s : string) : ('a, error) result =
  let n = String.length s in
  if n < header_len then
    Error (Truncated (Printf.sprintf "header: %d/%d bytes" n header_len))
  else
    match parse_header (String.sub s 0 header_len) ~max_frame:max_int with
    | Error _ as e -> e
    | Ok (plen, sum) ->
        let got = n - header_len in
        if got < plen then
          Error (Truncated (Printf.sprintf "payload: %d/%d bytes" got plen))
        else if got > plen then
          Error (Corrupt (Printf.sprintf "%d bytes after the frame" (got - plen)))
        else unmarshal_payload (String.sub s header_len plen) sum

let read fd : ('a, error) result =
  let hdr = Bytes.create header_len in
  match really_read fd hdr header_len with
  | Ok false -> Error Closed
  | Error got -> Error (Truncated (Printf.sprintf "header: %d/%d bytes" got header_len))
  | Ok true -> (
      match parse_header (Bytes.unsafe_to_string hdr) ~max_frame with
      | Error _ as e -> e
      | Ok (plen, sum) -> (
          let payload = Bytes.create plen in
          match really_read fd payload plen with
          | Ok false when plen > 0 ->
              Error (Truncated (Printf.sprintf "payload: 0/%d bytes" plen))
          | Error got ->
              Error (Truncated (Printf.sprintf "payload: %d/%d bytes" got plen))
          | Ok _ -> unmarshal_payload (Bytes.unsafe_to_string payload) sum))
