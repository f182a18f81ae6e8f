(** Length-prefixed Marshal framing over file descriptors.

    The coordinator/worker pipe protocol (DESIGN.md §14) ships OCaml
    values between a campaign driver and its forked workers. Each frame
    is

    {v  "CFR1" | payload length (u32, big-endian) | FNV-1a64 of payload
        (u64, big-endian) | Marshal payload  v}

    The codec is written for a channel whose far end can die at any
    byte: every malformed input — EOF mid-frame, a corrupted or
    adversarial length prefix, garbage where the magic should be, a
    payload that fails its checksum or does not unmarshal — is reported
    as a typed {!error}, never as a raised [Marshal]/[Failure]
    exception, and an oversized length prefix is rejected {e before}
    any allocation so a corrupt frame cannot OOM the driver.

    Reading is only type-safe when both ends run the same binary (true
    for [fork]ed workers); the ['a] of {!read} is trusted, exactly as
    with [Marshal.from_channel]. Values must be closure-free plain
    data. *)

type error =
  | Closed  (** clean EOF between frames: the peer is gone. *)
  | Truncated of string
      (** EOF inside a frame — the peer died mid-write. *)
  | Oversized of int
      (** length prefix exceeds {!read}'s 64 MiB bound; the offending
          length is reported and nothing was allocated for it. *)
  | Corrupt of string
      (** bad magic, checksum mismatch, or an undecodable payload. *)

val error_to_string : error -> string

(** [write fd v] marshals [v] and writes one frame, retrying on
    [EINTR]/partial writes. Raises [Unix.Unix_error (EPIPE, _, _)] if
    the reader is gone (with SIGPIPE ignored), and
    [Invalid_argument] if [v] contains closures — both are caller
    bugs or peer-death signals, not codec states. *)
val write : Unix.file_descr -> 'a -> unit

(** [encode v] is the frame {!write} would send for [v]. Same caveats
    as {!write}. *)
val encode : 'a -> string

(** [write_frame fd frame] writes a frame made by {!encode}; [write fd v]
    is [write_frame fd (encode v)]. Lets a caller size a frame before
    sending it. *)
val write_frame : Unix.file_descr -> string -> unit

(** [decode s] decodes a string holding exactly one frame: a short
    string is [Truncated], bytes after the frame are [Corrupt]. The
    frame's length is bounded by [s] itself, so there is no size
    bound. *)
val decode : string -> ('a, error) result

(** [read fd] blocks for one frame and returns its decoded payload. A
    payload over 64 MiB is refused as [Oversized]. *)
val read : Unix.file_descr -> ('a, error) result
