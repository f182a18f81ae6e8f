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
      (** length prefix exceeds the [max_frame] bound; the offending
          length is reported and nothing was allocated for it. *)
  | Corrupt of string
      (** bad magic, checksum mismatch, or an undecodable payload. *)

val error_to_string : error -> string

(** Default payload-size bound accepted by {!read}: 64 MiB. *)
val default_max_frame : int

(** [write fd v] marshals [v] and writes one frame, retrying on
    [EINTR]/partial writes. Raises [Unix.Unix_error (EPIPE, _, _)] if
    the reader is gone (with SIGPIPE ignored), and
    [Invalid_argument] if [v] contains closures — both are caller
    bugs or peer-death signals, not codec states. *)
val write : Unix.file_descr -> 'a -> unit

(** [encode v] is the frame {!write} would send for [v]. Same caveats
    as {!write}. *)
val encode : 'a -> string

(** [decode s] decodes a string holding exactly one frame: a short
    string is [Truncated], bytes after the frame are [Corrupt]. The
    frame's length is bounded by [s] itself, so there is no
    [max_frame]. *)
val decode : string -> ('a, error) result

(** [read fd] blocks for one frame and returns its decoded payload.
    [max_frame] bounds the payload size accepted (default
    {!default_max_frame}). *)
val read : ?max_frame:int -> Unix.file_descr -> ('a, error) result
