(** The WAL record codec: one record per {!Envelope} frame.

    The payload carries a tag byte, the record's LSN and the
    tag-specific fields.  Decoding is {e total}: truncated, torn or
    bit-flipped input yields [Error], never an exception and never a
    wrong record — the property the adversarial qcheck suite pins
    down, and what makes torn-tail truncation during recovery safe. *)

type record =
  | Insert of { lsn : int; key : string; tid : int }
  | Remove of { lsn : int; key : string }
  | Update of { lsn : int; key : string; tid : int }
  | Bound of { lsn : int; bound : int }
      (** elastic size-bound retune, logged so the elasticity state
          survives restart (checkpoints record it too) *)

val lsn : record -> int

val encode_into : Buffer.t -> record -> unit
(** Append one complete frame.  Raises [Invalid_argument] on a
    negative LSN or a key longer than 65535 bytes (never produced by
    the writer). *)

val decode_all : string -> record list * (int * string) option
(** Decode frames from position 0 until the end of the string or the
    first malformed frame; returns the good prefix and, if decoding
    stopped early, the byte offset and reason — the torn-tail
    truncation point.  Any malformation — short header, implausible
    length, truncated payload, CRC mismatch, unknown tag, payload size
    disagreement — stops it; it never raises on any input. *)
