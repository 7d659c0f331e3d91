(** The frame envelope shared by the repository's CRC-framed codecs:
    the WAL record codec ({!Frame}) and the network wire codec
    ([Ei_net.Wire]).

    One frame is [u32 payload_len | u32 crc32(payload) | payload], all
    integers little-endian.  This module is the only code that knows
    that header: it writes it, bounds the length field, checks the CRC,
    and hands the verified payload to a codec's parser through a
    {!payload} cursor whose readers check every field against the end
    of the payload.  A codec supplies only its tags and fields. *)

val header_bytes : int
(** Frame header size (length + CRC words). *)

(** {1 Encoding} *)

val add : Buffer.t -> string -> unit
(** [add buf payload] appends one frame carrying [payload]. *)

val add_key : Buffer.t -> string -> unit
(** Append a [u16 key_len | key bytes] field.  Raises
    [Invalid_argument] on a key longer than 65535 bytes. *)

val add_i64 : Buffer.t -> int -> unit
(** Append a little-endian 64-bit integer. *)

(** {1 Decoding} *)

(** Incremental decode outcome. *)
type 'a progress =
  | Done of 'a * int  (** the value and the position after its frame *)
  | More  (** the frame's remaining bytes have not arrived yet *)
  | Corrupt of string
      (** definite violation: no further bytes can make it a frame *)

type payload
(** A read cursor over one CRC-verified payload. *)

val decode :
  min:int -> max:int -> string -> pos:int -> (payload -> 'a) -> 'a progress
(** [decode ~min ~max s ~pos parse] reads the frame starting at [pos].
    The length field is checked against [\[min, max\]] before any
    buffering decision, so a length-field lie can never make a reader
    wait for (or allocate) an unbounded frame.  A complete frame whose
    CRC matches is handed to [parse], which must consume the payload
    exactly: a reader running past the payload's end, a
    {!malformed} call and unread trailing bytes are all [Corrupt].
    Total: never raises on any input. *)

val truncation : string -> pos:int -> string
(** Why {!decode} answered [More] at [pos] of a complete image such as
    a log segment: ["truncated frame header"] or ["truncated payload"]. *)

val u8 : payload -> int
(** The next byte (a tag). *)

val u32 : payload -> what:string -> int
(** The next little-endian [u32]. *)

val i64 : ?min:int -> payload -> what:string -> int
(** The next little-endian 64-bit integer, which must lie in
    [\[min, max_int\]] ([min] defaults to 0); otherwise ["bad <what>"]. *)

val key : payload -> string
(** The next [u16 key_len | key bytes] field. *)

val malformed : string -> 'a
(** Reject the payload being parsed with this reason. *)
