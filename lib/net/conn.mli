(** Pure per-connection byte-stream state machines.

    A {!type:reader} turns an arbitrary chunking of incoming bytes into
    the sequence of decoded values; a {!type:writer} turns queued
    encoded frames into arbitrarily short outgoing chunks.  Neither
    performs I/O: both are deterministic transition functions of the
    bytes fed, so the same code runs over sockets and under ei_sim's
    deterministic scheduler (yield sites [net.yield.feed] /
    [net.yield.take], inert when untapped).

    Each connection's machines are owned by that connection's handler
    domain — they are single-domain state, not shared. *)

(** {1 Reader} *)

type 'a reader

val reader : decode:(string -> pos:int -> 'a Wire.progress) -> 'a reader

val feed : 'a reader -> ?pos:int -> ?len:int -> string -> ('a list, string) result
(** Feed one chunk ([chunk[pos, pos+len)], default the whole string);
    returns the values completed by it, in stream order (possibly
    []).  [Error msg] means the stream is corrupt: the reader is
    poisoned — every later feed returns the same error — and the
    connection must be torn down.  Buffering is bounded by one frame:
    decoded values are returned immediately and the length field is
    validated before any wait. *)

val reader_pending : 'a reader -> int
(** Buffered undecoded bytes (always less than one full frame). *)

val reader_error : 'a reader -> string option

(** {1 Writer} *)

type writer

val writer : unit -> writer

val writer_push : writer -> string -> unit
(** Queue one encoded frame. *)

val writer_take : writer -> max:int -> string
(** Dequeue up to [max] bytes (["" ] when nothing is pending) — the
    short-write half of the state machine: a socket (or schedule) that
    accepts fewer bytes than queued simply takes again. *)

val writer_pending : writer -> int
