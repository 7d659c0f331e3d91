(** Synthetic cloud object-store access log, standing in for the SNIA
    IOTTA trace of §6.3.

    Rows mirror the paper's schema: four 8-byte columns (timestamp,
    request type, object id, size).  Timestamps are strictly increasing,
    so the 16-byte composite index key (timestamp, object id) is unique
    and time-ordered; object ids are Zipf-distributed; request types are
    categorical with GETs dominating; sizes are heavy-tailed. *)

type row = { ts : int; op : int; obj : int; size : int }
(** [op] is a request-type code: 0 GET, 1 PUT, 2 HEAD, 3 DELETE,
    4 LIST, 5 COPY. *)

val generate : ?seed:int -> rows:int -> objects:int -> unit -> row array
(** Deterministic trace of [rows] rows over [objects] distinct objects. *)

val key_of_row : row -> string
(** The 16-byte (timestamp, object id) index key. *)

val row_bytes : int
(** Stored size of one row (32 bytes: four 8-byte columns). *)
