(** Server-side per-connection protocol engine: the pure reader/writer
    machines composed with the pipelining-window policy.

    Bytes are fed in; decoded requests queue in arrival order; {!take}
    forms a round of at most [window] requests for one
    {!Ei_shard.Serve.exec} batch and sheds everything queued beyond it
    with {!Wire.Busy} — explicit backpressure instead of unbounded
    buffering.  {!complete} emits the round's replies in slot order and
    then the shed [Busy] replies, so the reply stream is always in
    request order (the ordered-prefix invariant of the [net-pipeline]
    sim scenario).

    A session performs no I/O and owns no lock: it is driven by one
    connection-handler domain over a socket, or by a sim fiber over an
    in-memory pipe — the same transitions either way. *)

type t

val create : ?window:int -> unit -> t
(** [window] (default 256) is both the per-round batch cap and the
    queue-depth threshold past which decoded requests are shed. *)

val feed : t -> ?pos:int -> ?len:int -> string -> (unit, string) result
(** Feed socket bytes; decoded requests join the arrival queue.
    [Error msg] poisons the session: the stream is corrupt and the
    connection must be torn down. *)

val take : t -> Wire.request array
(** Form a round: the oldest at-most-[window] queued requests, in
    arrival order ([[||]] when idle).  Requests queued beyond the
    window are shed — they will be answered [Busy] by {!complete}.
    Raises {!Ei_util.Invariant.Broken} if the previous round was not
    completed. *)

val complete : t -> Wire.status array -> unit
(** Complete the in-flight round with its positional statuses: queue
    one reply per round slot (in order), then one [Busy] per shed
    request.  Raises {!Ei_util.Invariant.Broken} on a status count
    mismatch. *)

val out_take : t -> max:int -> string
val out_pending : t -> int
(** Outgoing bytes, via {!Conn.writer_take} / {!Conn.writer_pending}. *)

val queued : t -> int
val shed_count : t -> int
val replied_count : t -> int
val error : t -> string option
