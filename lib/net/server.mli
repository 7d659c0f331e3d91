(** Wire-protocol network front end over the sharded serving layer.

    {!start} binds a Unix or TCP socket and spawns an accept loop on
    its own domain; each accepted connection gets a handler domain
    running the pure {!Session} engine: decoded requests are coalesced
    — at most [window] per round — into one {!Ei_shard.Serve.exec}
    batch whose positional outcomes preserve per-connection order, and
    requests pipelined beyond the window are answered {!Wire.Busy}
    (surfaced as the [net.shed] counter) instead of buffered
    unboundedly.

    {b Outcome mapping} (the net-facing contract of [Serve.exec]):
    every request decoded from a surviving connection gets exactly one
    typed reply — [Applied], [Rejected] (transient fault, retryable),
    [Timed_out] (deadline or shard crash; may or may not have
    applied) or [Busy].  A shard crash or quarantine mid-pipeline
    settles the batch's unacknowledged slots as [Timed_out]; it never
    drops a reply or a connection.  A key whose length does not match
    the server's row table is answered [Rejected] without being
    submitted (it must not reach the single-writer append).  Only a
    corrupt frame tears a connection down ([net.protocol_errors]).

    Observability: [net.accepted] / [net.requests] / [net.shed] /
    [net.protocol_errors] counters, [net.connections] gauge,
    [net.batch_ns] / [net.request_ns] / [net.conn_ns] histograms, and
    a [net.request] span rooting each round's causal flow — with
    tracing on, one client op renders as net.request → serve.request →
    serve.sub → olc.multi_find → wal.commit in the Perfetto view. *)

type config = {
  window : int;
      (** per-connection pipelining window: both the per-round batch
          cap and the queue-depth threshold past which requests are
          shed with [Busy] *)
  read_chunk : int;  (** max bytes pulled off a socket per round *)
  exec_timeout_s : float option;
      (** [Serve.exec] deadline; expired slots reply [Timed_out] *)
  backlog : int;  (** [listen(2)] backlog *)
}

val default_config : config
(** window 256, 64 KiB reads, 5 s exec deadline, backlog 64. *)

type t

val start :
  ?config:config ->
  serve:Ei_shard.Serve.t ->
  table:Ei_storage.Table.t ->
  Unix.sockaddr ->
  t
(** Bind, listen and serve.  [table] is the fleet's row table: inserts
    and updates append rows server-side (appends are serialised — the
    table is single-writer), so row ids never cross the wire.  A stale
    Unix-socket path is removed before binding; TCP sockets set
    [SO_REUSEADDR].  Sets the process SIGPIPE disposition to ignore
    (a vanished peer must surface as [EPIPE], not kill the process).
    Handler domains are joined at {!stop}; their slots are retained
    until then, so a server outliving very many connections should be
    restarted by era. *)

val stop : t -> unit
(** Graceful drain: close the listener, join the acceptor, shut down
    every live connection's read side — each handler answers its
    already-decoded requests, flushes, and exits — then join the
    handlers.  No in-flight request loses its reply.  Idempotent. *)

val addr : t -> Unix.sockaddr
(** The bound address (a TCP bind to port 0 reports the real port). *)

val stats : unit -> int * int * int
(** Process-wide [(requests, shed, protocol_errors)] counter values
    (0s unless {!Ei_obs.Metrics} is enabled). *)
