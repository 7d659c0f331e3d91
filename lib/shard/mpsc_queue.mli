(** Bounded multi-producer single-consumer queue (blocking, batched).

    The per-shard request queue of the serving layer.  Producers block
    while the queue is full (backpressure), the consumer blocks while it
    is empty and drains in batches.  Closing is race-safe against
    blocked producers: they wake and raise {!Closed} instead of waiting
    for space that will never appear. *)

exception Closed
(** Raised by {!push} when the queue is (or behaves as if) closed. *)

type 'a t

val create : ?fault_prefix:string -> capacity:int -> unit -> 'a t
(** A queue holding up to [capacity] elements; requires [capacity > 0].
    [fault_prefix] registers the {!Ei_fault.Fault} sites
    [<prefix>.drop] (element lost after admission), [<prefix>.delay]
    (push stalled ~1 ms) and [<prefix>.refuse] (push raises {!Closed}
    as if the queue were closed). *)

val push : ?inject:bool -> 'a t -> 'a -> unit
(** Enqueue, blocking while the queue is full.  Raises {!Closed} if the
    queue was closed before admission — including while blocked on a
    full queue.  [inject:false] (default [true]) bypasses the fault
    sites: recovery retries must not re-draw the fault streams.
    Injecting pushes draw refuse first (a refused push draws nothing
    else), then delay and drop — always in that pattern, regardless of
    the queue's state, so per-site call counts are a pure function of
    the fault streams.  The serving layer pushes only to a shard that
    is ready, so every injecting push is one draw of that pattern. *)

val pop_batch : 'a t -> max:int -> 'a list
(** Dequeue up to [max] elements in FIFO order, blocking while the
    queue is empty.  [[]] iff the queue is closed and fully drained —
    the consumer's termination signal. *)

val close : 'a t -> unit
(** Reject future pushes and wake all waiters (blocked pushes raise
    {!Closed}); queued elements remain poppable. *)

val length : 'a t -> int
(** Current number of queued elements (racy under concurrency). *)
