(** ei_obs span context: the causal identity a request carries across
    domains.

    A context names a client request ([trace]), the current stage of
    its journey ([span]) and the stage that caused it ([parent]).  The
    ambient context lives in a per-domain mutable cell; {!Trace}
    stamps every ring event with it, so installing a context before a
    section is all it takes for that section's events — including
    nested WAL commits and elastic conversions — to join the request's
    flow in the exported Perfetto view.

    Minting draws from a global atomic counter and is meant to be
    gated on {!Trace.enabled}; id 0 means "no context". *)

type t = { trace : int; span : int; parent : int }

val mint : unit -> t
(** A fresh root context: new trace id, [span = trace], no parent. *)

val child : t -> t
(** Same trace, fresh span id, parent = the given context's span. *)

val set : t -> unit
(** Install as this domain's ambient context (three field stores). *)

val set_child : trace:int -> parent:int -> unit
(** Install a fresh child span of [(trace, parent)] as the ambient
    context without allocating — the shard-executor fast path. *)

val clear : unit -> unit

val current : unit -> t

val current_trace : unit -> int
(** Ambient trace id, 0 when none — non-allocating; what histogram
    exemplars record. *)

(**/**)

type cell = private {
  mutable c_trace : int;
  mutable c_span : int;
  mutable c_parent : int;
}

val cell : unit -> cell
(** The domain-local context cell, for {!Trace.write}'s single read. *)
