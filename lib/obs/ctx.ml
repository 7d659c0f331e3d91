(* ei_obs span context: the causal identity a request carries across
   domains.

   A context is three small ints — a trace id naming the whole client
   request, a span id naming the current stage, and the parent span id
   linking back one stage.  Contexts are minted from one global atomic
   counter (cold: only when tracing is live) and installed into a
   per-domain mutable cell, so propagation is three field stores with
   no allocation: the client mints a root context in [Serve.exec],
   freezes its ids into the enqueued sub, and the shard executor
   re-installs a child context before applying the sub.  {!Trace.write}
   reads the ambient cell on every emission, stamping each ring event
   with whatever request is in flight on that domain — which is how a
   WAL group commit or an elastic conversion joins the flow of the
   request that triggered it without any plumbing of its own. *)

type t = { trace : int; span : int; parent : int }

(* Ids are process-global so a span id never collides across domains;
   0 is reserved for "no context". *)
let next = Atomic.make 1
let fresh () = Atomic.fetch_and_add next 1

type cell = {
  mutable c_trace : int;
  mutable c_span : int;
  mutable c_parent : int;
}
[@@ei.single_domain]

let cell_key =
  Domain.DLS.new_key (fun () -> { c_trace = 0; c_span = 0; c_parent = 0 })

let cell () = Domain.DLS.get cell_key

let mint () =
  let id = fresh () in
  { trace = id; span = id; parent = 0 }

let child t = { trace = t.trace; span = fresh (); parent = t.span }

let set t =
  let c = cell () in
  c.c_trace <- t.trace;
  c.c_span <- t.span;
  c.c_parent <- t.parent

let set_child ~trace ~parent =
  let c = cell () in
  c.c_trace <- trace;
  c.c_span <- fresh ();
  c.c_parent <- parent

let clear () =
  let c = cell () in
  c.c_trace <- 0;
  c.c_span <- 0;
  c.c_parent <- 0

let current () =
  let c = cell () in
  { trace = c.c_trace; span = c.c_span; parent = c.c_parent }

let current_trace () = (cell ()).c_trace
