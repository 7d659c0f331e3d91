(* Deterministic, seed-driven fault injection.

   Robustness work needs failure to be a first-class, reproducible
   input — the FoundationDB discipline: a fault that cannot be replayed
   from a seed cannot be debugged.  Every place in the system that can
   fail registers a named *site*; a run-wide plan maps site names to
   firing probabilities; each site draws from its own splitmix64 stream
   derived from [(seed, Fnv.hash name)], so

   - the schedule is a pure function of the seed and the per-site call
     sequence (never of wall-clock time or domain interleaving), and
   - sites are decorrelated: changing one site's traffic does not shift
     any other site's schedule.

   When no plan is configured ([clear], the initial state) every site
   is a single atomic load — production paths pay one branch.

   Site naming convention: ["<kind>.<instance>"], e.g.
   ["serve.crash.shard3"] or ["queue.drop.shard0"], so a plan entry can
   name one instance exactly or a whole kind by dot-bounded prefix
   (["serve.crash" = 0.001] arms every shard's crash site). *)

module Rng = Ei_util.Rng
module Strtbl = Ei_util.Strtbl
module Fnv = Ei_util.Fnv
module Trace = Ei_obs.Trace
module Flight = Ei_obs.Flight
module Json = Ei_util.Mini_json

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected site -> Some ("Fault.Injected: " ^ site)
    | _ -> None)

type site = {
  name : string;
  lock : Mutex.t;
      (* Serialises draws at one site.  Per-site call order is the
         determinism unit: sites hit from a single domain (the common
         case — each shard's sites live in that shard's domain) replay
         exactly; a site shared across domains is deterministic only in
         aggregate. *)
  mutable rng : Rng.t [@ei.guarded_by "lock"];
  mutable prob : float [@ei.guarded_by "lock"];
  mutable calls : int [@ei.guarded_by "lock"];
  mutable fired : int [@ei.guarded_by "lock"];
  ev : int;  (* trace-event kind for this site's draws *)
}

(* --- Global plan ----------------------------------------------------- *)

let active = Atomic.make false
let registry_lock = Mutex.create ()
let[@ei.guarded_by "registry_lock"] registry : site Strtbl.t =
  Strtbl.create 64

let[@ei.guarded_by "registry_lock"] plan : (string * float) list ref = ref []
let[@ei.guarded_by "registry_lock"] plan_seed = ref 0

(* A plan key matches a site name when its dot-separated segments are a
   prefix of the name's, with ["*"] matching any one segment:
   ["serve.crash"] and ["serve.crash.*"] both arm
   ["serve.crash.shard3"]; ["serve.queue.*.drop"] arms every shard's
   drop site. *)
let matches ~key name =
  let rec go ks ns =
    match (ks, ns) with
    | [], _ -> true
    | _ :: _, [] -> false
    | k :: ks', n :: ns' ->
      (String.equal k "*" || String.equal k n) && go ks' ns'
  in
  go (String.split_on_char '.' key) (String.split_on_char '.' name)

let prob_of name =
  List.fold_left
    (fun acc (key, p) -> if matches ~key name then p else acc)
    0.0 !plan

let reset_site s =
  s.rng <- Rng.stream !plan_seed (Fnv.hash s.name);
  s.prob <- prob_of s.name;
  s.calls <- 0;
  s.fired <- 0

let configure ~seed bindings =
  Mutex.lock registry_lock;
  plan := bindings;
  plan_seed := seed;
  Strtbl.iter (fun _ s -> reset_site s) registry;
  Atomic.set active (match bindings with [] -> false | _ :: _ -> true);
  Mutex.unlock registry_lock

let clear () = configure ~seed:0 []

let enabled () = Atomic.get active

let site name =
  Mutex.lock registry_lock;
  let s =
    match Strtbl.find_opt registry name with
    | Some s -> s
    | None ->
      let s =
        {
          name;
          lock = Mutex.create ();
          rng = Rng.create 0;
          prob = 0.0;
          calls = 0;
          fired = 0;
          ev =
            Trace.define ~cat:"fault" ~arg0:"fired" ~arg1:"call"
              ("fault." ^ name);
        }
      in
      reset_site s;
      Strtbl.add registry name s;
      s
  in
  Mutex.unlock registry_lock;
  s

(* --- Scheduler tap ---------------------------------------------------- *)

(* A simulation harness may install a *tap*: a callback invoked with the
   site name at every {!point} and at the entry of every {!fire}.  The
   tap is how ei_sim turns fault sites into preemption points — it may
   suspend the caller (an effect handler parks the fiber), so it must be
   invoked while holding no Fault mutex.  Without a tap, a point is a
   single atomic load, same as an inert fire. *)

let tap : (string -> unit) option Atomic.t = Atomic.make None

let set_tap f = Atomic.set tap f

let tapped name =
  match Atomic.get tap with None -> () | Some f -> f name

let point s = tapped s.name

(* --- Flight-recorder draw ring ---------------------------------------- *)

(* The last [draw_cap] draws, recorded only while the flight recorder is
   armed (one extra atomic load per fire otherwise) and handed to it as
   a dump section: a chaos failure's artifact then names exactly which
   injected faults preceded it, in draw order. *)
let draw_cap = 512
let draw_lock = Mutex.create ()
let[@ei.guarded_by "draw_lock"] draw_ring : (string * bool * int * int) array =
  Array.make draw_cap ("", false, 0, 0)

let[@ei.guarded_by "draw_lock"] draw_cursor = ref 0

let record_draw s ~hit ~call =
  if Flight.armed () then begin
    let ts = Ei_util.Bench_clock.now_ns () in
    Mutex.lock draw_lock;
    draw_ring.(!draw_cursor mod draw_cap) <- (s.name, hit, call, ts);
    incr draw_cursor;
    Mutex.unlock draw_lock
  end

let () =
  Flight.register_section "fault_draws" (fun () ->
      Mutex.lock draw_lock;
      let n = !draw_cursor in
      let first = if n > draw_cap then n - draw_cap else 0 in
      let out = ref [] in
      for d = n - 1 downto first do
        let name, hit, call, ts = draw_ring.(d mod draw_cap) in
        out :=
          Json.Obj
            [
              ("site", Json.Str name);
              ("fired", Json.Bool hit);
              ("call", Json.Int call);
              ("ts_ns", Json.Int ts);
            ]
          :: !out
      done;
      Mutex.unlock draw_lock;
      Json.List !out)

(* --- Firing ---------------------------------------------------------- *)

let fire s =
  tapped s.name;
  if not (Atomic.get active) then false
  else begin
    Mutex.lock s.lock;
    s.calls <- s.calls + 1;
    let hit =
      Float.compare s.prob 0.0 > 0
      && Float.compare (Rng.float s.rng) s.prob < 0
    in
    if hit then s.fired <- s.fired + 1;
    let call = s.calls in
    Mutex.unlock s.lock;
    (* Every draw is a trace event, so a chaos run's timeline shows the
       exact interleaving of injected failures with the work around
       them.  Recorded outside the site lock: [call] is the draw's
       deterministic sequence number either way. *)
    Trace.emit s.ev (if hit then 1 else 0) call;
    record_draw s ~hit ~call;
    hit
  end

let inject s = if fire s then raise (Injected s.name)

let name s = s.name

let stats () =
  Mutex.lock registry_lock;
  let rows =
    Strtbl.fold (fun _ s acc -> (s.name, s.calls, s.fired) :: acc) registry []
  in
  Mutex.unlock registry_lock;
  List.sort
    (fun (a, _, _) (b, _, _) -> String.compare a b)
    (List.filter (fun (_, calls, _) -> calls > 0) rows)

(* --- Plan parsing (CLI support) -------------------------------------- *)

(* "site=prob,site=prob" — e.g. "serve.crash=0.0005,queue.drop=0.01". *)
let parse_plan spec =
  let entries = String.split_on_char ',' (String.trim spec) in
  let rec build acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> build acc rest
    | entry :: rest -> (
      match String.index_opt entry '=' with
      | None -> Error (Printf.sprintf "fault plan entry %S: expected site=prob" entry)
      | Some i ->
        let key = String.trim (String.sub entry 0 i) in
        let v = String.trim (String.sub entry (i + 1) (String.length entry - i - 1)) in
        (match (key, float_of_string_opt v) with
        | "", _ -> Error (Printf.sprintf "fault plan entry %S: empty site name" entry)
        | _, None -> Error (Printf.sprintf "fault plan entry %S: bad probability %S" entry v)
        | key, Some p when Float.compare p 0.0 >= 0 && Float.compare p 1.0 <= 0 ->
          build ((key, p) :: acc) rest
        | _, Some p ->
          Error (Printf.sprintf "fault plan entry %S: probability %g not in [0, 1]" entry p)))
  in
  build [] entries
