(* Domain-per-shard serving layer with a global elastic memory
   coordinator and a self-healing shard supervisor.

   Each shard of a {!Shard.t} is owned by exactly one domain, which
   drains a bounded MPSC request queue in batches and applies the
   operations to its part — exclusive ownership makes every sequential
   registry index domain-safe behind the queue, with no locks on the
   index itself.  Clients partition an operation batch by shard
   ({!exec}), enqueue one sub-batch per shard, and block on a shared
   waiter until every sub-batch has been applied.  Scans that exhaust a
   shard continue into the next one in follow-up rounds (the partition
   is monotone in key order).

   The coordinator lifts the paper's elasticity policy from one tree to
   the fleet: a background domain periodically reads each shard's
   published size (shard domains store it into an [Atomic] after every
   drained batch) and re-splits one global soft bound across the shards
   — [demand_weight] of the budget proportionally to current sizes, the
   rest evenly, floored at [min_fraction] of the even share — delivering
   the new per-shard bounds as control messages through the same queues.
   Hot shards keep more standard leaves; cold shards compact first.

   The supervisor (optional) makes the fleet self-healing.  A shard
   domain that dies — a crash escaping the batch loop, or structural
   poison surfacing as [Invariant.Broken] — parks its exception in a
   per-shard slot; a heartbeat counter bumped after every drained batch
   is the backstop for a wedged domain that stops making progress
   without dying.  The supervisor domain polls both signals and runs
   the recovery sequence: quarantine the shard (reads degrade to direct
   single-threaded access under the quarantine lock; writes retry with
   exponential backoff until recovery or their deadline), close and
   drain the dead queue (failing the pending sub-batches so clients
   observe [Timed_out] rather than hanging), rebuild the part from the
   {!Ei_storage.Table} row table — the source of truth for acknowledged
   writes: shard domains maintain per-row liveness as they apply —
   re-spawn the domain on a fresh queue, and re-admit the shard.  A
   per-operation generation fence keeps an abandoned wedged domain from
   applying or acknowledging anything if it ever wakes: it stops within
   one op, never touches the replacement part (each domain captures its
   part at spawn), and completes — without applying — any waiters it
   raced away from the supervisor's drain.

   Fault injection: [start ~fault_prefix:p] arms {!Ei_fault.Fault}
   sites [p.crash.shard<i>] (domain dies mid-batch),
   [p.poison.shard<i>] (domain raises [Invariant.Broken]) and the
   queue sites [p.queue.shard<i>.{drop,delay,refuse}].  All are inert
   until a fault plan is configured. *)

module Index_ops = Ei_harness.Index_ops
module Fault = Ei_fault.Fault
module Table = Ei_storage.Table
module Invariant = Ei_util.Invariant
module Metrics = Ei_obs.Metrics
module Trace = Ei_obs.Trace
module Ctx = Ei_obs.Ctx
module Flight = Ei_obs.Flight
module Clock = Ei_util.Bench_clock
module Wal = Ei_wal.Wal

(* --- Observability (shared across fleets) ----------------------------- *)

let h_batch = Metrics.histogram "serve.batch_ns"
let h_queue_depth = Metrics.histogram "serve.queue_depth"
let c_recoveries = Metrics.counter "serve.recoveries"

(* Per-shard op-mix counters for the telemetry timeline: interned lazily
   per shard index (cold, on fleet start), bumped once per applied op.
   The scan counter against the read/write split is what lets a
   timeline frame reconstruct each shard's workload mix. *)
type shard_mix = {
  mx_reads : Metrics.counter;
  mx_writes : Metrics.counter;
  mx_scans : Metrics.counter;
}

let shard_mix i =
  let n k = Printf.sprintf "serve.shard%d.%s" i k in
  {
    mx_reads = Metrics.counter (n "reads");
    mx_writes = Metrics.counter (n "writes");
    mx_scans = Metrics.counter (n "scans");
  }

let g_shard_queue i = Metrics.gauge (Printf.sprintf "serve.shard%d.queue_depth" i)

(* One span per drained batch, on the shard domain's own track. *)
let ev_batch = Trace.define ~span:true ~arg1:"ops" ~cat:"serve" "serve.batch"

(* Causal request flow: [serve.request] covers one client [exec] on the
   submitting domain and roots the trace; [serve.sub] covers one
   sub-batch's application on its shard domain as a child span; the
   [serve.ack] instant marks results scattered back.  Tree descents and
   WAL commits nested under a sub inherit its ambient {!Ctx}. *)
let ev_request =
  Trace.define ~span:true ~arg1:"ops" ~cat:"serve" "serve.request"

let ev_sub = Trace.define ~span:true ~arg1:"ops" ~cat:"serve" "serve.sub"
let ev_ack = Trace.define ~cat:"serve" ~arg0:"ops" "serve.ack"

let ev_quarantine =
  Trace.define ~cat:"serve" ~arg0:"shard" "serve.quarantine"

let ev_rebuild =
  Trace.define ~cat:"serve" ~arg0:"shard" ~arg1:"rows" "serve.rebuild"

let ev_readmit = Trace.define ~cat:"serve" ~arg0:"shard" "serve.readmit"

type op =
  | Insert of string * int
  | Remove of string
  | Update of string * int
  | Find of string
  | Scan of string * int

type outcome = Applied of int | Rejected | Timed_out

exception Crashed of string

let () =
  Printexc.register_printer (function
    | Crashed site -> Some ("Serve.Crashed: " ^ site)
    | _ -> None)

(* In-flight results are ints — Insert/Remove/Update 1 = applied, 0 =
   not; Find the tid or -1; Scan the visited count — with two sentinel
   codes no real result can collide with (tids are non-negative row
   ids): a slot still holding [pending_code] when the client's wait
   ends was never applied ([Timed_out]); [rejected_code] marks a
   transient injected fault ([Rejected]). *)
let pending_code = min_int
let rejected_code = min_int + 1

type waiter = {
  wlock : Mutex.t;
  wcond : Condition.t;
  (* sub-batches not yet applied *)
  mutable pending : int [@ei.guarded_by "wlock"];
}

type sub = {
  (* [sops] and [dest] are filled by the submitting client before the
     sub-batch is enqueued and never written afterwards; the queue's
     lock publishes them to the shard domain. *)
  sops : op array [@ei.guarded_by "queue handoff (frozen after enqueue)"];
  dest : int array [@ei.guarded_by "queue handoff (frozen after enqueue)"];
  (* result slots are written by the shard domain and read by the client
     only after [waiter.pending] reaches zero under [wlock] *)
  results : int array [@ei.guarded_by "waiter.wlock"];
  collect : (string -> unit) option;  (* scan_keys sink *)
  waiter : waiter;
  (* span context frozen at submit: the root trace id and the span to
     parent the shard-side work under (both 0 when tracing is off) *)
  tctx : int;
  tspan : int;
}

type msg = Work of sub | Set_bound of int

type coordinator_config = {
  global_bound : int;  (* bytes, split across the fleet *)
  interval_s : float;  (* seconds between rebalances *)
  demand_weight : float;  (* fraction of budget split by current size *)
  min_fraction : float;  (* per-shard floor, as fraction of even share *)
}

let default_coordinator ~global_bound =
  {
    global_bound;
    interval_s = 0.05;
    demand_weight = 0.5;
    min_fraction = 0.5;
  }

type supervisor_config = {
  table : Table.t;  (* row table: rebuild source of truth *)
  rebuild : int -> Index_ops.t;  (* fresh, empty part for shard [i] *)
  poll_interval_s : float;  (* seconds between supervisor passes *)
  stall_timeout_s : float;  (* heartbeat silence that means wedged *)
}

let default_supervisor ~table ~rebuild =
  { table; rebuild; poll_interval_s = 0.002; stall_timeout_s = 1.0 }

(* Shard status: running (clients enqueue) or quarantined (reads go
   direct under [qlock], writes back off until recovery). *)
let st_running = 0
let st_quarantined = 1

type shard_faults = { crash : Fault.site; poison : Fault.site }

type shard_state = {
  queue : msg Mpsc_queue.t Atomic.t;  (* swapped at every recovery *)
  status : int Atomic.t;
  gen : int Atomic.t;  (* bumped per recovery; fences out zombies *)
  heartbeat : int Atomic.t;  (* bumped per drained batch *)
  failed : (int * exn) option Atomic.t;
  (* failure parked by a dying domain, tagged with its generation: the
     supervisor acts only on current-generation failures *)
  qlock : Mutex.t;  (* quarantined direct access vs. rebuild *)
  mix : shard_mix;  (* per-shard op-mix counters (timeline input) *)
  qdepth : Metrics.gauge;  (* queue depth at last batch drain *)
  faults : shard_faults option;
  wal_faults : Wal.faults option;
  (* the WAL writer the shard domain currently owns (captured at spawn,
     like the part); this slot is supervisor / stop only, like [domain] *)
  mutable wal : Wal.writer option [@ei.single_domain];
  (* supervisor / stop only *)
  mutable domain : unit Domain.t option [@ei.single_domain];
  (* wedged, never joined; supervisor-only like [domain] *)
  mutable abandoned : unit Domain.t list [@ei.single_domain];
}

type recovery = {
  r_shard : int;
  r_cause : string;  (* printed exception, or the wedge diagnosis *)
  r_rows : int;  (* live rows reinserted from the table *)
}

type t = {
  router : Shard.t;
  shards : shard_state array [@ei.guarded_by "frozen after create"];
  sizes : int Atomic.t array;  (* published by shard domains *)
  batches : int Atomic.t;  (* sub-batches applied, fleet-wide *)
  rebalances : int Atomic.t;
  recoveries_n : int Atomic.t;
  coordinator : coordinator_config option;
  supervisor : supervisor_config option;
  timeout_s : float option;  (* default exec deadline *)
  batch : int;
  queue_capacity : int;
  fault_prefix : string option;
  wal_cfg : Wal.config option;
  wal_restore : (tid:int -> key:string -> unit) option;
  wal_boot : (int * Wal.recovery) list;  (* start-time recovery reports *)
  stopping : bool Atomic.t;
  log_lock : Mutex.t;
  (* newest first *)
  mutable log : recovery list [@ei.guarded_by "log_lock"];
  (* coordinator + supervisor; written by create/stop only *)
  mutable aux : unit Domain.t list [@ei.single_domain];
}

let now () = Unix.gettimeofday ()

(* --- Shard domains --------------------------------------------------- *)

let apply (ix : Index_ops.t) collect op =
  match op with
  | Insert (k, tid) -> if ix.Index_ops.insert k tid then 1 else 0
  | Remove k -> if ix.Index_ops.remove k then 1 else 0
  | Update (k, tid) -> if ix.Index_ops.update k tid then 1 else 0
  | Find k -> ( match ix.Index_ops.find k with Some tid -> tid | None -> -1)
  | Scan (k, n) -> (
    match collect with
    | Some visit -> ix.Index_ops.scan_keys k n visit
    | None -> ix.Index_ops.scan k n)

(* Supervised apply additionally maintains per-row liveness in the row
   table, keeping it the source of truth a recovery rebuilds from.  An
   op marks only after the index accepted it, so a row is never live
   without having been applied; removes and updates look the old tid up
   first because the index is the only map from key to tid. *)
let apply_logged table (ix : Index_ops.t) collect op =
  match op with
  | Insert (k, tid) ->
    if ix.Index_ops.insert k tid then begin
      Table.mark_live table tid;
      1
    end
    else 0
  | Remove k ->
    let prev = ix.Index_ops.find k in
    if ix.Index_ops.remove k then begin
      (match prev with
      | Some tid -> Table.mark_dead table tid
      | None -> ());
      1
    end
    else 0
  | Update (k, tid) ->
    let prev = ix.Index_ops.find k in
    if ix.Index_ops.update k tid then begin
      (match prev with
      | Some old when old <> tid -> Table.mark_dead table old
      | Some _ | None -> ());
      Table.mark_live table tid;
      1
    end
    else 0
  | Find _ | Scan _ -> apply ix collect op

let complete w =
  Mutex.lock w.wlock;
  w.pending <- w.pending - 1;
  if w.pending = 0 then Condition.signal w.wcond;
  Mutex.unlock w.wlock

(* Park a failure for the supervisor, tagged with the dying domain's
   generation.  Same-or-newer parked failures are never overwritten: an
   abandoned zombie dying late can neither trigger a spurious recovery
   of its healthy replacement nor clobber the replacement's own parked
   failure.  (The supervisor clears stale-generation parks.) *)
let yp_park = Fault.site "serve.yield.park"

let rec park st ~gen e =
  match Atomic.get st.failed with
  | Some (g, _) when g >= gen -> ()
  | cur ->
    if not (Atomic.compare_and_set st.failed cur (Some (gen, e))) then begin
      (* Preemption point on the CAS-retry edge so the schedule
         explorer can interleave two domains racing to park. *)
      Fault.point yp_park;
      park st ~gen e
    end

exception Stale_generation

(* Apply one sub-batch.  [part] is this domain's own part, captured
   once at spawn: a domain must never re-read [Shard.parts] — after a
   recovery swaps in a fresh part, an abandoned zombie re-reading the
   array would mutate its single-owner replacement concurrently with
   the new domain.  The generation fence is re-checked before every
   operation, so a wedged domain that wakes mid-batch stops applying
   (and stops drawing fault sites) within one operation.

   Per operation: fence, then draw the crash and poison sites (either
   escapes the loop and kills the domain — the crash as a distinct
   exception, the poison as [Invariant.Broken], i.e. the signature of
   real structural corruption); then apply, absorbing a transient
   {!Fault.Injected} from the part itself as a rejected op. *)
let yp_op = Fault.site "serve.yield.op"
let yp_submit = Fault.site "serve.yield.submit"
let yp_rebuild = Fault.site "serve.yield.rebuild"

let shard_apply t i ~gen (st : shard_state) part ~wal ~defer sub =
  let n = Array.length sub.sops in
  (* Re-root the client's span context on this shard domain: everything
     the apply emits below — grouped descents, elastic conversions, the
     batch's WAL commit — carries the request's trace id.  The op-mix
     counters feed the telemetry timeline's per-shard frames. *)
  let tsub = Trace.start () in
  if tsub > 0 && sub.tctx <> 0 then
    Ctx.set_child ~trace:sub.tctx ~parent:sub.tspan;
  if Metrics.enabled () then
    Array.iter
      (function
        | Find _ -> Metrics.incr st.mix.mx_reads
        | Scan _ -> Metrics.incr st.mix.mx_scans
        | Insert _ | Remove _ | Update _ -> Metrics.incr st.mix.mx_writes)
      sub.sops;
  (* With a WAL, outcomes are group-committed: every result is deferred
     into [defer] and scattered to its slot only after [Wal.commit]
     succeeds at the batch boundary, so no outcome — not even one read
     by a client whose deadline expired mid-batch — is observable
     before the batch is durable.  Without a WAL the deferral is one
     [None] branch per result (the append-site cost of durability
     off). *)
  let put s v =
    match defer with
    | None -> sub.results.(s) <- v
    | Some buf -> buf := (sub.results, s, v) :: !buf
  in
  (* An accepted mutation is framed into the WAL buffer right after the
     index applied it; rejected or no-op outcomes (r <> 1) log nothing,
     so replay re-applies exactly the accepted writes.  [Wal.log_*]
     raises [Died] on a fenced writer, killing the batch like any other
     domain death. *)
  let log_write j r =
    match wal with
    | None -> ()
    | Some w ->
      if r = 1 then (
        match sub.sops.(j) with
        | Insert (k, tid) -> Wal.log_insert w k tid
        | Remove k -> Wal.log_remove w k
        | Update (k, tid) -> Wal.log_update w k tid
        | Find _ | Scan _ -> ())
  in
  let apply_one j =
    let r =
      try
        match t.supervisor with
        | Some scfg -> apply_logged scfg.table part sub.collect sub.sops.(j)
        | None -> apply part sub.collect sub.sops.(j)
      with Fault.Injected _ -> rejected_code
    in
    log_write j r;
    put sub.dest.(j) r
  in
  (* Runs of consecutive point reads are deferred and flushed as one
     grouped [multi_find], stable-sorted by key first so the group
     descent shares upper-level nodes (sorted neighbours take the same
     root-to-leaf path prefix).  Only reads are ever reordered, and
     only with other reads of the same run — a read never crosses a
     write in either direction, so each read still observes exactly
     the writes that preceded it in submission order.  Acks stay
     order-correct because results are slot-addressed: every op
     carries its client slot in [dest] (frozen before enqueue), each
     result is scattered to its own slot, and the waiter completes
     only after the whole sub-batch — clients never observe the
     in-batch application order, only the filled slots. *)
  let run = ref [] in
  let run_len = ref 0 in
  let flush () =
    (match !run with
    | [] -> ()
    | [ j ] -> apply_one j
    | rev ->
      let key_at j =
        match sub.sops.(j) with
        | Find k -> k
        | _ -> Ei_util.Invariant.impossible "serve: non-read in read run"
      in
      (* Sort by a 63-bit immediate prefix of each key (precomputed
         once per element), so almost every comparison is an int
         compare; only prefix ties pay the full key comparison. *)
      let tagged = Array.make !run_len (0, 0) in
      let l = ref rev in
      for x = !run_len - 1 downto 0 do
        (match !l with
        | j :: tl ->
          tagged.(x) <- (Ei_util.Key.sort_prefix (key_at j), j);
          l := tl
        | [] -> Ei_util.Invariant.impossible "serve: read-run length drift")
      done;
      Array.stable_sort
        (fun ((pa : int), a) ((pb : int), b) ->
          if pa = pb then Ei_util.Key.compare_fast (key_at a) (key_at b)
          else Int.compare pa pb)
        tagged;
      let keys = Array.map (fun (_, j) -> key_at j) tagged in
      (match part.Index_ops.multi_find keys with
      | rs ->
        Array.iteri
          (fun x (_, j) ->
            put sub.dest.(j)
              (match rs.(x) with Some tid -> tid | None -> -1))
          tagged
      | exception Fault.Injected _ ->
        (* The grouped call cannot tell which keys it served before
           the injected fault, so the run falls back to per-key
           applies, each absorbing its own draw as a rejected op. *)
        Array.iter (fun (_, j) -> apply_one j) tagged));
    run := [];
    run_len := 0
  in
  (try
     for j = 0 to n - 1 do
       (* Preemption point for the ei_sim schedule explorer: per applied
          operation, so a perturbed run can stretch the window between a
          client's submission and the shard's apply.  Inert in production
          (one atomic load). *)
       Fault.point yp_op;
       if Atomic.get st.gen <> gen then raise Stale_generation;
       (match st.faults with
       | Some f ->
         if Fault.fire f.crash then raise (Crashed (Fault.name f.crash));
         if Fault.fire f.poison then
           Invariant.brokenf "Serve: injected poison at shard %d" i
       | None -> ());
       match sub.sops.(j) with
       | Find _ ->
         run := j :: !run;
         incr run_len
       | Insert _ | Remove _ | Update _ | Scan _ ->
         flush ();
         apply_one j
     done
   with e ->
     (* Dying (crash / poison / stale generation) mid-batch: deferred
        reads were never applied — their slots keep the pending
        sentinel and the client observes [Timed_out], exactly as for
        the ops after the death point.  The sub span still closes so
        the flow view shows where the request died. *)
     run := [];
     run_len := 0;
     Trace.span ev_sub ~start_ns:tsub n;
     raise e);
  match flush () with
  | () -> Trace.span ev_sub ~start_ns:tsub n
  | exception e ->
    Trace.span ev_sub ~start_ns:tsub n;
    raise e

let shard_loop t i ~gen ?wal q =
  let st = t.shards.(i) in
  let part = (Shard.parts t.router).(i) in
  (* Complete the waiters of popped-but-unapplied work: the slots stay
     at the pending sentinel, so clients observe [Timed_out] instead of
     hanging on messages a stale domain will never apply (with no
     deadline, an uncompleted waiter would block its client forever). *)
  let fail_popped msgs =
    List.iter
      (function Work sub -> complete sub.waiter | Set_bound _ -> ())
      msgs
  in
  let rec loop () =
    match Mpsc_queue.pop_batch q ~max:t.batch with
    | [] -> ()  (* closed and drained: the domain exits *)
    | msgs ->
      (* Generation fence: a wedged domain the supervisor abandoned and
         replaced must not apply or acknowledge anything if it wakes.
         Messages it raced away from the supervisor's [drain_and_fail]
         are failed here, exactly as the supervisor would have. *)
      if Atomic.get st.gen <> gen then fail_popped msgs
      else begin
        (* Clock read gated on the master switches so the disabled-path
           cost of the batch span is one or two atomic loads. *)
        let t0 =
          if Metrics.enabled () || Trace.enabled () then Clock.now_ns ()
          else 0
        in
        if t0 <> 0 then begin
          let depth = List.length msgs + Mpsc_queue.length q in
          Metrics.observe h_queue_depth depth;
          Metrics.set_gauge st.qdepth depth
        end;
        let finish_batch () =
          (* Publish the size the coordinator rebalances from.  Every
             registry index tracks its size in O(1); the OLC trees'
             trackers are additionally safe under concurrent
             mutation. *)
          Atomic.set t.sizes.(i) (part.Index_ops.memory_bytes ());
          Atomic.incr st.heartbeat;
          ignore (Atomic.fetch_and_add t.batches (List.length msgs));
          if t0 <> 0 then begin
            Metrics.observe h_batch (Clock.now_ns () - t0);
            (* The batch span belongs to no single request: drop the
               last sub's ambient context before emitting it. *)
            Ctx.clear ();
            Trace.span ev_batch ~start_ns:t0 (List.length msgs)
          end;
          loop ()
        in
        match wal with
        | None ->
          let rec process = function
            | [] -> finish_batch ()
            | Set_bound b :: rest ->
              part.Index_ops.set_size_bound b;
              process rest
            | Work sub :: rest -> (
              match shard_apply t i ~gen st part ~wal:None ~defer:None sub with
              | () ->
                complete sub.waiter;
                process rest
              | exception Stale_generation ->
                (* Abandoned mid-batch: stop without parking — the parked
                   slot belongs to the replacement's world — and fail
                   whatever was popped but not applied. *)
                complete sub.waiter;
                fail_popped rest
              | exception e ->
                (* Dying mid-sub: park the failure before waking the
                   client — a client that observed the timeout must
                   also observe the fleet as unhealthy until recovery
                   completes — then let the exception reach the
                   supervisor.  Applied slots stand; untouched slots
                   read as timed out. *)
                park st ~gen e;
                complete sub.waiter;
                raise e)
          in
          process msgs
        | Some w ->
          (* Group commit: results and acks for the whole drained batch
             are held back until one [Wal.commit] at the end has made
             every accepted mutation durable — ack ⇒ framed + fsynced.
             If the commit (or anything before it) dies, the deferred
             results are discarded: slots keep the pending sentinel,
             clients observe [Timed_out], and the supervisor rebuilds
             the shard from disk — acknowledged and durable stay the
             same set. *)
          let defer = ref [] in
          let acked = ref [] in
          let release_acks () = List.iter complete (List.rev !acked) in
          let rec process_wal = function
            | [] -> (
              match Wal.commit w ~part with
              | () ->
                List.iter
                  (fun (res, s, v) -> res.(s) <- v)
                  (List.rev !defer);
                release_acks ();
                finish_batch ()
              | exception e ->
                (* The batch is applied in memory but not durable: wake
                   the waiters with their slots untouched (Timed_out)
                   and let the supervisor replace this part with the
                   recovered-from-disk one. *)
                Flight.trigger ~reason:"wal-commit-failure"
                  ~detail:
                    (Printf.sprintf "shard %d: %s" i (Printexc.to_string e));
                park st ~gen e;
                release_acks ();
                raise e)
            | Set_bound b :: rest -> (
              part.Index_ops.set_size_bound b;
              match Wal.log_bound w b with
              | () -> process_wal rest
              | exception e ->
                park st ~gen e;
                release_acks ();
                raise e)
            | Work sub :: rest -> (
              match shard_apply t i ~gen st part ~wal ~defer:(Some defer) sub with
              | () ->
                acked := sub.waiter :: !acked;
                process_wal rest
              | exception Stale_generation ->
                (* Abandoned mid-batch: nothing of this batch was
                   released, so waking every collected waiter with its
                   slots still pending is the usual Timed_out path. *)
                release_acks ();
                complete sub.waiter;
                fail_popped rest
              | exception e ->
                park st ~gen e;
                release_acks ();
                complete sub.waiter;
                raise e)
          in
          process_wal msgs
      end
  in
  try loop ()
  with
  | Stale_generation -> ()
  | e -> (
    park st ~gen e;
    match t.supervisor with
    | Some _ -> ()  (* the supervisor joins this domain and recovers *)
    | None -> raise e)

(* --- Coordinator ----------------------------------------------------- *)

(* Demand-weighted split of the global bound: shard i gets
   [G * (lambda * size_i / total + (1 - lambda) / n)], floored at
   [min_fraction] of the even share, then scaled so the bounds sum to
   [G].  Pure — the unit the coordinator edge-case tests drive. *)
let split_bounds cfg ~sizes =
  let n = Array.length sizes in
  if n = 0 then [||]
  else begin
    let total = Array.fold_left ( + ) 0 sizes in
    let g = float_of_int cfg.global_bound in
    let nf = float_of_int n in
    let lambda = cfg.demand_weight in
    let floor_share = cfg.min_fraction *. g /. nf in
    let raw =
      Array.map
        (fun s ->
          let share =
            if total = 0 then g /. nf
            else
              g
              *. ((lambda *. float_of_int s /. float_of_int total)
                 +. ((1. -. lambda) /. nf))
          in
          if Float.compare share floor_share < 0 then floor_share else share)
        sizes
    in
    let sum = Array.fold_left ( +. ) 0. raw in
    Array.map
      (fun r ->
        let b =
          if Float.compare sum 0. > 0 then int_of_float (r *. g /. sum)
          else int_of_float (g /. nf)
        in
        if b < 1 then 1 else b)
      raw
  end

(* Deliver through the queues so only the owning domain touches its
   index.  Control messages bypass the fault sites ([inject:false]) —
   coordinator timing is not deterministic, and must not perturb the
   workload's fault schedule.  A queue closed for recovery just misses
   this round's bound; the next pass delivers a fresh one. *)
let rebalance t cfg =
  let bounds = split_bounds cfg ~sizes:(Array.map Atomic.get t.sizes) in
  Array.iteri
    (fun i b ->
      match
        Mpsc_queue.push ~inject:false (Atomic.get t.shards.(i).queue)
          (Set_bound b)
      with
      | () -> ()
      | exception Mpsc_queue.Closed -> ())
    bounds;
  ignore (Atomic.fetch_and_add t.rebalances 1)

(* Sleep in short slices so [stop] is prompt. *)
let pause t ~slice total =
  let rec go left =
    if Float.compare left 0. > 0 && not (Atomic.get t.stopping) then begin
      Unix.sleepf (if Float.compare left slice < 0 then left else slice);
      go (left -. slice)
    end
  in
  go total

let coordinator_loop t cfg =
  while not (Atomic.get t.stopping) do
    pause t ~slice:0.01 cfg.interval_s;
    if not (Atomic.get t.stopping) then rebalance t cfg
  done

(* --- Supervisor ------------------------------------------------------ *)

let make_queue ~fault_prefix ~capacity i =
  match fault_prefix with
  | Some p ->
    Mpsc_queue.create
      ~fault_prefix:(Printf.sprintf "%s.queue.shard%d" p i)
      ~capacity ()
  | None -> Mpsc_queue.create ~capacity ()

let append_recovery t r =
  Mutex.lock t.log_lock;
  t.log <- r :: t.log;
  Mutex.unlock t.log_lock;
  Atomic.incr t.recoveries_n

(* Close the dead shard's queue — waking any producer blocked on it —
   and fail whatever was pending: completing the waiters lets clients
   observe [Timed_out] on the unapplied slots instead of hanging. *)
let drain_and_fail q =
  Mpsc_queue.close q;
  let rec go () =
    match Mpsc_queue.pop_batch q ~max:64 with
    | [] -> ()
    | msgs ->
      List.iter
        (function Work sub -> complete sub.waiter | Set_bound _ -> ())
        msgs;
      go ()
  in
  go ()

(* The recovery sequence: quarantine, fence, reap, fail pending work,
   rebuild from the row table, swap part and queue, re-spawn, re-admit.
   Runs on the supervisor domain only. *)
let recover t scfg i ~cause =
  let st = t.shards.(i) in
  (* The quarantine lock is taken before the quarantine is published:
     a client that observes [st_quarantined] and degrades to a direct
     read then blocks on [qlock] until the rebuild below has swapped in
     the fresh part, so degraded reads always see post-recovery state —
     never the dying part mid-autopsy.  (Besides never exposing a
     half-built or poisoned part, this keeps degraded-read results a
     pure function of the acknowledged writes, which the deterministic
     chaos soak relies on.) *)
  Mutex.lock st.qlock;
  Atomic.set st.status st_quarantined;
  Trace.instant ~a:i ev_quarantine;
  Flight.trigger ~reason:"shard-quarantine"
    ~detail:(Printf.sprintf "shard %d: %s" i cause);
  Atomic.incr st.gen;
  (* Whether the old domain can be joined decides how its WAL writer is
     retired below: joined ⇒ the domain is gone, the descriptor can be
     closed ([dispose]); abandoned (wedged, [st.domain] already cleared
     by the supervisor pass) ⇒ fence only — closing the fd under a
     zombie could let the OS recycle it for the replacement's segment
     and misdirect a zombie write into the new log. *)
  let joined = st.domain <> None in
  (match st.domain with Some d -> Domain.join d | None -> ());
  st.domain <- None;
  drain_and_fail (Atomic.get st.queue);
  let fresh = scfg.rebuild i in
  let rows = ref 0 in
  (match t.wal_cfg with
  | Some wcfg ->
    (* Durable shard: the WAL, not the row table, is the recovery source
       of truth — rebuild exactly what was framed and fsynced, the same
       state a fresh process would recover.  (The in-memory part may be
       ahead of the log by the batch whose commit died; those ops were
       never acknowledged, so dropping them here is the contract, not a
       loss.) *)
    (match st.wal with
    | Some oldw -> if joined then Wal.dispose oldw else Wal.fence oldw
    | None -> ());
    let w, r =
      Wal.recover ?faults:st.wal_faults ?restore:t.wal_restore wcfg
        ~shard:i ~part:fresh
    in
    st.wal <- Some w;
    rows := r.Wal.r_ckpt_entries + r.Wal.r_replayed
  | None ->
    (* [fold_live] over the row table replays exactly the acknowledged
       writes; rows of other shards may be marked concurrently by their
       (healthy) domains, but those are filtered out by routing, and
       this shard's rows are quiescent — its writes are backing off
       until re-admission.  A transient injected fault from the fresh
       part is retried until the row lands: a rebuild must not shed
       acknowledged rows. *)
    Table.fold_live scfg.table
      (fun tid key () ->
        if Shard.shard_of_key t.router key = i then begin
          let rec ins () =
            match fresh.Index_ops.insert key tid with
            | _ -> ()
            | exception Fault.Injected _ ->
              (* Preemption point on the rebuild retry edge: without it a
                 permanently-armed site spins the supervisor invisibly to
                 the schedule explorer. *)
              Fault.point yp_rebuild;
              ins ()
          in
          ins ();
          incr rows
        end)
      ());
  (Shard.parts t.router).(i) <- fresh;
  Trace.emit ev_rebuild i !rows;
  Atomic.set t.sizes.(i) (fresh.Index_ops.memory_bytes ());
  Atomic.set st.failed None;
  let q =
    make_queue ~fault_prefix:t.fault_prefix ~capacity:t.queue_capacity i
  in
  Atomic.set st.queue q;
  Mutex.unlock st.qlock;
  let gen = Atomic.get st.gen in
  let w = st.wal in
  st.domain <- Some (Domain.spawn (fun () -> shard_loop t i ~gen ?wal:w q));
  Atomic.set st.status st_running;
  Trace.instant ~a:i ev_readmit;
  Metrics.incr c_recoveries;
  append_recovery t { r_shard = i; r_cause = cause; r_rows = !rows }

let supervisor_loop t scfg =
  let n = Array.length t.shards in
  let last_hb = Array.make n (-1) in
  let stalled_since = Array.make n 0. in
  let pass () =
    let tnow = now () in
    for i = 0 to n - 1 do
      let st = t.shards.(i) in
      let parked = Atomic.get st.failed in
      match parked with
      | Some (g, e) when g = Atomic.get st.gen ->
        recover t scfg i ~cause:(Printexc.to_string e)
      | Some _ ->
        (* A zombie's late death from a superseded generation: clear
           and ignore — the replacement domain is unaffected. *)
        ignore (Atomic.compare_and_set st.failed parked None)
      | None ->
        let hb = Atomic.get st.heartbeat in
        let busy = Mpsc_queue.length (Atomic.get st.queue) > 0 in
        if (not busy) || hb <> last_hb.(i) then begin
          last_hb.(i) <- hb;
          stalled_since.(i) <- tnow
        end
        else if
          Float.compare (tnow -. stalled_since.(i)) scfg.stall_timeout_s > 0
        then begin
          (* Wedged: work queued, heartbeat frozen, domain not dead.  It
             cannot be joined; abandon it — the generation fence keeps
             it from acknowledging anything if it ever wakes. *)
          (match st.domain with
          | Some d -> st.abandoned <- d :: st.abandoned
          | None -> ());
          st.domain <- None;
          last_hb.(i) <- -1;
          stalled_since.(i) <- tnow;
          recover t scfg i ~cause:"wedged: heartbeat stalled under load"
        end
    done
  in
  while not (Atomic.get t.stopping) do
    pause t ~slice:0.001 scfg.poll_interval_s;
    if not (Atomic.get t.stopping) then pass ()
  done

(* --- Lifecycle ------------------------------------------------------- *)

let start ?(queue_capacity = 64) ?(batch = 32) ?coordinator ?supervisor
    ?fault_prefix ?timeout_s ?wal ?wal_restore router =
  let n = Shard.shard_count router in
  let shards =
    Array.init n (fun i ->
        {
          queue = Atomic.make (make_queue ~fault_prefix ~capacity:queue_capacity i);
          status = Atomic.make st_running;
          gen = Atomic.make 0;
          heartbeat = Atomic.make 0;
          failed = Atomic.make None;
          qlock = Mutex.create ();
          mix = shard_mix i;
          qdepth = g_shard_queue i;
          faults =
            (match fault_prefix with
            | Some p ->
              Some
                {
                  crash = Fault.site (Printf.sprintf "%s.crash.shard%d" p i);
                  poison = Fault.site (Printf.sprintf "%s.poison.shard%d" p i);
                }
            | None -> None);
          wal_faults =
            (match (wal, fault_prefix) with
            | Some _, Some p -> Some (Wal.faults ~prefix:p ~shard:i)
            | _ -> None);
          wal = None;
          domain = None;
          abandoned = [];
        })
  in
  (* With a WAL, every shard recovers from disk before its domain is
     spawned: newest valid checkpoint plus log replay into the part
     (which the caller hands over empty), rematerialising table rows
     through [wal_restore].  On a fresh WAL directory this is a no-op
     that just opens the first segment. *)
  let wal_boot =
    match wal with
    | None -> []
    | Some cfg ->
      let parts = Shard.parts router in
      List.init n (fun i ->
          let st = shards.(i) in
          let w, r =
            Wal.recover ?faults:st.wal_faults ?restore:wal_restore cfg
              ~shard:i ~part:parts.(i)
          in
          st.wal <- Some w;
          (i, r))
  in
  let t =
    {
      router;
      shards;
      sizes = Array.init n (fun _ -> Atomic.make 0);
      batches = Atomic.make 0;
      rebalances = Atomic.make 0;
      recoveries_n = Atomic.make 0;
      coordinator;
      supervisor;
      timeout_s;
      batch;
      queue_capacity;
      fault_prefix;
      wal_cfg = wal;
      wal_restore;
      wal_boot;
      stopping = Atomic.make false;
      log_lock = Mutex.create ();
      log = [];
      aux = [];
    }
  in
  Array.iteri
    (fun i ix -> Atomic.set t.sizes.(i) (ix.Index_ops.memory_bytes ()))
    (Shard.parts router);
  Array.iteri
    (fun i st ->
      let q = Atomic.get st.queue in
      let w = st.wal in
      st.domain <- Some (Domain.spawn (fun () -> shard_loop t i ~gen:0 ?wal:w q)))
    t.shards;
  let aux =
    match coordinator with
    | Some cfg -> [ Domain.spawn (fun () -> coordinator_loop t cfg) ]
    | None -> []
  in
  let aux =
    match supervisor with
    | Some cfg -> Domain.spawn (fun () -> supervisor_loop t cfg) :: aux
    | None -> aux
  in
  t.aux <- aux;
  t

let stop t =
  Atomic.set t.stopping true;
  (* Supervisor and coordinator first, so no recovery re-spawns a shard
     after its queue is closed below. *)
  List.iter Domain.join t.aux;
  t.aux <- [];
  Array.iter (fun st -> Mpsc_queue.close (Atomic.get st.queue)) t.shards;
  Array.iter
    (fun st ->
      (match st.domain with Some d -> Domain.join d | None -> ());
      st.domain <- None;
      (* The domain drained its queue and committed its last batch; a
         clean close flushes, fsyncs whatever the cadence left pending
         and writes the clean-shutdown marker the next [recover] reads.
         A dead writer (the domain died and [stop] raced the
         supervisor) just releases its descriptor. *)
      match st.wal with
      | Some w ->
        Wal.close w;
        st.wal <- None
      | None -> ())
    t.shards

let router t = t.router
let shard_sizes t = Array.map Atomic.get t.sizes
let batches t = Atomic.get t.batches
let rebalances t = Atomic.get t.rebalances
let recoveries t = Atomic.get t.recoveries_n

let wal_recoveries t = t.wal_boot

let recovery_log t =
  Mutex.lock t.log_lock;
  let l = List.rev t.log in
  Mutex.unlock t.log_lock;
  List.map (fun r -> (r.r_shard, r.r_cause, r.r_rows)) l

let quarantined t =
  Array.map (fun st -> Atomic.get st.status = st_quarantined) t.shards

(* Running, with no current-generation failure awaiting recovery.  A
   stale-generation park (an abandoned zombie dying late) does not
   count: the replacement domain is healthy and the supervisor will
   clear the stale slot on its next pass. *)
let shard_ready st =
  Atomic.get st.status = st_running
  &&
  match Atomic.get st.failed with
  | None -> true
  | Some (g, _) -> g <> Atomic.get st.gen

let healthy t = Array.for_all shard_ready t.shards

let rebalance_now t =
  match t.coordinator with Some cfg -> rebalance t cfg | None -> ()

let rebalance_with t cfg = rebalance t cfg

(* --- Client side ----------------------------------------------------- *)

let op_key = function
  | Insert (k, _) | Remove k | Update (k, _) | Find k | Scan (k, _) -> k

let is_read = function
  | Find _ | Scan _ -> true
  | Insert _ | Remove _ | Update _ -> false

(* Degraded read on a quarantined shard: direct, single-threaded,
   serialised against the rebuild by the quarantine lock.  A transient
   injected fault or structural poison surfaces as a rejected op — the
   degraded path must stay up even when the part is sick. *)
let direct_read t s collect op =
  let st = t.shards.(s) in
  Mutex.lock st.qlock;
  let r =
    match apply (Shard.parts t.router).(s) collect op with
    | v -> Ok v
    | exception e -> Error e
  in
  Mutex.unlock st.qlock;
  match r with
  | Ok v -> v
  | Error (Fault.Injected _) | Error (Ei_util.Invariant.Broken _) ->
    rejected_code
  | Error e -> raise e

let backoff_s attempt =
  let b = 0.001 *. float_of_int (1 lsl min attempt 6) in
  if Float.compare b 0.05 > 0 then 0.05 else b

(* Submit one sub-batch to its shard, riding out recovery.  Running:
   enqueue (only the first attempt draws the queue fault sites — a
   retry must not re-draw the schedule).  Quarantined: answer the reads
   directly now, then keep backing off with the writes until the shard
   is re-admitted or the deadline passes.  [Closed] from a push means
   the queue is being recycled (or refused by fault): back off and
   re-resolve the current queue.

   [barrier] (the deterministic chaos soak) waits for the shard to be
   re-admitted instead of taking the degraded path, bounded by the
   deadline like any other wait: every fault-site draw then happens in
   the same fleet state on every equal-seed run — a crash or poison
   site is only ever drawn by the owning domain, never skipped because
   a submission raced a recovery.  Without [barrier], a first attempt
   that finds the shard quarantined still draws the queue sites
   ({!Mpsc_queue.draw_faults}): recovery timing decides whether a
   submission is queued or degraded, and must not add or remove
   draws. *)
let rec submit_sub t ~deadline ~barrier s sub attempt =
  (* Preemption point per submission attempt (client side), pairing with
     [yp_op] on the shard side so the explorer can reorder
     submit/apply/recover interleavings. *)
  Fault.point yp_submit;
  let st = t.shards.(s) in
  let expired () =
    match deadline with
    | Some dl -> Float.compare (now ()) dl >= 0
    | None -> false
  in
  if Atomic.get t.stopping || expired () then complete sub.waiter
  else if barrier && not (shard_ready st) then begin
    Unix.sleepf 0.0002;
    submit_sub t ~deadline ~barrier s sub attempt
  end
  else if Atomic.get st.status = st_running then begin
    match Mpsc_queue.push ~inject:(attempt = 0) (Atomic.get st.queue) (Work sub) with
    | () -> ()
    | exception Mpsc_queue.Closed ->
      Unix.sleepf (backoff_s attempt);
      submit_sub t ~deadline ~barrier s sub (attempt + 1)
  end
  else begin
    if attempt = 0 then Mpsc_queue.draw_faults (Atomic.get st.queue);
    let writes = ref [] in
    Array.iteri
      (fun j o ->
        if is_read o then begin
          if sub.results.(sub.dest.(j)) = pending_code then
            sub.results.(sub.dest.(j)) <- direct_read t s sub.collect o
        end
        else writes := j :: !writes)
      sub.sops;
    match List.rev !writes with
    | [] -> complete sub.waiter
    | ws ->
      let sops = Array.of_list (List.map (fun j -> sub.sops.(j)) ws) in
      let dest = Array.of_list (List.map (fun j -> sub.dest.(j)) ws) in
      Unix.sleepf (backoff_s attempt);
      submit_sub t ~deadline ~barrier s { sub with sops; dest } (attempt + 1)
  end

(* Block until every sub-batch completed, or poll until the deadline
   (the stdlib has no timed condition wait).  On timeout the client
   just walks away: a shard domain writing into the results array
   afterwards stores into slots this client already classified as
   [Timed_out] — word-sized stores, never reread. *)
let wait_waiter w ~deadline =
  match deadline with
  | None ->
    Mutex.lock w.wlock;
    while w.pending > 0 do
      Condition.wait w.wcond w.wlock
    done;
    Mutex.unlock w.wlock
  | Some dl ->
    let rec spin () =
      Mutex.lock w.wlock;
      let left = w.pending in
      Mutex.unlock w.wlock;
      if left > 0 && Float.compare (now ()) dl < 0 then begin
        Unix.sleepf 0.0002;
        spin ()
      end
    in
    spin ()

(* One round: group (slot, shard, op) triples by shard, submit a
   sub-batch per shard, wait.  Results land in [results] at each
   triple's slot. *)
let run_round t ?collect ~deadline ~barrier results triples =
  let nshards = Array.length t.shards in
  let counts = Array.make nshards 0 in
  List.iter (fun (_, s, _) -> counts.(s) <- counts.(s) + 1) triples;
  let active = ref 0 in
  Array.iter (fun c -> if c > 0 then incr active) counts;
  if !active > 0 then begin
    let waiter =
      { wlock = Mutex.create (); wcond = Condition.create (); pending = !active }
    in
    (* Freeze the submitting domain's ambient span context into each
       sub so the shard executor can re-root its work under it. *)
    let c = Ctx.cell () in
    let tctx = c.Ctx.c_trace and tspan = c.Ctx.c_span in
    let subs =
      Array.map
        (fun c ->
          if c = 0 then None
          else
            Some
              {
                sops = Array.make c (Find "");
                dest = Array.make c 0;
                results;
                collect;
                waiter;
                tctx;
                tspan;
              })
        counts
    in
    let fill = Array.make nshards 0 in
    List.iter
      (fun (slot, s, op) ->
        match subs.(s) with
        | Some sub ->
          sub.sops.(fill.(s)) <- op;
          sub.dest.(fill.(s)) <- slot;
          fill.(s) <- fill.(s) + 1
        | None -> ())
      triples;
    Array.iteri
      (fun s sub ->
        match sub with
        | Some sub -> submit_sub t ~deadline ~barrier s sub 0
        | None -> ())
      subs;
    wait_waiter waiter ~deadline
  end

let exec ?collect ?timeout_s ?(barrier = false) t (ops : op array) =
  let n = Array.length ops in
  let outcomes = Array.make n Timed_out in
  if n > 0 then begin
    (* Root of the causal flow: one trace per client exec, installed as
       this domain's ambient context so [run_round] freezes it into
       every sub-batch.  When a caller already carries a context (the
       net front end roots one per connection round), join its flow as
       a child instead of starting a fresh trace — the whole chain
       net.request → serve.request → serve.sub then renders as one
       flow. *)
    let prev = Ctx.current () in
    let treq = Trace.start () in
    if treq > 0 then
      Ctx.set (if prev.Ctx.trace = 0 then Ctx.mint () else Ctx.child prev);
    let timeout = match timeout_s with Some _ as s -> s | None -> t.timeout_s in
    let deadline = Option.map (fun s -> now () +. s) timeout in
    let nshards = Array.length t.shards in
    let results = Array.make n pending_code in
    let first =
      List.init n (fun i ->
          (i, Shard.shard_of_key t.router (op_key ops.(i)), ops.(i)))
    in
    run_round t ?collect ~deadline ~barrier results first;
    (* Scans that exhausted their shard continue into the next one; the
       partition is monotone in key order, so the start key is
       unchanged.  Each round accumulates into [acc]; a round that
       fails (sentinel in the slot) fixes the scan's fate — a partial
       scan is not silently passed off as complete. *)
    let acc = Array.make n 0 in
    let cur = Array.make n 0 in
    let fate = Array.make n None in
    (* Scans with a round in flight: only these are re-examined after
       each round — a scan that already settled must not be reread
       (its slot was recycled to the pending sentinel). *)
    let live = Array.make n false in
    List.iter (fun (i, s, _) -> cur.(i) <- s) first;
    Array.iteri
      (fun i op ->
        match op with
        | Scan _ -> live.(i) <- true
        | Insert _ | Remove _ | Update _ | Find _ -> ())
      ops;
    let continuations () =
      let out = ref [] in
      for i = n - 1 downto 0 do
        if live.(i) then begin
          match ops.(i) with
          | Scan (k, want) ->
            let r = results.(i) in
            if r = pending_code then begin
              fate.(i) <- Some Timed_out;
              live.(i) <- false
            end
            else if r = rejected_code then begin
              fate.(i) <- Some Rejected;
              live.(i) <- false
            end
            else begin
              acc.(i) <- acc.(i) + r;
              results.(i) <- pending_code;
              if acc.(i) < want && cur.(i) + 1 < nshards then begin
                cur.(i) <- cur.(i) + 1;
                out := (i, cur.(i), Scan (k, want - acc.(i))) :: !out
              end
              else live.(i) <- false
            end
          | Insert _ | Remove _ | Update _ | Find _ -> live.(i) <- false
        end
      done;
      !out
    in
    let rec settle () =
      match continuations () with
      | [] -> ()
      | conts ->
        run_round t ?collect ~deadline ~barrier results conts;
        settle ()
    in
    settle ();
    Array.iteri
      (fun i op ->
        outcomes.(i) <-
          (match op with
          | Scan _ -> (
            match fate.(i) with Some o -> o | None -> Applied acc.(i))
          | Insert _ | Remove _ | Update _ | Find _ ->
            let r = results.(i) in
            if r = pending_code then Timed_out
            else if r = rejected_code then Rejected
            else Applied r))
      ops;
    if treq > 0 then begin
      Trace.instant ~a:n ev_ack;
      Trace.span ev_request ~start_ns:treq n;
      Ctx.set prev
    end
  end;
  outcomes

(* --- The serving layer as a uniform index ---------------------------- *)

let index_ops ?(name = "served") t =
  let one op = (exec t [| op |]).(0) in
  let parts = Shard.parts t.router in
  {
    Index_ops.name;
    backend = Index_ops.B_composite parts;
    key_len = Shard.key_len t.router;
    insert =
      (fun k tid ->
        match one (Insert (k, tid)) with
        | Applied r -> r = 1
        | Rejected | Timed_out -> false);
    remove =
      (fun k ->
        match one (Remove k) with
        | Applied r -> r = 1
        | Rejected | Timed_out -> false);
    update =
      (fun k tid ->
        match one (Update (k, tid)) with
        | Applied r -> r = 1
        | Rejected | Timed_out -> false);
    find =
      (fun k ->
        match one (Find k) with
        | Applied tid when tid >= 0 -> Some tid
        | Applied _ | Rejected | Timed_out -> None);
    multi_find =
      (* one exec round: [run_round] buckets the reads per shard, and
         each shard domain answers its sub-batch through the grouped
         descent path of [shard_apply] *)
      (fun keys ->
        let outcomes = exec t (Array.map (fun k -> Find k) keys) in
        Array.map
          (function
            | Applied tid when tid >= 0 -> Some tid
            | Applied _ | Rejected | Timed_out -> None)
          outcomes);
    scan =
      (fun start n ->
        match one (Scan (start, n)) with
        | Applied c -> c
        | Rejected | Timed_out -> 0);
    scan_keys =
      (fun start n visit ->
        match (exec ~collect:visit t [| Scan (start, n) |]).(0) with
        | Applied c -> c
        | Rejected | Timed_out -> 0);
    memory_bytes =
      (* published sizes: safe to read while shard domains run *)
      (fun () -> Array.fold_left ( + ) 0 (shard_sizes t));
    count =
      (* full per-part counts; quiesce mutators first (as with any
         single-index [count] on a concurrent tree) *)
      (fun () -> Array.fold_left (fun a p -> a + p.Index_ops.count ()) 0 parts);
    set_size_bound =
      (* even split through the queues; the periodic coordinator's
         demand-weighted split supersedes it at the next interval *)
      (fun bound ->
        let per = max 1 (bound / Array.length t.shards) in
        Array.iter
          (fun st ->
            match
              Mpsc_queue.push ~inject:false (Atomic.get st.queue)
                (Set_bound per)
            with
            | () -> ()
            | exception Mpsc_queue.Closed -> ())
          t.shards);
    info =
      (fun () ->
        Printf.sprintf "%d shards, %d batches, %d rebalances, %d recoveries"
          (Array.length parts) (batches t) (rebalances t) (recoveries t));
  }
