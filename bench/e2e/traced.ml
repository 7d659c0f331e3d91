(* The traced run: its measured window alternates untraced and traced
   sub-windows, so [trace.overhead_frac] compares the two on the same
   fleet at the same point of the run.  During a traced sub-window the
   benchmark's wrappers ({!Spans}) record, the program's own metrics
   registry and trace ring are on (the serving layer then carries each
   exec's request id to the shard domains, which is how an index span
   finds its parent exec), and the runtime's event ring is read
   ({!Gcwatch}).  Layer numbers cover the traced sub-windows only. *)

module Serve = Ei_shard.Serve
module Metrics = Ei_obs.Metrics

type t = {
  fleet : Fleet.t;
  gc : Gcwatch.t;
  mutable on_since : int;
  mutable wall_ns : int;  (* traced sub-window time *)
  mutable batches : int;  (* deltas over the traced sub-windows *)
  mutable rebalances : int;
  mutable conversions : int;
  mutable last_poll : int;
}

let create fleet =
  {
    fleet;
    gc = Gcwatch.start ();
    on_since = 0;
    wall_ns = 0;
    batches = 0;
    rebalances = 0;
    conversions = 0;
    last_poll = 0;
  }

let switch on =
  Spans.set_enabled on;
  Ei_obs.Trace.set_enabled on;
  Metrics.set_enabled on

let set t on =
  let s = t.fleet.Fleet.serve in
  if on then begin
    Gcwatch.set_recording t.gc true;
    t.batches <- t.batches - Serve.batches s;
    t.rebalances <- t.rebalances - Serve.rebalances s;
    t.conversions <- t.conversions - Fleet.conversions t.fleet;
    t.on_since <- Clock.now_ns ();
    switch true
  end
  else begin
    switch false;
    t.wall_ns <- t.wall_ns + (Clock.now_ns () - t.on_since);
    t.batches <- t.batches + Serve.batches s;
    t.rebalances <- t.rebalances + Serve.rebalances s;
    t.conversions <- t.conversions + Fleet.conversions t.fleet;
    Gcwatch.set_recording t.gc false
  end

(* Keep the runtime's per-domain event rings drained. *)
let poll t =
  let now = Clock.now_ns () in
  if now - t.last_poll > 5_000_000 then begin
    t.last_poll <- now;
    Gcwatch.poll t.gc
  end

let wall_s t = float_of_int t.wall_ns *. 1e-9

let ratio a b = if Float.equal b 0. then 0. else a /. b
let fi = float_of_int

(* A histogram of the program's registry, over the traced sub-windows
   (the registry records only while they run). *)
let hist_p50_us name =
  fi (Metrics.quantile (Metrics.histogram name) 0.5) /. 1e3

let hist_mean name =
  let h = Metrics.histogram name in
  ratio (fi (Metrics.histogram_sum h)) (fi (Metrics.histogram_count h))

let counter name = fi (Metrics.counter_value (Metrics.counter name))

(* The layer metrics shared by every workload.  [ops] are the client
   operations of the traced sub-windows and [scan_ops] the scans among
   them.  In-process runs time every exec themselves; net-open passes
   the (id, start, duration) of the exec spans it found ([execs]) and
   how many execs ran ([n_exec]).  [trace_out] receives the retained
   spans as a Chrome trace. *)
let layers t ~ops ~scan_ops ?execs ?n_exec ~compact ~trace_out () =
  let tot = Spans.totals () in
  let spans, from = Spans.retained () in
  Option.iter (fun path -> Spans.write_chrome path spans) trace_out;
  let is_exec s = Int.equal s.Spans.kind (Spans.kind_index Spans.Exec) in
  let own_execs = Spans.total tot Spans.Exec Spans.f_calls in
  let execs =
    match execs with
    | Some e -> e
    | None ->
      List.filter_map
        (fun s -> if is_exec s then Some (s.Spans.id, s.Spans.start, s.Spans.dur) else None)
        spans
  in
  let n_exec = Option.value ~default:own_execs n_exec in
  let exact_exec_ns =
    if own_execs > 0 then Some (fi (Spans.total tot Spans.Exec Spans.f_ns) /. fi own_execs)
    else None
  in
  let g k f = fi (Spans.total tot k f) in
  let calls k = g k Spans.f_calls and ns k = g k Spans.f_ns in
  let units k = g k Spans.f_units and loads k = g k Spans.f_loads in
  let children = List.filter (fun s -> not (is_exec s)) spans in
  let exec_ns, child_ns, self_ns = Spans.self_times ~execs ~children ~from in
  let index_kinds = Spans.[ Find; Multi_find; Insert; Remove; Update; Scan; Set_bound ] in
  let busy = List.fold_left (fun a k -> a +. ns k) 0. index_kinds in
  let point_kinds = Spans.[ Find; Insert; Remove; Update ] in
  let point_ops = List.fold_left (fun a k -> a +. calls k) (units Multi_find) point_kinds in
  let point_loads = List.fold_left (fun a k -> a +. loads k) 0. (Spans.Multi_find :: point_kinds) in
  let wall = wall_s t in
  Gcwatch.poll t.gc;
  if t.gc.Gcwatch.lost > 0 then
    Printf.eprintf "ei_bench: %d runtime events lost; the gc.* metrics undercount\n%!"
      t.gc.Gcwatch.lost;
  let leaf_frac, key_frac = compact in
  [
    ("serve.exec_us", Option.value ~default:exec_ns exact_exec_ns /. 1e3);
    ("serve.exec_self_us", self_ns /. 1e3);
    ("serve.exec_child_us", child_ns /. 1e3);
    ( "serve.sub_batches_per_exec",
      ratio (fi t.batches -. calls Spans.Set_bound) (fi n_exec) );
    ("serve.shard_busy_frac", ratio busy (wall *. 1e9 *. fi Fleet.shards));
    ("serve.rebalances_per_s", ratio (fi t.rebalances) wall);
    ("serve.set_bound_calls", calls Spans.Set_bound);
    ("olc.multi_find_ns_per_key", ratio (ns Multi_find) (units Multi_find));
    ("olc.multi_find_keys_per_call", ratio (units Multi_find) (calls Multi_find));
    ("olc.insert_ns", ratio (ns Insert) (calls Insert));
    ("olc.remove_ns", ratio (ns Remove) (calls Remove));
    ("olc.conversions", fi t.conversions);
    ("olc.scan_ns_per_entry", ratio (ns Scan) (units Scan));
    ("olc.scan_calls_per_scan_op", ratio (calls Scan) (fi scan_ops));
    ("olc.compact_leaf_frac", leaf_frac);
    ("olc.compact_key_frac", key_frac);
    ("table.loads_per_point_op", ratio point_loads point_ops);
    ("table.loads_per_scanned_entry", ratio (loads Scan) (units Scan));
    ("gc.minor_words_per_op", ratio (fi t.gc.Gcwatch.allocated) (fi ops));
    ("gc.promoted_words_per_op", ratio (fi t.gc.Gcwatch.promoted) (fi ops));
    ("gc.stw_frac", ratio (fi t.gc.Gcwatch.stw_ns) (wall *. 1e9));
    ("gc.domains", fi (Gcwatch.domains t.gc));
  ]

(* The durable layer, from the program's [wal.*] registry metrics. *)
let wal_layers t =
  let wall = wall_s t in
  [
    ("wal.records_per_commit", hist_mean "wal.commit_records");
    ("wal.fsyncs_per_s", ratio (counter "wal.fsyncs") wall);
    ("wal.fsync_p50_us", hist_p50_us "wal.fsync_ns");
  ]

(* Fill in the layers a workload does not exercise as 0, in the
   canonical order. *)
let complete measured =
  List.map
    (fun (n, _) -> (n, Option.value ~default:0. (List.assoc_opt n measured)))
    Report.per_layer
