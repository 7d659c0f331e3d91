(* §6.1 operation-cost breakdown: how much work elasticity adds during
   the insertion phase (the paper profiles 18.3% of execution time in
   elasticity-related work: 8.6% compact-leaf search, 5% key comparisons,
   4.7% leaf conversions).

   We report (a) the measured wall-clock overhead of the elastic tree vs
   plain STX on the identical insertion stream, and (b) the operation
   counters of the compact-node machinery (searches, sequential-scan and
   tree-descent steps, verification key loads, conversions). *)

open Bench_util
module Table = Ei_storage.Table
module Rng = Ei_util.Rng
module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops
module Stats = Ei_blindi.Stats

let run () =
  header "Operation-cost breakdown of elasticity (insertion phase)";
  let n = scaled 200_000 in
  let rng = Rng.create 12 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys = unique_keys rng table n 8 in
  (* STX baseline time. *)
  let stx = Registry.make ~key_len:8 ~load Registry.Stx in
  let (), stx_dt =
    Ei_util.Bench_clock.time (fun () ->
        Array.iter (fun (k, tid) -> ignore (stx.Index_ops.insert k tid)) keys)
  in
  let half_bytes = stx.Index_ops.memory_bytes () / 2 in
  (* Elastic run with shrinking starting at half the keys. *)
  let config =
    Ei_core.Elasticity.default_config
      ~size_bound:(int_of_float (float_of_int half_bytes /. 0.9))
  in
  (* The elastic tree's verification key loads, counted by its loader. *)
  let loads = ref 0 in
  let counting_load tid =
    incr loads;
    Table.key table tid
  in
  let tree =
    Ei_core.Elastic_btree.create ~key_len:8 ~load:counting_load config ()
  in
  Stats.reset ();
  let (), ela_dt =
    Ei_util.Bench_clock.time (fun () ->
        Array.iter
          (fun (k, tid) -> ignore (Ei_core.Elastic_btree.insert tree k tid))
          keys)
  in
  let s = Stats.current () in
  let bstats = Ei_core.Elastic_btree.stats tree in
  emit ~name:"cost"
    ~params:[ ("index", "stx"); ("phase", "insert") ]
    ~ops_per_sec:(float_of_int n /. stx_dt)
    ~bytes:(stx.Index_ops.memory_bytes ());
  emit ~name:"cost"
    ~params:[ ("index", "elastic"); ("phase", "insert") ]
    ~ops_per_sec:(float_of_int n /. ela_dt)
    ~bytes:(Ei_core.Elastic_btree.memory_bytes tree);
  pf "items inserted:            %d\n" n;
  pf "STX insert time:           %.3f s\n" stx_dt;
  pf "elastic insert time:       %.3f s\n" ela_dt;
  pf "elasticity overhead:       %.1f%% of elastic execution time (paper: 18.3%%)\n"
    (100.0 *. (ela_dt -. stx_dt) /. ela_dt);
  pf "compact-leaf searches:     %d (%.2f per insert)\n" s.Stats.searches
    (float_of_int s.Stats.searches /. float_of_int n);
  pf "  sequential-scan steps:   %d (%.1f per compact search)\n" s.Stats.scan_steps
    (float_of_int s.Stats.scan_steps /. float_of_int (max 1 s.Stats.searches));
  pf "  BlindiTree descents:     %d steps\n" s.Stats.tree_steps;
  pf "verification key loads:    %d table loads\n" !loads;
  pf "leaf conversions:          %d (std->compact grows and shrinks)\n"
    bstats.Ei_btree.Btree.conversions;
  pf "leaf splits / merges:      %d / %d\n" bstats.Ei_btree.Btree.leaf_splits
    bstats.Ei_btree.Btree.leaf_merges;
  pf "compact leaves at end:     %d of index with %d items\n"
    (Ei_core.Elastic_btree.compact_leaves tree)
    (Ei_core.Elastic_btree.count tree);
  pf "final state:               %s\n%!"
    (Ei_btree.Hysteresis.state_name (Ei_core.Elastic_btree.state tree))
