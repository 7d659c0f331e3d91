(* Multi-domain churn tests for the sharded serving layer (ei_shard).

   a. Four domains hammer one elastic BTreeOLC directly — disjoint key
      ranges, interleaved find/update/remove-reinsert churn under a
      size bound tight enough to force compaction — ending with the
      deep Ei_check OLC validator (which reconciles the shared atomic
      byte accounting against a recomputed walk) and an exact count
      reconciliation.

   b. A 4-shard elastic fleet behind Serve with explicit global memory
      coordinator passes, churned by two concurrent producer domains (4
      shard domains + 2 producers), ending with Check.run recursing into
      every shard plus total-count and total-bytes reconciliation and
      the global-bound check.

   c. Fleet.run: its shed count under queue faults matches the outcomes
      of the same sub-batches through Serve.exec, and a stop request
      ends the run at a sub-batch boundary; the periodic coordinator
      makes no pass while the fleet is idle. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng
module Table = Ei_storage.Table
module Registry = Ei_harness.Registry
module Fault = Ei_fault.Fault
module Index_ops = Ei_harness.Index_ops
module Olc = Ei_olc.Btree_olc
module Shard = Ei_shard.Shard
module Serve = Ei_shard.Serve
module Fleet = Ei_shard.Fleet
module Ycsb = Ei_workload.Ycsb
module Check = Ei_check.Check

let domains = 4

(* All churn streams derive from EI_SEED (default 42) so a CI failure
   reproduces with: EI_SEED=n dune exec test/test_shard.exe *)
let seed = Rng.env_seed ~default:42

let fail_on_errors label findings =
  match
    List.filter
      (fun (f : Check.finding) -> f.Check.severity = Check.Error)
      findings
  with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "%s: %s" label (Format.asprintf "%a" Check.pp_finding f)

let safe_loader table =
  Olc.safe_loader ~key_len:8
    ~table_length:(fun () -> Table.length table)
    ~load:(Table.loader table)

(* --- a. direct multi-domain churn on one elastic OLC tree ------------ *)

let test_olc_churn () =
  let table = Table.create ~key_len:8 () in
  let n_per = 4_000 in
  let total = domains * n_per in
  (* ~20 B/key is below the standard tree's footprint, so the tree must
     shrink (compact leaves) while the domains churn. *)
  let bound = total * 20 in
  let tree =
    Olc.create
      ~kind:(Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:bound))
      ~key_len:8 ~load:(safe_loader table) ()
  in
  (* Disjoint per-domain key ranges (domain tag in the high bits), all
     pre-appended so updates always carry a tid of the same key. *)
  let keys =
    Array.init domains (fun d ->
        Array.init n_per (fun i -> Key.of_int ((d lsl 40) lor i)))
  in
  let tids = Array.map (Array.map (Table.append table)) keys in
  let worker d () =
    let rng = Rng.stream seed d in
    let ks = keys.(d) and ts = tids.(d) in
    for i = 0 to n_per - 1 do
      ignore (Olc.insert tree ks.(i) ts.(i));
      match Rng.int rng 4 with
      | 0 -> ignore (Olc.find tree ks.(Rng.int rng (i + 1)))
      | 1 ->
        let j = Rng.int rng (i + 1) in
        ignore (Olc.update tree ks.(j) ts.(j))
      | 2 when i > 0 ->
        (* Remove and reinsert an earlier own key: churns the leaves
           while keeping the final count deterministic. *)
        let j = Rng.int rng i in
        if Olc.remove tree ks.(j) then ignore (Olc.insert tree ks.(j) ts.(j))
      | _ -> ()
    done;
    (* Drop the top quarter for good. *)
    for i = 3 * n_per / 4 to n_per - 1 do
      ignore (Olc.remove tree ks.(i))
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  Alcotest.(check int) "count reconciles"
    (domains * (3 * n_per / 4))
    (Olc.count tree);
  Alcotest.(check bool) "tree shrank under the bound" true
    (Olc.elastic_compact_leaves tree > 0);
  fail_on_errors "olc validator" (Check.check_olc tree)

(* --- b. sharded fleet behind Serve with the coordinator -------------- *)

let test_serve_churn () =
  let shards = 4 in
  let n = 16_000 in
  let bound = n * 20 in
  (* No periodic coordinator passes: rebalances are driven explicitly
     below, so the pass count is exact instead of timing-dependent. *)
  let { Fleet.table; router; serve } =
    Fleet.start ~shards
      ~part:(Fleet.part (Fleet.olc_elastic ~global_bound:bound ~shards))
      ()
  in
  let keys = Array.init n (fun i -> Ycsb.key_of_seq i) in
  let tids = Array.map (Table.append table) keys in
  let producers = 2 in
  let per = n / producers in
  let producer p () =
    let base = p * per in
    let batch a = ignore (Serve.exec serve a) in
    (* Load this producer's half in sub-batches. *)
    let step = 256 in
    let i = ref 0 in
    while !i < per do
      let len = min step (per - !i) in
      batch
        (Array.init len (fun j ->
             let s = base + !i + j in
             Serve.Insert (keys.(s), tids.(s))));
      i := !i + len
    done;
    (* Churn: scattered reads, full-range in-place updates (tid of the
       same key), short cross-shard scans, then remove the top quarter. *)
    batch (Array.init per (fun j -> Serve.Find keys.(base + (j * 7 mod per))));
    batch
      (Array.init per (fun j ->
           let s = base + j in
           Serve.Update (keys.(s), tids.(s))));
    batch (Array.init 64 (fun j -> Serve.Scan (keys.(base + j), 100)));
    batch
      (Array.init (per / 4) (fun j ->
           Serve.Remove keys.(base + per - (per / 4) + j)))
  in
  let ds = List.init producers (fun p -> Domain.spawn (producer p)) in
  List.iter Domain.join ds;
  (* Two explicit coordinator passes from the post-churn sizes; no batch
     follows them, so they are counted but never applied. *)
  Serve.rebalance_with serve (Serve.default_coordinator ~global_bound:bound);
  Serve.rebalance_with serve (Serve.default_coordinator ~global_bound:bound);
  let published = Array.fold_left ( + ) 0 (Serve.shard_sizes serve) in
  let rebalances = Serve.rebalances serve in
  Serve.stop serve;
  (* Total-count reconciliation: everything inserted minus the removes. *)
  Alcotest.(check int) "count reconciles"
    (n - (producers * (per / 4)))
    (Shard.count router);
  (* Total-bytes reconciliation: the sizes the domains published must
     match the parts' own accounting once the fleet is quiesced. *)
  let parts = Shard.parts router in
  Alcotest.(check int) "published bytes reconcile"
    (Array.fold_left (fun a p -> a + p.Index_ops.memory_bytes ()) 0 parts)
    (Array.fold_left ( + ) 0 (Serve.shard_sizes serve));
  Alcotest.(check int) "exactly the explicit coordinator passes" 2 rebalances;
  Alcotest.(check bool) "aggregate within global bound (+10%)" true
    (float_of_int published <= 1.1 *. float_of_int bound);
  (* Deep validation of every shard. *)
  Array.iter
    (fun p -> fail_on_errors "shard fleet validator" (Check.errors (Check.run p)))
    parts

(* --- c. Fleet.run ------------------------------------------------------ *)

let olc_part = Fleet.part (Registry.Olc Olc.Olc_std)

let inserts table n =
  Array.init n (fun i ->
      let k = Key.of_int (i * 7919) in
      Serve.Insert (k, Table.append table k))

(* A refused push is retried without drawing again, so refusals alone
   shed nothing; a dropped sub-batch times out.  Both sides run a fresh
   fleet from the same seed and submit the same 512-op sub-batches, so
   they draw the same schedule. *)
let test_run_counts_shed () =
  let plan = [ ("serve.queue.*.refuse", 0.2); ("serve.queue.*.drop", 0.1) ] in
  let fleet () =
    Fault.configure ~seed:7 plan;
    Fleet.start ~shards:2 ~part:olc_part ~timeout_s:0.2 ~fault_prefix:"serve" ()
  in
  let f = fleet () in
  let shed = Fleet.run f (inserts f.Fleet.table 4096) in
  Serve.stop f.Fleet.serve;
  let g = fleet () in
  let ops = inserts g.Fleet.table 4096 in
  let direct = ref 0 in
  for c = 0 to 7 do
    Array.iter
      (function Serve.Applied _ -> () | _ -> incr direct)
      (Serve.exec g.Fleet.serve (Array.sub ops (c * 512) 512))
  done;
  Serve.stop g.Fleet.serve;
  Fault.clear ();
  Alcotest.(check bool) "the plan shed something" true (shed > 0);
  Alcotest.(check int) "shed count matches Serve.exec outcomes" !direct shed

(* Op 700, in the second sub-batch, raises the stop flag as it applies:
   the run finishes that sub-batch and stops. *)
let test_run_stops_at_boundary () =
  let stop = Atomic.make false in
  let trigger = Key.of_int (700 * 7919) in
  let part table i =
    let ix = olc_part table i in
    let insert k tid =
      if String.equal k trigger then Atomic.set stop true;
      ix.Index_ops.insert k tid
    in
    { ix with Index_ops.insert }
  in
  let f = Fleet.start ~shards:2 ~part () in
  let shed = Fleet.run ~stop f (inserts f.Fleet.table (5 * 512)) in
  Serve.stop f.Fleet.serve;
  Alcotest.(check int) "nothing shed" 0 shed;
  Alcotest.(check int) "ran exactly two sub-batches" 1024
    (Shard.count f.Fleet.router)

(* The periodic coordinator runs on the shard domains as they finish
   batches, so an idle fleet makes no pass.  Under load the first batch
   claims a pass at once and later ones at most every 50 ms: 250 ms of
   load makes 1 to 6 passes, and the last exec may run into a seventh
   window. *)
let test_no_pass_while_idle () =
  let n = 16_000 in
  let bound = n * 20 in
  let { Fleet.table; serve; _ } =
    Fleet.start ~shards:2
      ~part:(Fleet.part (Fleet.olc_elastic ~global_bound:bound ~shards:2))
      ~coordinator:(Serve.default_coordinator ~global_bound:bound)
      ()
  in
  Unix.sleepf 0.2;
  let idle = Serve.rebalances serve in
  let keys = Array.init n (fun i -> Ycsb.key_of_seq i) in
  let tids = Array.map (Table.append table) keys in
  let step = 256 in
  let stop_ns = Ei_util.Bench_clock.now_ns () + 250_000_000 in
  let i = ref 0 in
  while Ei_util.Bench_clock.now_ns () < stop_ns do
    let base = !i mod n in
    let len = min step (n - base) in
    ignore
      (Serve.exec serve
         (Array.init len (fun j ->
              let s = base + j in
              if !i < n then Serve.Insert (keys.(s), tids.(s))
              else Serve.Find keys.(s))));
    i := !i + len
  done;
  let loaded = Serve.rebalances serve in
  let published = Array.fold_left ( + ) 0 (Serve.shard_sizes serve) in
  Serve.stop serve;
  Alcotest.(check int) "no pass while idle" 0 idle;
  if loaded < 1 || loaded > 7 then
    Alcotest.failf "%d passes in 250 ms of load (want 1..7)" loaded;
  Alcotest.(check bool) "aggregate within global bound (+10%)" true
    (float_of_int published <= 1.1 *. float_of_int bound)

(* A run of reads longer than [Max_young_wosize] (256) must not force a
   minor collection: [caml_make_vect] forces one for a large array
   seeded with a young value, and in OCaml 5 that stops every domain.
   All 512 keys route to shard 0, so its domain sees one 512-read run.
   The fresh [Find]s are built without [Array.init], whose young first
   element would force a collection in the test itself. *)
let test_read_run_no_forced_minor () =
  let f = Fleet.start ~shards:2 ~part:olc_part () in
  let n = 512 in
  Alcotest.(check int) "preload" 0 (Fleet.run f (inserts f.Fleet.table n));
  let ops = Array.make n (Serve.Find "") in
  (* Finish the major cycle the preload left open first: its closing
     stop-the-world empties every minor heap too, and under CPU load it
     could land inside the exec and count there. *)
  Gc.full_major ();
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for i = 0 to n - 1 do
    ops.(i) <- Serve.Find (Key.of_int (i * 7919))
  done;
  let outcomes = Serve.exec f.Fleet.serve ops in
  let ran = (Gc.quick_stat ()).Gc.minor_collections - before in
  Serve.stop f.Fleet.serve;
  Array.iteri
    (fun i o ->
      match o with
      | Serve.Applied tid -> Alcotest.(check int) "found" i tid
      | Serve.Rejected | Serve.Timed_out -> Alcotest.fail "read not applied")
    outcomes;
  Alcotest.(check int) "minor collections during the exec" 0 ran

let () =
  Alcotest.run "ei_shard"
    [
      ( "churn",
        [
          Alcotest.test_case "4-domain elastic OLC churn" `Quick test_olc_churn;
          Alcotest.test_case "4-shard serve churn + coordinator" `Quick
            test_serve_churn;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "run counts shed ops" `Quick test_run_counts_shed;
          Alcotest.test_case "run stops at a sub-batch boundary" `Quick
            test_run_stops_at_boundary;
          Alcotest.test_case "a read run forces no minor collection" `Quick
            test_read_run_no_forced_minor;
          Alcotest.test_case "no coordinator pass while idle" `Quick
            test_no_pass_while_idle;
        ] );
    ]
