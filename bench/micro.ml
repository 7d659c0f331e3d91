(* Bechamel micro-benchmarks: per-operation latency of point lookups and
   inserts on each index representation, complementing the throughput
   figures with statistically analysed single-op costs. *)

open Bechamel
module Table = Ei_storage.Table
module Rng = Ei_util.Rng
module Key = Ei_util.Key
module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops

let prepared_index kind =
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let index = Registry.make ~key_len:8 ~load kind in
  let rng = Rng.create 1 in
  let keys =
    Bench_util.unique_keys rng table 50_000 8
  in
  Array.iter (fun (k, tid) -> ignore (index.Index_ops.insert k tid)) keys;
  (index, keys, rng)

let lookup_test name kind =
  let index, keys, rng = prepared_index kind in
  let n = Array.length keys in
  Test.make ~name:(name ^ "-lookup")
    (Staged.stage (fun () ->
         let k, _ = keys.(Rng.int rng n) in
         ignore (index.Index_ops.find k)))

let scan_test name kind =
  let index, keys, rng = prepared_index kind in
  let n = Array.length keys in
  Test.make ~name:(name ^ "-scan15")
    (Staged.stage (fun () ->
         let k, _ = keys.(Rng.int rng n) in
         ignore (index.Index_ops.scan k 15)))

let tests () =
  Test.make_grouped ~name:"micro"
    [
      lookup_test "stx" Registry.Stx;
      lookup_test "seqtree128" (Registry.Seqtree 128);
      lookup_test "hot" Registry.Hot;
      scan_test "stx" Registry.Stx;
      scan_test "seqtree128" (Registry.Seqtree 128);
      scan_test "hot" Registry.Hot;
    ]

(* --- Interleaved multi-lookup sweep ----------------------------------- *)

(* Batched lookups vs the sequential find loop, K ∈ {1,4,8,16,32} with
   the software-prefetch hint on and off, on the sequential B+-tree and
   the OLC tree.  Emits one JSON-Lines row per cell ([micro_multi]):
   [k = "loop"] is the per-key baseline, numeric [k] the group-descent
   width.  EXPERIMENTS.md reads the chosen serving-path K off this
   table. *)
let multi_sweep () =
  let module Btree = Ei_btree.Btree in
  let module Policy = Ei_btree.Policy in
  let module Olc = Ei_olc.Btree_olc in
  let module Prefetch = Ei_util.Prefetch in
  Bench_util.subheader "interleaved multi-lookup (batch 512, 8-byte keys)";
  let n = Bench_util.scaled 200_000 in
  let nbatches = 64 in
  let batch = 512 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let rng = Rng.create Bench_util.seed in
  let keys = Bench_util.unique_keys rng table n 8 in
  let stx = Btree.create ~key_len:8 ~load ~policy:Policy.stx () in
  let olc = Olc.create ~key_len:8 ~load () in
  Array.iter
    (fun (k, tid) ->
      ignore (Btree.insert stx k tid);
      ignore (Olc.insert olc k tid))
    keys;
  let queries =
    Array.init nbatches (fun _ ->
        Array.init batch (fun _ -> fst keys.(Rng.int rng n)))
  in
  let ops = nbatches * batch in
  let emit ~index ~k ~prefetch ~bytes m =
    Bench_util.emit_mops_q ~name:"micro_multi"
      ~params:[ ("index", index); ("k", k); ("prefetch", prefetch) ]
      ~mops:m ~bytes ();
    Printf.printf "  %-4s  K=%-5s prefetch=%-3s %8.2f Mops\n%!" index k
      prefetch m
  in
  let was_enabled = Prefetch.is_enabled () in
  let backends =
    [
      ( "stx",
        Btree.memory_bytes stx,
        (fun q -> Array.iter (fun k -> ignore (Btree.find stx k)) q),
        fun ~group q -> ignore (Btree.multi_find ~group stx q) );
      ( "olc",
        Olc.tracked_memory_bytes olc,
        (fun q -> Array.iter (fun k -> ignore (Olc.find olc k)) q),
        fun ~group q -> ignore (Olc.multi_find ~group olc q) );
    ]
  in
  List.iter
    (fun (index, bytes, loop, multi) ->
      let m =
        Bench_util.median_mops ops (fun () -> Array.iter loop queries)
      in
      emit ~index ~k:"loop" ~prefetch:"n/a" ~bytes m;
      List.iter
        (fun prefetch ->
          Prefetch.set_enabled prefetch;
          List.iter
            (fun group ->
              let m =
                Bench_util.median_mops ops (fun () ->
                    Array.iter (fun q -> multi ~group q) queries)
              in
              emit ~index ~k:(string_of_int group)
                ~prefetch:(if prefetch then "on" else "off")
                ~bytes m)
            [ 1; 4; 8; 16; 32 ])
        [ true; false ])
    backends;
  Prefetch.set_enabled was_enabled

let run () =
  Bench_util.header "Bechamel micro-benchmarks (ns per operation)";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Printf.printf "%-28s %10.1f ns/op\n%!" name est
      | Some [] | None -> Printf.printf "%-28s (no estimate)\n%!" name)
    results;
  multi_sweep ()
