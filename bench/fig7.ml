(* Figure 7: YCSB memory consumption and multithreaded scaling (§6.2).

   7a reports index memory after the YCSB load for each variant.
   7b/7c run BTreeOLC and BTreeOLC-SeqTree over OCaml domains: lookups
   (workload C, Zipfian) and inserts, at increasing thread counts.

   The paper's HOT line is not reproduced here: our HOT substitute is a
   sequential structure (real HOT's lock-free synchronisation is out of
   scope); the BTreeOLC vs BTreeOLC-SeqTree comparison — the bounds for
   an elastic BTreeOLC, as the paper frames it — is preserved. *)

open Bench_util
module Table = Ei_storage.Table
module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops
module Ycsb = Ei_workload.Ycsb
module Olc = Ei_olc.Btree_olc
module Rng = Ei_util.Rng

let run_7a record_count =
  subheader "7a: index memory after YCSB load (MB)";
  let stx_bytes = Fig6.stx_load_bytes record_count in
  print_row [ "index"; "mem MB"; "vs stx" ];
  List.iter
    (fun (label, kind) ->
      let runner, index = Fig6.fresh kind ~record_count in
      Ei_workload.Ycsb.load runner record_count;
      let bytes = index.Index_ops.memory_bytes () in
      print_row
        [ label; mb bytes; f2 (float_of_int bytes /. float_of_int stx_bytes) ];
      emit ~name:"fig7"
        ~params:[ ("index", label); ("phase", "mem") ]
        ~ops_per_sec:0.0 ~bytes)
    (Fig6.index_kinds ~stx_bytes)

let mk_olc kind ~record_count =
  let table = Table.create ~key_len:8 () in
  let load =
    Olc.safe_loader ~key_len:8
      ~table_length:(fun () -> Table.length table)
      ~load:(Table.loader table)
  in
  let tree = Olc.create ~kind ~key_len:8 ~load () in
  let tids = Array.make record_count 0 in
  for seq = 0 to record_count - 1 do
    let k = Ycsb.key_of_seq seq in
    tids.(seq) <- Table.append table k
  done;
  (tree, table, tids)

(* Domain counts to run.  On a single-core machine the extra domains
   timeshare the core (total throughput stays flat); the experiment still
   validates concurrent correctness and reproduces the paper's ordering
   between the two variants.  On multicore, scaling appears directly. *)
let thread_counts =
  if Domain.recommended_domain_count () >= 8 then [ 1; 2; 4; 8 ] else [ 1; 2; 4 ]

(* Total wall-clock throughput of [per_thread] ops on [t] domains. *)
let parallel_mops t per_thread worker =
  let ds = List.init t (fun d -> Domain.spawn (fun () -> worker d)) in
  let (), dt =
    Ei_util.Bench_clock.time (fun () -> List.iter Domain.join ds)
  in
  Ei_util.Bench_clock.mops (t * per_thread) dt

let run_7bc record_count =
  let ops = scaled 200_000 in
  (* The elastic BTreeOLC (which the paper frames as bounded by the other
     two but does not implement) runs with a bound of 60 % of STX for
     this load. *)
  let elastic_bound = Ei_shard.Fleet.stx_bound ~key_len:8 ~records:record_count ~pct:60 in
  let kinds =
    [
      ("btreeolc", Olc.Olc_std);
      ("btreeolc-seqtree", Olc.Olc_seqtree { capacity = 128; levels = 2; breathing = 4 });
      ("btreeolc-elastic", Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:elastic_bound));
    ]
  in
  subheader "7b: workload C (lookups, zipfian) scaling over domains (total Mops)";
  print_row ("index" :: List.map string_of_int thread_counts);
  List.iter
    (fun (label, kind) ->
      let tree, _table, tids = mk_olc kind ~record_count in
      for seq = 0 to record_count - 1 do
        ignore (Olc.insert tree (Ycsb.key_of_seq seq) tids.(seq))
      done;
      let cells =
        List.map
          (fun t ->
            let per_thread = ops / t in
            let zipf = Ei_util.Zipf.create ~scramble:true record_count in
            let tput =
              parallel_mops t per_thread (fun d ->
                  let rng = domain_rng d in
                  for _ = 1 to per_thread do
                    let seq = Ei_util.Zipf.next zipf rng mod record_count in
                    ignore (Olc.find tree (Ycsb.key_of_seq seq))
                  done)
            in
            emit_mops ~name:"fig7"
              ~params:
                [
                  ("index", label);
                  ("threads", string_of_int t);
                  ("phase", "read");
                ]
              ~mops:tput ~bytes:(Olc.memory_bytes tree);
            f3 tput)
          thread_counts
      in
      print_row (label :: cells))
    kinds;
  subheader "7c: insert scaling over domains (total Mops)";
  print_row ("index" :: List.map string_of_int thread_counts);
  List.iter
    (fun (label, kind) ->
      let cells =
        List.map
          (fun t ->
            let total = ops in
            let per_thread = total / t in
            let tree, table, _ = mk_olc kind ~record_count:1 in
            (* Fresh keys per run, pre-appended to the table. *)
            let keys =
              Array.init total (fun i -> Ycsb.key_of_seq (1_000_000 + i))
            in
            let tids = Array.map (Table.append table) keys in
            let tput =
              parallel_mops t per_thread (fun d ->
                  for i = d * per_thread to ((d + 1) * per_thread) - 1 do
                    ignore (Olc.insert tree keys.(i) tids.(i))
                  done)
            in
            emit_mops ~name:"fig7"
              ~params:
                [
                  ("index", label);
                  ("threads", string_of_int t);
                  ("phase", "insert");
                ]
              ~mops:tput ~bytes:(Olc.memory_bytes tree);
            f3 tput)
          thread_counts
      in
      print_row (label :: cells))
    kinds;
  pf
    "paper shapes: both scale with threads; BTreeOLC above BTreeOLC-SeqTree\n\
     (1.66x on inserts at high thread counts); the elastic BTreeOLC (our\n\
     extension of the paper's future work) sits between the two bounds\n";
  pf "note: this machine reports %d core(s); with a single core the extra\n\
      domains timeshare it and total throughput stays flat\n%!"
    (Domain.recommended_domain_count ())

let run () =
  header "Figure 7: YCSB memory and multithreaded scaling";
  let record_count = scaled 100_000 in
  run_7a record_count;
  run_7bc record_count
