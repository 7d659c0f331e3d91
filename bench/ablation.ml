(* Ablation studies for the design choices DESIGN.md calls out:

   a. prefix compression vs the compact (SeqTree) representation on
      shared-prefix and random key distributions (§2's argument that
      prefix compression is distribution-dependent while compaction
      always saves);
   b. the hybrid two-stage index vs the elastic B+-tree under insert-only
      and uniform-update workloads (§2's skew-assumption argument);
   c. the overflow-piggyback policy vs the access-aware cold-sweep
      variant on an append-only key pattern (§4's policy design space);
   d. the elastic framework applied to a skip list (§3's generality
      claim);
   e. the three blind-trie node representations of §5.1 (SeqTrie /
      SubTrie / String B-Trie) plus the SeqTree, at the B+-tree level. *)

open Bench_util
module Key = Ei_util.Key
module Rng = Ei_util.Rng
module Table = Ei_storage.Table
module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops
module Elasticity = Ei_core.Elasticity

(* --- a. prefix compression vs compaction ---------------------------- *)

let prefix_ablation () =
  subheader "a. prefix compression vs SeqTree by key distribution (16B keys)";
  let n = scaled 30_000 in
  let key_len = 16 in
  let shared =
    Array.init n (fun i ->
        let b = Bytes.make key_len 'u' in
        Bytes.set_int64_be b 8 (Int64.of_int i);
        Bytes.unsafe_to_string b)
  in
  let rng = Rng.create 71 in
  let table0 = Table.create ~key_len () in
  let random = Array.map fst (unique_keys rng table0 n key_len) in
  let build kind keys =
    let table = Table.create ~key_len () in
    let index = Registry.make ~key_len ~load:(Table.loader table) kind in
    Array.iter (fun k -> ignore (index.Index_ops.insert k (Table.append table k))) keys;
    index.Index_ops.memory_bytes ()
  in
  print_row ~w:13 [ "keys"; "stx MB"; "prefix"; "seqtree128" ];
  List.iter
    (fun (label, keys) ->
      let stx = build Registry.Stx keys in
      let pre = build Registry.Prefix keys in
      let seq = build (Registry.Seqtree 128) keys in
      let record index bytes =
        emit ~name:"ablation-prefix"
          ~params:[ ("index", index); ("dist", label) ]
          ~ops_per_sec:0.0 ~bytes
      in
      record "stx" stx;
      record "prefix" pre;
      record "seqtree128" seq;
      print_row ~w:13
        [
          label;
          mb stx;
          f2 (float_of_int pre /. float_of_int stx);
          f2 (float_of_int seq /. float_of_int stx);
        ])
    [ ("shared-prefix", shared); ("random", random) ];
  pf "(fractions of STX; prefix compression collapses on random keys,\n\
      the compact representation saves on both)\n"

(* --- b. hybrid index vs elastic -------------------------------------- *)

let hybrid_ablation () =
  subheader "b. hybrid two-stage index vs elastic B+-tree (8B keys)";
  let n = scaled 60_000 in
  let key_len = 8 in
  let rng = Rng.create 72 in
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let keys = unique_keys rng table n key_len in
  let stx_probe = Registry.make ~key_len ~load Registry.Stx in
  Array.iter (fun (k, tid) -> ignore (stx_probe.Index_ops.insert k tid)) keys;
  let budget = stx_probe.Index_ops.memory_bytes () / 2 in
  let mk = function
    | `Hybrid -> Registry.make ~key_len ~load (Registry.Hybrid 0.1)
    | `Elastic ->
      Registry.make ~key_len ~load
        (Registry.Elastic (Elasticity.default_config ~size_bound:budget))
  in
  print_row ~w:13
    [ "index"; "ins Mops"; "upd Mops"; "mem MB"; "info" ];
  List.iter
    (fun (label, which) ->
      let index = mk which in
      let ins =
        mops n (fun () ->
            Array.iter (fun (k, tid) -> ignore (index.Index_ops.insert k tid)) keys)
      in
      (* Uniform updates of old entries: the anti-skew workload. *)
      let updates = n / 2 in
      let rng = Rng.create 5 in
      let upd =
        mops updates (fun () ->
            for _ = 1 to updates do
              let k, tid = keys.(Rng.int rng n) in
              ignore (index.Index_ops.update k tid)
            done)
      in
      let bytes = index.Index_ops.memory_bytes () in
      let cell phase m =
        emit_mops ~name:"ablation-hybrid"
          ~params:[ ("index", label); ("phase", phase) ]
          ~mops:m ~bytes
      in
      cell "insert" ins;
      cell "update" upd;
      print_row ~w:13
        [ label; f3 ins; f3 upd; mb bytes; index.Index_ops.info () ])
    [ ("hybrid", `Hybrid); ("elastic", `Elastic) ];
  pf
    "(hybrid is compact on insert-only loads but uniform updates violate\n\
     its skew assumption: every update shadows an old entry and periodic\n\
     full rebuilds absorb the churn; the elastic index updates in place)\n"

(* --- c. cold-sweep policy on append-only keys ------------------------- *)

let cold_sweep_ablation () =
  subheader "c. overflow-piggyback vs access-aware cold sweep (append-only)";
  let n = scaled 60_000 in
  let run ~cold_sweep_period =
    let table = Table.create ~key_len:8 () in
    let bound = n * 18 in
    let config =
      {
        (Elasticity.default_config ~size_bound:bound) with
        Elasticity.cold_sweep_period;
        cold_sweep_batch = 16;
      }
    in
    let tree =
      Ei_core.Elastic_btree.create ~key_len:8 ~load:(Table.loader table) config ()
    in
    let (), dt =
      Ei_util.Bench_clock.time (fun () ->
          for i = 0 to n - 1 do
            let k = Key.of_int i in
            ignore (Ei_core.Elastic_btree.insert tree k (Table.append table k))
          done)
    in
    ( Ei_util.Bench_clock.mops n dt,
      Ei_core.Elastic_btree.memory_bytes tree,
      bound )
  in
  let d_tput, d_mem, bound = run ~cold_sweep_period:0 in
  let c_tput, c_mem, _ = run ~cold_sweep_period:8 in
  emit_mops ~name:"ablation-coldsweep"
    ~params:[ ("policy", "overflow-only"); ("phase", "insert") ]
    ~mops:d_tput ~bytes:d_mem;
  emit_mops ~name:"ablation-coldsweep"
    ~params:[ ("policy", "cold-sweep"); ("phase", "insert") ]
    ~mops:c_tput ~bytes:c_mem;
  print_row ~w:16 [ "policy"; "ins Mops"; "mem MB"; "vs bound" ];
  print_row ~w:16
    [ "overflow-only"; f3 d_tput; mb d_mem; f2 (float_of_int d_mem /. float_of_int bound) ];
  print_row ~w:16
    [ "cold-sweep"; f3 c_tput; mb c_mem; f2 (float_of_int c_mem /. float_of_int bound) ];
  pf
    "(append-only keys never overflow cold leaves, so the default policy\n\
     cannot compact them and overshoots; the sweep holds the bound)\n"

(* --- e. the blind-trie representation trio of §5.1 -------------------- *)

let representations_ablation () =
  subheader "e. blind-trie node representations (§5.1): space and speed";
  let n = scaled 60_000 in
  let rng = Rng.create 74 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys = unique_keys rng table n 8 in
  let bench which =
    let index =
      match which with
      | `Kind kind -> Registry.make ~key_len:8 ~load kind
      | `Seqtree levels ->
        (* SeqTree at the given BlindiTree level, breathing off so the
           three representations differ only in their trie layout. *)
        Ei_harness.Index_ops.of_btree "seqtree"
          (Ei_btree.Btree.create ~key_len:8 ~load
             ~policy:(Ei_btree.Policy.fixed ~levels ~breathing:0 (Ei_btree.Policy.Spec_seq 128))
             ())
    in
    let ins =
      mops n (fun () ->
          Array.iter (fun (k, tid) -> ignore (index.Index_ops.insert k tid)) keys)
    in
    let rng = Rng.create 4 in
    let srch =
      mops n (fun () ->
          for _ = 1 to n do
            let k, _ = keys.(Rng.int rng n) in
            ignore (index.Index_ops.find k)
          done)
    in
    (ins, srch, index.Index_ops.memory_bytes ())
  in
  print_row ~w:16 [ "repr"; "B/key"; "ins Mops"; "srch Mops" ];
  List.iter
    (fun (label, which) ->
      let ins, srch, bytes = bench which in
      let cell phase m =
        emit_mops ~name:"ablation-repr"
          ~params:[ ("repr", label); ("phase", phase) ]
          ~mops:m ~bytes
      in
      cell "insert" ins;
      cell "search" srch;
      print_row ~w:16
        [
          label;
          f2 (float_of_int bytes /. float_of_int n);
          f3 ins;
          f3 srch;
        ])
    [
      ("seqtrie (lvl0)", `Seqtree 0);
      ("seqtree (lvl2)", `Seqtree 2);
      ("subtrie", `Kind (Registry.Subtrie 128));
      ("stringtrie", `Kind (Registry.Stringtrie 128));
      ("stx", `Kind Registry.Stx);
    ];
  pf
    "(paper's B/key for the trie structures alone: SeqTrie ~1, SubTrie ~2,\n\
     String B-Trie ~3 - plus 8 B/key of tuple ids for all of them; the\n\
     SeqTree adds the BlindiTree to the SeqTrie for free at level <= 3)\n"

(* --- d. elastic skip list --------------------------------------------- *)

let skiplist_ablation () =
  subheader "d. framework generality: elastic skip list vs plain skip list";
  let n = scaled 60_000 in
  let key_len = 16 in
  let rng = Rng.create 73 in
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let keys = unique_keys rng table n key_len in
  let plain = Ei_baselines.Skiplist.create ~key_len () in
  let p_ins =
    mops n (fun () ->
        Array.iter (fun (k, tid) -> ignore (Ei_baselines.Skiplist.insert plain k tid)) keys)
  in
  let plain_bytes = Ei_baselines.Skiplist.memory_bytes plain in
  let elastic =
    Ei_core.Elastic_skiplist.create ~key_len ~load ~size_bound:(plain_bytes / 3)
      ()
  in
  let e_ins =
    mops n (fun () ->
        Array.iter
          (fun (k, tid) -> ignore (Ei_core.Elastic_skiplist.insert elastic k tid))
          keys)
  in
  let probes = scaled 100_000 in
  let lookup index_find =
    mops probes (fun () ->
        for _ = 1 to probes do
          let k, _ = keys.(Rng.int rng n) in
          ignore (index_find k)
        done)
  in
  let p_lkp = lookup (Ei_baselines.Skiplist.find plain) in
  let e_lkp = lookup (Ei_core.Elastic_skiplist.find elastic) in
  let elastic_bytes = Ei_core.Elastic_skiplist.memory_bytes elastic in
  let cell index phase m bytes =
    emit_mops ~name:"ablation-skiplist"
      ~params:[ ("index", index); ("phase", phase) ]
      ~mops:m ~bytes
  in
  cell "skiplist" "insert" p_ins plain_bytes;
  cell "skiplist" "lookup" p_lkp plain_bytes;
  cell "elastic-sl" "insert" e_ins elastic_bytes;
  cell "elastic-sl" "lookup" e_lkp elastic_bytes;
  print_row ~w:16 [ "index"; "ins Mops"; "lkp Mops"; "mem MB" ];
  print_row ~w:16 [ "skiplist"; f3 p_ins; f3 p_lkp; mb plain_bytes ];
  print_row ~w:16 [ "elastic-sl"; f3 e_ins; f3 e_lkp; mb elastic_bytes ];
  pf "(elastic segments: %d, state %s — the same transformation, size\n\
      bound and state machine as the elastic B+-tree, on a skip list)\n"
    (Ei_core.Elastic_skiplist.segments elastic)
    (Ei_btree.Hysteresis.state_name (Ei_core.Elastic_skiplist.state elastic))

(* --- f. the dominated baselines of §6.1 -------------------------------- *)

let dominated_ablation () =
  subheader "f. §6.1's omitted baselines: each dominated by a plotted index";
  let n = scaled 60_000 in
  let key_len = 8 in
  let rng = Rng.create 75 in
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let keys = unique_keys rng table n key_len in
  let bench kind =
    let index = Registry.make ~key_len ~load kind in
    let ins =
      mops n (fun () ->
          Array.iter (fun (k, tid) -> ignore (index.Index_ops.insert k tid)) keys)
    in
    let rng = Rng.create 4 in
    let lkp =
      mops n (fun () ->
          for _ = 1 to n do
            let k, _ = keys.(Rng.int rng n) in
            ignore (index.Index_ops.find k)
          done)
    in
    (ins, lkp, index.Index_ops.memory_bytes ())
  in
  print_row ~w:12 [ "index"; "mem MB"; "ins Mops"; "lkp Mops" ];
  let results =
    List.map
      (fun (label, kind) ->
        let ins, lkp, bytes = bench kind in
        let cell phase m =
          emit_mops ~name:"ablation-dominated"
            ~params:[ ("index", label); ("phase", phase) ]
            ~mops:m ~bytes
        in
        cell "insert" ins;
        cell "lookup" lkp;
        print_row ~w:12 [ label; mb bytes; f3 ins; f3 lkp ];
        (label, (ins, lkp, bytes)))
      [
        ("stx", Registry.Stx);
        ("hot", Registry.Hot);
        ("skiplist", Registry.Skiplist);
        ("bwtree", Registry.Bwtree);
        ("art", Registry.Art);
      ]
  in
  let get l = List.assoc l results in
  let _, _, stx_b = get "stx" in
  let _, _, sl_b = get "skiplist" in
  let bw_i, bw_l, bw_b = get "bwtree" in
  let stx_i, stx_l, _ = get "stx" in
  let _, _, art_b = get "art" in
  let _, _, hot_b = get "hot" in
  pf "paper's reasons to omit: skiplist memory > STX (%b); bwtree space <=
      STX (%b) but slower (%b); ART bigger than HOT (%b)
"
    (sl_b > (stx_b : int))
    (bw_b <= (stx_b : int))
    (Float.compare bw_i stx_i < 0 && Float.compare bw_l stx_l < 0)
    (art_b > (hot_b : int))

let run () =
  header "Ablations: design-choice studies beyond the paper's figures";
  prefix_ablation ();
  hybrid_ablation ();
  cold_sweep_ablation ();
  skiplist_ablation ();
  representations_ablation ();
  dominated_ablation ()
