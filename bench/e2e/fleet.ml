(* The shared set-up of every workload: an elastic BTreeOLC fleet of two
   shards over one row table of 8-byte [Ycsb.key_of_seq] keys, served
   by [Serve] with the global memory coordinator on, preloaded through
   [Serve.exec].  Row [seq] of the table holds key [key_of_seq seq], so
   a preloaded key's tid is its sequence number. *)

module Table = Ei_storage.Table
module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops
module Olc = Ei_olc.Btree_olc
module Shard = Ei_shard.Shard
module Serve = Ei_shard.Serve
module Wal = Ei_wal.Wal
module Ycsb = Ei_workload.Ycsb

let shards = 2
let key_len = 8
let preload_batch = 512

(* The global soft bound: 60 % of an unconstrained BTreeOLC at ~27 B per
   key, the heuristic fig6_par uses. *)
let global_bound records = records * 27 * 6 / 10

(* Set-up is timed this many times per run; the median is [setup_s]. *)
let setup_reps = 3

type t = {
  serve : Serve.t;
  router : Shard.t;
  table : Table.t;
  global_bound : int;
  wal : Wal.config option;
  mk_part : table:Table.t -> int -> Index_ops.t;
      (** an empty part of the fleet's kind over [table] *)
}

let part_maker ~gb ~traced ~table =
  let load = Table.loader table in
  let load = if traced then Spans.wrap_load load else load in
  let load =
    Olc.safe_loader ~key_len ~table_length:(fun () -> Table.length table) ~load
  in
  let kind =
    Registry.Olc
      (Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:(max 1 (gb / shards))))
  in
  fun i ->
    let ix =
      Registry.make ~name:(Printf.sprintf "olc-elastic/%d" i) ~key_len ~load kind
    in
    if traced then Spans.wrap_index ix else ix

(* Build, start and preload.  With [wal_dir] the shards are durable (the
   directory is reset first) and supervised, as [ei serve-net --wal]
   runs them. *)
let start ~records ~traced ?wal_dir () =
  let gb = global_bound records in
  let table = Table.create ~initial_capacity:(records + 1024) ~key_len () in
  let mk_part ~table = part_maker ~gb ~traced ~table in
  let router = Shard.create (Array.init shards (mk_part ~table)) in
  let wal =
    Option.map
      (fun dir ->
        Wal.reset_dir dir;
        Wal.default_config ~dir)
      wal_dir
  in
  let supervisor =
    Option.map
      (fun _ -> Serve.default_supervisor ~table ~rebuild:(mk_part ~table))
      wal
  in
  let serve =
    Serve.start
      ~coordinator:(Serve.default_coordinator ~global_bound:gb)
      ?supervisor ?wal
      ?wal_restore:
        (Option.map (fun _ ~tid ~key -> Table.restore_row table ~tid ~key) wal)
      router
  in
  let i = ref 0 in
  while !i < records do
    let len = Int.min preload_batch (records - !i) in
    let ops =
      Array.init len (fun j ->
          let k = Ycsb.key_of_seq (!i + j) in
          Serve.Insert (k, Table.append table k))
    in
    Array.iter
      (function
        | Serve.Applied 1 -> ()
        | Serve.Applied r -> Verdict.fail "preload insert returned %d" r
        | Serve.Rejected | Serve.Timed_out -> Verdict.fail "preload insert failed")
      (Serve.exec serve ops);
    i := !i + len
  done;
  { serve; router; table; global_bound = gb; wal; mk_part }

(* Set up [setup_reps] times from a collected heap, keep the last fleet,
   and report the median set-up time with every sample. *)
let start_timed ~records ~traced ?wal_dir () =
  let rec go k times =
    Gc.full_major ();
    let t0 = Clock.now_ns () in
    let f = start ~records ~traced ?wal_dir () in
    let times = Clock.seconds_since t0 :: times in
    if k < setup_reps then begin
      Serve.stop f.serve;
      go (k + 1) times
    end
    else (f, List.rev times)
  in
  let f, times = go 1 [] in
  (f, Stats.median times, times)

let aggregate_bytes f = Array.fold_left ( + ) 0 (Serve.shard_sizes f.serve)

let olc_trees f =
  Array.to_list (Shard.parts f.router)
  |> List.filter_map (fun (ix : Index_ops.t) ->
         match ix.Index_ops.backend with
         | Index_ops.B_olc t -> Some t
         | _ -> None)

let conversions f =
  List.fold_left (fun a t -> a + Olc.elastic_conversions t) 0 (olc_trees f)

(* Fraction of leaves, and of keys, held in compact (indirect-key)
   leaves.  Walks the trees: call after [Serve.stop]. *)
let compact_fractions f =
  let leaves, compact, keys, ckeys =
    List.fold_left
      (fun acc t ->
        Olc.fold_leaves t
          (fun (l, c, k, ck) ~compact ~capacity:_ ~count ~bytes:_ ->
            if compact then (l + 1, c + 1, k + count, ck + count)
            else (l + 1, c, k + count, ck))
          acc)
      (0, 0, 0, 0) (olc_trees f)
  in
  let frac a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  (frac compact leaves, frac ckeys keys)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. (1024. *. 1024.)

(* Largest major heap of the process so far (set-up included). *)
let peak_heap_mb () = mb (Gc.quick_stat ()).Gc.top_heap_words

(* Live data after a full collection: the fleet, its row table and the
   generator's own state. *)
let live_heap_mb () =
  Gc.full_major ();
  mb (Gc.stat ()).Gc.live_words

