(* A uniform first-class interface over every ordered index in the
   repository, so workload drivers, the MCAS table plugin, benchmarks
   and examples can be written once and run against any of them. *)

(* The concrete structure behind the closures, so external validators
   ({!Ei_check}) can reach structure-specific introspection. *)
type backend =
  | B_btree of Ei_btree.Btree.t
  | B_elastic of Ei_core.Elastic_btree.t
  | B_radix of Ei_baselines.Radix.t
  | B_skiplist of Ei_baselines.Skiplist.t
  | B_hybrid of Ei_baselines.Hybrid.t
  | B_elastic_skiplist of Ei_core.Elastic_skiplist.t
  | B_olc of Ei_olc.Btree_olc.t
  | B_composite of t array
    (* a router composed over sub-indexes (e.g. the shard fleet);
       validators recurse into the parts *)

and t = {
  name : string;
  backend : backend;
  key_len : int;  (* length in bytes of every key the index accepts *)
  insert : string -> int -> bool;
  remove : string -> bool;
  update : string -> int -> bool;  (* in-place value overwrite *)
  find : string -> int option;
  multi_find : string array -> int option array;
  (* batched point lookup: slot [i] is [find keys.(i)].  Backends with a
     native group-descent path (B+-tree, OLC) overlap the per-level node
     fetches of a batch; the rest fall back to a [find] loop. *)
  scan : string -> int -> int;
  (* [scan start n] visits up to [n] entries with key >= start and
     returns how many were visited; visiting materialises each key (the
     included-column access pattern of §2). *)
  scan_keys : string -> int -> (string -> unit) -> int;
  (* like [scan] but hands each visited key to the callback: the
     included-column query path of §2 (results computed from key bytes) *)
  memory_bytes : unit -> int;
  count : unit -> int;
  set_size_bound : int -> unit;
  (* retune the elastic soft bound on a live index; no-op for inelastic
     indexes — the uniform lever the global memory coordinator pulls *)
  info : unit -> string;  (* index-specific status, e.g. elastic state *)
}

let no_size_bound (_ : int) = ()

(* Fallback batched lookup for backends without a group-descent path. *)
let multi_of_find find keys = Array.map find keys

(* Transient operation failure, injected in front of any index: each
   point operation first draws at the site and raises [Fault.Injected]
   when it fires.  The backend is passed through unchanged, so deep
   validators ({!Ei_check}) still reach the real structure.  Scans and
   aggregates are not wrapped — transient faults model per-op resource
   refusals (allocation failure, admission control), which a caller
   retries; corrupting read-only introspection would only blind the
   validators this substrate exists to feed. *)
let inject ~site (ix : t) =
  let module Fault = Ei_fault.Fault in
  {
    ix with
    insert =
      (fun k tid ->
        Fault.inject site;
        ix.insert k tid);
    remove =
      (fun k ->
        Fault.inject site;
        ix.remove k);
    update =
      (fun k tid ->
        Fault.inject site;
        ix.update k tid);
    find =
      (fun k ->
        Fault.inject site;
        ix.find k);
    multi_find =
      (* a batch is a sequence of point lookups, so each key draws —
         matching the per-op granularity callers retry at.  A fault
         aborts the rest of the batch; the grouped descent is skipped
         because partial batches under injection are exactly what the
         per-op fallback paths exist to handle. *)
      (fun keys ->
        Array.map
          (fun k ->
            Fault.inject site;
            ix.find k)
          keys);
  }

(* Per-operation latency observation, mirroring [inject]: the closures
   are wrapped, the backend passes through untouched.  Each op lands in
   its own log-bucketed histogram ([<prefix>.<op>_ns]), so one registry
   snapshot shows the full latency profile of a run.  When the registry
   is disabled the wrapper costs one atomic load per op. *)
let observed ~prefix (ix : t) =
  let module Metrics = Ei_obs.Metrics in
  let module Clock = Ei_util.Bench_clock in
  let h op = Metrics.histogram (prefix ^ "." ^ op ^ "_ns") in
  let h_insert = h "insert"
  and h_remove = h "remove"
  and h_update = h "update"
  and h_find = h "find"
  and h_multi = h "multi_find"
  and h_scan = h "scan" in
  let timed h f =
    if Metrics.enabled () then begin
      let t0 = Clock.now_ns () in
      let r = f () in
      Metrics.observe h (Clock.now_ns () - t0);
      r
    end
    else f ()
  in
  {
    ix with
    insert = (fun k tid -> timed h_insert (fun () -> ix.insert k tid));
    remove = (fun k -> timed h_remove (fun () -> ix.remove k));
    update = (fun k tid -> timed h_update (fun () -> ix.update k tid));
    find = (fun k -> timed h_find (fun () -> ix.find k));
    multi_find = (fun keys -> timed h_multi (fun () -> ix.multi_find keys));
    scan = (fun start n -> timed h_scan (fun () -> ix.scan start n));
  }

(* Per-operation root span contexts, for drivers that call the index
   directly rather than through {!Ei_shard.Serve} (which mints its
   own): each op runs under a fresh trace id, so the histogram
   exemplars and trace events recorded beneath it are causally
   attributed.  One counter fetch-add per op when tracing is on;
   one atomic load when off. *)
let traced (ix : t) =
  let module Ctx = Ei_obs.Ctx in
  let module Trace = Ei_obs.Trace in
  let under f =
    if Trace.enabled () then begin
      Ctx.set (Ctx.mint ());
      match f () with
      | r ->
        Ctx.clear ();
        r
      | exception e ->
        Ctx.clear ();
        raise e
    end
    else f ()
  in
  {
    ix with
    insert = (fun k tid -> under (fun () -> ix.insert k tid));
    remove = (fun k -> under (fun () -> ix.remove k));
    update = (fun k tid -> under (fun () -> ix.update k tid));
    find = (fun k -> under (fun () -> ix.find k));
    multi_find = (fun keys -> under (fun () -> ix.multi_find keys));
    scan = (fun start n -> under (fun () -> ix.scan start n));
  }

let checksum = ref 0
(* Scanned keys are folded into this sink so the compiler cannot elide
   the key materialisation work. *)

(* Order-sensitive digest of the full contents: FNV-1a chained over
   every (key, tid) pair in key order, starting from the all-zero key
   (the minimum of the fixed-length big-endian key space).  Two indexes
   over the same logical map produce the same fingerprint whatever their
   physical layout — the equality ei_sim's differential engine checks at
   tape checkpoints.  Quiescent use only: it walks the live structure
   via [scan_keys] and [find]. *)
let fingerprint (ix : t) =
  let module Fnv = Ei_util.Fnv in
  let h = ref 0 in
  let low = String.make ix.key_len '\000' in
  ignore
    (ix.scan_keys low max_int (fun k ->
         let tid = match ix.find k with Some tid -> tid | None -> -1 in
         h := Fnv.hash ~seed:!h (k ^ string_of_int tid)));
  !h

let of_btree name (tree : Ei_btree.Btree.t) =
  {
    name;
    backend = B_btree tree;
    key_len = Ei_btree.Btree.key_len tree;
    insert = Ei_btree.Btree.insert tree;
    remove = Ei_btree.Btree.remove tree;
    update = Ei_btree.Btree.update tree;
    find = Ei_btree.Btree.find tree;
    multi_find = Ei_btree.Btree.multi_find tree;
    scan =
      (fun start n ->
        Ei_btree.Btree.fold_range tree ~start ~n
          (fun acc k _ ->
            checksum := !checksum lxor Char.code (String.unsafe_get k 0);
            acc + 1)
          0);
    scan_keys =
      (fun start n visit ->
        Ei_btree.Btree.fold_range tree ~start ~n
          (fun acc k _ ->
            visit k;
            acc + 1)
          0);
    memory_bytes = (fun () -> Ei_btree.Btree.memory_bytes tree);
    count = (fun () -> Ei_btree.Btree.count tree);
    set_size_bound = no_size_bound;
    info = (fun () -> "");
  }

let of_elastic name (tree : Ei_core.Elastic_btree.t) =
  {
    name;
    backend = B_elastic tree;
    key_len = Ei_core.Elastic_btree.key_len tree;
    insert = Ei_core.Elastic_btree.insert tree;
    remove = Ei_core.Elastic_btree.remove tree;
    update = Ei_core.Elastic_btree.update tree;
    find = Ei_core.Elastic_btree.find tree;
    multi_find =
      (* the elastic wrapper delegates point ops to the inner tree, so
         group descent over it is the same lookup the [find] above runs *)
      Ei_btree.Btree.multi_find (Ei_core.Elastic_btree.tree tree);
    scan =
      (fun start n ->
        Ei_core.Elastic_btree.fold_range tree ~start ~n
          (fun acc k _ ->
            checksum := !checksum lxor Char.code (String.unsafe_get k 0);
            acc + 1)
          0);
    scan_keys =
      (fun start n visit ->
        Ei_core.Elastic_btree.fold_range tree ~start ~n
          (fun acc k _ ->
            visit k;
            acc + 1)
          0);
    memory_bytes = (fun () -> Ei_core.Elastic_btree.memory_bytes tree);
    count = (fun () -> Ei_core.Elastic_btree.count tree);
    set_size_bound = Ei_core.Elastic_btree.set_size_bound tree;
    info =
      (fun () ->
        Ei_core.Elasticity.state_name (Ei_core.Elastic_btree.state tree));
  }

let of_radix name (tree : Ei_baselines.Radix.t) =
  {
    name;
    backend = B_radix tree;
    key_len = Ei_baselines.Radix.key_len tree;
    insert = Ei_baselines.Radix.insert tree;
    remove = Ei_baselines.Radix.remove tree;
    update = Ei_baselines.Radix.update tree;
    find = Ei_baselines.Radix.find tree;
    multi_find = multi_of_find (Ei_baselines.Radix.find tree);
    scan =
      (fun start n ->
        Ei_baselines.Radix.fold_range tree ~start ~n
          (fun acc k _ ->
            checksum := !checksum lxor Char.code (String.unsafe_get k 0);
            acc + 1)
          0);
    scan_keys =
      (fun start n visit ->
        Ei_baselines.Radix.fold_range tree ~start ~n
          (fun acc k _ ->
            visit k;
            acc + 1)
          0);
    memory_bytes = (fun () -> Ei_baselines.Radix.memory_bytes tree);
    count = (fun () -> Ei_baselines.Radix.count tree);
    set_size_bound = no_size_bound;
    info = (fun () -> "");
  }

let of_elastic_skiplist name (tree : Ei_core.Elastic_skiplist.t) =
  {
    name;
    backend = B_elastic_skiplist tree;
    key_len = Ei_core.Elastic_skiplist.key_len tree;
    insert = Ei_core.Elastic_skiplist.insert tree;
    remove = Ei_core.Elastic_skiplist.remove tree;
    update = Ei_core.Elastic_skiplist.update_value tree;
    find = Ei_core.Elastic_skiplist.find tree;
    multi_find = multi_of_find (Ei_core.Elastic_skiplist.find tree);
    scan =
      (fun start n ->
        Ei_core.Elastic_skiplist.fold_range tree ~start ~n
          (fun acc k _ ->
            checksum := !checksum lxor Char.code (String.unsafe_get k 0);
            acc + 1)
          0);
    scan_keys =
      (fun start n visit ->
        Ei_core.Elastic_skiplist.fold_range tree ~start ~n
          (fun acc k _ ->
            visit k;
            acc + 1)
          0);
    memory_bytes = (fun () -> Ei_core.Elastic_skiplist.memory_bytes tree);
    count = (fun () -> Ei_core.Elastic_skiplist.count tree);
    set_size_bound = Ei_core.Elastic_skiplist.set_size_bound tree;
    info =
      (fun () ->
        Ei_core.Elastic_skiplist.state_name (Ei_core.Elastic_skiplist.state tree));
  }

let of_hybrid name (tree : Ei_baselines.Hybrid.t) =
  {
    name;
    backend = B_hybrid tree;
    key_len = Ei_baselines.Hybrid.key_len tree;
    insert = Ei_baselines.Hybrid.insert tree;
    remove = Ei_baselines.Hybrid.remove tree;
    update = Ei_baselines.Hybrid.update tree;
    find = Ei_baselines.Hybrid.find tree;
    multi_find = multi_of_find (Ei_baselines.Hybrid.find tree);
    scan =
      (fun start n ->
        Ei_baselines.Hybrid.fold_range tree ~start ~n
          (fun acc k _ ->
            checksum := !checksum lxor Char.code (String.unsafe_get k 0);
            acc + 1)
          0);
    scan_keys =
      (fun start n visit ->
        Ei_baselines.Hybrid.fold_range tree ~start ~n
          (fun acc k _ ->
            visit k;
            acc + 1)
          0);
    memory_bytes = (fun () -> Ei_baselines.Hybrid.memory_bytes tree);
    count = (fun () -> Ei_baselines.Hybrid.count tree);
    set_size_bound = no_size_bound;
    info =
      (fun () ->
        Printf.sprintf "%d merges"
          (Ei_baselines.Hybrid.stats tree).Ei_baselines.Hybrid.merges);
  }

let of_skiplist name (tree : Ei_baselines.Skiplist.t) =
  {
    name;
    backend = B_skiplist tree;
    key_len = Ei_baselines.Skiplist.key_len tree;
    insert = Ei_baselines.Skiplist.insert tree;
    remove = Ei_baselines.Skiplist.remove tree;
    update = Ei_baselines.Skiplist.update tree;
    find = Ei_baselines.Skiplist.find tree;
    multi_find = multi_of_find (Ei_baselines.Skiplist.find tree);
    scan =
      (fun start n ->
        Ei_baselines.Skiplist.fold_range tree ~start ~n
          (fun acc k _ ->
            checksum := !checksum lxor Char.code (String.unsafe_get k 0);
            acc + 1)
          0);
    scan_keys =
      (fun start n visit ->
        Ei_baselines.Skiplist.fold_range tree ~start ~n
          (fun acc k _ ->
            visit k;
            acc + 1)
          0);
    memory_bytes = (fun () -> Ei_baselines.Skiplist.memory_bytes tree);
    count = (fun () -> Ei_baselines.Skiplist.count tree);
    set_size_bound = no_size_bound;
    info = (fun () -> "");
  }

let of_olc name (tree : Ei_olc.Btree_olc.t) =
  let module Olc = Ei_olc.Btree_olc in
  let elastic = not (String.equal (Olc.elastic_state_name tree) "") in
  {
    name;
    backend = B_olc tree;
    key_len = Olc.key_len tree;
    insert = Olc.insert tree;
    remove = Olc.remove tree;
    update = Olc.update tree;
    find = Olc.find tree;
    multi_find = Olc.multi_find tree;
    scan =
      (fun start n ->
        Olc.fold_range tree ~start ~n
          (fun acc k _ ->
            checksum := !checksum lxor Char.code (String.unsafe_get k 0);
            acc + 1)
          0);
    scan_keys =
      (fun start n visit ->
        Olc.fold_range tree ~start ~n
          (fun acc k _ ->
            visit k;
            acc + 1)
          0);
    memory_bytes =
      (* the tracked size: O(1) and safe to read while other domains
         mutate, for every leaf kind ([Olc.memory_bytes] is a full
         traversal) *)
      (fun () -> Olc.tracked_memory_bytes tree);
    count = (fun () -> Olc.count tree);
    set_size_bound = Olc.set_size_bound tree;
    info =
      (fun () ->
        if elastic then
          Printf.sprintf "%s, %d compact, %d conversions"
            (Olc.elastic_state_name tree)
            (Olc.elastic_compact_leaves tree)
            (Olc.elastic_conversions tree)
        else "");
  }
