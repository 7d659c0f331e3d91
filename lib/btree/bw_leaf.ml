(* Bw-tree-style delta-chained leaf (Levandoski et al. [18, 31]).

   Updates prepend delta records to a chain in front of a consolidated
   base node instead of modifying it; once the chain exceeds a threshold
   the node is consolidated (deltas folded into a fresh base).  Point
   operations walk the chain first — the extra memory references that
   make the Bw-tree "perform worse than STX with only slightly smaller
   space" (§6.1's reason for omitting it from the plots).

   The original Bw-tree is lock-free via a mapping table and CAS on
   chain heads; this single-threaded rendition keeps the structural
   behaviour (chains, consolidation cost, tightly-sized base nodes)
   that the space/performance comparison rests on.  Positional reads
   (scans, separators) merge the chain on the fly without mutating the
   node; splits and merges consolidate first. *)

module Strtbl = Ei_util.Strtbl

type delta = Dins of string * int | Ddel of string

type t = {
  key_len : int;
  capacity : int;
  consolidate_at : int;
  mutable base : Std_leaf.t;
  mutable deltas : delta list;  (* newest first *)
  mutable delta_count : int;
  mutable n : int;              (* live entries (base + deltas) *)
}
(* A leaf belongs to one single-threaded tree ({!Btree}, through {!Leaf}), and so to
   the one domain that owns that tree. *)
[@@ei.single_domain]

let create ?(consolidate_at = 8) ~key_len ~capacity () =
  {
    key_len;
    capacity;
    consolidate_at;
    base = Std_leaf.create ~key_len ~capacity ();
    deltas = [];
    delta_count = 0;
    n = 0;
  }

let count t = t.n
let capacity t = t.capacity

(* Base nodes are consolidated exactly-sized (the Bw-tree allocates
   per-consolidation buffers, not fixed slotted pages); deltas cost a
   key copy plus a record header and the chain pointer. *)
let memory_bytes t =
  Ei_storage.Memmodel.node_header + (2 * Ei_storage.Memmodel.word)
  + (Std_leaf.count t.base * (t.key_len + Ei_storage.Memmodel.word))
  + (t.delta_count * (t.key_len + (2 * Ei_storage.Memmodel.word)))

(* Chain walk: the newest delta for [key] decides. *)
let rec chain_find deltas key =
  match deltas with
  | [] -> `Base
  | Dins (k, tid) :: _ when Ei_util.Key.equal k key -> `Live tid
  | Ddel k :: _ when Ei_util.Key.equal k key -> `Dead
  | _ :: rest -> chain_find rest key

let find t key =
  match chain_find t.deltas key with
  | `Live tid -> Some tid
  | `Dead -> None
  | `Base -> Std_leaf.find t.base key

(* Fold the chain into a fresh, tightly-packed base. *)
let consolidate t =
  if t.delta_count > 0 then begin
    (* Oldest-first application; the newest decision per key wins, so
       apply newest-first with a "seen" set instead. *)
    let seen = Strtbl.create 16 in
    let live = Strtbl.create 16 in
    List.iter
      (fun d ->
        let k = match d with Dins (k, _) -> k | Ddel k -> k in
        if not (Strtbl.mem seen k) then begin
          Strtbl.add seen k ();
          match d with
          | Dins (_, tid) -> Strtbl.add live k tid
          | Ddel _ -> ()
        end)
      t.deltas;
    let entries = ref [] in
    Std_leaf.fold_from t.base 0
      (fun () k tid -> if not (Strtbl.mem seen k) then entries := (k, tid) :: !entries)
      ();
    Strtbl.iter (fun k tid -> entries := (k, tid) :: !entries) live;
    let arr = Array.of_list !entries in
    Array.sort (fun (a, _) (b, _) -> Ei_util.Key.compare a b) arr;
    let n = Array.length arr in
    assert (n = t.n);
    t.base <-
      Std_leaf.of_sorted ~key_len:t.key_len ~capacity:t.capacity
        (Array.map fst arr) (Array.map snd arr) n;
    t.deltas <- [];
    t.delta_count <- 0
  end

let maybe_consolidate t =
  if t.delta_count >= t.consolidate_at then consolidate t

let insert t key tid =
  match find t key with
  | Some _ -> Std_leaf.Duplicate
  | None ->
    if t.n >= t.capacity then Std_leaf.Full
    else begin
      t.deltas <- Dins (key, tid) :: t.deltas;
      t.delta_count <- t.delta_count + 1;
      t.n <- t.n + 1;
      maybe_consolidate t;
      Std_leaf.Inserted
    end

let remove t key =
  match find t key with
  | None -> Std_leaf.Not_present
  | Some _ ->
    t.deltas <- Ddel key :: t.deltas;
    t.delta_count <- t.delta_count + 1;
    t.n <- t.n - 1;
    maybe_consolidate t;
    Std_leaf.Removed

let update t key tid =
  match find t key with
  | None -> false
  | Some _ ->
    (* An update is just a fresh insert delta shadowing older state. *)
    t.deltas <- Dins (key, tid) :: t.deltas;
    t.delta_count <- t.delta_count + 1;
    maybe_consolidate t;
    true

(* Positional reads use a merged view computed on the fly, WITHOUT
   mutating the node: a scan over a delta chain must merge it (the
   Bw-tree's scan cost), and read paths must not change the node's
   size (the tree's memory accounting wraps only mutations). *)
let merged t =
  if t.delta_count = 0 then
    Array.init (Std_leaf.count t.base) (fun i ->
        (Std_leaf.key_at t.base i, Std_leaf.tid_at t.base i))
  else begin
    let seen = Strtbl.create 16 in
    let live = Strtbl.create 16 in
    List.iter
      (fun d ->
        let k = match d with Dins (k, _) -> k | Ddel k -> k in
        if not (Strtbl.mem seen k) then begin
          Strtbl.add seen k ();
          match d with
          | Dins (_, tid) -> Strtbl.add live k tid
          | Ddel _ -> ()
        end)
      t.deltas;
    let entries = ref [] in
    Std_leaf.fold_from t.base 0
      (fun () k tid -> if not (Strtbl.mem seen k) then entries := (k, tid) :: !entries)
      ();
    Strtbl.iter (fun k tid -> entries := (k, tid) :: !entries) live;
    let arr = Array.of_list !entries in
    Array.sort (fun (a, _) (b, _) -> Ei_util.Key.compare a b) arr;
    arr
  end

let key_at t i = fst (merged t).(i)
let tid_at t i = snd (merged t).(i)

let lower_bound t key =
  if t.delta_count = 0 then Std_leaf.lower_bound t.base key
  else begin
    let m = merged t in
    let lo = ref 0 and hi = ref (Array.length m) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Ei_util.Key.compare (fst m.(mid)) key < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo
  end

let fold_from t pos f acc =
  if t.delta_count = 0 then Std_leaf.fold_from t.base pos f acc
  else begin
    let m = merged t in
    let acc = ref acc in
    for i = max 0 pos to Array.length m - 1 do
      let k, tid = m.(i) in
      acc := f !acc k tid
    done;
    !acc
  end

let of_sorted ~key_len ~capacity keys tids n =
  let t = create ~key_len ~capacity () in
  t.base <- Std_leaf.of_sorted ~key_len ~capacity keys tids n;
  t.n <- n;
  t

let split t =
  consolidate t;
  let right_base = Std_leaf.split t.base in
  let right = create ~consolidate_at:t.consolidate_at ~key_len:t.key_len ~capacity:t.capacity () in
  right.base <- right_base;
  right.n <- Std_leaf.count right_base;
  t.n <- Std_leaf.count t.base;
  right

let absorb a b =
  consolidate a;
  consolidate b;
  Std_leaf.absorb a.base b.base;
  a.n <- Std_leaf.count a.base

let check_invariants t =
  Std_leaf.check_invariants t.base;
  assert (t.delta_count = List.length t.deltas);
  assert (t.delta_count <= t.consolidate_at);
  (* The merged view is sorted and sized like the live count. *)
  let m = merged t in
  assert (Array.length m = t.n);
  for i = 0 to t.n - 2 do
    assert (Ei_util.Key.compare (fst m.(i)) (fst m.(i + 1)) < 0)
  done;
  (* Live count matches a from-scratch fold of the chain over the base. *)
  let seen = Strtbl.create 16 in
  let live = ref 0 in
  List.iter
    (fun d ->
      let k = match d with Dins (k, _) -> k | Ddel k -> k in
      if not (Strtbl.mem seen k) then begin
        Strtbl.add seen k ();
        match d with Dins _ -> incr live | Ddel _ -> ()
      end)
    t.deltas;
  Std_leaf.fold_from t.base 0
    (fun () k _ -> if not (Strtbl.mem seen k) then incr live)
    ();
  assert (!live = t.n)
