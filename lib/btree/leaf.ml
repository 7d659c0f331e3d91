(* A B+-tree leaf slot: the mutable cell through which the tree sees a
   leaf, whatever its current representation.

   The elastic index converts leaves between representations *in place*
   (§4) — the parent inner node keeps pointing at the same [t] while
   [repr] is swapped — so conversions never touch the upper tree levels.
   Leaves are chained through [next] for range scans. *)

module Seqtree = Ei_blindi.Seqtree
module Subtrie = Ei_blindi.Subtrie
module Stringtrie = Ei_blindi.Stringtrie

type repr =
  | Std of Std_leaf.t
  | Seq of Seqtree.t
  | Sub of Subtrie.t
  | Pre of Prefix_leaf.t
  | Str of Stringtrie.t
  | Bw of Bw_leaf.t

type t = {
  mutable repr : repr;
  mutable next : t option;
  mutable hits : int;  (* accesses since the last cold-sweep visit *)
}
(* A leaf belongs to one single-threaded tree ({!Btree}), and so to
   the one domain that owns that tree. *)
[@@ei.single_domain]

type load = int -> string

let count t =
  match t.repr with
  | Std l -> Std_leaf.count l
  | Seq l -> Seqtree.count l
  | Sub l -> Subtrie.count l
  | Pre l -> Prefix_leaf.count l
  | Str l -> Stringtrie.count l
  | Bw l -> Bw_leaf.count l

(* Prefix leaves store keys internally: not "compact" in the paper's
   indirect-key sense. *)
let is_compact t =
  match t.repr with
  | Std _ | Pre _ | Bw _ -> false
  | Seq _ | Sub _ | Str _ -> true

let spec t : Policy.leaf_spec =
  match t.repr with
  | Std _ -> Spec_std
  | Seq l -> Spec_seq (Seqtree.capacity l)
  | Sub l -> Spec_sub (Subtrie.capacity l)
  | Pre _ -> Spec_pre
  | Str l -> Spec_str (Stringtrie.capacity l)
  | Bw _ -> Spec_bw

(* Entry at a position in key order; compact leaves load the key. *)
let entry_at t ~(load : int -> string) i =
  match t.repr with
  | Std l -> (Std_leaf.key_at l i, Std_leaf.tid_at l i)
  | Pre l -> (Prefix_leaf.key_at l i, Prefix_leaf.tid_at l i)
  | Bw l -> (Bw_leaf.key_at l i, Bw_leaf.tid_at l i)
  | Seq l ->
    let tid = Seqtree.tid_at l i in
    (load tid, tid)
  | Sub l ->
    let tid = Subtrie.tid_at l i in
    (load tid, tid)
  | Str l ->
    let tid = Stringtrie.tid_at l i in
    (load tid, tid)

let memory_bytes t =
  match t.repr with
  | Std l -> Std_leaf.memory_bytes l
  | Seq l -> Seqtree.memory_bytes l
  | Sub l -> Subtrie.memory_bytes l
  | Pre l -> Prefix_leaf.memory_bytes l
  | Str l -> Stringtrie.memory_bytes l
  | Bw l -> Bw_leaf.memory_bytes l

let find t ~(load : load) key =
  match t.repr with
  | Std l -> Std_leaf.find l key
  | Seq l -> Seqtree.find l ~load key
  | Sub l -> Subtrie.find l ~load key
  | Pre l -> Prefix_leaf.find l key
  | Str l -> Stringtrie.find l ~load key
  | Bw l -> Bw_leaf.find l key

type insert_result = Inserted | Full | Duplicate

let insert t ~(load : load) key tid =
  match t.repr with
  | Std l -> (
    match Std_leaf.insert l key tid with
    | Std_leaf.Inserted -> Inserted
    | Std_leaf.Full -> Full
    | Std_leaf.Duplicate -> Duplicate)
  | Pre l -> (
    match Prefix_leaf.insert l key tid with
    | Std_leaf.Inserted -> Inserted
    | Std_leaf.Full -> Full
    | Std_leaf.Duplicate -> Duplicate)
  | Bw l -> (
    match Bw_leaf.insert l key tid with
    | Std_leaf.Inserted -> Inserted
    | Std_leaf.Full -> Full
    | Std_leaf.Duplicate -> Duplicate)
  | Seq l -> (
    match Seqtree.insert l ~load key tid with
    | Seqtree.Inserted -> Inserted
    | Seqtree.Grown l ->
      (* Breathing growth: the key is in a larger image. *)
      t.repr <- Seq l;
      Inserted
    | Seqtree.Full -> Full
    | Seqtree.Duplicate -> Duplicate)
  | Sub l -> (
    match Subtrie.insert l ~load key tid with
    | Subtrie.Inserted -> Inserted
    | Subtrie.Full -> Full
    | Subtrie.Duplicate -> Duplicate)
  | Str l -> (
    match Stringtrie.insert l ~load key tid with
    | Stringtrie.Inserted -> Inserted
    | Stringtrie.Full -> Full
    | Stringtrie.Duplicate -> Duplicate)

let update t ~(load : load) key tid =
  match t.repr with
  | Std l -> Std_leaf.update l key tid
  | Seq l -> Seqtree.update l ~load key tid
  | Sub l -> Subtrie.update l ~load key tid
  | Pre l -> Prefix_leaf.update l key tid
  | Str l -> Stringtrie.update l ~load key tid
  | Bw l -> Bw_leaf.update l key tid

type remove_result = Removed | Not_present

let remove t ~(load : load) key =
  match t.repr with
  | Std l -> (
    match Std_leaf.remove l key with
    | Std_leaf.Removed -> Removed
    | Std_leaf.Not_present -> Not_present)
  | Pre l -> (
    match Prefix_leaf.remove l key with
    | Std_leaf.Removed -> Removed
    | Std_leaf.Not_present -> Not_present)
  | Bw l -> (
    match Bw_leaf.remove l key with
    | Std_leaf.Removed -> Removed
    | Std_leaf.Not_present -> Not_present)
  | Seq l -> (
    match Seqtree.remove l ~load key with
    | Seqtree.Removed -> Removed
    | Seqtree.Not_present -> Not_present)
  | Sub l -> (
    match Subtrie.remove l ~load key with
    | Subtrie.Removed -> Removed
    | Subtrie.Not_present -> Not_present)
  | Str l -> (
    match Stringtrie.remove l ~load key with
    | Stringtrie.Removed -> Removed
    | Stringtrie.Not_present -> Not_present)

let lower_bound t ~(load : load) key =
  match t.repr with
  | Std l -> Std_leaf.lower_bound l key
  | Seq l -> Seqtree.lower_bound l ~load key
  | Sub l -> Subtrie.lower_bound l ~load key
  | Pre l -> Prefix_leaf.lower_bound l key
  | Str l -> Stringtrie.lower_bound l ~load key
  | Bw l -> Bw_leaf.lower_bound l key

(* First key of the leaf; compact leaves load it from the table.  Used
   for separators.  The leaf must be non-empty. *)
let min_key t ~(load : load) =
  assert (count t > 0);
  match t.repr with
  | Std l -> Std_leaf.key_at l 0
  | Seq l -> load (Seqtree.tid_at l 0)
  | Sub l -> load (Subtrie.tid_at l 0)
  | Pre l -> Prefix_leaf.key_at l 0
  | Str l -> load (Stringtrie.tid_at l 0)
  | Bw l -> Bw_leaf.key_at l 0

(* Fold (key, tid) pairs in key order starting at position [pos].
   Compact leaves load every key — the indirect-access cost that makes
   their scans slower (§2, §6.1). *)
let fold_from t ~(load : load) pos f acc =
  match t.repr with
  | Std l -> Std_leaf.fold_from l pos f acc
  | Seq l -> Seqtree.fold_from l pos (fun acc tid -> f acc (load tid) tid) acc
  | Sub l -> Subtrie.fold_from l pos (fun acc tid -> f acc (load tid) tid) acc
  | Pre l -> Prefix_leaf.fold_from l pos f acc
  | Str l -> Stringtrie.fold_from l pos (fun acc tid -> f acc (load tid) tid) acc
  | Bw l -> Bw_leaf.fold_from l pos f acc

(* Extract all entries as sorted parallel arrays (keys loaded for compact
   leaves); used by rebuilds, mixed-representation merges and borrows. *)
let entries t ~(load : load) =
  let n = count t in
  match t.repr with
  | Std l ->
    (Array.init n (fun i -> Std_leaf.key_at l i), Array.init n (fun i -> Std_leaf.tid_at l i))
  | Pre l ->
    (Array.init n (fun i -> Prefix_leaf.key_at l i), Array.init n (fun i -> Prefix_leaf.tid_at l i))
  | Bw l ->
    (Array.init n (fun i -> Bw_leaf.key_at l i), Array.init n (fun i -> Bw_leaf.tid_at l i))
  | Seq l ->
    let tids = Array.init n (fun i -> Seqtree.tid_at l i) in
    (Array.map load tids, tids)
  | Sub l ->
    let tids = Array.init n (fun i -> Subtrie.tid_at l i) in
    (Array.map load tids, tids)
  | Str l ->
    let tids = Array.init n (fun i -> Stringtrie.tid_at l i) in
    (Array.map load tids, tids)

(* Build a representation from sorted entries according to a spec. *)
let repr_of_spec ~key_len ~std_capacity ~seq_levels ~seq_breathing
    (spec : Policy.leaf_spec) keys tids n =
  match spec with
  | Policy.Spec_std ->
    assert (n <= std_capacity);
    Std (Std_leaf.of_sorted ~key_len ~capacity:std_capacity keys tids n)
  | Policy.Spec_seq c ->
    assert (n <= c);
    Seq
      (Seqtree.of_sorted ~key_len ~capacity:c ~levels:seq_levels
         ~breathing:seq_breathing keys tids n)
  | Policy.Spec_sub c ->
    assert (n <= c);
    Sub (Subtrie.of_sorted ~key_len ~capacity:c keys tids n)
  | Policy.Spec_pre ->
    assert (n <= std_capacity);
    Pre (Prefix_leaf.of_sorted ~key_len ~capacity:std_capacity keys tids n)
  | Policy.Spec_str c ->
    assert (n <= c);
    Str (Stringtrie.of_sorted ~key_len ~capacity:c keys tids n)
  | Policy.Spec_bw ->
    assert (n <= std_capacity);
    Bw (Bw_leaf.of_sorted ~key_len ~capacity:std_capacity keys tids n)

let check_invariants t ~(load : load) =
  match t.repr with
  | Std l -> Std_leaf.check_invariants l
  | Seq l -> Seqtree.check_invariants l ~load
  | Sub l -> Subtrie.check_invariants l ~load
  | Pre l -> Prefix_leaf.check_invariants l
  | Str l -> Stringtrie.check_invariants l ~load
  | Bw l -> Bw_leaf.check_invariants l
