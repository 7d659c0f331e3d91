(* B+-tree with pluggable leaf representations.

   Structure modifications at the leaf level (overflow, underflow, merge)
   are delegated to a {!Policy.t}, which is how the elastic index
   framework customises the tree: the STX baseline always splits, the
   STX-SeqTree/SubTrie variants keep every leaf compact, and the elastic
   policy converts leaves between representations in place (§4).

   Inner nodes are conventional: sorted separator keys, where separator
   [i] is (a lower bound on) the minimum key of child [i+1].  Leaves are
   chained for range scans.  Index size is tracked incrementally under
   the explicit memory model so policies can consult it in O(1). *)

module Key = Ei_util.Key
module Invariant = Ei_util.Invariant
module Tracker = Ei_storage.Tracker
module Memmodel = Ei_storage.Memmodel
module Metrics = Ei_obs.Metrics
module Trace = Ei_obs.Trace

(* Shared structure-modification counters (per-domain sharded; no-ops
   while the registry is disabled).  The per-instance [stats] record
   stays authoritative for tests and reports. *)
let c_conversions = Metrics.counter "btree.conversions"
let c_leaf_splits = Metrics.counter "btree.leaf_splits"
let c_leaf_merges = Metrics.counter "btree.leaf_merges"
let c_search_splits = Metrics.counter "btree.search_splits"

(* Grouped-descent span, mirroring [Btree_olc.ev_multi_find]: joins the
   ambient request flow when a {!Ei_obs.Ctx} is installed. *)
let ev_multi_find =
  Trace.define ~span:true ~arg1:"keys" ~cat:"btree" "btree.multi_find"

type node = Inner of inner | Leaf_node of Leaf.t

and inner = {
  mutable n : int;  (* separator keys in use; children in use = n + 1 *)
  keys : string array;
  children : node array;
}
(* A tree belongs to one domain: a served part to its shard's domain
   ({!Ei_shard.Serve}), any other tree to its caller. *)
[@@ei.single_domain]

type stats = {
  mutable conversions : int;   (* leaf representation changes *)
  mutable leaf_splits : int;
  mutable leaf_merges : int;
  mutable search_splits : int; (* expansion-state splits triggered by finds *)
}
[@@ei.single_domain]

type t = {
  key_len : int;
  std_capacity : int;
  inner_capacity : int;
  load : int -> string;
  policy : Policy.t;
  tracker : Tracker.t;
  mutable root : node;
  mutable items : int;
  mutable compact_leaves : int;
  mutable sweep_cursor : Leaf.t option;  (* cold-compaction scan position *)
  stats : stats;
}
[@@ei.single_domain]

let inner_min t = t.inner_capacity / 2

let inner_bytes t =
  Memmodel.inner_bytes ~capacity:t.inner_capacity ~key_len:t.key_len

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

let empty_leaf t spec =
  let repr =
    Leaf.repr_of_spec ~key_len:t.key_len ~std_capacity:t.std_capacity
      ~seq_levels:t.policy.Policy.seq_levels
      ~seq_breathing:t.policy.Policy.seq_breathing spec [||] [||] 0
  in
  { Leaf.repr; next = None; hits = 0 }

let create ?(leaf_capacity = 16) ?(inner_capacity = 16) ~key_len ~load
    ~(policy : Policy.t) () =
  let t =
    {
      key_len;
      std_capacity = leaf_capacity;
      inner_capacity;
      load;
      policy;
      tracker = Tracker.create ();
      root = Inner { n = 0; keys = [||]; children = [||] } (* placeholder *);
      items = 0;
      compact_leaves = 0;
      sweep_cursor = None;
      stats = { conversions = 0; leaf_splits = 0; leaf_merges = 0; search_splits = 0 };
    }
  in
  let leaf = empty_leaf t policy.Policy.initial in
  t.root <- Leaf_node leaf;
  Tracker.add t.tracker (Leaf.memory_bytes leaf);
  if Leaf.is_compact leaf then t.compact_leaves <- 1;
  t

let count t = t.items

let key_len (t : t) = t.key_len
let std_capacity t = t.std_capacity
let memory_bytes t = Tracker.bytes t.tracker
let compact_leaves t = t.compact_leaves
let stats t = t.stats

let view t : Policy.view =
  { bytes = Tracker.bytes t.tracker; compact_leaves = t.compact_leaves; items = t.items }

(* ------------------------------------------------------------------ *)
(* Accounting helpers.                                                 *)

let account_delta t (before : int) after =
  if after >= before then Tracker.add t.tracker (after - before)
  else Tracker.sub t.tracker (before - after)

(* Run a mutation on a leaf, adjusting tracked bytes (breathing can grow
   the node on plain inserts) and the compact-leaf counter. *)
let mutate_leaf t leaf f =
  let before = Leaf.memory_bytes leaf in
  let compact_before = Leaf.is_compact leaf in
  let r = f () in
  account_delta t before (Leaf.memory_bytes leaf);
  let compact_after = Leaf.is_compact leaf in
  if compact_before && not compact_after then
    t.compact_leaves <- t.compact_leaves - 1
  else if (not compact_before) && compact_after then
    t.compact_leaves <- t.compact_leaves + 1;
  r

(* Rebuild a leaf in place to a new representation (conversion). *)
let convert_leaf t leaf spec =
  mutate_leaf t leaf (fun () ->
      let keys, tids = Leaf.entries leaf ~load:t.load in
      let n = Array.length keys in
      leaf.Leaf.repr <-
        Leaf.repr_of_spec ~key_len:t.key_len ~std_capacity:t.std_capacity
          ~seq_levels:t.policy.Policy.seq_levels
          ~seq_breathing:t.policy.Policy.seq_breathing spec keys tids n);
  t.stats.conversions <- t.stats.conversions + 1;
  Metrics.incr c_conversions

(* ------------------------------------------------------------------ *)
(* Inner-node helpers.                                                 *)

let new_inner t =
  Tracker.add t.tracker (inner_bytes t);
  {
    n = 0;
    keys = Array.make t.inner_capacity "";
    children = Array.make (t.inner_capacity + 1) (Inner { n = 0; keys = [||]; children = [||] });
  }

let free_inner t (_ : inner) = Tracker.sub t.tracker (inner_bytes t)

(* Number of separator keys <= [key]: the child to descend into. *)
let child_index nd key =
  let lo = ref 0 and hi = ref nd.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Key.compare_fast nd.keys.(mid) key <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let inner_insert_at nd i sep child =
  Array.blit nd.keys i nd.keys (i + 1) (nd.n - i);
  Array.blit nd.children (i + 1) nd.children (i + 2) (nd.n - i);
  nd.keys.(i) <- sep;
  nd.children.(i + 1) <- child;
  nd.n <- nd.n + 1

let inner_remove_at nd i =
  (* Removes separator [i] and child [i + 1]. *)
  Array.blit nd.keys (i + 1) nd.keys i (nd.n - i - 1);
  Array.blit nd.children (i + 2) nd.children (i + 1) (nd.n - i - 1);
  nd.keys.(nd.n - 1) <- "";
  nd.n <- nd.n - 1

(* ------------------------------------------------------------------ *)
(* Leaf split.                                                         *)

(* Split [leaf] into itself (left half) and a fresh right leaf, both with
   representation [spec].  Returns (separator, right leaf). *)
let split_leaf t leaf (spec : Policy.leaf_spec) =
  t.stats.leaf_splits <- t.stats.leaf_splits + 1;
  Metrics.incr c_leaf_splits;
  let before = Leaf.memory_bytes leaf in
  let was_compact = Leaf.is_compact leaf in
  let right_repr =
    match (leaf.Leaf.repr, spec) with
    | Leaf.Std l, Policy.Spec_std -> Leaf.Std (Std_leaf.split l)
    | Leaf.Pre l, Policy.Spec_pre -> Leaf.Pre (Prefix_leaf.split l)
    | Leaf.Bw l, Policy.Spec_bw -> Leaf.Bw (Bw_leaf.split l)
    | Leaf.Seq l, Policy.Spec_seq c when Ei_blindi.Seqtree.capacity l = c ->
      let left, right = Ei_blindi.Seqtree.split l ~left_capacity:c ~right_capacity:c in
      leaf.Leaf.repr <- Leaf.Seq left;
      Leaf.Seq right
    | Leaf.Sub l, Policy.Spec_sub c when Ei_blindi.Subtrie.capacity l = c ->
      let left, right = Ei_blindi.Subtrie.split l ~left_capacity:c ~right_capacity:c in
      leaf.Leaf.repr <- Leaf.Sub left;
      Leaf.Sub right
    | Leaf.Str l, Policy.Spec_str c when Ei_blindi.Stringtrie.capacity l = c ->
      let left, right =
        Ei_blindi.Stringtrie.split l ~load:t.load ~left_capacity:c ~right_capacity:c
      in
      leaf.Leaf.repr <- Leaf.Str left;
      Leaf.Str right
    | _ ->
      (* Representation change during the split: rebuild both halves. *)
      let keys, tids = Leaf.entries leaf ~load:t.load in
      let n = Array.length keys in
      let m = n / 2 in
      let mk lo len =
        Leaf.repr_of_spec ~key_len:t.key_len ~std_capacity:t.std_capacity
          ~seq_levels:t.policy.Policy.seq_levels
          ~seq_breathing:t.policy.Policy.seq_breathing spec
          (Array.sub keys lo len) (Array.sub tids lo len) len
      in
      let left = mk 0 m in
      let right = mk m (n - m) in
      leaf.Leaf.repr <- left;
      right
  in
  let right = { Leaf.repr = right_repr; next = leaf.Leaf.next; hits = leaf.Leaf.hits } in
  leaf.Leaf.next <- Some right;
  account_delta t before (Leaf.memory_bytes leaf + Leaf.memory_bytes right);
  let delta =
    (if Leaf.is_compact leaf then 1 else 0)
    + (if Leaf.is_compact right then 1 else 0)
    - if was_compact then 1 else 0
  in
  t.compact_leaves <- t.compact_leaves + delta;
  let sep = Leaf.min_key right ~load:t.load in
  (sep, right)

(* ------------------------------------------------------------------ *)
(* Insert.                                                             *)

(* A leaf operation may cascade into several splits (e.g. a compact leaf
   walking back down the capacity progression produces exactly-full
   halves that split again on the pending insert), so the upward
   propagation carries a list of (separator, new right node) pairs. *)
type leaf_outcome = Done | Dup | Split_up of (string * node) list

(* Generic downward mutation that may split nodes on the way back up.
   [on_leaf] performs the leaf-level operation. *)
let rec descend_mutate t node key ~(on_leaf : Leaf.t -> leaf_outcome) :
    leaf_outcome =
  match node with
  | Leaf_node leaf -> on_leaf leaf
  | Inner nd -> (
    let i = child_index nd key in
    match descend_mutate t nd.children.(i) key ~on_leaf with
    | (Done | Dup) as r -> r
    | Split_up pendings ->
      if nd.n + List.length pendings <= t.inner_capacity then begin
        List.iter
          (fun (sep, right) -> inner_insert_at nd (child_index nd sep) sep right)
          pendings;
        Done
      end
      else begin
        (* Conceptually insert the pending separators into the node, then
           split at the median, so both halves end up with at least
           [inner_capacity / 2] keys.  (Pendings are few — at most the
           compact capacity progression depth — so one split suffices.) *)
        let total = nd.n + List.length pendings in
        assert (total <= 2 * t.inner_capacity);
        let keys = Array.make total "" in
        let children = Array.make (total + 1) nd.children.(0) in
        Array.blit nd.keys 0 keys 0 nd.n;
        Array.blit nd.children 0 children 0 (nd.n + 1);
        let count = ref nd.n in
        let insert_pending sep right =
          let lo = ref 0 and hi = ref !count in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if Key.compare_fast keys.(mid) sep <= 0 then lo := mid + 1 else hi := mid
          done;
          let pos = !lo in
          Array.blit keys pos keys (pos + 1) (!count - pos);
          Array.blit children (pos + 1) children (pos + 2) (!count - pos);
          keys.(pos) <- sep;
          children.(pos + 1) <- right;
          incr count
        in
        List.iter (fun (sep, right) -> insert_pending sep right) pendings;
        let mid = total / 2 in
        let up_key = keys.(mid) in
        let rnode = new_inner t in
        rnode.n <- total - mid - 1;
        Array.blit keys (mid + 1) rnode.keys 0 rnode.n;
        Array.blit children (mid + 1) rnode.children 0 (rnode.n + 1);
        nd.n <- mid;
        Array.blit keys 0 nd.keys 0 mid;
        Array.blit children 0 nd.children 0 (mid + 1);
        for k = mid to t.inner_capacity - 1 do
          nd.keys.(k) <- ""
        done;
        Split_up [ (up_key, Inner rnode) ]
      end)

(* Insert into a leaf, handling overflow per the policy.  Splits may
   cascade when the policy walks a compact leaf down the capacity
   progression (each split halves the capacity until the pending insert
   fits); the accumulated new right leaves are propagated together. *)
let rec insert_into_leaf t ?(pending = []) leaf key tid =
  leaf.Leaf.hits <- leaf.Leaf.hits + 1;
  match mutate_leaf t leaf (fun () -> Leaf.insert leaf ~load:t.load key tid) with
  | Leaf.Inserted ->
    t.items <- t.items + 1;
    (match pending with [] -> Done | _ :: _ -> Split_up (List.rev pending))
  | Leaf.Duplicate ->
    assert (match pending with [] -> true | _ :: _ -> false);
    Dup
  | Leaf.Full -> (
    match t.policy.Policy.on_overflow (view t) ~current:(Leaf.spec leaf) with
    | Policy.Convert spec ->
      assert (Policy.spec_capacity ~std_capacity:t.std_capacity spec > Leaf.count leaf);
      convert_leaf t leaf spec;
      insert_into_leaf t ~pending leaf key tid
    | Policy.Split spec ->
      let sep, right = split_leaf t leaf spec in
      let target = if Key.compare_fast key sep < 0 then leaf else right in
      insert_into_leaf t ~pending:((sep, Leaf_node right) :: pending) target key tid)

let grow_root t outcome =
  match outcome with
  | Done -> true
  | Dup -> false
  | Split_up pendings ->
    let nd = new_inner t in
    nd.children.(0) <- t.root;
    t.root <- Inner nd;
    List.iter
      (fun (sep, right) -> inner_insert_at nd (child_index nd sep) sep right)
      pendings;
    true

(* Insert a key/tid mapping; returns false if the key is present. *)
let insert t key tid =
  assert (String.length key = t.key_len);
  grow_root t
    (descend_mutate t t.root key ~on_leaf:(fun leaf -> insert_into_leaf t leaf key tid))

(* ------------------------------------------------------------------ *)
(* Expansion-state split of a compact leaf reached by a search (§4).   *)

let force_split_leaf t key spec =
  t.stats.search_splits <- t.stats.search_splits + 1;
  Metrics.incr c_search_splits;
  let outcome =
    descend_mutate t t.root key ~on_leaf:(fun leaf ->
        if Leaf.count leaf >= 2 then begin
          let sep, right = split_leaf t leaf spec in
          Split_up [ (sep, Leaf_node right) ]
        end
        else Done)
  in
  ignore (grow_root t outcome)

(* ------------------------------------------------------------------ *)
(* Find.                                                               *)

let rec find_leaf t node key =
  match node with
  | Leaf_node leaf -> leaf
  | Inner nd -> find_leaf t nd.children.(child_index nd key) key

let find t key =
  let leaf = find_leaf t t.root key in
  leaf.Leaf.hits <- leaf.Leaf.hits + 1;
  let result = Leaf.find leaf ~load:t.load key in
  (if Leaf.is_compact leaf then
     match t.policy.Policy.on_search_compact (view t) ~current:(Leaf.spec leaf) with
     | Some spec -> force_split_leaf t key spec
     | None -> ());
  result

(* Batched lookup: walk up to [group] keys through the tree in
   lockstep (see {!Interleave}), prefetching each cursor's next node a
   round ahead of its use so the per-level misses of a batch overlap.
   Result slot [i] is exactly [find t keys.(i)].

   Expansion-state splits requested by searches that land on compact
   leaves are deferred to the end of the batch: a split never changes
   lookup results, and replaying them afterwards keeps mid-batch
   structure mutations away from the other in-flight cursors. *)
let multi_find ?(group = 8) t keys =
  let tmf = Trace.start () in
  let nkeys = Array.length keys in
  let out = Array.make nkeys None in
  let splits = ref [] in
  let base = ref 0 in
  while !base < nkeys do
    let n = min group (nkeys - !base) in
    let first = !base in
    Interleave.run ~n
      ~start:(fun _ -> t.root)
      ~step:(fun i node ->
        let key = keys.(first + i) in
        match node with
        | Inner nd ->
          let child = nd.children.(child_index nd key) in
          Ei_util.Prefetch.prefetch child;
          Interleave.Continue child
        | Leaf_node leaf ->
          leaf.Leaf.hits <- leaf.Leaf.hits + 1;
          out.(first + i) <- Leaf.find leaf ~load:t.load key;
          (if Leaf.is_compact leaf then
             match
               t.policy.Policy.on_search_compact (view t)
                 ~current:(Leaf.spec leaf)
             with
             | Some spec -> splits := (key, spec) :: !splits
             | None -> ());
          Interleave.Done)
      ();
    base := first + n
  done;
  List.iter (fun (key, spec) -> force_split_leaf t key spec) (List.rev !splits);
  Trace.span ev_multi_find ~start_ns:tmf nkeys;
  out

(* In-place value update of an existing key; false if absent.  Tracked
   like any leaf mutation: a Bw-tree leaf grows by a delta record (and
   may consolidate) on an update. *)
let update t key tid =
  let leaf = find_leaf t t.root key in
  leaf.Leaf.hits <- leaf.Leaf.hits + 1;
  mutate_leaf t leaf (fun () -> Leaf.update leaf ~load:t.load key tid)

(* ------------------------------------------------------------------ *)
(* Range scans.                                                        *)

(* Fold over up to [n] entries with keys >= [start], in key order.
   Compact leaves load each key from the table, modelling the indirect
   scan cost. *)
let fold_range t ~start ~n f acc =
  let leaf = find_leaf t t.root start in
  leaf.Leaf.hits <- leaf.Leaf.hits + 1;
  let pos = Leaf.lower_bound leaf ~load:t.load start in
  let remaining = ref n and acc = ref acc in
  let rec walk leaf pos =
    if !remaining > 0 then begin
      let _ =
        Leaf.fold_from leaf ~load:t.load pos
          (fun () k tid ->
            if !remaining > 0 then begin
              acc := f !acc k tid;
              decr remaining
            end)
          ()
      in
      if !remaining > 0 then
        match leaf.Leaf.next with Some nxt -> walk nxt 0 | None -> ()
    end
  in
  walk leaf pos;
  !acc

let iter t f =
  let rec leftmost = function
    | Leaf_node leaf -> leaf
    | Inner nd -> leftmost nd.children.(0)
  in
  let rec walk = function
    | None -> ()
    | Some leaf ->
      Leaf.fold_from leaf ~load:t.load 0 (fun () k tid -> f k tid) ();
      walk leaf.Leaf.next
  in
  walk (Some (leftmost t.root))

(* ------------------------------------------------------------------ *)
(* Cold-leaf compaction sweep (§4 names access-aware grow/shrink
   policies as an open design point).

   Walk the leaf chain from a persistent cursor, inspecting up to
   [batch] leaves: standard leaves that were not accessed since their
   last visit (hits = 0) are converted to the compact representation
   [spec]; visited leaves have their counters reset, giving an
   approximate one-sweep-generation coldness test.  Returns the number
   of conversions performed.  The cursor survives structural changes:
   a merged-away leaf's [next] still points into the live chain. *)
let compact_cold t ~batch ~spec =
  let rec leftmost = function
    | Leaf_node leaf -> leaf
    | Inner nd -> leftmost nd.children.(0)
  in
  let start =
    match t.sweep_cursor with
    | Some leaf -> leaf
    | None -> leftmost t.root
  in
  let converted = ref 0 in
  let rec walk leaf budget =
    if budget = 0 then t.sweep_cursor <- Some leaf
    else begin
      (if (not (Leaf.is_compact leaf)) && leaf.Leaf.hits = 0 then
         let count = Leaf.count leaf in
         if count > 0 && count <= Policy.spec_capacity ~std_capacity:t.std_capacity spec
         then begin
           convert_leaf t leaf spec;
           incr converted
         end);
      leaf.Leaf.hits <- 0;
      match leaf.Leaf.next with
      | Some next -> walk next (budget - 1)
      | None ->
        (* Wrapped around: restart from the leftmost leaf next time. *)
        t.sweep_cursor <- None
    end
  in
  walk start batch;
  !converted

(* Fold over the leaves in key order: representation spec and occupancy.
   Used by benchmarks to report the compact-leaf capacity distribution. *)
let fold_leaves t f acc =
  let rec leftmost = function
    | Leaf_node leaf -> leaf
    | Inner nd -> leftmost nd.children.(0)
  in
  let rec walk acc = function
    | None -> acc
    | Some leaf -> walk (f acc (Leaf.spec leaf) (Leaf.count leaf)) leaf.Leaf.next
  in
  walk acc (Some (leftmost t.root))

(* ------------------------------------------------------------------ *)
(* Remove.                                                             *)

(* Whether a leaf is underflowed under the current policy. *)
let leaf_underflowed t leaf =
  t.policy.Policy.underflow_at (Leaf.spec leaf) ~std_capacity:t.std_capacity
    ~count:(Leaf.count leaf)

(* Whether a leaf could give up one entry without itself underflowing. *)
let leaf_can_spare t leaf =
  not
    (t.policy.Policy.underflow_at (Leaf.spec leaf) ~std_capacity:t.std_capacity
       ~count:(Leaf.count leaf - 1))

(* Move one entry from [src] (at its first or last position) into [dst].
   [from_end] says which end of [src] to take. *)
let shift_entry t ~src ~dst ~from_end =
  let pos = if from_end then Leaf.count src - 1 else 0 in
  let key, tid = Leaf.entry_at src ~load:t.load pos in
  (match mutate_leaf t src (fun () -> Leaf.remove src ~load:t.load key) with
  | Leaf.Removed -> ()
  | Leaf.Not_present -> Invariant.impossible "Btree.shift_entry: source entry vanished");
  (match mutate_leaf t dst (fun () -> Leaf.insert dst ~load:t.load key tid) with
  | Leaf.Inserted -> ()
  | Leaf.Duplicate | Leaf.Full ->
    Invariant.impossible "Btree.shift_entry: destination rejected the entry")

(* Merge leaf children [i] and [i + 1] of inner node [nd]. *)
let merge_leaf_children t nd i left right =
  t.stats.leaf_merges <- t.stats.leaf_merges + 1;
  Metrics.incr c_leaf_merges;
  let total = Leaf.count left + Leaf.count right in
  let spec =
    t.policy.Policy.on_merge (view t) ~total ~left:(Leaf.spec left)
      ~right:(Leaf.spec right)
  in
  assert (Policy.spec_capacity ~std_capacity:t.std_capacity spec >= total);
  let before = Leaf.memory_bytes left + Leaf.memory_bytes right in
  let compact_before =
    (if Leaf.is_compact left then 1 else 0) + if Leaf.is_compact right then 1 else 0
  in
  (match (left.Leaf.repr, right.Leaf.repr, spec) with
  | Leaf.Std a, Leaf.Std b, Policy.Spec_std when Std_leaf.capacity a >= total ->
    Std_leaf.absorb a b
  | Leaf.Pre a, Leaf.Pre b, Policy.Spec_pre when Prefix_leaf.capacity a >= total ->
    Prefix_leaf.absorb a b
  | Leaf.Bw a, Leaf.Bw b, Policy.Spec_bw when Bw_leaf.capacity a >= total ->
    Bw_leaf.absorb a b
  | Leaf.Seq a, Leaf.Seq b, Policy.Spec_seq c ->
    left.Leaf.repr <-
      Leaf.Seq
        (Ei_blindi.Seqtree.merge a b ~load:t.load ~capacity:c
           ~levels:t.policy.Policy.seq_levels)
  | Leaf.Sub a, Leaf.Sub b, Policy.Spec_sub c ->
    left.Leaf.repr <- Leaf.Sub (Ei_blindi.Subtrie.merge a b ~load:t.load ~capacity:c)
  | Leaf.Str a, Leaf.Str b, Policy.Spec_str c ->
    left.Leaf.repr <- Leaf.Str (Ei_blindi.Stringtrie.merge a b ~load:t.load ~capacity:c)
  | _ ->
    let kl, tl = Leaf.entries left ~load:t.load in
    let kr, tr = Leaf.entries right ~load:t.load in
    left.Leaf.repr <-
      Leaf.repr_of_spec ~key_len:t.key_len ~std_capacity:t.std_capacity
        ~seq_levels:t.policy.Policy.seq_levels
        ~seq_breathing:t.policy.Policy.seq_breathing spec
        (Array.append kl kr) (Array.append tl tr) total);
  left.Leaf.next <- right.Leaf.next;
  account_delta t before (Leaf.memory_bytes left);
  let compact_after = if Leaf.is_compact left then 1 else 0 in
  t.compact_leaves <- t.compact_leaves + compact_after - compact_before;
  inner_remove_at nd i

(* Rebalance leaf child [i] of [nd] after an underflow. *)
let fix_leaf_child t nd i =
  let li = if i > 0 then i - 1 else i in
  let left =
    match nd.children.(li) with
    | Leaf_node l -> l
    | Inner _ -> Invariant.impossible "Btree.fix_leaf_child: left sibling is inner"
  in
  let right =
    match nd.children.(li + 1) with
    | Leaf_node l -> l
    | Inner _ -> Invariant.impossible "Btree.fix_leaf_child: right sibling is inner"
  in
  let sibling = if i > 0 then left else right in
  if leaf_can_spare t sibling then begin
    (* Borrow one entry through the separator. *)
    if i > 0 then shift_entry t ~src:left ~dst:right ~from_end:true
    else shift_entry t ~src:right ~dst:left ~from_end:false;
    nd.keys.(li) <- Leaf.min_key right ~load:t.load
  end
  else merge_leaf_children t nd li left right

(* Rebalance inner child [i] of [nd] after an underflow. *)
let fix_inner_child t nd i (child : inner) =
  let li = if i > 0 then i - 1 else i in
  let left =
    match nd.children.(li) with
    | Inner x -> x
    | Leaf_node _ -> Invariant.impossible "Btree.fix_inner_child: left sibling is a leaf"
  in
  let right =
    match nd.children.(li + 1) with
    | Inner x -> x
    | Leaf_node _ -> Invariant.impossible "Btree.fix_inner_child: right sibling is a leaf"
  in
  ignore child;
  if i > 0 && left.n > inner_min t then begin
    (* Rotate right: parent separator moves down, left's last key up. *)
    Array.blit right.keys 0 right.keys 1 right.n;
    Array.blit right.children 0 right.children 1 (right.n + 1);
    right.keys.(0) <- nd.keys.(li);
    right.children.(0) <- left.children.(left.n);
    right.n <- right.n + 1;
    nd.keys.(li) <- left.keys.(left.n - 1);
    left.keys.(left.n - 1) <- "";
    left.n <- left.n - 1
  end
  else if i = 0 && right.n > inner_min t then begin
    (* Rotate left. *)
    left.keys.(left.n) <- nd.keys.(li);
    left.children.(left.n + 1) <- right.children.(0);
    left.n <- left.n + 1;
    nd.keys.(li) <- right.keys.(0);
    Array.blit right.keys 1 right.keys 0 (right.n - 1);
    Array.blit right.children 1 right.children 0 right.n;
    right.keys.(right.n - 1) <- "";
    right.n <- right.n - 1
  end
  else begin
    (* Merge right into left around the separator. *)
    left.keys.(left.n) <- nd.keys.(li);
    Array.blit right.keys 0 left.keys (left.n + 1) right.n;
    Array.blit right.children 0 left.children (left.n + 1) (right.n + 1);
    left.n <- left.n + right.n + 1;
    free_inner t right;
    inner_remove_at nd li
  end

type remove_outcome = Removed of bool (* child underflowed *) | Absent

let rec remove_rec t node key : remove_outcome =
  match node with
  | Leaf_node leaf -> (
    match mutate_leaf t leaf (fun () -> Leaf.remove leaf ~load:t.load key) with
    | Leaf.Not_present -> Absent
    | Leaf.Removed ->
      t.items <- t.items - 1;
      let cnt = Leaf.count leaf in
      if leaf_underflowed t leaf then
        match
          t.policy.Policy.on_underflow (view t) ~current:(Leaf.spec leaf) ~count:cnt
        with
        | Policy.Replace spec ->
          assert (Policy.spec_capacity ~std_capacity:t.std_capacity spec >= cnt);
          convert_leaf t leaf spec;
          Removed false
        | Policy.Rebalance -> Removed true
      else Removed false)
  | Inner nd -> (
    let i = child_index nd key in
    match remove_rec t nd.children.(i) key with
    | Absent -> Absent
    | Removed false -> Removed false
    | Removed true ->
      (match nd.children.(i) with
      | Leaf_node _ -> fix_leaf_child t nd i
      | Inner child -> fix_inner_child t nd i child);
      Removed (nd.n < inner_min t))

(* Remove a key; returns false if absent. *)
let remove t key =
  match remove_rec t t.root key with
  | Absent -> false
  | Removed _ ->
    (* Collapse the root if it lost all separators. *)
    (match t.root with
    | Inner nd when nd.n = 0 ->
      t.root <- nd.children.(0);
      free_inner t nd
    | Inner _ | Leaf_node _ -> ());
    true

(* ------------------------------------------------------------------ *)
(* Bulk loading.                                                       *)

(* Build a tree from [n] strictly increasing keys in O(n): leaves are
   filled to ~90% of the policy's initial representation and chained,
   then inner levels are assembled bottom-up.  Equivalent to inserting
   the entries in order, but without per-insert descents and splits. *)
let of_sorted ?(leaf_capacity = 16) ?(inner_capacity = 16) ~key_len ~load
    ~(policy : Policy.t) keys tids n =
  let t =
    create ~leaf_capacity ~inner_capacity ~key_len ~load ~policy ()
  in
  if n = 0 then t
  else begin
    (* Discard the initial empty leaf's accounting. *)
    Tracker.reset t.tracker;
    t.compact_leaves <- 0;
    (* Balanced chunking: [m] items into ceil(m/cap) groups of size
       floor(m/groups) or +1, so no group is undersized. *)
    let chunk m cap =
      let groups = (m + cap - 1) / cap in
      let base = m / groups and rem = m mod groups in
      Array.init groups (fun g ->
          let lo = (g * base) + min g rem in
          let len = base + if g < rem then 1 else 0 in
          (lo, len))
    in
    let spec = policy.Policy.initial in
    let cap = Policy.spec_capacity ~std_capacity:leaf_capacity spec in
    let leaf_chunks = chunk n (max 2 (cap * 9 / 10)) in
    let leaves =
      Array.map
        (fun (lo, len) ->
          let repr =
            Leaf.repr_of_spec ~key_len ~std_capacity:leaf_capacity
              ~seq_levels:policy.Policy.seq_levels
              ~seq_breathing:policy.Policy.seq_breathing spec
              (Array.sub keys lo len) (Array.sub tids lo len) len
          in
          { Leaf.repr; next = None; hits = 0 })
        leaf_chunks
    in
    let leaf_count = Array.length leaves in
    Array.iteri
      (fun i leaf ->
        if i + 1 < leaf_count then leaf.Leaf.next <- Some leaves.(i + 1);
        Tracker.add t.tracker (Leaf.memory_bytes leaf);
        if Leaf.is_compact leaf then t.compact_leaves <- t.compact_leaves + 1)
      leaves;
    (* Assemble inner levels bottom-up; separators are the min keys of
       the right siblings. *)
    let rec build (children : node array) (mins : string array) =
      let m = Array.length children in
      if m = 1 then children.(0)
      else begin
        let groups = chunk m (inner_capacity + 1) in
        let parents =
          Array.map
            (fun (lo, len) ->
              let nd = new_inner t in
              nd.n <- len - 1;
              Array.blit children lo nd.children 0 len;
              for k = 1 to len - 1 do
                nd.keys.(k - 1) <- mins.(lo + k)
              done;
              Inner nd)
            groups
        in
        let parent_mins = Array.map (fun (lo, _) -> mins.(lo)) groups in
        build parents parent_mins
      end
    in
    t.root <-
      build
        (Array.map (fun l -> Leaf_node l) leaves)
        (Array.map (fun (lo, _) -> keys.(lo)) leaf_chunks);
    t.items <- n;
    t
  end

(* ------------------------------------------------------------------ *)
(* Introspection (sanitizer support).                                  *)

type introspection = {
  leaves : Leaf.t array;
  leaf_depths : int array;
  leaf_bounds : (string option * string option) array;
  chain : Leaf.t array;
  inner_fanouts : int array;
  inner_is_root : bool array;
  inner_seps : string array array;
  inner_node_bytes : int;
  inner_capacity : int;
  i_std_capacity : int;
  key_len : int;
  tracked_bytes : int;
  items : int;
  compact_count : int;
  load : int -> string;
}
(* A snapshot the sanitizer takes and reads on the calling domain. *)
[@@ei.single_domain]

(* Snapshot the structure for an external validator: leaves with their
   separator-derived bounds and depths (by tree walk), the leaf chain
   (by [next] pointers), and per-inner-node fanouts/separators.  The
   validator cross-checks the two leaf orders and the O(1) counters
   without access to the node types. *)
let introspect t =
  let leaves = ref [] and depths = ref [] and bounds = ref [] in
  let fanouts = ref [] and roots = ref [] and seps = ref [] in
  let rec walk node ~lo ~hi ~depth ~is_root =
    match node with
    | Leaf_node leaf ->
      leaves := leaf :: !leaves;
      depths := depth :: !depths;
      bounds := (lo, hi) :: !bounds
    | Inner nd ->
      fanouts := nd.n :: !fanouts;
      roots := is_root :: !roots;
      seps := Array.sub nd.keys 0 (max 0 nd.n) :: !seps;
      for i = 0 to nd.n do
        let lo' = if i = 0 then lo else Some nd.keys.(i - 1) in
        let hi' = if i = nd.n then hi else Some nd.keys.(i) in
        walk nd.children.(i) ~lo:lo' ~hi:hi' ~depth:(depth + 1) ~is_root:false
      done
  in
  walk t.root ~lo:None ~hi:None ~depth:0 ~is_root:true;
  let chain = ref [] in
  let rec leftmost = function
    | Leaf_node leaf -> leaf
    | Inner nd -> leftmost nd.children.(0)
  in
  let rec follow = function
    | None -> ()
    | Some leaf ->
      chain := leaf :: !chain;
      follow leaf.Leaf.next
  in
  follow (Some (leftmost t.root));
  let rev_array l = Array.of_list (List.rev l) in
  {
    leaves = rev_array !leaves;
    leaf_depths = rev_array !depths;
    leaf_bounds = rev_array !bounds;
    chain = rev_array !chain;
    inner_fanouts = rev_array !fanouts;
    inner_is_root = rev_array !roots;
    inner_seps = rev_array !seps;
    inner_node_bytes = inner_bytes t;
    inner_capacity = t.inner_capacity;
    i_std_capacity = t.std_capacity;
    key_len = t.key_len;
    tracked_bytes = Tracker.bytes t.tracker;
    items = t.items;
    compact_count = t.compact_leaves;
    load = t.load;
  }

(* ------------------------------------------------------------------ *)
(* Invariant checking (test support).                                  *)

let check_invariants (t : t) =
  let leaves = ref [] in
  (* Depth uniformity, separator bounds, occupancy. *)
  let rec walk node ~lo ~hi ~is_root =
    match node with
    | Leaf_node leaf ->
      leaves := leaf :: !leaves;
      Leaf.check_invariants leaf ~load:t.load;
      if not is_root then assert (Leaf.count leaf >= 1);
      Leaf.fold_from leaf ~load:t.load 0
        (fun () k _ ->
          (match lo with Some l -> assert (Key.compare l k <= 0) | None -> ());
          match hi with Some h -> assert (Key.compare k h < 0) | None -> ())
        ();
      1
    | Inner nd ->
      assert (nd.n >= 1);
      if not is_root then assert (nd.n >= inner_min t);
      assert (nd.n <= t.inner_capacity);
      for i = 0 to nd.n - 2 do
        assert (Key.compare nd.keys.(i) nd.keys.(i + 1) < 0)
      done;
      let depth = ref None in
      for i = 0 to nd.n do
        let lo' = if i = 0 then lo else Some nd.keys.(i - 1) in
        let hi' = if i = nd.n then hi else Some nd.keys.(i) in
        let d = walk nd.children.(i) ~lo:lo' ~hi:hi' ~is_root:false in
        match !depth with
        | None -> depth := Some d
        | Some d0 -> assert (Int.equal d d0)
      done;
      1 + Option.get !depth
  in
  ignore (walk t.root ~lo:None ~hi:None ~is_root:true);
  (* The leaf chain visits exactly the in-order leaves. *)
  let in_order = List.rev !leaves in
  (match in_order with
  | [] -> Invariant.impossible "Btree.check_invariants: tree with no leaves"
  | first :: _ ->
    let rec follow leaf expected =
      match (leaf.Leaf.next, expected) with
      | None, [] -> ()
      | Some nxt, e :: rest ->
        assert (nxt == e);
        follow nxt rest
      | None, _ :: _ | Some _, [] ->
        Invariant.broken "Btree: leaf chain diverges from in-order leaves"
    in
    follow first (List.tl in_order));
  (* Item count, compact count and tracked bytes match recomputation. *)
  let item_sum = List.fold_left (fun a l -> a + Leaf.count l) 0 in_order in
  assert (item_sum = t.items);
  let compact_sum =
    List.fold_left (fun a l -> a + if Leaf.is_compact l then 1 else 0) 0 in_order
  in
  assert (compact_sum = t.compact_leaves);
  let leaf_bytes = List.fold_left (fun a l -> a + Leaf.memory_bytes l) 0 in_order in
  let rec inner_count = function
    | Leaf_node _ -> 0
    | Inner nd ->
      let s = ref 1 in
      for i = 0 to nd.n do
        s := !s + inner_count nd.children.(i)
      done;
      !s
  in
  let expect = leaf_bytes + (inner_count t.root * inner_bytes t) in
  assert (expect = Tracker.bytes t.tracker)
