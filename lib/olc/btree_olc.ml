(* B+-tree with Optimistic Lock Coupling (Leis et al. [17]), as used by
   the multithreaded evaluation of §6.2: BTreeOLC with standard leaves,
   and BTreeOLC-SeqTree with compact (indirect-key) leaves.

   Every node carries a version word in field 0 of its own block, read
   and written only through three atomic C stubs; bit 0 is the lock bit
   and the remaining bits count modifications.  Readers descend
   without locking, re-validating each node's version after reading it,
   and restart from the root on any conflict.  Writers upgrade the
   observed version with a CAS.  Full nodes are split eagerly during the
   descent while holding the parent's lock, so a parent always has room
   for the separator of a splitting child.

   OCaml's memory safety makes optimistic reads benign: a torn read can
   produce a wrong value or an out-of-bounds index, never a wild pointer.
   Any exception raised on a torn read is translated into a restart.

   Deletions are lazy (no rebalancing), as in the reference BTreeOLC:
   leaves may become sparse but are never merged, which keeps the
   sibling chain used by range scans immutable. *)

module Key = Ei_util.Key
module Invariant = Ei_util.Invariant
module Std_leaf = Ei_btree.Std_leaf
module Hysteresis = Ei_btree.Hysteresis
module Seqtree = Ei_blindi.Seqtree
module Metrics = Ei_obs.Metrics
module Trace = Ei_obs.Trace

(* --- Observability (shared across instances) ------------------------- *)

let c_transitions = Metrics.counter "olc.transitions"
let c_conversions = Metrics.counter "olc.conversions"

let ev_state =
  Trace.define ~cat:"elastic" ~arg0:"state" ~arg1:"bytes" "olc.elastic.state"

(* Leaf representation changes, with the capacities involved
   (0 = standard leaf). *)
let ev_convert =
  Trace.define ~cat:"elastic" ~arg0:"to_capacity" ~arg1:"from_capacity"
    "olc.elastic.convert"

let ev_set_bound =
  Trace.define ~cat:"elastic" ~arg0:"new_bound" ~arg1:"old_bound"
    "olc.elastic.set_bound"

(* One span per grouped lockstep descent, on the calling (shard)
   domain's track; under an ambient request {!Ei_obs.Ctx} it joins that
   request's flow as the tree-descent stage. *)
let ev_multi_find =
  Trace.define ~span:true ~arg1:"keys" ~cat:"olc" "olc.multi_find"

exception Restart

(* --- Simulation preemption points ------------------------------------ *)

(* Pure yield points for the deterministic scheduler in ei_sim: inert
   single atomic loads in production, suspension points when a Fault tap
   is installed.  They mark the schedule-sensitive transitions of the
   protocol — spinning on a held lock, restarting after a conflict,
   entering a write-locked section, converting a leaf representation,
   and stepping the sibling chain of a scan.  The spin point is
   load-bearing for the simulator: a fiber spinning in [read_lock] on a
   lock held by a parked fiber must itself yield or the simulated run
   livelocks. *)
module Fault = Ei_fault.Fault

let yp_spin = Fault.site "olc.yield.spin"
let yp_restart = Fault.site "olc.yield.restart"
let yp_locked = Fault.site "olc.yield.locked"
let yp_convert = Fault.site "olc.yield.convert"
let yp_scan = Fault.site "olc.yield.scan"
let yp_multi = Fault.site "olc.yield.multi"
let yp_state = Fault.site "olc.yield.state"

(* --- Structure ------------------------------------------------------ *)

(* Nodes are inline records: the constructor's block is the node itself,
   so a child slot points straight at the version word and payload, and
   prefetching a child fetches the node rather than a box in front of
   it.  The version word is field 0 of both records, where the C stubs
   below expect it. *)
type node =
  | Inner of {
      mutable iversion : int [@ei.version_word];
      mutable n : int [@ei.guarded_by "iversion"];
      (* separator [i] is the [key_len] bytes at [i * key_len]: inline,
         as the memory model's inner node charges them *)
      keys : Bytes.t [@ei.guarded_by "iversion"];
      children : node array [@ei.guarded_by "iversion"];
    }
  | Leaf of {
      mutable lversion : int [@ei.version_word];
      (* the payload: one {!Std_leaf} or {!Seqtree} image, told apart by
         its byte-0 kind tag, so a compact leaf's tids are two loads from
         the parent's child slot (node, image) *)
      mutable repr : Bytes.t [@ei.guarded_by "lversion"];
      (* sibling chain, ended by {!chain_end}; never unlinked *)
      mutable next : node [@ei.guarded_by "lversion"];
    }

(* The end of every sibling chain: one static leaf that no tree links in
   as a node and no operation writes, compared by address. *)
let rec chain_end =
  Leaf
    {
      lversion = 0;
      repr = (Std_leaf.create ~key_len:1 ~capacity:2 () :> Bytes.t);
      next = chain_end;
    }

(* --- Version locks -------------------------------------------------- *)

(* A node's version word, read, CASed and stored with the semantics of
   [Atomic.get] / [compare_and_set] / [set] (ei_olc_stubs.c).  OCaml
   has no atomic record fields, so no OCaml expression touches the
   field itself: these stubs are its only readers and writers. *)
external version : node -> int = "ei_olc_version_get"
[@@noalloc] [@@ei.version_word "get"]

external version_cas : node -> int -> int -> bool = "ei_olc_version_cas"
[@@noalloc] [@@ei.version_word "compare_and_set"]

external set_version : node -> int -> unit = "ei_olc_version_set"
[@@noalloc] [@@ei.version_word "set"]

let is_locked v = v land 1 = 1

let spin () =
  Fault.point yp_spin;
  Domain.cpu_relax ()

let rec read_lock node =
  let v = version node in
  if is_locked v then begin
    spin ();
    read_lock node
  end
  else v

let validate node v = Int.equal (version node) v
let check node v = if not (validate node v) then raise Restart
let try_upgrade node v = version_cas node v (v lor 1)

let upgrade_or_restart node v =
  if try_upgrade node v then Fault.point yp_locked else raise Restart

(* Release a write lock, bumping the version. *)
let write_unlock node = set_version node ((version node lxor 1) + 2)

(* Release a write lock without a version bump (nothing was modified). *)
let write_abort node = set_version node (version node lxor 1)

(* Run [f] with [node] write-locked by the caller.  A non-[Restart]
   exception inside a critical section is a genuine broken invariant —
   the node is private while locked, so there is no torn read to excuse
   it: release the lock with a version bump (the mutation may be
   partial) and re-raise as {!Invariant.Broken}, which [with_restart]
   does not swallow.  Without this, the leaked lock wedges every later
   operation that spins in [read_lock] on the node. *)
let critical node f =
  try f () with
  | Restart ->
    write_abort node;
    raise Restart
  | Invariant.Broken _ as e ->
    write_unlock node;
    raise e
  | e ->
    write_unlock node;
    raise
      (Invariant.Broken
         ("Btree_olc: exception in locked section: " ^ Printexc.to_string e))

(* The tree's root lock, one per tree: the same protocol on an
   [int Atomic.t] guarding the root pointer. *)
module Root = struct
  let rec read_lock a =
    let v = Atomic.get a in
    if is_locked v then begin
      spin ();
      read_lock a
    end
    else v

  let check a v = if not (Int.equal (Atomic.get a) v) then raise Restart

  let upgrade_or_restart a v =
    if Atomic.compare_and_set a v (v lor 1) then Fault.point yp_locked
    else raise Restart

  let write_unlock a = Atomic.set a ((Atomic.get a lxor 1) + 2)
  let write_abort a = Atomic.set a (Atomic.get a lxor 1)
end

type leaf_kind =
  | Olc_std
  | Olc_seqtree of { capacity : int; levels : int; breathing : int }
  | Olc_elastic of elastic_config
    (* The elastic index framework applied to the concurrent tree — the
       variant §6.2 names but does not implement.  Conversions happen
       in place under a leaf's write lock; the size total and state are
       shared atomics, so the soft bound is approximate under races but
       convergent. *)

and elastic_config = { size_bound : int }

let default_elastic_config ~size_bound = { size_bound }

type elastic_state = {
  ebound : int Atomic.t;     (* live soft bound; coordinator-adjustable *)
  ecompact : int Atomic.t;   (* number of compact leaves *)
  estate : Hysteresis.state Atomic.t;
  econversions : int Atomic.t;
}

type t = {
  key_len : int;
  leaf_capacity : int;   (* standard-leaf capacity *)
  inner_capacity : int;
  kind : leaf_kind;
  load : int -> string;
  root_lock : int Atomic.t;  (* guards the root pointer *)
  mutable root : node [@ei.guarded_by "root_lock"];
  bytes : int Atomic.t;
  (* size under the memory model, kept by every structure change of
     every kind, so reading it is O(1) and safe under concurrency *)
  elastic : elastic_state option;
}

(* The loader handed to compact leaves must never trip the table's bounds
   check on a torn tid; out-of-range loads return a dummy key and the
   version validation rejects the result. *)
let safe_loader ~key_len ~table_length ~load =
  let dummy = String.make key_len '\000' in
  fun (tid : int) ->
    if tid >= 0 && tid < table_length () then load tid else dummy

(* --- Leaf images ------------------------------------------------------ *)

let is_compact repr = Seqtree.is_image repr
let seq repr = Seqtree.of_image repr
let std repr = Std_leaf.of_image repr

let repr_bytes repr =
  if is_compact repr then Seqtree.memory_bytes (seq repr)
  else Std_leaf.memory_bytes (std repr)

let repr_count repr =
  if is_compact repr then Seqtree.count (seq repr) else Std_leaf.count (std repr)

let repr_capacity repr =
  if is_compact repr then Seqtree.capacity (seq repr)
  else Std_leaf.capacity (std repr)

(* Key position [i] of a leaf image; compact leaves load it. *)
let repr_key t repr i =
  if is_compact repr then t.load (Seqtree.tid_at (seq repr) i)
  else Std_leaf.key_at (std repr) i

let repr_find t repr key =
  if is_compact repr then Seqtree.find (seq repr) ~load:t.load key
  else Std_leaf.find (std repr) key

let create ?(leaf_capacity = 16) ?(inner_capacity = 16) ?(kind = Olc_std)
    ~key_len ~load () =
  let elastic =
    match kind with
    | Olc_elastic cfg ->
      (* The largest compact leaf's header must hold these parameters;
         refuse them here rather than at the first conversion. *)
      ignore
        (Seqtree.create ~key_len
           ~capacity:(snd (Hysteresis.lift ~std:leaf_capacity))
           ~levels:Hysteresis.seq_levels ~breathing:Hysteresis.breathing ());
      Some
        {
          ebound = Atomic.make cfg.size_bound;
          ecompact = Atomic.make 0;
          estate = Atomic.make Hysteresis.Normal;
          econversions = Atomic.make 0;
        }
    | Olc_std | Olc_seqtree _ -> None
  in
  let repr =
    match kind with
    | Olc_std | Olc_elastic _ ->
      (Std_leaf.create ~key_len ~capacity:leaf_capacity () :> Bytes.t)
    | Olc_seqtree { capacity; levels; breathing } ->
      (Seqtree.create ~key_len ~capacity ~levels ~breathing () :> Bytes.t)
  in
  {
    key_len;
    leaf_capacity;
    inner_capacity;
    kind;
    load;
    root_lock = Atomic.make 0;
    root = Leaf { lversion = 0; repr; next = chain_end };
    bytes = Atomic.make (repr_bytes repr);
    elastic;
  }

(* --- Elastic bookkeeping --------------------------------------------- *)

let account t delta =
  if delta <> 0 then ignore (Atomic.fetch_and_add t.bytes delta)

let account_compact t delta =
  match t.elastic with
  | Some e -> ignore (Atomic.fetch_and_add e.ecompact delta)
  | None -> ()

(* Step the elastic state machine from the state this domain read and
   publish it with a CAS: a transition is always an edge from the state
   it replaces, and only the winning domain counts and traces it. *)
let update_elastic_state t =
  match t.elastic with
  | None -> ()
  | Some e ->
    let seen = Atomic.get e.estate in
    let bytes = Atomic.get t.bytes in
    let next =
      Hysteresis.step seen ~bound:(Atomic.get e.ebound) ~bytes
        ~compact:(Atomic.get e.ecompact)
    in
    if not (Hysteresis.state_equal next seen) then begin
      Fault.point yp_state;
      if Atomic.compare_and_set e.estate seen next then begin
        Metrics.incr c_transitions;
        Trace.emit ev_state (Hysteresis.code next) bytes
      end
    end

let tracked_memory_bytes t = Atomic.get t.bytes

(* Coordinator lever: retune the live soft bound and re-evaluate the
   state machine immediately, so a starved tree starts shrinking without
   waiting for its next structure modification.  Safe from any domain. *)
let set_size_bound t bound =
  match t.elastic with
  | None -> ()
  | Some e ->
    assert (bound > 0);
    let old_bound = Atomic.exchange e.ebound bound in
    Trace.emit ev_set_bound bound old_bound;
    update_elastic_state t

let key_len t = t.key_len

let elastic_state t =
  match t.elastic with Some e -> Some (Atomic.get e.estate) | None -> None

let elastic_compact_leaves t =
  match t.elastic with Some e -> Atomic.get e.ecompact | None -> 0

let elastic_conversions t =
  match t.elastic with Some e -> Atomic.get e.econversions | None -> 0

(* The new representation of a write-locked leaf's [repr] (std -> compact
   or compact capacity change), adjusting the shared accounting; the
   caller stores it back into the leaf. *)
let convert_repr t repr ~capacity =
  Fault.point yp_convert;
  let before = repr_bytes repr in
  let was_compact = is_compact repr in
  let from_capacity = if was_compact then Seqtree.capacity (seq repr) else 0 in
  let repr =
    if was_compact && capacity > t.leaf_capacity then
      (* compact -> compact (32 <-> 64 <-> 128): tids and BlindiBits
         carry over as they are, so no key is loaded *)
      (Seqtree.with_capacity (seq repr) ~capacity
         ~levels:Hysteresis.seq_levels
        :> Bytes.t)
    else begin
      let n, keys, tids =
        if was_compact then begin
          let x = seq repr in
          let n = Seqtree.count x in
          let tids = Array.init n (fun i -> Seqtree.tid_at x i) in
          (n, Array.map t.load tids, tids)
        end
        else begin
          let x = std repr in
          let n = Std_leaf.count x in
          ( n,
            Array.init n (fun i -> Std_leaf.key_at x i),
            Array.init n (fun i -> Std_leaf.tid_at x i) )
        end
      in
      if capacity <= t.leaf_capacity then
        (Std_leaf.of_sorted ~key_len:t.key_len ~capacity:t.leaf_capacity keys
           tids n
          :> Bytes.t)
      else
        (Seqtree.of_sorted ~key_len:t.key_len ~capacity
           ~levels:Hysteresis.seq_levels ~breathing:Hysteresis.breathing keys
           tids n
          :> Bytes.t)
    end
  in
  let is_compact = is_compact repr in
  account t (repr_bytes repr - before);
  if is_compact && not was_compact then account_compact t 1
  else if (not is_compact) && was_compact then account_compact t (-1);
  (match t.elastic with
  | Some e ->
    ignore (Atomic.fetch_and_add e.econversions 1);
    Metrics.incr c_conversions;
    Trace.emit ev_convert
      (if capacity <= t.leaf_capacity then 0 else capacity)
      from_capacity
  | None -> ());
  update_elastic_state t;
  repr

let node_full t = function
  | Inner nd -> nd.n >= t.inner_capacity
  | Leaf l ->
    let repr = l.repr in
    if is_compact repr then Seqtree.is_full (seq repr)
    else Std_leaf.is_full (std repr)

(* --- Memory model --------------------------------------------------- *)

let memory_bytes t =
  let rec go = function
    | Inner nd ->
      let s =
        ref
          (Ei_storage.Memmodel.inner_bytes ~capacity:t.inner_capacity
             ~key_len:t.key_len)
      in
      for i = 0 to nd.n do
        s := !s + go nd.children.(i)
      done;
      !s
    | Leaf l -> repr_bytes l.repr
  in
  go t.root

(* Single-threaded leaf walk for external validators: leaf images in
   key order, and their representation snapshots. *)
let fold_images t f acc =
  let rec go acc = function
    | Inner nd ->
      let acc = ref acc in
      for i = 0 to nd.n do
        acc := go !acc nd.children.(i)
      done;
      !acc
    | Leaf l -> f acc l.repr
  in
  go acc t.root

let fold_leaves t f acc =
  fold_images t
    (fun acc repr ->
      f acc ~compact:(is_compact repr) ~capacity:(repr_capacity repr)
        ~count:(repr_count repr) ~bytes:(repr_bytes repr))
    acc

let count t = fold_images t (fun n repr -> n + repr_count repr) 0

let leaf_capacity t = t.leaf_capacity

(* --- Descent helpers ------------------------------------------------ *)

let separator t keys i = Bytes.sub_string keys (i * t.key_len) t.key_len

(* The child slot of an inner node with [n] separators in [keys] that
   covers [key]. *)
let child_index t keys n key =
  let kl = t.key_len in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Key.compare_at keys (mid * kl) kl key <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let inner_keys t = Bytes.make (t.inner_capacity * t.key_len) '\000'
let inner_children t fill = Array.make (t.inner_capacity + 1) fill

let set_separator t keys i sep =
  if String.length sep <> t.key_len then invalid_arg "Btree_olc: key length";
  Bytes.blit_string sep 0 keys (i * t.key_len) t.key_len

(* Split a full leaf representation: the left half (in place for
   standard leaves), the right half and the separator between them. *)
let split_repr t repr =
  if is_compact repr then begin
    let x = seq repr in
    let c = Seqtree.capacity x in
    let left, right = Seqtree.split x ~left_capacity:c ~right_capacity:c in
    ((left :> Bytes.t), (right :> Bytes.t), t.load (Seqtree.tid_at right 0))
  end
  else begin
    let right = Std_leaf.split (std repr) in
    (repr, (right :> Bytes.t), Std_leaf.key_at right 0)
  end

(* Split a full node (write-locked by the caller); returns the separator
   and the new right sibling. *)
let split_node t = function
  | Leaf l ->
    let before = repr_bytes l.repr in
    let left, right_repr, sep = split_repr t l.repr in
    let right = Leaf { lversion = 0; repr = right_repr; next = l.next } in
    l.repr <- left;
    l.next <- right;
    account t (repr_bytes left + repr_bytes right_repr - before);
    if is_compact right_repr then account_compact t 1;
    (sep, right)
  | Inner nd ->
    account t
      (Ei_storage.Memmodel.inner_bytes ~capacity:t.inner_capacity
         ~key_len:t.key_len);
    let kl = t.key_len in
    let mid = nd.n / 2 in
    let sep = separator t nd.keys mid in
    let n = nd.n - mid - 1 in
    let keys = inner_keys t in
    let children = inner_children t nd.children.(nd.n) in
    Bytes.blit nd.keys ((mid + 1) * kl) keys 0 (n * kl);
    Array.blit nd.children (mid + 1) children 0 (n + 1);
    nd.n <- mid;
    (sep, Inner { iversion = 0; n; keys; children })

(* Insert separator [sep] and its right child into a write-locked,
   non-full inner node. *)
let inner_insert t parent sep child =
  match parent with
  | Inner nd ->
    let kl = t.key_len in
    let i = child_index t nd.keys nd.n sep in
    Bytes.blit nd.keys (i * kl) nd.keys ((i + 1) * kl) ((nd.n - i) * kl);
    Array.blit nd.children (i + 1) nd.children (i + 2) (nd.n - i);
    set_separator t nd.keys i sep;
    nd.children.(i + 1) <- child;
    nd.n <- nd.n + 1
  | Leaf _ -> Invariant.impossible "Btree_olc.inner_insert: leaf parent"

(* Split a full node, with the parent (or the root lock) already
   write-locked by the caller.  The node itself is locked here. *)
let split_child t ~parent ~node nv =
  upgrade_or_restart node nv;
  critical node (fun () ->
      let sep, right = split_node t node in
      (match parent with
      | Some p -> inner_insert t p sep right
      | None ->
        (* Growing the tree: new root above the old one. *)
        let keys = inner_keys t in
        let children = inner_children t right in
        set_separator t keys 0 sep;
        children.(0) <- node;
        account t
          (Ei_storage.Memmodel.inner_bytes ~capacity:t.inner_capacity
             ~key_len:t.key_len);
        t.root <- Inner { iversion = 0; n = 1; keys; children });
      update_elastic_state t);
  write_unlock node

(* Decide how an elastic tree handles a full leaf: convert in place
   (returning the new capacity) while shrinking, or split (None). *)
let elastic_overflow t node =
  match (t.elastic, node) with
  | Some e, Leaf l ->
    update_elastic_state t;
    let repr = l.repr in
    Hysteresis.shrink_to ~std:t.leaf_capacity (Atomic.get e.estate)
      (if is_compact repr then Some (Seqtree.capacity (seq repr)) else None)
  | _ -> None

(* Convert a full leaf in place under its write lock (elastic shrink),
   then restart the caller's descent. *)
let convert_full_leaf t node nv capacity =
  upgrade_or_restart node nv;
  critical node (fun () ->
      match node with
      | Leaf l -> l.repr <- convert_repr t l.repr ~capacity
      | Inner _ -> Invariant.impossible "Btree_olc.convert_full_leaf: inner node");
  write_unlock node;
  raise Restart

(* --- Operations ----------------------------------------------------- *)

let with_restart f =
  let rec go n =
    try f () with
    | Restart ->
      Fault.point yp_restart;
      Domain.cpu_relax ();
      go (n + 1)
    | Invalid_argument _ | Assert_failure _ ->
      (* torn optimistic read *)
      Fault.point yp_restart;
      Domain.cpu_relax ();
      go (n + 1)
  in
  go 0

let find t key =
  with_restart (fun () ->
      let rv = Root.read_lock t.root_lock in
      let node = t.root in
      let nv = read_lock node in
      Root.check t.root_lock rv;
      let rec go node nv =
        match node with
        | Leaf l ->
          let r = repr_find t l.repr key in
          check node nv;
          r
        | Inner nd ->
          let i = child_index t nd.keys nd.n key in
          let child = nd.children.(i) in
          let cv = read_lock child in
          check node nv;
          go child cv
      in
      go node nv)

(* Batched lookups: walk up to [group] keys through the tree in
   lockstep ({!Ei_btree.Interleave}), one descent step per cursor per
   round, prefetching each child node before touching its version
   word.  The word is field 0 of the node block, so the prefetch brings
   it in with the node.  A step re-validates exactly what [find]'s
   would — the current node's version after reading the child pointer
   (or the leaf payload) — so each cursor follows the standard OLC read
   protocol unchanged.

   Restarts are per-cursor, not per-batch: the validation failures
   [with_restart] would catch ([Restart], plus [Invalid_argument] /
   [Assert_failure] from torn optimistic reads) are passed to the
   engine as its [retry] classifier, which resets only the conflicting
   cursor back to root re-acquisition.  Batch-wide restarts would let
   one hot writer starve K lookups at a time.  [yp_multi] fires once
   per lockstep round so the simulation scheduler can interleave
   writers *between* rounds, in the middle of a batch. *)
let multi_find ?(group = 8) t keys =
  let tmf = Trace.start () in
  let nkeys = Array.length keys in
  let out = Array.make nkeys None in
  let base = ref 0 in
  while !base < nkeys do
    let n = min group (nkeys - !base) in
    let first = !base in
    Ei_btree.Interleave.run
      ~yield:(fun () -> Fault.point yp_multi)
      ~retry:(function
        | Restart | Invalid_argument _ | Assert_failure _ -> true
        | _ -> false)
      ~n
      ~start:(fun _ ->
        let rv = Root.read_lock t.root_lock in
        let node = t.root in
        let nv = read_lock node in
        Root.check t.root_lock rv;
        (node, nv))
      ~step:(fun i (node, nv) ->
        let key = keys.(first + i) in
        match node with
        | Leaf l ->
          let r = repr_find t l.repr key in
          check node nv;
          out.(first + i) <- r;
          Ei_btree.Interleave.Done
        | Inner nd ->
          let ci = child_index t nd.keys nd.n key in
          let child = nd.children.(ci) in
          Ei_util.Prefetch.prefetch child;
          let cv = read_lock child in
          check node nv;
          Ei_btree.Interleave.Continue (child, cv))
      ();
    base := first + n
  done;
  Trace.span ev_multi_find ~start_ns:tmf nkeys;
  out

let insert t key tid =
  with_restart (fun () ->
      let rv = Root.read_lock t.root_lock in
      let node = t.root in
      let nv = read_lock node in
      Root.check t.root_lock rv;
      if node_full t node then begin
        match elastic_overflow t node with
        | Some capacity ->
          (* Elastic shrink: convert the root leaf in place. *)
          convert_full_leaf t node nv capacity
        | None ->
          (* Split the root under the root lock, then restart. *)
          Root.upgrade_or_restart t.root_lock rv;
          (try split_child t ~parent:None ~node nv
           with Restart ->
             Root.write_abort t.root_lock;
             raise Restart);
          Root.write_unlock t.root_lock;
          raise Restart
      end;
      let rec go node nv =
        (* Invariant: [node] is not full; its parent has room. *)
        match node with
        | Leaf l ->
          upgrade_or_restart node nv;
          let r =
            critical node (fun () ->
                let before = repr_bytes l.repr in
                let r =
                  if is_compact l.repr then
                    match Seqtree.insert (seq l.repr) ~load:t.load key tid with
                    | Seqtree.Inserted -> Std_leaf.Inserted
                    | Seqtree.Grown x ->
                      (* Breathing growth (§5.4): the key is in a larger
                         image, swapped in under the write lock. *)
                      l.repr <- (x :> Bytes.t);
                      Std_leaf.Inserted
                    | Seqtree.Full -> Std_leaf.Full
                    | Seqtree.Duplicate -> Std_leaf.Duplicate
                  else Std_leaf.insert (std l.repr) key tid
                in
                account t (repr_bytes l.repr - before);
                r)
          in
          write_unlock node;
          (match r with
          | Std_leaf.Inserted -> true
          | Std_leaf.Duplicate -> false
          | Std_leaf.Full ->
            Invariant.impossible "Btree_olc.insert: leaf still full after split")
        | Inner nd ->
          let i = child_index t nd.keys nd.n key in
          let child = nd.children.(i) in
          let cv = read_lock child in
          check node nv;
          if node_full t child then begin
            match elastic_overflow t child with
            | Some capacity ->
              (* Elastic shrink: convert the leaf in place — no parent
                 lock needed, the upper tree is untouched. *)
              convert_full_leaf t child cv capacity
            | None ->
              (* Eager split with this (non-full) node locked as parent. *)
              upgrade_or_restart node nv;
              (try split_child t ~parent:(Some node) ~node:child cv
               with Restart ->
                 write_abort node;
                 raise Restart);
              write_unlock node;
              raise Restart
          end
          else go child cv
      in
      go node nv)

let remove t key =
  (* Lazy deletion: lock the leaf and remove; leaves are never merged. *)
  with_restart (fun () ->
      let rv = Root.read_lock t.root_lock in
      let node = t.root in
      let nv = read_lock node in
      Root.check t.root_lock rv;
      let rec go node nv =
        match node with
        | Leaf l ->
          upgrade_or_restart node nv;
          let r =
            critical node (fun () ->
                let before = repr_bytes l.repr in
                let r =
                  if is_compact l.repr then (
                    match Seqtree.remove (seq l.repr) ~load:t.load key with
                    | Seqtree.Removed -> true
                    | Seqtree.Not_present -> false)
                  else (
                    match Std_leaf.remove (std l.repr) key with
                    | Std_leaf.Removed -> true
                    | Std_leaf.Not_present -> false)
                in
                account t (repr_bytes l.repr - before);
                (* Elastic underflow: a compact leaf below the §4
                   invariant shrinks back down the capacity progression,
                   while holding the write lock. *)
                (match t.elastic with
                | Some _ when r && is_compact l.repr ->
                  let x = seq l.repr in
                  let c = Seqtree.capacity x in
                  if Hysteresis.underflows ~capacity:c ~count:(Seqtree.count x)
                  then begin
                    let capacity =
                      Option.value ~default:t.leaf_capacity
                        (Hysteresis.halve ~floor:t.leaf_capacity c)
                    in
                    l.repr <- convert_repr t l.repr ~capacity
                  end
                | _ -> ());
                update_elastic_state t;
                r)
          in
          write_unlock node;
          r
        | Inner nd ->
          let i = child_index t nd.keys nd.n key in
          let child = nd.children.(i) in
          let cv = read_lock child in
          check node nv;
          go child cv
      in
      go node nv)

(* In-place value overwrite: lock the leaf and replace the tid of an
   existing key.  No size change, so no elastic accounting. *)
let update t key tid =
  with_restart (fun () ->
      let rv = Root.read_lock t.root_lock in
      let node = t.root in
      let nv = read_lock node in
      Root.check t.root_lock rv;
      let rec go node nv =
        match node with
        | Leaf l ->
          upgrade_or_restart node nv;
          let r =
            critical node (fun () ->
                if is_compact l.repr then
                  Seqtree.update (seq l.repr) ~load:t.load key tid
                else Std_leaf.update (std l.repr) key tid)
          in
          write_unlock node;
          r
        | Inner nd ->
          let i = child_index t nd.keys nd.n key in
          let child = nd.children.(i) in
          let cv = read_lock child in
          check node nv;
          go child cv
      in
      go node nv)

(* Range scan: locate the start leaf, then walk the immutable sibling
   chain, validating each leaf's version around its snapshot. *)
let fold_range t ~start ~n f acc =
  let first =
    with_restart (fun () ->
        let rv = Root.read_lock t.root_lock in
        let node = t.root in
        let nv = read_lock node in
        Root.check t.root_lock rv;
        let rec go node nv =
          match node with
          | Leaf _ ->
            check node nv;
            node
          | Inner nd ->
            let i = child_index t nd.keys nd.n start in
            let child = nd.children.(i) in
            let cv = read_lock child in
            check node nv;
            go child cv
        in
        go node nv)
  in
  (* Snapshot one leaf's entries >= start (with key loads for compact
     leaves), retrying on version conflicts. *)
  let snapshot node =
    match node with
    | Inner _ ->
      Invariant.impossible "Btree_olc.fold_range: inner node in the chain"
    | Leaf l ->
      with_restart (fun () ->
          let v = read_lock node in
          let repr = l.repr in
          (* entries >= start, in descending key order: [walk] folds
             them from the right *)
          let keep acc k tid =
            if Key.compare k start >= 0 then (k, tid) :: acc else acc
          in
          let entries =
            if is_compact repr then
              Seqtree.fold_from (seq repr) 0
                (fun acc tid -> keep acc (t.load tid) tid)
                []
            else Std_leaf.fold_from (std repr) 0 keep []
          in
          let next = l.next in
          check node v;
          (entries, next))
  in
  let rec walk node remaining acc =
    if remaining <= 0 then acc
    else begin
      Fault.point yp_scan;
      let entries, next = snapshot node in
      let taken = ref 0 in
      let acc =
        List.fold_right
          (fun (k, tid) acc ->
            if !taken < remaining then begin
              incr taken;
              f acc k tid
            end
            else acc)
          entries acc
      in
      if next != chain_end && remaining - !taken > 0 then
        walk next (remaining - !taken) acc
      else acc
    end
  in
  walk first n acc

(* Single-threaded invariant check (no concurrent mutators). *)
let check_invariants t =
  let rec walk node ~lo ~hi =
    match node with
    | Leaf l ->
      let n = repr_count l.repr in
      let key_at i = repr_key t l.repr i in
      for i = 0 to n - 2 do
        assert (Key.compare (key_at i) (key_at (i + 1)) < 0)
      done;
      for i = 0 to n - 1 do
        (match lo with Some b -> assert (Key.compare b (key_at i) <= 0) | None -> ());
        match hi with Some b -> assert (Key.compare (key_at i) b < 0) | None -> ()
      done;
      1
    | Inner nd ->
      assert (nd.n >= 1 && nd.n <= t.inner_capacity);
      for i = 0 to nd.n - 2 do
        assert (Key.compare (separator t nd.keys i) (separator t nd.keys (i + 1)) < 0)
      done;
      let d = ref (-1) in
      for i = 0 to nd.n do
        let lo' = if i = 0 then lo else Some (separator t nd.keys (i - 1)) in
        let hi' = if i = nd.n then hi else Some (separator t nd.keys i) in
        let di = walk nd.children.(i) ~lo:lo' ~hi:hi' in
        if !d = -1 then d := di else assert (di = !d)
      done;
      1 + !d
  in
  ignore (walk t.root ~lo:None ~hi:None)

module For_tests = struct
  type nonrec node = node

  let leaf () =
    Leaf
      {
        lversion = 0;
        repr = (Std_leaf.create ~key_len:8 ~capacity:2 () :> Bytes.t);
        next = chain_end;
      }

  let version = version
  let compare_and_set = version_cas
  let read_lock = read_lock
  let try_upgrade = try_upgrade
  let write_unlock = write_unlock
  let write_abort = write_abort
end
