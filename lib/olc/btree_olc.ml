(* B+-tree with Optimistic Lock Coupling (Leis et al. [17]), as used by
   the multithreaded evaluation of §6.2: BTreeOLC with standard leaves,
   and BTreeOLC-SeqTree with compact (indirect-key) leaves.

   Every node carries a version word (an [int Atomic.t]); bit 0 is the
   lock bit and the remaining bits count modifications.  Readers descend
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

(* --- Version locks -------------------------------------------------- *)

let is_locked v = v land 1 = 1

let rec read_lock a =
  let v = Atomic.get a in
  if is_locked v then begin
    Fault.point yp_spin;
    Domain.cpu_relax ();
    read_lock a
  end
  else v

let validate a v = Atomic.get a = v
let check a v = if not (validate a v) then raise Restart
let try_upgrade a v = Atomic.compare_and_set a v (v lor 1)

let upgrade_or_restart a v =
  if try_upgrade a v then Fault.point yp_locked else raise Restart

(* Release a write lock, bumping the version. *)
let write_unlock a = Atomic.set a ((Atomic.get a lxor 1) + 2)

(* Release a write lock without a version bump (nothing was modified). *)
let write_abort a = Atomic.set a (Atomic.get a lxor 1)

(* Run [f] with [a] write-locked by the caller.  A non-[Restart]
   exception inside a critical section is a genuine broken invariant —
   the node is private while locked, so there is no torn read to excuse
   it: release the lock with a version bump (the mutation may be
   partial) and re-raise as {!Invariant.Broken}, which [with_restart]
   does not swallow.  Without this, the leaked lock wedges every later
   operation that spins in [read_lock] on the node. *)
let critical a f =
  try f () with
  | Restart ->
    write_abort a;
    raise Restart
  | Invariant.Broken _ as e ->
    write_unlock a;
    raise e
  | e ->
    write_unlock a;
    raise
      (Invariant.Broken
         ("Btree_olc: exception in locked section: " ^ Printexc.to_string e))

(* --- Structure ------------------------------------------------------ *)

type leaf_repr = Lstd of Std_leaf.t | Lseq of Seqtree.t

type node =
  | Inner of inner
  | Leaf of leaf

and inner = {
  iversion : int Atomic.t;
  mutable n : int [@ei.guarded_by "iversion"];
  (* separator [i] is the [key_len] bytes at [i * key_len]: inline, as
     the memory model's inner node charges them *)
  keys : Bytes.t [@ei.guarded_by "iversion"];
  children : node array [@ei.guarded_by "iversion"];
}

and leaf = {
  lversion : int Atomic.t;
  mutable repr : leaf_repr [@ei.guarded_by "lversion"];
  (* sibling chain; never unlinked *)
  mutable next : leaf option [@ei.guarded_by "lversion"];
}

type leaf_kind =
  | Olc_std
  | Olc_seqtree of { capacity : int; levels : int; breathing : int }
  | Olc_elastic of elastic_config
    (* The elastic index framework applied to the concurrent tree — the
       variant §6.2 names but does not implement.  Conversions happen
       in place under a leaf's write lock; the size total and state are
       shared atomics, so the soft bound is approximate under races but
       convergent. *)

and elastic_config = {
  size_bound : int;
  shrink_fraction : float;
  expand_fraction : float;
  initial_compact_capacity : int;
  max_compact_capacity : int;
  seq_levels : int;
  breathing : int;
}

let default_elastic_config ~size_bound =
  {
    size_bound;
    shrink_fraction = 0.9;
    expand_fraction = 0.75;
    initial_compact_capacity = 32;
    max_compact_capacity = 128;
    seq_levels = 2;
    breathing = 4;
  }

(* Concurrent elasticity state: 0 = normal, 1 = shrinking, 2 = expanding. *)
type elastic_state = {
  cfg : elastic_config;
  ebound : int Atomic.t;     (* live soft bound; coordinator-adjustable *)
  ecompact : int Atomic.t;   (* number of compact leaves *)
  estate : int Atomic.t;
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

let empty_leaf t =
  let repr =
    match t.kind with
    | Olc_std | Olc_elastic _ ->
      Lstd (Std_leaf.create ~key_len:t.key_len ~capacity:t.leaf_capacity ())
    | Olc_seqtree { capacity; levels; breathing } ->
      Lseq (Seqtree.create ~key_len:t.key_len ~capacity ~levels ~breathing ())
  in
  { lversion = Atomic.make 0; repr; next = None }

let leaf_bytes l =
  match l.repr with
  | Lstd x -> Std_leaf.memory_bytes x
  | Lseq x -> Seqtree.memory_bytes x

let create ?(leaf_capacity = 16) ?(inner_capacity = 16) ?(kind = Olc_std)
    ~key_len ~load () =
  let elastic =
    match kind with
    | Olc_elastic cfg ->
      Some
        {
          cfg;
          ebound = Atomic.make cfg.size_bound;
          ecompact = Atomic.make 0;
          estate = Atomic.make 0;
          econversions = Atomic.make 0;
        }
    | Olc_std | Olc_seqtree _ -> None
  in
  let t =
    {
      key_len;
      leaf_capacity;
      inner_capacity;
      kind;
      load;
      root_lock = Atomic.make 0;
      root = Leaf { lversion = Atomic.make 0; repr = Lstd (Std_leaf.create ~key_len ~capacity:2 ()); next = None };
      bytes = Atomic.make 0;
      elastic;
    }
  in
  let first = empty_leaf t in
  t.root <- Leaf first;
  Atomic.set t.bytes (leaf_bytes first);
  t

(* --- Elastic bookkeeping --------------------------------------------- *)

let account t delta =
  if delta <> 0 then ignore (Atomic.fetch_and_add t.bytes delta)

let account_compact t delta =
  match t.elastic with
  | Some e -> ignore (Atomic.fetch_and_add e.ecompact delta)
  | None -> ()

(* Transition the elastic state machine, making the change visible to
   the shared registry and trace ring.  Callers only reach here when the
   new state differs from the one they just observed, so every call is a
   real transition (races between domains can at worst double-report a
   transition, never invent a state). *)
let set_estate e s ~bytes =
  Atomic.set e.estate s;
  Metrics.incr c_transitions;
  Trace.emit ev_state s bytes

let update_elastic_state t =
  match t.elastic with
  | None -> ()
  | Some e ->
    let bytes = Atomic.get t.bytes in
    let bound = Atomic.get e.ebound in
    let shrink_at =
      int_of_float (e.cfg.shrink_fraction *. float_of_int bound)
    in
    let expand_at =
      int_of_float (e.cfg.expand_fraction *. float_of_int bound)
    in
    (match Atomic.get e.estate with
    | 0 -> if bytes >= shrink_at then set_estate e 1 ~bytes
    | 1 -> if bytes <= expand_at then set_estate e 2 ~bytes
    | _ ->
      if bytes >= shrink_at then set_estate e 1 ~bytes
      else if Atomic.get e.ecompact = 0 then set_estate e 0 ~bytes)

let tracked_memory_bytes t = Atomic.get t.bytes

let elastic_size_bound t =
  match t.elastic with Some e -> Atomic.get e.ebound | None -> 0

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

let elastic_state_name t =
  match t.elastic with
  | None -> ""
  | Some e -> (
    match Atomic.get e.estate with
    | 0 -> "normal"
    | 1 -> "shrinking"
    | _ -> "expanding")

let elastic_compact_leaves t =
  match t.elastic with Some e -> Atomic.get e.ecompact | None -> 0

let elastic_conversions t =
  match t.elastic with Some e -> Atomic.get e.econversions | None -> 0

(* Convert a write-locked leaf's representation in place (std -> compact
   or compact capacity change), adjusting the shared accounting. *)
let convert_locked_leaf t l ~capacity ~levels ~breathing =
  Fault.point yp_convert;
  let before = leaf_bytes l in
  let was_compact = match l.repr with Lstd _ -> false | Lseq _ -> true in
  let from_capacity =
    match l.repr with Lstd _ -> 0 | Lseq x -> Seqtree.capacity x
  in
  let n, keys, tids =
    match l.repr with
    | Lstd x ->
      let n = Std_leaf.count x in
      ( n,
        Array.init n (fun i -> Std_leaf.key_at x i),
        Array.init n (fun i -> Std_leaf.tid_at x i) )
    | Lseq x ->
      let n = Seqtree.count x in
      let tids = Array.init n (fun i -> Seqtree.tid_at x i) in
      (n, Array.map t.load tids, tids)
  in
  l.repr <-
    (if capacity <= t.leaf_capacity then
       Lstd (Std_leaf.of_sorted ~key_len:t.key_len ~capacity:t.leaf_capacity keys tids n)
     else
       Lseq
         (Seqtree.of_sorted ~key_len:t.key_len ~capacity ~levels ~breathing keys
            tids n));
  let is_compact = match l.repr with Lstd _ -> false | Lseq _ -> true in
  account t (leaf_bytes l - before);
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
  update_elastic_state t

let leaf_count l =
  match l.repr with Lstd x -> Std_leaf.count x | Lseq x -> Seqtree.count x

let leaf_full l =
  match l.repr with Lstd x -> Std_leaf.is_full x | Lseq x -> Seqtree.is_full x

let node_version = function
  | Inner nd -> nd.iversion
  | Leaf l -> l.lversion

let node_full t = function
  | Inner nd -> nd.n >= t.inner_capacity
  | Leaf l -> leaf_full l

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
    | Leaf l -> (
      match l.repr with
      | Lstd x -> Std_leaf.memory_bytes x
      | Lseq x -> Seqtree.memory_bytes x)
  in
  go t.root

let count t =
  let rec go = function
    | Inner nd ->
      let s = ref 0 in
      for i = 0 to nd.n do
        s := !s + go nd.children.(i)
      done;
      !s
    | Leaf l -> leaf_count l
  in
  go t.root

(* Single-threaded leaf walk for external validators: leaves in key
   order with their representation snapshot. *)
let fold_leaves t f acc =
  let rec go acc = function
    | Inner nd ->
      let acc = ref acc in
      for i = 0 to nd.n do
        acc := go !acc nd.children.(i)
      done;
      !acc
    | Leaf l ->
      let compact, capacity =
        match l.repr with
        | Lstd x -> (false, Std_leaf.capacity x)
        | Lseq x -> (true, Seqtree.capacity x)
      in
      f acc ~compact ~capacity ~count:(leaf_count l) ~bytes:(leaf_bytes l)
  in
  go acc t.root

let leaf_capacity t = t.leaf_capacity

let elastic_config t =
  match t.elastic with Some e -> Some e.cfg | None -> None

(* --- Descent helpers ------------------------------------------------ *)

let separator t nd i = Bytes.sub_string nd.keys (i * t.key_len) t.key_len

let child_index t nd key =
  let kl = t.key_len in
  let lo = ref 0 and hi = ref nd.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Key.compare_at nd.keys (mid * kl) kl key <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let new_inner t ~n ~fill =
  {
    iversion = Atomic.make 0;
    n;
    keys = Bytes.make (t.inner_capacity * t.key_len) '\000';
    children = Array.make (t.inner_capacity + 1) fill;
  }

let set_separator t nd i sep =
  if String.length sep <> t.key_len then invalid_arg "Btree_olc: key length";
  Bytes.blit_string sep 0 nd.keys (i * t.key_len) t.key_len

(* Split a full leaf (write-locked by the caller); returns the separator
   and new right leaf. *)
let split_leaf t l =
  let before = leaf_bytes l in
  let right_repr, sep =
    match l.repr with
    | Lstd x ->
      let right = Std_leaf.split x in
      (Lstd right, Std_leaf.key_at right 0)
    | Lseq x ->
      let c = Seqtree.capacity x in
      let left, right = Seqtree.split x ~left_capacity:c ~right_capacity:c in
      l.repr <- Lseq left;
      (Lseq right, t.load (Seqtree.tid_at right 0))
  in
  let right = { lversion = Atomic.make 0; repr = right_repr; next = l.next } in
  l.next <- Some right;
  account t (leaf_bytes l + leaf_bytes right - before);
  (match right.repr with Lseq _ -> account_compact t 1 | Lstd _ -> ());
  (sep, Leaf right)

(* Split a full inner node (write-locked); returns separator + right. *)
let split_inner t nd =
  let kl = t.key_len in
  let mid = nd.n / 2 in
  let sep = separator t nd mid in
  let right = new_inner t ~n:(nd.n - mid - 1) ~fill:nd.children.(nd.n) in
  Bytes.blit nd.keys ((mid + 1) * kl) right.keys 0 (right.n * kl);
  Array.blit nd.children (mid + 1) right.children 0 (right.n + 1);
  nd.n <- mid;
  (sep, Inner right)

let inner_insert_at t nd i sep child =
  let kl = t.key_len in
  Bytes.blit nd.keys (i * kl) nd.keys ((i + 1) * kl) ((nd.n - i) * kl);
  Array.blit nd.children (i + 1) nd.children (i + 2) (nd.n - i);
  set_separator t nd i sep;
  nd.children.(i + 1) <- child;
  nd.n <- nd.n + 1

(* Split a full node, with the parent (or the root lock) already
   write-locked by the caller.  The node itself is locked here. *)
let split_child t ~parent ~node ~node_version:nv =
  upgrade_or_restart (node_version node) nv;
  critical (node_version node) (fun () ->
      let sep, right =
        match node with
        | Leaf l -> split_leaf t l
        | Inner nd ->
          account t
            (Ei_storage.Memmodel.inner_bytes ~capacity:t.inner_capacity
               ~key_len:t.key_len);
          split_inner t nd
      in
      (match parent with
      | Some pnd -> inner_insert_at t pnd (child_index t pnd sep) sep right
      | None ->
        (* Growing the tree: new root above the old one. *)
        let root = new_inner t ~n:1 ~fill:right in
        set_separator t root 0 sep;
        root.children.(0) <- node;
        root.children.(1) <- right;
        account t
          (Ei_storage.Memmodel.inner_bytes ~capacity:t.inner_capacity
             ~key_len:t.key_len);
        t.root <- Inner root);
      update_elastic_state t);
  write_unlock (node_version node)

(* Decide how an elastic tree handles a full leaf: convert in place
   (returning the new capacity) while shrinking, or split (None). *)
let elastic_overflow t node =
  match (t.elastic, node) with
  | Some e, Leaf l ->
    update_elastic_state t;
    if Atomic.get e.estate = 1 then begin
      match l.repr with
      | Lstd _ -> Some e.cfg.initial_compact_capacity
      | Lseq x ->
        let c = Seqtree.capacity x in
        if c < e.cfg.max_compact_capacity then Some (2 * c) else None
    end
    else None
  | _ -> None

(* Convert a full leaf in place under its write lock (elastic shrink),
   then restart the caller's descent. *)
let convert_full_leaf t node nv capacity =
  upgrade_or_restart (node_version node) nv;
  critical (node_version node) (fun () ->
      match node with
      | Leaf l -> (
        match t.elastic with
        | Some e ->
          convert_locked_leaf t l ~capacity ~levels:e.cfg.seq_levels
            ~breathing:e.cfg.breathing
        | None ->
          Invariant.impossible "Btree_olc.convert_full_leaf: no elastic config")
      | Inner _ -> Invariant.impossible "Btree_olc.convert_full_leaf: inner node");
  write_unlock (node_version node);
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
      let rv = read_lock t.root_lock in
      let node = t.root in
      let nv = read_lock (node_version node) in
      check t.root_lock rv;
      let rec go node nv =
        match node with
        | Leaf l ->
          let r =
            match l.repr with
            | Lstd x -> Std_leaf.find x key
            | Lseq x -> Seqtree.find x ~load:t.load key
          in
          check l.lversion nv;
          r
        | Inner nd ->
          let i = child_index t nd key in
          let child = nd.children.(i) in
          let cv = read_lock (node_version child) in
          check nd.iversion nv;
          go child cv
      in
      go node nv)

let mem t key = Option.is_some (find t key)

(* Batched lookups: walk up to [group] keys through the tree in
   lockstep ({!Ei_btree.Interleave}), one descent step per cursor per
   round, prefetching each child node before touching its version
   word.  A step re-validates exactly what [find]'s would — the
   current node's version after reading the child pointer (or the leaf
   payload) — so each cursor follows the standard OLC read protocol
   unchanged.

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
        let rv = read_lock t.root_lock in
        let node = t.root in
        let nv = read_lock (node_version node) in
        check t.root_lock rv;
        (node, nv))
      ~step:(fun i (node, nv) ->
        let key = keys.(first + i) in
        match node with
        | Leaf l ->
          let r =
            match l.repr with
            | Lstd x -> Std_leaf.find x key
            | Lseq x -> Seqtree.find x ~load:t.load key
          in
          check l.lversion nv;
          out.(first + i) <- r;
          Ei_btree.Interleave.Done
        | Inner nd ->
          let ci = child_index t nd key in
          let child = nd.children.(ci) in
          Ei_util.Prefetch.prefetch child;
          let cv = read_lock (node_version child) in
          check nd.iversion nv;
          Ei_btree.Interleave.Continue (child, cv))
      ();
    base := first + n
  done;
  Trace.span ev_multi_find ~start_ns:tmf nkeys;
  out

let insert t key tid =
  with_restart (fun () ->
      let rv = read_lock t.root_lock in
      let node = t.root in
      let nv = read_lock (node_version node) in
      check t.root_lock rv;
      if node_full t node then begin
        match elastic_overflow t node with
        | Some capacity ->
          (* Elastic shrink: convert the root leaf in place. *)
          convert_full_leaf t node nv capacity
        | None ->
          (* Split the root under the root lock, then restart. *)
          upgrade_or_restart t.root_lock rv;
          (try split_child t ~parent:None ~node ~node_version:nv
           with Restart ->
             write_abort t.root_lock;
             raise Restart);
          write_unlock t.root_lock;
          raise Restart
      end;
      let rec go parent node nv =
        (* Invariant: [node] is not full; parent has room. *)
        match node with
        | Leaf l ->
          upgrade_or_restart l.lversion nv;
          let r =
            critical l.lversion (fun () ->
                let before = leaf_bytes l in
                let r =
                  match l.repr with
                  | Lstd x -> Std_leaf.insert x key tid
                  | Lseq x -> (
                    match Seqtree.insert x ~load:t.load key tid with
                    | Seqtree.Inserted -> Std_leaf.Inserted
                    | Seqtree.Full -> Std_leaf.Full
                    | Seqtree.Duplicate -> Std_leaf.Duplicate)
                in
                account t (leaf_bytes l - before);
                r)
          in
          write_unlock l.lversion;
          (match r with
          | Std_leaf.Inserted -> true
          | Std_leaf.Duplicate -> false
          | Std_leaf.Full ->
            Invariant.impossible "Btree_olc.insert: leaf still full after split")
        | Inner nd ->
          let i = child_index t nd key in
          let child = nd.children.(i) in
          let cv = read_lock (node_version child) in
          check nd.iversion nv;
          if node_full t child then begin
            match elastic_overflow t child with
            | Some capacity ->
              (* Elastic shrink: convert the leaf in place — no parent
                 lock needed, the upper tree is untouched. *)
              convert_full_leaf t child cv capacity
            | None ->
              (* Eager split with this (non-full) node locked as parent. *)
              upgrade_or_restart nd.iversion nv;
              (try split_child t ~parent:(Some nd) ~node:child ~node_version:cv
               with Restart ->
                 write_abort nd.iversion;
                 raise Restart);
              write_unlock nd.iversion;
              raise Restart
          end
          else begin
            ignore parent;
            go (Some nd) child cv
          end
      in
      go None node nv)

let remove t key =
  (* Lazy deletion: lock the leaf and remove; leaves are never merged. *)
  with_restart (fun () ->
      let rv = read_lock t.root_lock in
      let node = t.root in
      let nv = read_lock (node_version node) in
      check t.root_lock rv;
      let rec go node nv =
        match node with
        | Leaf l ->
          upgrade_or_restart l.lversion nv;
          let r =
            critical l.lversion (fun () ->
                let before = leaf_bytes l in
                let r =
                  match l.repr with
                  | Lstd x -> (
                    match Std_leaf.remove x key with
                    | Std_leaf.Removed -> true
                    | Std_leaf.Not_present -> false)
                  | Lseq x -> (
                    match Seqtree.remove x ~load:t.load key with
                    | Seqtree.Removed -> true
                    | Seqtree.Not_present -> false)
                in
                account t (leaf_bytes l - before);
                (* Elastic underflow: a compact leaf below the §4
                   invariant shrinks back down the capacity progression,
                   while holding the write lock. *)
                (match (t.elastic, l.repr) with
                | Some e, Lseq x when r ->
                  let c = Seqtree.capacity x in
                  if Seqtree.count x < (c / 2) + 1 then begin
                    let capacity =
                      if c / 2 > t.leaf_capacity then c / 2 else 0
                    in
                    convert_locked_leaf t l
                      ~capacity:(max capacity t.leaf_capacity)
                      ~levels:e.cfg.seq_levels ~breathing:e.cfg.breathing
                  end
                | _ -> ());
                update_elastic_state t;
                r)
          in
          write_unlock l.lversion;
          r
        | Inner nd ->
          let i = child_index t nd key in
          let child = nd.children.(i) in
          let cv = read_lock (node_version child) in
          check nd.iversion nv;
          go child cv
      in
      go node nv)

(* In-place value overwrite: lock the leaf and replace the tid of an
   existing key.  No size change, so no elastic accounting. *)
let update t key tid =
  with_restart (fun () ->
      let rv = read_lock t.root_lock in
      let node = t.root in
      let nv = read_lock (node_version node) in
      check t.root_lock rv;
      let rec go node nv =
        match node with
        | Leaf l ->
          upgrade_or_restart l.lversion nv;
          let r =
            critical l.lversion (fun () ->
                match l.repr with
                | Lstd x -> Std_leaf.update x key tid
                | Lseq x -> Seqtree.update x ~load:t.load key tid)
          in
          write_unlock l.lversion;
          r
        | Inner nd ->
          let i = child_index t nd key in
          let child = nd.children.(i) in
          let cv = read_lock (node_version child) in
          check nd.iversion nv;
          go child cv
      in
      go node nv)

(* Range scan: locate the start leaf, then walk the immutable sibling
   chain, validating each leaf's version around its snapshot. *)
let fold_range t ~start ~n f acc =
  let first =
    with_restart (fun () ->
        let rv = read_lock t.root_lock in
        let node = t.root in
        let nv = read_lock (node_version node) in
        check t.root_lock rv;
        let rec go node nv =
          match node with
          | Leaf l ->
            check l.lversion nv;
            l
          | Inner nd ->
            let i = child_index t nd start in
            let child = nd.children.(i) in
            let cv = read_lock (node_version child) in
            check nd.iversion nv;
            go child cv
        in
        go node nv)
  in
  (* Snapshot one leaf's entries >= start (with key loads for compact
     leaves), retrying on version conflicts. *)
  let snapshot l =
    with_restart (fun () ->
        let v = read_lock l.lversion in
        let entries =
          match l.repr with
          | Lstd x ->
            let out = ref [] in
            for i = Std_leaf.count x - 1 downto 0 do
              let k = Std_leaf.key_at x i in
              if Key.compare k start >= 0 then
                out := (k, Std_leaf.tid_at x i) :: !out
            done;
            !out
          | Lseq x ->
            let out = ref [] in
            for i = Seqtree.count x - 1 downto 0 do
              let tid = Seqtree.tid_at x i in
              let k = t.load tid in
              if Key.compare k start >= 0 then out := (k, tid) :: !out
            done;
            !out
        in
        let next = l.next in
        check l.lversion v;
        (entries, next))
  in
  let rec walk l remaining acc =
    if remaining <= 0 then acc
    else begin
      Fault.point yp_scan;
      let entries, next = snapshot l in
      let taken = ref 0 in
      let acc =
        List.fold_left
          (fun acc (k, tid) ->
            if !taken < remaining then begin
              incr taken;
              f acc k tid
            end
            else acc)
          acc entries
      in
      match next with
      | Some nxt when remaining - !taken > 0 -> walk nxt (remaining - !taken) acc
      | _ -> acc
    end
  in
  walk first n acc

(* Single-threaded invariant check (no concurrent mutators). *)
let check_invariants t =
  let rec walk node ~lo ~hi =
    match node with
    | Leaf l ->
      let n = leaf_count l in
      let key_at i =
        match l.repr with
        | Lstd x -> Std_leaf.key_at x i
        | Lseq x -> t.load (Seqtree.tid_at x i)
      in
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
        assert (Key.compare (separator t nd i) (separator t nd (i + 1)) < 0)
      done;
      let d = ref (-1) in
      for i = 0 to nd.n do
        let lo' = if i = 0 then lo else Some (separator t nd (i - 1)) in
        let hi' = if i = nd.n then hi else Some (separator t nd i) in
        let di = walk nd.children.(i) ~lo:lo' ~hi:hi' in
        if !d = -1 then d := di else assert (di = !d)
      done;
      1 + !d
  in
  ignore (walk t.root ~lo:None ~hi:None)
