(* Prefix-compressed B+-tree leaf: the classic key-prefix truncation of
   commercial B+-trees (InnoDB/Oracle index key compression, §2's
   references [22, 23]).

   Keys in a sorted leaf share a common prefix, which is stored once;
   each slot keeps only its suffix.  Because keys are fully
   reconstructible inside the node, operations behave exactly like a
   standard leaf (no indirect loads) — prefix compression is cheap.  Its
   weakness, which §2 contrasts against the always-compact SeqTree, is
   that the saving *depends on the key distribution*: random keys share
   nothing and the per-leaf prefix bookkeeping can even add space.

   The implementation keeps full keys in memory for speed (as the
   repository-wide convention, space is accounted through the explicit
   memory model): the modelled layout is header, prefix length byte,
   shared prefix bytes, and [capacity] slots of (key_len - prefix_len)
   suffix bytes plus a tuple id. *)

type t = {
  std : Std_leaf.t;
  mutable prefix_len : int;  (* shared-prefix length of the current keys *)
}
(* A leaf belongs to one single-threaded tree ({!Btree}, through {!Leaf}), and so to
   the one domain that owns that tree. *)
[@@ei.single_domain]

let shared_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

(* The shared prefix of a sorted key set is the shared prefix of its
   extremes. *)
let recompute t =
  let n = Std_leaf.count t.std in
  t.prefix_len <-
    (if n = 0 then 0
     else if n = 1 then String.length (Std_leaf.key_at t.std 0)
     else shared_prefix_len (Std_leaf.key_at t.std 0) (Std_leaf.key_at t.std (n - 1)))

let count t = Std_leaf.count t.std
let capacity t = Std_leaf.capacity t.std
let key_at t i = Std_leaf.key_at t.std i
let tid_at t i = Std_leaf.tid_at t.std i

let memory_bytes t =
  let key_len =
    if Std_leaf.count t.std = 0 then 0
    else String.length (Std_leaf.key_at t.std 0)
  in
  Ei_storage.Memmodel.prefix_leaf_bytes ~capacity:(Std_leaf.capacity t.std)
    ~key_len ~prefix_len:t.prefix_len

let find t key = Std_leaf.find t.std key

let insert t key tid =
  let r = Std_leaf.insert t.std key tid in
  (match r with Std_leaf.Inserted -> recompute t | _ -> ());
  r

let update t key tid = Std_leaf.update t.std key tid

let remove t key =
  let r = Std_leaf.remove t.std key in
  (match r with Std_leaf.Removed -> recompute t | _ -> ());
  r

let of_sorted ~key_len ~capacity keys tids n =
  let t = { std = Std_leaf.of_sorted ~key_len ~capacity keys tids n; prefix_len = 0 } in
  recompute t;
  t

let split t =
  let right = { std = Std_leaf.split t.std; prefix_len = 0 } in
  recompute t;
  recompute right;
  right

let absorb a b =
  Std_leaf.absorb a.std b.std;
  recompute a

let fold_from t pos f acc = Std_leaf.fold_from t.std pos f acc
let lower_bound t key = Std_leaf.lower_bound t.std key

let check_invariants t =
  Std_leaf.check_invariants t.std;
  let n = Std_leaf.count t.std in
  (* The recorded prefix really is shared by every key, and is maximal. *)
  if n >= 1 then begin
    let p = String.sub (Std_leaf.key_at t.std 0) 0 t.prefix_len in
    for i = 0 to n - 1 do
      assert (String.length (Std_leaf.key_at t.std i) >= t.prefix_len);
      assert (String.equal (String.sub (Std_leaf.key_at t.std i) 0 t.prefix_len) p)
    done;
    if n >= 2 then
      assert (
        t.prefix_len
        = shared_prefix_len (Std_leaf.key_at t.std 0) (Std_leaf.key_at t.std (n - 1)))
  end
