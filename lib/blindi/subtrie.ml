(* SubTrie: the blind-trie node representation of Bumbulis and Bowman
   [4], used as the comparison baseline of §6.4.

   The trie's internal nodes are stored in preorder.  For node [i],
   [bits.(i)] is its discriminating-bit position and [sizes.(i)] is the
   size of its left subtree inclusive of the node itself, which is enough
   to locate both children: the left child (when it exists) is [i + 1]
   and the right child is [i + sizes.(i)].

   A subtree with [m] internal nodes covers [m + 1] keys, so the descent
   tracks the key range covered by the current subtree and terminates at
   a single key position.  As with every blind trie, the candidate key is
   then loaded from the table for verification. *)

type t = {
  key_len : int;
  capacity : int;
  mutable n : int;
  bits : Bitsarr.t;   (* preorder discriminating bits, n - 1 in use *)
  sizes : Bitsarr.t;  (* preorder left-subtree sizes, n - 1 in use *)
  tids : int array;   (* key order *)
}
(* A node belongs to one single-threaded tree (a {!Ei_btree.Leaf}), and
   so to the one domain that owns that tree. *)
[@@ei.single_domain]

type load = int -> string

let create ~key_len ~capacity () =
  assert (capacity >= 2);
  let bw = Bitsarr.width_for_bits (key_len * 8) in
  let sw = Bitsarr.width_for_bits capacity in
  {
    key_len; capacity;
    n = 0;
    bits = Bitsarr.create ~width:bw ~capacity:(capacity - 1);
    sizes = Bitsarr.create ~width:sw ~capacity:(capacity - 1);
    tids = Array.make capacity 0;
  }

let count t = t.n
let capacity t = t.capacity
let tid_at t i =
  assert (i >= 0 && i < t.n);
  t.tids.(i)

let memory_bytes t =
  Ei_storage.Memmodel.subtrie_bytes ~capacity:t.capacity ~key_len:t.key_len

(* ------------------------------------------------------------------ *)
(* Preorder construction from in-order discriminating bits.            *)

(* In-order bits (as in a SeqTrie) fully determine the trie: the root of
   any in-order segment is its minimum entry.  [emit] rebuilds the
   preorder arrays from in-order bits. *)
let rebuild_from_inorder t inorder n =
  t.n <- n;
  let pos = ref 0 in
  let rec emit (lo : int) hi =
    if lo <= hi then begin
      let m = ref lo in
      for i = lo + 1 to hi do
        if inorder.(i) < inorder.(!m) then m := i
      done;
      let p = !pos in
      incr pos;
      Bitsarr.set t.bits p inorder.(!m);
      Bitsarr.set t.sizes p (!m - lo + 1);
      emit lo (!m - 1);
      emit (!m + 1) hi
    end
  in
  if n >= 2 then emit 0 (n - 2);
  assert (!pos = max 0 (n - 1))

(* Reconstruct in-order bits from the preorder arrays (O(n)). *)
let to_inorder t =
  let out = Array.make (max 0 (t.n - 1)) 0 in
  let rec walk p (klo : int) khi =
    (* Subtree rooted at preorder index [p] covering keys [klo, khi]. *)
    if khi > klo then begin
      let l = Bitsarr.get t.sizes p in
      out.(klo + l - 1) <- Bitsarr.get t.bits p;
      if l > 1 then walk (p + 1) klo (klo + l - 1);
      if khi - klo - l > 0 then walk (p + l) (klo + l) khi
    end
  in
  if t.n >= 2 then walk 0 0 (t.n - 1);
  out

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)

let key_bit key b = Ei_util.Key.bit key b

(* Descend assuming the key is present; returns its assumed position. *)
let assumed_position t key =
  let rec go p (klo : int) khi =
    if klo = khi then klo
    else begin
      (let st = Stats.current () in st.Stats.tree_steps <- st.Stats.tree_steps + 1);
      let l = Bitsarr.get t.sizes p in
      if key_bit key (Bitsarr.get t.bits p) = 0 then
        if l = 1 then klo else go (p + 1) klo (klo + l - 1)
      else if khi - klo - l = 0 then khi
      else go (p + l) (klo + l) khi
    end
  in
  go 0 0 (t.n - 1)

(* Descend again, but once the discriminating bit reaches [bd] take the
   extreme of the subtree: if the searched key has bit [bd] set it is
   larger than every key sharing the prefix, so its predecessor is the
   subtree maximum; otherwise its successor is the subtree minimum. *)
let fixup_position t key bd go_right =
  let rec go p (klo : int) khi =
    if klo = khi then klo
    else begin
      let b = Bitsarr.get t.bits p in
      let l = Bitsarr.get t.sizes p in
      let dir =
        if b < bd then key_bit key b = 1
        else go_right
      in
      if not dir then
        if l = 1 then klo else go (p + 1) klo (klo + l - 1)
      else if khi - klo - l = 0 then khi
      else go (p + l) (klo + l) khi
    end
  in
  go 0 0 (t.n - 1)

type locate_result = Found of int | Pred of int

let locate t ~(load : load) key =
  (let st = Stats.current () in st.Stats.searches <- st.Stats.searches + 1);
  if t.n = 0 then Pred (-1)
  else begin
    let j = assumed_position t key in
    let kj = load t.tids.(j) in
    (let st = Stats.current () in st.Stats.key_compares <- st.Stats.key_compares + 1);
    match Ei_util.Key.first_diff_bit key kj with
    | None -> Found j
    | Some bd ->
      if key_bit key bd = 1 then Pred (fixup_position t key bd true)
      else Pred (fixup_position t key bd false - 1)
  end

let find t ~load key =
  match locate t ~load key with Found j -> Some t.tids.(j) | Pred _ -> None

let lower_bound t ~load key =
  match locate t ~load key with Found j -> j | Pred p -> p + 1

(* ------------------------------------------------------------------ *)
(* Updates: performed on the in-order representation, then the preorder
   arrays are rebuilt — the structural update cost the paper observes
   for trie-structured nodes. *)

(* Overwrite the tid of an existing key (value update). *)
let update t ~(load : load) key tid =
  match locate t ~load key with
  | Found j ->
    t.tids.(j) <- tid;
    true
  | Pred _ -> false

let diff_bit a b =
  match Ei_util.Key.first_diff_bit a b with
  | Some b -> b
  | None -> invalid_arg "Subtrie: duplicate key"

type insert_result = Inserted | Full | Duplicate

let insert t ~(load : load) key tid =
  match locate t ~load key with
  | Found _ -> Duplicate
  | Pred _ when t.n >= t.capacity -> Full
  | Pred p ->
      (let st = Stats.current () in st.Stats.inserts <- st.Stats.inserts + 1);
      let q = p + 1 in
      let old = to_inorder t in
      let inorder = Array.make t.n 0 in
      if t.n > 0 then begin
        if q = 0 then begin
          inorder.(0) <- diff_bit key (load t.tids.(0));
          Array.blit old 0 inorder 1 (t.n - 1)
        end
        else if q = t.n then begin
          Array.blit old 0 inorder 0 (t.n - 1);
          inorder.(t.n - 1) <- diff_bit (load t.tids.(t.n - 1)) key
        end
        else begin
          Array.blit old 0 inorder 0 (q - 1);
          inorder.(q - 1) <- diff_bit (load t.tids.(q - 1)) key;
          inorder.(q) <- diff_bit key (load t.tids.(q));
          Array.blit old q inorder (q + 1) (t.n - 1 - q)
        end
      end;
      Array.blit t.tids q t.tids (q + 1) (t.n - q);
      t.tids.(q) <- tid;
      rebuild_from_inorder t inorder (t.n + 1);
      Inserted

type remove_result = Removed | Not_present

let remove t ~(load : load) key =
  match locate t ~load key with
  | Pred _ -> Not_present
  | Found j ->
    (let st = Stats.current () in st.Stats.removes <- st.Stats.removes + 1);
    let old = to_inorder t in
    let inorder = Array.make (max 0 (t.n - 2)) 0 in
    if t.n >= 2 then begin
      if j = 0 then Array.blit old 1 inorder 0 (t.n - 2)
      else if j = t.n - 1 then Array.blit old 0 inorder 0 (t.n - 2)
      else begin
        Array.blit old 0 inorder 0 (j - 1);
        inorder.(j - 1) <- min old.(j - 1) old.(j);
        Array.blit old (j + 1) inorder j (t.n - 2 - j)
      end
    end;
    Array.blit t.tids (j + 1) t.tids j (t.n - j - 1);
    rebuild_from_inorder t inorder (t.n - 1);
    Removed

(* ------------------------------------------------------------------ *)
(* Bulk construction, split, iteration.                                *)

let of_sorted ~key_len ~capacity keys tids (n : int) =
  assert (n <= capacity);
  let t = create ~key_len ~capacity () in
  Array.blit tids 0 t.tids 0 n;
  let inorder = Array.init (max 0 (n - 1)) (fun i -> diff_bit keys.(i) keys.(i + 1)) in
  rebuild_from_inorder t inorder n;
  t

let split t ~left_capacity ~right_capacity =
  assert (t.n >= 2);
  let m = t.n / 2 in
  let inorder = to_inorder t in
  let left = create ~key_len:t.key_len ~capacity:left_capacity () in
  let right = create ~key_len:t.key_len ~capacity:right_capacity () in
  Array.blit t.tids 0 left.tids 0 m;
  Array.blit t.tids m right.tids 0 (t.n - m);
  rebuild_from_inorder left (Array.sub inorder 0 (max 0 (m - 1))) m;
  rebuild_from_inorder right
    (Array.sub inorder m (max 0 (t.n - m - 1)))
    (t.n - m);
  (left, right)

let merge a b ~(load : load) ~capacity =
  let n = a.n + b.n in
  assert (n <= capacity);
  let t = create ~key_len:a.key_len ~capacity () in
  Array.blit a.tids 0 t.tids 0 a.n;
  Array.blit b.tids 0 t.tids a.n b.n;
  let ia = to_inorder a and ib = to_inorder b in
  let inorder = Array.make (max 0 (n - 1)) 0 in
  Array.blit ia 0 inorder 0 (max 0 (a.n - 1));
  if a.n >= 1 && b.n >= 1 then
    inorder.(a.n - 1) <- diff_bit (load a.tids.(a.n - 1)) (load b.tids.(0));
  Array.blit ib 0 inorder a.n (max 0 (b.n - 1));
  rebuild_from_inorder t inorder n;
  t

let fold_from t pos f acc =
  let acc = ref acc in
  for i = max 0 pos to t.n - 1 do
    acc := f !acc t.tids.(i)
  done;
  !acc

let check_invariants t ~load =
  assert (t.n >= 0 && t.n <= t.capacity);
  for i = 0 to t.n - 2 do
    let a = load t.tids.(i) and b = load t.tids.(i + 1) in
    assert (Ei_util.Key.compare a b < 0)
  done;
  (* The preorder arrays must round-trip through the in-order view. *)
  let inorder = to_inorder t in
  for i = 0 to t.n - 2 do
    assert (inorder.(i) = diff_bit (load t.tids.(i)) (load t.tids.(i + 1)))
  done
