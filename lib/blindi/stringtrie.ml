(* String B-Trie node representation (Ferragina & Grossi [13]), the
   third blind-trie layout §5.1 describes: every trie node stores its
   discriminating-bit position and explicit pointers to its two
   children — roughly 3 bytes per key for small nodes, against the
   SubTrie's 2 and the SeqTrie/SeqTree's 1.

   The pay-off for the extra byte is pointer-based maintenance: inserts
   and removes splice single nodes instead of rebuilding arrays, so
   structural updates are cheap.

   Layout: for n keys there are n-1 internal nodes kept in three parallel
   arrays (discriminating bit, left child, right child).  A child slot
   encodes either an internal node index or a key position (leaf).  Keys
   themselves are, as in every blind trie here, NOT stored: tuple ids sit
   in key order in [tids], and searches verify against the table. *)

type t = {
  key_len : int;
  capacity : int;
  mutable n : int;          (* keys stored *)
  mutable root : int;       (* child-encoded root; meaningless if n < 2 *)
  bits : Bitsarr.t;         (* per internal node *)
  left : int array;         (* child encoding, see below *)
  right : int array;
  tids : int array;
}
(* A node belongs to one single-threaded tree (a {!Ei_btree.Leaf}), and
   so to the one domain that owns that tree. *)
[@@ei.single_domain]

type load = int -> string

(* Child encoding: [0, capacity) = leaf holding key position;
   [capacity, 2*capacity) = internal node index + capacity. *)
let leaf_child pos = pos
let node_child i cap = i + cap
let is_node t c = c >= t.capacity
let node_index t c = c - t.capacity

let create ~key_len ~capacity () =
  assert (capacity >= 2);
  let bw = Bitsarr.width_for_bits (key_len * 8) in
  {
    key_len;
    capacity;
    n = 0;
    root = 0;
    bits = Bitsarr.create ~width:bw ~capacity:(capacity - 1);
    left = Array.make (capacity - 1) 0;
    right = Array.make (capacity - 1) 0;
    tids = Array.make capacity 0;
  }

let count t = t.n
let capacity t = t.capacity

let tid_at t i =
  assert (i >= 0 && i < t.n);
  t.tids.(i)

let memory_bytes t =
  Ei_storage.Memmodel.stringtrie_bytes ~capacity:t.capacity ~key_len:t.key_len

let key_bit key b = Ei_util.Key.bit key b

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)

(* Descend by the searched key's bits; returns the assumed position. *)
let assumed_position t key =
  let rec go c =
    if is_node t c then begin
      (let st = Stats.current () in st.Stats.tree_steps <- st.Stats.tree_steps + 1);
      let i = node_index t c in
      if key_bit key (Bitsarr.get t.bits i) = 0 then go t.left.(i)
      else go t.right.(i)
    end
    else c
  in
  go t.root

(* Second descent with the divergence bit known: past [bd], take the
   extreme of the subtree (max when the key is greater, min otherwise). *)
let fixup_position t key bd go_right =
  let rec go c =
    if is_node t c then begin
      let i = node_index t c in
      let b = Bitsarr.get t.bits i in
      let dir = if b < bd then key_bit key b = 1 else go_right in
      if dir then go t.right.(i) else go t.left.(i)
    end
    else c
  in
  go t.root

type locate_result = Found of int | Pred of int

let locate t ~(load : load) key =
  (let st = Stats.current () in st.Stats.searches <- st.Stats.searches + 1);
  if t.n = 0 then Pred (-1)
  else if t.n = 1 then begin
    let c = Ei_util.Key.compare key (load t.tids.(0)) in
    if c = 0 then Found 0 else if c < 0 then Pred (-1) else Pred 0
  end
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

let update t ~(load : load) key tid =
  match locate t ~load key with
  | Found j ->
    t.tids.(j) <- tid;
    true
  | Pred _ -> false

(* ------------------------------------------------------------------ *)
(* Maintenance helpers.                                                *)

(* Shift leaf references at or above [pos] by [delta] (key positions
   slide when a tid is inserted/removed). *)
let shift_leaf_refs t (pos : int) delta =
  for i = 0 to t.n - 2 do
    if (not (is_node t t.left.(i))) && t.left.(i) >= pos then
      t.left.(i) <- t.left.(i) + delta;
    if (not (is_node t t.right.(i))) && t.right.(i) >= pos then
      t.right.(i) <- t.right.(i) + delta
  done;
  if t.n >= 2 && (not (is_node t t.root)) && t.root >= pos then
    t.root <- t.root + delta

let diff_bit a b =
  match Ei_util.Key.first_diff_bit a b with
  | Some b -> b
  | None -> invalid_arg "Stringtrie: duplicate key"

type insert_result = Inserted | Full | Duplicate

let insert t ~(load : load) key tid =
  match locate t ~load key with
  | Found _ -> Duplicate
  | Pred _ when t.n >= t.capacity -> Full
  | Pred p ->
    (let st = Stats.current () in st.Stats.inserts <- st.Stats.inserts + 1);
    let q = p + 1 in
    if t.n = 0 then begin
      t.tids.(0) <- tid;
      t.n <- 1
    end
    else begin
      (* Divergence bit against the closest neighbour (the longer shared
         prefix, i.e. the larger first-diff position). *)
      let bd =
        if q = 0 then diff_bit key (load t.tids.(0))
        else if q = t.n then diff_bit (load t.tids.(t.n - 1)) key
        else
          max (diff_bit (load t.tids.(q - 1)) key)
            (diff_bit key (load t.tids.(q)))
      in
      (* Make room for the tid and slide leaf references. *)
      Array.blit t.tids q t.tids (q + 1) (t.n - q);
      t.tids.(q) <- tid;
      shift_leaf_refs t q 1;
      let new_node = t.n - 1 in
      t.n <- t.n + 1;
      let bit_new = if key_bit key bd = 1 then `Right else `Left in
      Bitsarr.set t.bits new_node bd;
      (if t.n = 2 then begin
         (* First internal node. *)
         (match bit_new with
         | `Right ->
           t.left.(new_node) <- leaf_child (1 - q);
           t.right.(new_node) <- leaf_child q
         | `Left ->
           t.left.(new_node) <- leaf_child q;
           t.right.(new_node) <- leaf_child (1 - q));
         t.root <- node_child new_node t.capacity
       end
       else begin
         (* Splice: walk from the root while node bits are below bd,
            following the new key's bits; hang the displaced subtree and
            the new leaf off the fresh node. *)
         let rec place set c =
           let splice () =
             (match bit_new with
             | `Right ->
               t.left.(new_node) <- c;
               t.right.(new_node) <- leaf_child q
             | `Left ->
               t.left.(new_node) <- leaf_child q;
               t.right.(new_node) <- c);
             set (node_child new_node t.capacity)
           in
           if is_node t c then begin
             let i = node_index t c in
             let b = Bitsarr.get t.bits i in
             if b < bd then
               if key_bit key b = 0 then
                 place (fun v -> t.left.(i) <- v) t.left.(i)
               else place (fun v -> t.right.(i) <- v) t.right.(i)
             else splice ()
           end
           else splice ()
         in
         place (fun v -> t.root <- v) t.root
       end)
    end;
    Inserted

type remove_result = Removed | Not_present

let remove t ~(load : load) key =
  match locate t ~load key with
  | Pred _ -> Not_present
  | Found j ->
    (let st = Stats.current () in st.Stats.removes <- st.Stats.removes + 1);
    if t.n >= 2 then begin
      (* Find the leaf's parent node (descending by the removed key's
         bits) and splice its sibling into the grandparent pointer. *)
      let rec find_parent set c =
        let i = node_index t c in
        let go_right = key_bit key (Bitsarr.get t.bits i) = 1 in
        let side = if go_right then t.right.(i) else t.left.(i) in
        if is_node t side then
          find_parent
            (fun v -> if go_right then t.right.(i) <- v else t.left.(i) <- v)
            side
        else begin
          assert (side = j);
          (i, set)
        end
      in
      let parent, set = find_parent (fun v -> t.root <- v) t.root in
      let sibling =
        if (not (is_node t t.left.(parent))) && t.left.(parent) = j then
          t.right.(parent)
        else t.left.(parent)
      in
      set sibling;
      (* Recycle the parent's slot: move the last node into it. *)
      let last = t.n - 2 in
      if parent <> last then begin
        Bitsarr.set t.bits parent (Bitsarr.get t.bits last);
        t.left.(parent) <- t.left.(last);
        t.right.(parent) <- t.right.(last);
        (* Redirect whatever pointed at [last]. *)
        let moved = node_child last t.capacity in
        let target = node_child parent t.capacity in
        if t.root = moved then t.root <- target;
        for i = 0 to t.n - 3 do
          if t.left.(i) = moved then t.left.(i) <- target;
          if t.right.(i) = moved then t.right.(i) <- target
        done
      end
    end;
    Array.blit t.tids (j + 1) t.tids j (t.n - j - 1);
    t.n <- t.n - 1;
    shift_leaf_refs t j (-1);
    Removed

(* ------------------------------------------------------------------ *)
(* Bulk construction, split, merge, iteration.                         *)

let of_sorted ~key_len ~capacity keys tids (n : int) =
  assert (n <= capacity);
  let t = create ~key_len ~capacity () in
  (* Insert in order; splices are O(depth) each. *)
  for i = 0 to n - 1 do
    match
      insert t
        ~load:(fun tid -> keys.(tid - 1_000_000))
        keys.(i)
        (i + 1_000_000)
    with
    | Inserted -> ()
    | Full | Duplicate ->
      Ei_util.Invariant.impossible "Stringtrie.of_sorted: bulk insert rejected"
  done;
  (* Replace the construction tids with the real ones. *)
  for i = 0 to n - 1 do
    t.tids.(i) <- tids.(t.tids.(i) - 1_000_000)
  done;
  t

let fold_from t pos f acc =
  let acc = ref acc in
  for i = max 0 pos to t.n - 1 do
    acc := f !acc t.tids.(i)
  done;
  !acc

let split t ~(load : load) ~left_capacity ~right_capacity =
  assert (t.n >= 2);
  let m = t.n / 2 in
  let keys = Array.init t.n (fun i -> load t.tids.(i)) in
  let left = of_sorted ~key_len:t.key_len ~capacity:left_capacity keys t.tids m in
  let right =
    of_sorted ~key_len:t.key_len ~capacity:right_capacity (Array.sub keys m (t.n - m))
      (Array.sub t.tids m (t.n - m))
      (t.n - m)
  in
  (left, right)

let merge a b ~(load : load) ~capacity =
  let n = a.n + b.n in
  assert (n <= capacity);
  let tids = Array.append (Array.sub a.tids 0 a.n) (Array.sub b.tids 0 b.n) in
  let keys = Array.map load tids in
  of_sorted ~key_len:a.key_len ~capacity keys tids n

(* ------------------------------------------------------------------ *)
(* Invariants.                                                         *)

let check_invariants t ~(load : load) =
  assert (t.n >= 0 && t.n <= t.capacity);
  for i = 0 to t.n - 2 do
    let a = load t.tids.(i) and b = load t.tids.(i + 1) in
    assert (Ei_util.Key.compare a b < 0)
  done;
  if t.n >= 2 then begin
    (* The trie's in-order leaf sequence must be 0..n-1 and node bits
       must strictly increase along every root-to-leaf path. *)
    let visited = Array.make (t.n - 1) false in
    let next_leaf = ref 0 in
    let rec walk c bound =
      if is_node t c then begin
        let i = node_index t c in
        assert (not visited.(i));
        visited.(i) <- true;
        let b = Bitsarr.get t.bits i in
        assert (b > bound || bound = -1);
        walk t.left.(i) b;
        walk t.right.(i) b
      end
      else begin
        assert (c = !next_leaf);
        incr next_leaf
      end
    in
    walk t.root (-1);
    assert (!next_leaf = t.n);
    (* Every node's bit is the first differing bit of the keys around the
       boundary it represents: node with in-order boundary between its
       left subtree's max leaf and right subtree's min leaf. *)
    let rec min_leaf c = if is_node t c then min_leaf t.left.(node_index t c) else c in
    let rec max_leaf c = if is_node t c then max_leaf t.right.(node_index t c) else c in
    let rec check c =
      if is_node t c then begin
        let i = node_index t c in
        let l = max_leaf t.left.(i) and r = min_leaf t.right.(i) in
        assert (r = l + 1);
        assert (Bitsarr.get t.bits i = diff_bit (load t.tids.(l)) (load t.tids.(r)));
        check t.left.(i);
        check t.right.(i)
      end
    in
    check t.root
  end
