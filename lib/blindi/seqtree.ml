(* SeqTree: the paper's compact blind-trie node representation (§5).

   The node stores, for n keys:
   - BlindiBits: n-1 discriminating-bit positions in key order, where
     entry i is the first bit differing between the i-th and (i+1)-th key
     (keys sorted lexicographically, bits MSB-first);
   - BlindiTree: a complete binary tree over the top [levels] trie levels,
     laid out as an array where node i has children 2i+1 and 2i+2; each
     entry is an index into BlindiBits, or ET when the trie node is absent;
   - the tuple-id array, optionally sized by the breathing rule (§5.4).

   BlindiBits and BlindiTree share one packed buffer, [meta]: the
   [capacity - 1] BlindiBits entries first, then the BlindiTree slots.
   Entries are 1 or 2 bytes wide, at the widths the memory model charges
   ({!Ei_storage.Memmodel.bits_entry_bytes} / [tree_entry_bytes]); both
   widths follow from [key_len] and [capacity], so the record does not
   store them.  A BlindiTree slot holds its BlindiBits index plus one, so
   the zero-filled buffer starts with every slot absent.

   Keys are NOT stored: searches verify their candidate by loading the
   key from the base table through the [load] closure.  [levels = 0]
   degenerates to the pure SeqTrie of Ferguson [12]. *)

module Memmodel = Ei_storage.Memmodel

type t = {
  key_len : int;
  capacity : int;
  levels : int;
  breathing : int;  (* slack s; 0 disables breathing *)
  mutable n : int;
  meta : Bytes.t;  (* BlindiBits (capacity - 1, n - 1 in use), BlindiTree *)
  mutable tids : int array; (* key order; length per breathing rule *)
}

let et = -1

type load = int -> string
(* [load tid] fetches the indexed key of row [tid] from the base table. *)

let tree_size levels = (1 lsl levels) - 1

(* Allocated BlindiTree slots: one even for [levels = 0]. *)
let tree_slots levels = max 1 (tree_size levels)

let tid_slots_for ~capacity ~breathing n =
  if breathing = 0 then capacity else min capacity (max 1 (n + breathing))

(* --- The packed metadata buffer ------------------------------------- *)

let bits_width t = Memmodel.bits_entry_bytes ~key_len:t.key_len
let tree_width t = Memmodel.tree_entry_bytes ~capacity:t.capacity

(* Byte offset of the BlindiTree, just past the BlindiBits entries. *)
let tree_base t = (t.capacity - 1) * bits_width t

let get_entry meta ~width off =
  if width = 1 then Char.code (Bytes.unsafe_get meta off)
  else Bytes.get_uint16_le meta off

let set_entry meta ~width off v =
  if width = 1 then begin
    assert (v >= 0 && v <= 0xff);
    Bytes.unsafe_set meta off (Char.unsafe_chr v)
  end
  else begin
    assert (v >= 0 && v <= 0xffff);
    Bytes.set_uint16_le meta off v
  end

(* BlindiBits entry [i]. *)
let bit t i =
  let width = bits_width t in
  get_entry t.meta ~width (i * width)

let set_bit t i v =
  let width = bits_width t in
  set_entry t.meta ~width (i * width) v

(* Shift BlindiBits entries [i, count) one slot right and write [v] at
   [i]; requires room for [count + 1] entries. *)
let insert_bit t ~count (i : int) v =
  assert (i >= 0 && i <= count && count + 1 <= t.capacity - 1);
  let w = bits_width t in
  Bytes.blit t.meta (i * w) t.meta ((i + 1) * w) ((count - i) * w);
  set_bit t i v

(* Remove BlindiBits entry [i], shifting entries [i+1, count) left. *)
let remove_bit t ~count (i : int) =
  assert (i >= 0 && i < count);
  let w = bits_width t in
  Bytes.blit t.meta ((i + 1) * w) t.meta (i * w) ((count - i - 1) * w)

(* Copy [len] BlindiBits entries between nodes of the same key length. *)
let blit_bits src spos dst dpos len =
  let w = bits_width src in
  Bytes.blit src.meta (spos * w) dst.meta (dpos * w) (len * w)

(* BlindiTree slot [p]: a BlindiBits index, or [et] when absent. *)
let slot t p =
  let width = tree_width t in
  get_entry t.meta ~width (tree_base t + (p * width)) - 1

let set_slot t p m =
  let width = tree_width t in
  set_entry t.meta ~width (tree_base t + (p * width)) (m + 1)

let clear_tree t =
  Bytes.fill t.meta (tree_base t) (tree_slots t.levels * tree_width t) '\000'

let create ~key_len ~capacity ~levels ~breathing () =
  assert (capacity >= 2);
  assert (levels >= 0);
  assert (breathing >= 0);
  let meta_bytes =
    ((capacity - 1) * Memmodel.bits_entry_bytes ~key_len)
    + (tree_slots levels * Memmodel.tree_entry_bytes ~capacity)
  in
  {
    key_len; capacity; levels; breathing;
    n = 0;
    meta = Bytes.make meta_bytes '\000';
    tids = Array.make (tid_slots_for ~capacity ~breathing 0) 0;
  }

let count t = t.n
let capacity t = t.capacity
let key_len t = t.key_len
let levels t = t.levels
let is_full t = t.n >= t.capacity

let tid_at t i =
  assert (i >= 0 && i < t.n);
  t.tids.(i)

let breathing t = t.breathing
let tid_slots t = Array.length t.tids

(* Introspection for the deep sanitizer ({!Ei_check}): raw BlindiBits
   entries, BlindiTree slots, and the absent-marker. *)
let bit_at t i =
  assert (i >= 0 && i < t.n - 1);
  bit t i

let tree_slot_count t = tree_slots t.levels

let tree_slot t (p : int) =
  assert (p >= 0 && p < tree_slots t.levels);
  slot t p

let absent_slot = et

let memory_bytes t =
  Memmodel.seqtree_bytes ~capacity:t.capacity ~key_len:t.key_len
    ~levels:t.levels ~tid_slots:(Array.length t.tids)
    ~breathing:(t.breathing > 0)

(* ------------------------------------------------------------------ *)
(* BlindiTree construction.                                            *)

(* Index of the leftmost minimum entry of bits[lo..hi]; the ranges we are
   called on are in-order segments of trie subtrees, where the minimum is
   the subtree root. *)
let min_entry_index t lo hi =
  let best = ref lo and best_v = ref (bit t lo) in
  for i = lo + 1 to hi do
    let v = bit t i in
    if v < !best_v then begin
      best := i;
      best_v := v
    end
  done;
  !best

(* Rebuild the BlindiTree from BlindiBits.  Node [p] covers the in-order
   range [lo, hi] of BlindiBits indices; empty ranges leave ET. *)
let rebuild_tree t =
  Stats.global.rebuilds <- Stats.global.rebuilds + 1;
  let size = tree_size t.levels in
  clear_tree t;
  let rec fill p (lo : int) hi =
    if p < size && lo <= hi then begin
      let m = min_entry_index t lo hi in
      set_slot t p m;
      fill ((2 * p) + 1) lo (m - 1);
      fill ((2 * p) + 2) (m + 1) hi
    end
  in
  if size > 0 && t.n >= 2 then fill 0 0 (t.n - 2)

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)

let key_bit key b = Ei_util.Key.bit key b

(* SeqTrie sequential scan over bits[lo..hi], assuming the searched key is
   one of keys lo..hi+1.  Returns the assumed key position. *)
let seq_scan t key lo hi =
  let j = ref lo and threshold = ref max_int in
  for i = lo to hi do
    Stats.global.scan_steps <- Stats.global.scan_steps + 1;
    let b = bit t i in
    if b <= !threshold then
      if key_bit key b = 1 then begin
        j := i + 1;
        threshold := max_int
      end
      else threshold := b
  done;
  !j

(* BlindiTree descent: narrow the scan range, then scan sequentially.
   Returns the assumed position of [key] in [0, n). *)
let assumed_position t key =
  let size = tree_size t.levels in
  if t.n <= 1 then 0
  else begin
    let lo = ref 0 and hi = ref (t.n - 2) in
    let p = ref 0 in
    let fell_off = ref false in
    while (not !fell_off) && !p < size && !lo <= !hi do
      let m = slot t !p in
      if m = et then begin
        (* Absent trie node: the candidate is the range's first key. *)
        hi := !lo - 1;
        fell_off := true
      end
      else begin
        Stats.global.tree_steps <- Stats.global.tree_steps + 1;
        let b = bit t m in
        if key_bit key b = 1 then begin
          lo := m + 1;
          p := (2 * !p) + 2
        end
        else begin
          hi := m - 1;
          p := (2 * !p) + 1
        end
      end
    done;
    if !lo > !hi then !lo else seq_scan t key !lo !hi
  end

type locate_result =
  | Found of int  (* key present at this position *)
  | Pred of int   (* key absent; position of its predecessor, -1 if none *)

(* Predecessor-semantics search (§5.2).  The assumed position is verified
   by loading the candidate key; on mismatch the true insertion point is
   recovered by scanning for the first discriminating bit below the
   divergence bit. *)
let locate t ~(load : load) key =
  Stats.global.searches <- Stats.global.searches + 1;
  assert (String.length key = t.key_len);
  if t.n = 0 then Pred (-1)
  else begin
    let j = assumed_position t key in
    let kj = load t.tids.(j) in
    Stats.global.key_compares <- Stats.global.key_compares + 1;
    match Ei_util.Key.first_diff_bit key kj with
    | None -> Found j
    | Some bd ->
      if key_bit key bd = 1 then begin
        (* key > kj: scan right for the first entry below bd. *)
        let rec right i =
          if i > t.n - 2 then t.n - 1
          else if bit t i < bd then i
          else right (i + 1)
        in
        Pred (right j)
      end
      else begin
        (* key < kj: scan left for the first entry below bd. *)
        let rec left i =
          if i < 0 then -1
          else if bit t i < bd then i
          else left (i - 1)
        in
        Pred (left (j - 1))
      end
  end

let find t ~load key =
  match locate t ~load key with Found j -> Some t.tids.(j) | Pred _ -> None

(* ------------------------------------------------------------------ *)
(* Tuple-id array maintenance (breathing, §5.4).                       *)

let ensure_tid_room t =
  if t.n = Array.length t.tids then begin
    assert (t.breathing > 0);
    let slots = tid_slots_for ~capacity:t.capacity ~breathing:t.breathing t.n in
    let tids = Array.make slots 0 in
    Array.blit t.tids 0 tids 0 t.n;
    t.tids <- tids
  end

let insert_tid t pos tid =
  ensure_tid_room t;
  Array.blit t.tids pos t.tids (pos + 1) (t.n - pos);
  t.tids.(pos) <- tid

let remove_tid t pos =
  Array.blit t.tids (pos + 1) t.tids pos (t.n - pos - 1)

(* ------------------------------------------------------------------ *)
(* Insert / remove.                                                    *)

let diff_bit a b =
  match Ei_util.Key.first_diff_bit a b with
  | Some b -> b
  | None -> invalid_arg "Seqtree: duplicate key"

(* Overwrite the tid of an existing key (value update).  The new row must
   hold the same key bytes, as DBMS updates to non-key columns do. *)
let update t ~(load : load) key tid =
  match locate t ~load key with
  | Found j ->
    t.tids.(j) <- tid;
    true
  | Pred _ -> false

(* ------------------------------------------------------------------ *)
(* Incremental BlindiTree maintenance (§5.3).

   After an insertion, the BlindiBits array has one NEW logical entry
   (value [v_new] at position [q']); all previous entries keep their
   values, those at positions >= q' shifted one to the right.  The tree
   is repaired by (1) shifting stored indices, then (2) walking the
   range containing q': where the new entry becomes a range minimum it
   is spliced in (we rebuild that small subtree); otherwise it only
   deepens the trie below the represented levels and nothing changes. *)

(* Rebuild the subtree rooted at tree slot [p] covering BlindiBits range
   [lo, hi]. *)
let fill_subtree t p lo hi =
  let size = tree_size t.levels in
  let rec clear p =
    if p < size then begin
      set_slot t p et;
      clear ((2 * p) + 1);
      clear ((2 * p) + 2)
    end
  in
  let rec fill p (lo : int) hi =
    if p < size && lo <= hi then begin
      let m = min_entry_index t lo hi in
      set_slot t p m;
      fill ((2 * p) + 1) lo (m - 1);
      fill ((2 * p) + 2) (m + 1) hi
    end
  in
  clear p;
  fill p lo hi

let tree_after_insert t (q' : int) v_new =
  let size = tree_size t.levels in
  if size > 0 then begin
    let entries = t.n - 1 in
    if entries <= 1 then rebuild_tree t
    else begin
      (* Shift stored indices for the slide of entries >= q'. *)
      for p = 0 to size - 1 do
        let m = slot t p in
        if m <> et && m >= q' then set_slot t p (m + 1)
      done;
      let rec fix p lo hi =
        if p < size then begin
          let m = slot t p in
          if m = et then
            (* The range was empty; it now holds exactly the new entry. *)
            set_slot t p q'
          else begin
            if v_new < bit t m then
              (* The new entry becomes this subtree's root: splice by
                 rebuilding the (small) subtree over the new range. *)
              fill_subtree t p lo hi
            else if q' < m then fix ((2 * p) + 1) lo (m - 1)
            else fix ((2 * p) + 2) (m + 1) hi
          end
        end
      in
      fix 0 0 (entries - 1)
    end
  end

(* After removing logical entry [r] (stored entries > r slid left), drop
   it from the tree: shift indices, and if [r] was represented, rebuild
   the subtree that lost its root. *)
let tree_after_remove t (r : int) =
  let size = tree_size t.levels in
  if size > 0 then begin
    let entries = t.n - 1 in
    if entries <= 1 then rebuild_tree t
    else begin
      let holder = ref (-1) in
      for p = 0 to size - 1 do
        let m = slot t p in
        if m = r then holder := p;
        if m <> et && m > r then set_slot t p (m - 1)
      done;
      if !holder >= 0 then begin
        (* Recover the range of the node that held [r] by walking down
           from the root along its ancestor path. *)
        let path = ref [] in
        let p = ref !holder in
        while !p > 0 do
          path := !p :: !path;
          p := (!p - 1) / 2
        done;
        let lo = ref 0 and hi = ref (entries - 1) in
        let cur = ref 0 in
        List.iter
          (fun child ->
            let m = slot t !cur in
            if child = (2 * !cur) + 1 then hi := m - 1 else lo := m + 1;
            cur := child)
          !path;
        fill_subtree t !holder !lo !hi
      end
    end
  end

type insert_result = Inserted | Full | Duplicate

let insert t ~(load : load) key tid =
  match locate t ~load key with
  | Found _ -> Duplicate
  | Pred _ when t.n >= t.capacity -> Full
  | Pred p ->
      Stats.global.inserts <- Stats.global.inserts + 1;
      let q = p + 1 in
      (* Update BlindiBits around the insertion point.  Key indices after
         insertion: predecessor at q-1, new key at q, old successor at
         q+1.  [q'] and [v_new] identify the one logically-new entry for
         the incremental tree repair. *)
      if t.n > 0 then begin
        if q = 0 then begin
          let v = diff_bit key (load t.tids.(0)) in
          insert_bit t ~count:(t.n - 1) 0 v;
          insert_tid t q tid;
          t.n <- t.n + 1;
          tree_after_insert t 0 v
        end
        else if q = t.n then begin
          let v = diff_bit (load t.tids.(t.n - 1)) key in
          insert_bit t ~count:(t.n - 1) (t.n - 1) v;
          insert_tid t q tid;
          t.n <- t.n + 1;
          tree_after_insert t (t.n - 2) v
        end
        else begin
          let left = diff_bit (load t.tids.(q - 1)) key in
          let right = diff_bit key (load t.tids.(q)) in
          let d_old = bit t (q - 1) in
          (* Entry q-1 covered the old (pred, succ) pair; it becomes the
             (pred, new) bit and a new entry for (new, succ) is added.
             Exactly one of [left]/[right] equals the old bit; the other
             is the logically-new entry. *)
          assert (min left right = d_old);
          set_bit t (q - 1) left;
          insert_bit t ~count:(t.n - 1) q right;
          insert_tid t q tid;
          t.n <- t.n + 1;
          if left = d_old then tree_after_insert t q right
          else tree_after_insert t (q - 1) left
        end
      end
      else begin
        insert_tid t q tid;
        t.n <- t.n + 1
      end;
      Inserted

type remove_result = Removed | Not_present

let remove t ~(load : load) key =
  match locate t ~load key with
  | Pred _ -> Not_present
  | Found j ->
    Stats.global.removes <- Stats.global.removes + 1;
    if t.n >= 2 then begin
      if j = 0 then begin
        remove_bit t ~count:(t.n - 1) 0;
        remove_tid t j;
        t.n <- t.n - 1;
        tree_after_remove t 0
      end
      else if j = t.n - 1 then begin
        remove_bit t ~count:(t.n - 1) (t.n - 2);
        remove_tid t j;
        t.n <- t.n - 1;
        tree_after_remove t (t.n - 1)
      end
      else begin
        (* Pairs (j-1, j) and (j, j+1) merge; the first differing bit of
           the outer keys is the minimum of the two old entries, so the
           logically-removed entry is the one holding the maximum. *)
        let a = bit t (j - 1) and b = bit t j in
        set_bit t (j - 1) (min a b);
        remove_bit t ~count:(t.n - 1) j;
        remove_tid t j;
        t.n <- t.n - 1;
        tree_after_remove t (if a > b then j - 1 else j)
      end
    end
    else begin
      remove_tid t j;
      t.n <- t.n - 1
    end;
    Removed

(* ------------------------------------------------------------------ *)
(* Bulk construction, split, merge.                                    *)

(* Build from tids whose keys are strictly increasing.  [keys] must be the
   corresponding key array (used only during construction; not stored). *)
let of_sorted ~key_len ~capacity ~levels ~breathing keys tids (n : int) =
  assert (n <= capacity);
  let t = create ~key_len ~capacity ~levels ~breathing () in
  t.tids <- Array.make (tid_slots_for ~capacity ~breathing n) 0;
  Array.blit tids 0 t.tids 0 n;
  t.n <- n;
  for i = 0 to n - 2 do
    set_bit t i (diff_bit keys.(i) keys.(i + 1))
  done;
  rebuild_tree t;
  t

(* Split into two nodes holding the first [n/2] and remaining keys.  The
   discriminating bit between the halves is dropped (§5.3). *)
let split t ~left_capacity ~right_capacity =
  assert (t.n >= 2);
  let m = t.n / 2 in
  let nl = m and nr = t.n - m in
  assert (nl <= left_capacity && nr <= right_capacity);
  let mk cap n =
    let s = create ~key_len:t.key_len ~capacity:cap ~levels:t.levels ~breathing:t.breathing () in
    s.tids <- Array.make (tid_slots_for ~capacity:cap ~breathing:t.breathing n) 0;
    s.n <- n;
    s
  in
  let left = mk left_capacity nl and right = mk right_capacity nr in
  Array.blit t.tids 0 left.tids 0 nl;
  Array.blit t.tids m right.tids 0 nr;
  if nl >= 2 then blit_bits t 0 left 0 (nl - 1);
  if nr >= 2 then blit_bits t m right 0 (nr - 1);
  rebuild_tree left;
  rebuild_tree right;
  (left, right)

(* Merge two adjacent nodes (all keys of [a] below all keys of [b]) into a
   fresh node of the given capacity.  Introduces the discriminating bit
   between a's last and b's first key, loaded from the table (§5.3). *)
let merge a b ~(load : load) ~capacity ~levels =
  let n = a.n + b.n in
  assert (n <= capacity);
  assert (a.key_len = b.key_len);
  let t = create ~key_len:a.key_len ~capacity ~levels ~breathing:a.breathing () in
  t.tids <- Array.make (tid_slots_for ~capacity ~breathing:a.breathing n) 0;
  t.n <- n;
  Array.blit a.tids 0 t.tids 0 a.n;
  Array.blit b.tids 0 t.tids a.n b.n;
  if a.n >= 2 then blit_bits a 0 t 0 (a.n - 1);
  if a.n >= 1 && b.n >= 1 then
    set_bit t (a.n - 1) (diff_bit (load a.tids.(a.n - 1)) (load b.tids.(0)));
  if b.n >= 2 then blit_bits b 0 t a.n (b.n - 1);
  rebuild_tree t;
  t

(* Rebuild this node with a new capacity/levels, e.g. when the elasticity
   algorithm grows or shrinks a compact leaf. *)
let with_capacity t ~capacity ~levels =
  assert (t.n <= capacity);
  let s = create ~key_len:t.key_len ~capacity ~levels ~breathing:t.breathing () in
  s.tids <- Array.make (tid_slots_for ~capacity ~breathing:t.breathing t.n) 0;
  s.n <- t.n;
  Array.blit t.tids 0 s.tids 0 t.n;
  if t.n >= 2 then blit_bits t 0 s 0 (t.n - 1);
  rebuild_tree s;
  s

(* ------------------------------------------------------------------ *)
(* Iteration (scans).                                                  *)

(* Fold over tids in key order starting at position [pos]. *)
let fold_from t pos f acc =
  let acc = ref acc in
  for i = max 0 pos to t.n - 1 do
    acc := f !acc t.tids.(i)
  done;
  !acc

let iter f t =
  for i = 0 to t.n - 1 do
    f t.tids.(i)
  done

(* Position of the first key >= [key]: the scan start for range queries. *)
let lower_bound t ~load key =
  match locate t ~load key with Found j -> j | Pred p -> p + 1

(* ------------------------------------------------------------------ *)
(* Invariant checking (used by tests).                                 *)

let check_invariants t ~load =
  assert (t.n >= 0 && t.n <= t.capacity);
  assert (Array.length t.tids >= t.n);
  (* With breathing the tid array never exceeds capacity; it may carry
     extra slack after removes (it shrinks only on rebuild/split). *)
  assert (Array.length t.tids <= max 1 t.capacity);
  (* Keys strictly increasing and BlindiBits consistent with them. *)
  for i = 0 to t.n - 2 do
    let a = load t.tids.(i) and b = load t.tids.(i + 1) in
    assert (Ei_util.Key.compare a b < 0);
    assert (bit t i = diff_bit a b)
  done;
  (* BlindiTree entries are range minima of their in-order segments. *)
  let size = tree_size t.levels in
  let rec check p (lo : int) hi =
    if p < size then
      if lo > hi then begin
        assert (slot t p = et);
        check ((2 * p) + 1) 1 0;
        check ((2 * p) + 2) 1 0
      end
      else begin
        let m = slot t p in
        assert (m >= lo && m <= hi);
        for i = lo to hi do
          if i <> m then assert (bit t i > bit t m)
        done;
        check ((2 * p) + 1) lo (m - 1);
        check ((2 * p) + 2) (m + 1) hi
      end
  in
  if size > 0 then if t.n >= 2 then check 0 0 (t.n - 2) else check 0 1 0
