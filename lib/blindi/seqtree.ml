(* SeqTree: the paper's compact blind-trie node representation (§5).

   The node stores, for n keys:
   - BlindiBits: n-1 discriminating-bit positions in key order, where
     entry i is the first bit differing between the i-th and (i+1)-th key
     (keys sorted lexicographically, bits MSB-first);
   - BlindiTree: a complete binary tree over the top [levels] trie levels,
     laid out as an array where node i has children 2i+1 and 2i+2; each
     entry is an index into BlindiBits, or ET when the trie node is absent;
   - the tuple-id array, optionally sized by the breathing rule (§5.4).

   A node is one [Bytes] image, the packed C node of §5.1, sized by
   {!Ei_storage.Memmodel.seqtree_image_bytes}:
   - bytes 0-7, the header: byte 0 the kind tag, 1 [levels] (low
     nibble) and the breathing slack (high nibble), 2-3 the count [n]
     (u16 LE), 4-5 the capacity, 6-7 the key length, as in a standard
     leaf;
   - BlindiBits, [capacity - 1] entries, then the BlindiTree slots,
     padded to a word.  Entries are 1 or 2 bytes wide, at the widths the
     memory model charges ([bits_entry_bytes] / [tree_entry_bytes]); both
     follow from [key_len] and [capacity].  A BlindiTree slot holds its
     BlindiBits index plus one, so a zero-filled image starts with every
     slot absent;
   - the tid slots, one 8-byte word each, to the end of the image; their
     number is the image length's remainder.
   Only [n] and the entries change in place; capacity, levels and tid
   slots are fixed for the life of an image.  Breathing growth (§5.4)
   therefore inserts into a larger copy, which [insert] returns as
   [Grown] for the owner to store.

   Optimistic readers (the OLC tree) decode images that a writer shifts
   in place, so every read whose offset derives from image bytes is
   bounds-checked: a torn offset raises [Invalid_argument] instead of
   reading outside the image.

   Keys are NOT stored: searches verify their candidate by loading the
   key from the base table through the [load] closure.  [levels = 0]
   degenerates to the pure SeqTrie of Ferguson [12]. *)

module Memmodel = Ei_storage.Memmodel

type t = Bytes.t

let tag = '\x02'
let header = Memmodel.leaf_image_header
let et = -1

type load = int -> string
(* [load tid] fetches the indexed key of row [tid] from the base table. *)

let tree_size levels = (1 lsl levels) - 1

let tid_slots_for ~capacity ~breathing n =
  if breathing = 0 then capacity else min capacity (max 1 (n + breathing))

(* --- The image --------------------------------------------------------- *)

let is_image b = Bytes.length b >= header && Bytes.get b 0 = tag

let of_image b =
  if is_image b then b else invalid_arg "Seqtree.of_image: not a SeqTree image"

let levels t = Char.code (Bytes.get t 1) land 0xf
let breathing t = Char.code (Bytes.get t 1) lsr 4
let count t = Bytes.get_uint16_le t 2
let set_count t n = Bytes.set_uint16_le t 2 n
let capacity t = Bytes.get_uint16_le t 4
let key_len t = Bytes.get_uint16_le t 6
let is_full t = count t >= capacity t

let[@inline] bits_width t = Memmodel.bits_entry_bytes ~key_len:(key_len t)
let[@inline] tree_width t = Memmodel.tree_entry_bytes ~capacity:(capacity t)

(* Byte offset of the BlindiTree, just past the BlindiBits entries. *)
let[@inline] tree_base t = header + ((capacity t - 1) * bits_width t)

(* Byte offset of tid slot 0: the BlindiTree's end, rounded up to a
   word. *)
let[@inline] tids_base t =
  Memmodel.align_word
    (tree_base t + (Memmodel.tree_slots ~levels:(levels t) * tree_width t))

let tid_slots t = (Bytes.length t - tids_base t) / Memmodel.word

(* A zero-filled image: no keys, every BlindiTree slot absent. *)
let alloc ~key_len ~capacity ~levels ~breathing ~tid_slots =
  assert (capacity >= 2);
  assert (levels >= 0);
  assert (breathing >= 0);
  if capacity > 0xffff || levels > 0xf || breathing > 0xf || key_len > 0xffff
  then invalid_arg "Seqtree: parameter exceeds its header field";
  let t =
    Bytes.make
      (Memmodel.seqtree_image_bytes ~capacity ~key_len ~levels ~tid_slots)
      '\000'
  in
  Bytes.set t 0 tag;
  Bytes.set t 1 (Char.chr (levels lor (breathing lsl 4)));
  Bytes.set_uint16_le t 4 capacity;
  Bytes.set_uint16_le t 6 key_len;
  t

(* Tid slot [i], unchecked against [n]. *)
let[@inline] tid t i = Int64.to_int (Bytes.get_int64_le t (tids_base t + (i * 8)))
let set_tid t i v = Bytes.set_int64_le t (tids_base t + (i * 8)) (Int64.of_int v)

(* Copy [len] tid slots between images. *)
let blit_tids src spos dst dpos len =
  Bytes.blit src (tids_base src + (spos * 8)) dst (tids_base dst + (dpos * 8)) (len * 8)

let[@inline] get_entry t ~width off =
  if width = 1 then Char.code (Bytes.get t off) else Bytes.get_uint16_le t off

let set_entry t ~width off v =
  if width = 1 then begin
    assert (v >= 0 && v <= 0xff);
    Bytes.set t off (Char.chr v)
  end
  else begin
    assert (v >= 0 && v <= 0xffff);
    Bytes.set_uint16_le t off v
  end

(* BlindiBits entry [i]. *)
let bit t i =
  let width = bits_width t in
  get_entry t ~width (header + (i * width))

let set_bit t i v =
  let width = bits_width t in
  set_entry t ~width (header + (i * width)) v

(* Shift BlindiBits entries [i, count) one slot right and write [v] at
   [i]; requires room for [count + 1] entries. *)
let insert_bit t ~count (i : int) v =
  assert (i >= 0 && i <= count && count + 1 <= capacity t - 1);
  let w = bits_width t in
  Bytes.blit t (header + (i * w)) t (header + ((i + 1) * w)) ((count - i) * w);
  set_bit t i v

(* Remove BlindiBits entry [i], shifting entries [i+1, count) left. *)
let remove_bit t ~count (i : int) =
  assert (i >= 0 && i < count);
  let w = bits_width t in
  Bytes.blit t (header + ((i + 1) * w)) t (header + (i * w)) ((count - i - 1) * w)

(* Copy [len] BlindiBits entries between nodes of the same key length. *)
let blit_bits src spos dst dpos len =
  let w = bits_width src in
  Bytes.blit src (header + (spos * w)) dst (header + (dpos * w)) (len * w)

(* BlindiTree slot [p]: a BlindiBits index, or [et] when absent. *)
let slot t p =
  let width = tree_width t in
  get_entry t ~width (tree_base t + (p * width)) - 1

let set_slot t p m =
  let width = tree_width t in
  set_entry t ~width (tree_base t + (p * width)) (m + 1)

let clear_tree t =
  let levels = levels t in
  Bytes.fill t (tree_base t) (Memmodel.tree_slots ~levels * tree_width t) '\000'

let create ~key_len ~capacity ~levels ~breathing () =
  alloc ~key_len ~capacity ~levels ~breathing
    ~tid_slots:(tid_slots_for ~capacity ~breathing 0)

let tid_at t i =
  assert (i >= 0 && i < count t);
  tid t i

(* Introspection for the deep sanitizer ({!Ei_check}): raw BlindiBits
   entries, BlindiTree slots, and the absent-marker. *)
let bit_at t i =
  assert (i >= 0 && i < count t - 1);
  bit t i

let tree_slot_count t = Memmodel.tree_slots ~levels:(levels t)

let tree_slot t (p : int) =
  assert (p >= 0 && p < tree_slot_count t);
  slot t p

let absent_slot = et

let memory_bytes t =
  Memmodel.seqtree_bytes ~capacity:(capacity t) ~key_len:(key_len t)
    ~levels:(levels t) ~tid_slots:(tid_slots t)
    ~breathing:(breathing t > 0)

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

(* Fill the subtree rooted at tree slot [p] over BlindiBits range
   [lo, hi]; slots over empty ranges are left as they are. *)
let rec fill t ~size p (lo : int) hi =
  if p < size && lo <= hi then begin
    let m = min_entry_index t lo hi in
    set_slot t p m;
    fill t ~size ((2 * p) + 1) lo (m - 1);
    fill t ~size ((2 * p) + 2) (m + 1) hi
  end

(* Rebuild the BlindiTree from BlindiBits.  Node [p] covers the in-order
   range [lo, hi] of BlindiBits indices; empty ranges leave ET. *)
let rebuild_tree t =
  let st = Stats.current () in
  st.Stats.rebuilds <- st.Stats.rebuilds + 1;
  let size = tree_size (levels t) in
  clear_tree t;
  let n = count t in
  if size > 0 && n >= 2 then fill t ~size 0 0 (n - 2)

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)

(* Bit [b] of [key], MSB-first.  [b] comes from image bytes, which a
   torn optimistic read may garble, so the byte read is bounds-checked
   (unlike {!Ei_util.Key.bit}). *)
let key_bit key b = (Char.code (String.get key (b lsr 3)) lsr (7 - (b land 7))) land 1

(* SeqTrie sequential scan over bits[lo..hi], assuming the searched key is
   one of keys lo..hi+1.  Returns the assumed key position.  [bw] is the
   BlindiBits entry width. *)
let seq_scan (st : Stats.t) t ~bw key lo hi =
  st.Stats.scan_steps <- st.Stats.scan_steps + (hi - lo + 1);
  let j = ref lo and threshold = ref max_int in
  for i = lo to hi do
    let b = get_entry t ~width:bw (header + (i * bw)) in
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
let assumed_position st t ~bw key n =
  let size = tree_size (levels t) in
  if n <= 1 then 0
  else begin
    let tw = tree_width t and tb = tree_base t in
    let lo = ref 0 and hi = ref (n - 2) in
    let p = ref 0 in
    let fell_off = ref false in
    while (not !fell_off) && !p < size && !lo <= !hi do
      let m = get_entry t ~width:tw (tb + (!p * tw)) - 1 in
      if m = et then begin
        (* Absent trie node: the candidate is the range's first key. *)
        hi := !lo - 1;
        fell_off := true
      end
      else begin
        st.Stats.tree_steps <- st.Stats.tree_steps + 1;
        let b = get_entry t ~width:bw (header + (m * bw)) in
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
    if !lo > !hi then !lo else seq_scan st t ~bw key !lo !hi
  end

(* The mismatch scans of [locate], top-level so a search allocates no
   closure. *)
let rec scan_right t ~bw ~n (bd : int) i =
  if i > n - 2 then n - 1
  else if get_entry t ~width:bw (header + (i * bw)) < bd then i
  else scan_right t ~bw ~n bd (i + 1)

let rec scan_left t ~bw (bd : int) i =
  if i < 0 then -1
  else if get_entry t ~width:bw (header + (i * bw)) < bd then i
  else scan_left t ~bw bd (i - 1)

type locate_result =
  | Found of int  (* key present at this position *)
  | Pred of int   (* key absent; position of its predecessor, -1 if none *)

(* A search's one table load: the first bit at which [key] differs from
   the key of the candidate at the assumed position [j], -1 if none. *)
let verify st t ~(load : load) key j =
  let kj = load (tid t j) in
  st.Stats.key_compares <- st.Stats.key_compares + 1;
  match Ei_util.Key.first_diff_bit key kj with None -> -1 | Some bd -> bd

(* On mismatch at [bd], the predecessor is the first entry below [bd]
   right of the candidate when key > candidate, else left of it. *)
let pred_of t ~bw ~n key j bd =
  if key_bit key bd = 1 then scan_right t ~bw ~n bd j
  else scan_left t ~bw bd (j - 1)

(* Predecessor-semantics search (§5.2): the assumed position, verified
   by loading its key. *)
let locate t ~(load : load) key =
  let st = Stats.current () in
  st.Stats.searches <- st.Stats.searches + 1;
  assert (String.length key = key_len t);
  let n = count t in
  if n = 0 then Pred (-1)
  else begin
    let bw = bits_width t in
    let j = assumed_position st t ~bw key n in
    let bd = verify st t ~load key j in
    if bd < 0 then Found j else Pred (pred_of t ~bw ~n key j bd)
  end

let find t ~load key =
  match locate t ~load key with Found j -> Some (tid t j) | Pred _ -> None

(* ------------------------------------------------------------------ *)
(* Tuple-id slots (breathing, §5.4).                                   *)

(* Open tid slot [pos] among the first [n]; needs a free slot. *)
let insert_tid t ~n pos v =
  blit_tids t pos t (pos + 1) (n - pos);
  set_tid t pos v

let remove_tid t ~n pos = blit_tids t (pos + 1) t pos (n - pos - 1)

(* The same node in an image with [n + slack] tid slots (at most
   capacity): breathing growth, for an insert that found every tid slot
   taken. *)
let breathe t =
  let n = count t and capacity = capacity t and breathing = breathing t in
  assert (breathing > 0 && n < capacity);
  let s =
    alloc ~key_len:(key_len t) ~capacity ~levels:(levels t) ~breathing
      ~tid_slots:(tid_slots_for ~capacity ~breathing n)
  in
  (* Header and BlindiBits/BlindiTree are position-identical. *)
  Bytes.blit t 0 s 0 (tids_base t);
  blit_tids t 0 s 0 n;
  s

(* ------------------------------------------------------------------ *)
(* Insert / remove.                                                    *)

let diff_bit a b =
  match Ei_util.Key.first_diff_bit a b with
  | Some b -> b
  | None -> invalid_arg "Seqtree: duplicate key"

(* Overwrite the tid of an existing key (value update).  The new row must
   hold the same key bytes, as DBMS updates to non-key columns do. *)
let update t ~(load : load) key v =
  match locate t ~load key with
  | Found j ->
    set_tid t j v;
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
  let size = tree_size (levels t) in
  let rec clear p =
    if p < size then begin
      set_slot t p et;
      clear ((2 * p) + 1);
      clear ((2 * p) + 2)
    end
  in
  clear p;
  fill t ~size p lo hi

(* [n] is the key count after the insertion. *)
let tree_after_insert t ~n (q' : int) v_new =
  let size = tree_size (levels t) in
  if size > 0 then begin
    let entries = n - 1 in
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
   the subtree that lost its root.  [n] is the key count after the
   removal. *)
let tree_after_remove t ~n (r : int) =
  let size = tree_size (levels t) in
  if size > 0 then begin
    let entries = n - 1 in
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

type insert_result = Inserted | Grown of t | Full | Duplicate

(* Insert [key] after predecessor position [p]; needs a free tid slot.
   [bd] is where [key] first differs from the candidate its search
   loaded, which shares the longest prefix with [key] of all the node's
   keys: so the neighbour on the candidate's side differs from [key] at
   [bd] too, and no further key is loaded.  Key indices after insertion:
   predecessor at q-1, new key at q, old successor at q+1. *)
let insert_at t ~bd key v p =
  let st = Stats.current () in
  st.Stats.inserts <- st.Stats.inserts + 1;
  let n = count t in
  let q = p + 1 in
  if n > 0 then begin
    if q = 0 then begin
      insert_bit t ~count:(n - 1) 0 bd;
      insert_tid t ~n q v;
      set_count t (n + 1);
      tree_after_insert t ~n:(n + 1) 0 bd
    end
    else if q = n then begin
      insert_bit t ~count:(n - 1) (n - 1) bd;
      insert_tid t ~n q v;
      set_count t (n + 1);
      tree_after_insert t ~n:(n + 1) (n - 1) bd
    end
    else begin
      (* Entry q-1 covered the (pred, succ) pair at [d_old].  Of the
         (pred, new) and (new, succ) entries, the candidate's side gets
         the logically-new [bd], the other keeps [d_old] (above [bd]). *)
      let d_old = bit t (q - 1) in
      assert (bd > d_old);
      let candidate_left = key_bit key bd = 1 in
      set_bit t (q - 1) (if candidate_left then bd else d_old);
      insert_bit t ~count:(n - 1) q (if candidate_left then d_old else bd);
      insert_tid t ~n q v;
      set_count t (n + 1);
      if candidate_left then tree_after_insert t ~n:(n + 1) (q - 1) bd
      else tree_after_insert t ~n:(n + 1) q bd
    end
  end
  else begin
    insert_tid t ~n q v;
    set_count t (n + 1)
  end

(* The search of {!locate}, keeping [bd] for {!insert_at}.  With every
   tid slot taken below capacity, the key goes into {!breathe}'s larger
   copy and the original image is left untouched (an optimistic reader
   may still be decoding it). *)
let insert t ~(load : load) key v =
  let st = Stats.current () in
  st.Stats.searches <- st.Stats.searches + 1;
  assert (String.length key = key_len t);
  let n = count t in
  let bw = bits_width t in
  let j = if n = 0 then 0 else assumed_position st t ~bw key n in
  let bd = if n = 0 then 0 else verify st t ~load key j in
  if bd < 0 then Duplicate
  else if is_full t then Full
  else begin
    let p = if n = 0 then -1 else pred_of t ~bw ~n key j bd in
    if n >= tid_slots t then begin
      let s = breathe t in
      insert_at s ~bd key v p;
      Grown s
    end
    else begin
      insert_at t ~bd key v p;
      Inserted
    end
  end

type remove_result = Removed | Not_present

let remove t ~(load : load) key =
  match locate t ~load key with
  | Pred _ -> Not_present
  | Found j ->
    let st = Stats.current () in
    st.Stats.removes <- st.Stats.removes + 1;
    let n = count t in
    if n >= 2 then begin
      if j = 0 then begin
        remove_bit t ~count:(n - 1) 0;
        remove_tid t ~n j;
        set_count t (n - 1);
        tree_after_remove t ~n:(n - 1) 0
      end
      else if j = n - 1 then begin
        remove_bit t ~count:(n - 1) (n - 2);
        remove_tid t ~n j;
        set_count t (n - 1);
        tree_after_remove t ~n:(n - 1) (n - 2)
      end
      else begin
        (* Pairs (j-1, j) and (j, j+1) merge; the first differing bit of
           the outer keys is the minimum of the two old entries, so the
           logically-removed entry is the one holding the maximum. *)
        let a = bit t (j - 1) and b = bit t j in
        set_bit t (j - 1) (min a b);
        remove_bit t ~count:(n - 1) j;
        remove_tid t ~n j;
        set_count t (n - 1);
        tree_after_remove t ~n:(n - 1) (if a > b then j - 1 else j)
      end
    end
    else begin
      remove_tid t ~n j;
      set_count t (n - 1)
    end;
    Removed

(* ------------------------------------------------------------------ *)
(* Bulk construction, split, merge.                                    *)

(* An image holding [n] keys, with tid slots per the breathing rule. *)
let sized ~key_len ~capacity ~levels ~breathing n =
  let t =
    alloc ~key_len ~capacity ~levels ~breathing
      ~tid_slots:(tid_slots_for ~capacity ~breathing n)
  in
  set_count t n;
  t

(* Build from tids whose keys are strictly increasing.  [keys] must be the
   corresponding key array (used only during construction; not stored). *)
let of_sorted ~key_len ~capacity ~levels ~breathing keys tids (n : int) =
  assert (n <= capacity);
  let t = sized ~key_len ~capacity ~levels ~breathing n in
  for i = 0 to n - 1 do
    set_tid t i tids.(i)
  done;
  for i = 0 to n - 2 do
    set_bit t i (diff_bit keys.(i) keys.(i + 1))
  done;
  rebuild_tree t;
  t

(* Split into two nodes holding the first [n/2] and remaining keys.  The
   discriminating bit between the halves is dropped (§5.3). *)
let split t ~left_capacity ~right_capacity =
  let n = count t in
  assert (n >= 2);
  let m = n / 2 in
  let nl = m and nr = n - m in
  assert (nl <= left_capacity && nr <= right_capacity);
  let mk cap n =
    sized ~key_len:(key_len t) ~capacity:cap ~levels:(levels t)
      ~breathing:(breathing t) n
  in
  let left = mk left_capacity nl and right = mk right_capacity nr in
  blit_tids t 0 left 0 nl;
  blit_tids t m right 0 nr;
  if nl >= 2 then blit_bits t 0 left 0 (nl - 1);
  if nr >= 2 then blit_bits t m right 0 (nr - 1);
  rebuild_tree left;
  rebuild_tree right;
  (left, right)

(* Merge two adjacent nodes (all keys of [a] below all keys of [b]) into a
   fresh node of the given capacity.  Introduces the discriminating bit
   between a's last and b's first key, loaded from the table (§5.3). *)
let merge a b ~(load : load) ~capacity ~levels =
  let na = count a and nb = count b in
  let n = na + nb in
  assert (n <= capacity);
  assert (Int.equal (key_len a) (key_len b));
  let t = sized ~key_len:(key_len a) ~capacity ~levels ~breathing:(breathing a) n in
  blit_tids a 0 t 0 na;
  blit_tids b 0 t na nb;
  if na >= 2 then blit_bits a 0 t 0 (na - 1);
  if na >= 1 && nb >= 1 then
    set_bit t (na - 1) (diff_bit (load (tid a (na - 1))) (load (tid b 0)));
  if nb >= 2 then blit_bits b 0 t na (nb - 1);
  rebuild_tree t;
  t

(* Rebuild this node with a new capacity/levels, e.g. when the elasticity
   algorithm grows or shrinks a compact leaf. *)
let with_capacity t ~capacity ~levels =
  let n = count t in
  assert (n <= capacity);
  let s = sized ~key_len:(key_len t) ~capacity ~levels ~breathing:(breathing t) n in
  blit_tids t 0 s 0 n;
  if n >= 2 then blit_bits t 0 s 0 (n - 1);
  rebuild_tree s;
  s

(* ------------------------------------------------------------------ *)
(* Iteration (scans).                                                  *)

(* Fold over tids in key order starting at position [pos]. *)
let fold_from t pos f acc =
  let base = tids_base t in
  let acc = ref acc in
  for i = max 0 pos to count t - 1 do
    acc := f !acc (Int64.to_int (Bytes.get_int64_le t (base + (i * 8))))
  done;
  !acc

let iter f t = fold_from t 0 (fun () v -> f v) ()

(* Position of the first key >= [key]: the scan start for range queries. *)
let lower_bound t ~load key =
  match locate t ~load key with Found j -> j | Pred p -> p + 1

(* ------------------------------------------------------------------ *)
(* Invariant checking (used by tests).                                 *)

let check_invariants t ~load =
  let n = count t in
  assert (is_image t);
  assert (n >= 0 && n <= capacity t);
  assert (tid_slots t >= n);
  (* With breathing the tid slots never exceed capacity; they may carry
     extra slack after removes (an image never shrinks). *)
  assert (tid_slots t <= max 1 (capacity t));
  assert (
    Bytes.length t
    = Memmodel.seqtree_image_bytes ~capacity:(capacity t) ~key_len:(key_len t)
        ~levels:(levels t) ~tid_slots:(tid_slots t));
  (* Keys strictly increasing and BlindiBits consistent with them. *)
  for i = 0 to n - 2 do
    let a = load (tid t i) and b = load (tid t (i + 1)) in
    assert (Ei_util.Key.compare a b < 0);
    assert (bit t i = diff_bit a b)
  done;
  (* BlindiTree entries are range minima of their in-order segments. *)
  let size = tree_size (levels t) in
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
  if size > 0 then if n >= 2 then check 0 0 (n - 2) else check 0 1 0
