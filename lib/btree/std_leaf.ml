(* Standard B+-tree leaf with internal key storage, as in the STX
   B+-tree: a sorted run of keys and the matching tuple ids.  This is
   the representation the elastic index converts *from* under memory
   pressure and back *to* when pressure subsides.

   A leaf is one [Bytes] image, sized by
   {!Ei_storage.Memmodel.std_leaf_image_bytes}:
   - bytes 0-7, the header: byte 0 the kind tag, 2-3 the count [n]
     (u16 LE), 4-5 the capacity, 6-7 the key length;
   - [capacity] inline keys, slot [i] the [key_len] bytes at
     [8 + i * key_len], padded to a word;
   - [capacity] tuple ids, one 8-byte word each.
   Only [n] and the entries change in place.  Searches compare keys in
   place; {!key_at} materialises a fresh string.  Every read is
   bounds-checked, so an optimistic reader's torn count or offset raises
   [Invalid_argument] rather than reading outside the image. *)

module Memmodel = Ei_storage.Memmodel

type t = Bytes.t

let tag = '\x01'
let header = Memmodel.leaf_image_header

let is_image b = Bytes.length b >= header && Bytes.get b 0 = tag

let of_image b =
  if is_image b then b else invalid_arg "Std_leaf.of_image: not a standard leaf image"

let count t = Bytes.get_uint16_le t 2
let set_count t n = Bytes.set_uint16_le t 2 n
let capacity t = Bytes.get_uint16_le t 4
let key_len t = Bytes.get_uint16_le t 6
let is_full t = count t >= capacity t

let create ~key_len ~capacity () =
  assert (capacity >= 2);
  if capacity > 0xffff || key_len > 0xffff then
    invalid_arg "Std_leaf: parameter exceeds its header field";
  let t =
    Bytes.make (Memmodel.std_leaf_image_bytes ~capacity ~key_len) '\000'
  in
  Bytes.set t 0 tag;
  Bytes.set_uint16_le t 4 capacity;
  Bytes.set_uint16_le t 6 key_len;
  t

(* Byte offset of tid slot 0, past the padded key slots. *)
let tids_base t = header + Memmodel.align_word (capacity t * key_len t)

let key_at t i =
  let kl = key_len t in
  Bytes.sub_string t (header + (i * kl)) kl

let tid_at t i = Int64.to_int (Bytes.get_int64_le t (tids_base t + (i * 8)))
let set_tid t i v = Bytes.set_int64_le t (tids_base t + (i * 8)) (Int64.of_int v)

let memory_bytes t =
  Memmodel.std_leaf_bytes ~capacity:(capacity t) ~key_len:(key_len t)

let compare_slot t i key =
  let kl = key_len t in
  Ei_util.Key.compare_at t (header + (i * kl)) kl key

(* Copy [key] into slot [i]; keys shorter or longer than [key_len] are
   rejected, as the inline layout has no room for them. *)
let set_slot t i key =
  let kl = key_len t in
  if String.length key <> kl then invalid_arg "Std_leaf: key length";
  Bytes.blit_string key 0 t (header + (i * kl)) kl

(* Copy [len] slots, keys and tids, from [src] at [spos] to [dst] at
   [dpos]; the two may be the same image. *)
let blit_slots src spos dst dpos len =
  let kl = key_len src in
  Bytes.blit src (header + (spos * kl)) dst (header + (dpos * kl)) (len * kl);
  Bytes.blit src (tids_base src + (spos * 8)) dst (tids_base dst + (dpos * 8)) (len * 8)

type locate_result = Found of int | Pred of int

(* Binary search with predecessor semantics. *)
let locate t key =
  let lo = ref 0 and hi = ref (count t - 1) in
  let res = ref (-1) and found = ref false in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare_slot t mid key in
    if c = 0 then begin
      res := mid;
      found := true;
      lo := !hi + 1 (* terminate *)
    end
    else if c < 0 then begin
      res := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !found then Found !res else Pred !res

let find t key =
  match locate t key with Found i -> Some (tid_at t i) | Pred _ -> None

type insert_result = Inserted | Full | Duplicate

let insert t key tid =
  match locate t key with
  | Found _ -> Duplicate
  | Pred _ when is_full t -> Full
  | Pred p ->
    let n = count t in
    let q = p + 1 in
    blit_slots t q t (q + 1) (n - q);
    set_slot t q key;
    set_tid t q tid;
    set_count t (n + 1);
    Inserted

(* Overwrite the tid of an existing key (value update). *)
let update t key tid =
  match locate t key with
  | Found j ->
    set_tid t j tid;
    true
  | Pred _ -> false

type remove_result = Removed | Not_present

let remove t key =
  match locate t key with
  | Pred _ -> Not_present
  | Found j ->
    let n = count t in
    blit_slots t (j + 1) t j (n - j - 1);
    set_count t (n - 1);
    Removed

let of_sorted ~key_len ~capacity keys tids (n : int) =
  assert (n <= capacity);
  let t = create ~key_len ~capacity () in
  for i = 0 to n - 1 do
    set_slot t i keys.(i);
    set_tid t i tids.(i)
  done;
  set_count t n;
  t

(* Append all entries of [b] to [a]; caller guarantees order and room. *)
let absorb a b =
  let na = count a and nb = count b in
  assert (na + nb <= capacity a && Int.equal (key_len a) (key_len b));
  blit_slots b 0 a na nb;
  set_count a (na + nb)

let split t =
  let n = count t in
  let m = n / 2 in
  let moved = n - m in
  let right = create ~key_len:(key_len t) ~capacity:(capacity t) () in
  blit_slots t m right 0 moved;
  set_count right moved;
  set_count t m;
  right

let fold_from t pos f acc =
  let kl = key_len t and base = tids_base t in
  let acc = ref acc in
  for i = max 0 pos to count t - 1 do
    let k = Bytes.sub_string t (header + (i * kl)) kl in
    acc := f !acc k (Int64.to_int (Bytes.get_int64_le t (base + (i * 8))))
  done;
  !acc

let lower_bound t key =
  match locate t key with Found j -> j | Pred p -> p + 1

let check_invariants t =
  let n = count t in
  assert (is_image t);
  assert (n >= 0 && n <= capacity t);
  assert (
    Bytes.length t
    = Memmodel.std_leaf_image_bytes ~capacity:(capacity t) ~key_len:(key_len t));
  for i = 0 to n - 2 do
    assert (compare_slot t i (key_at t (i + 1)) < 0)
  done
