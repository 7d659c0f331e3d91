(* Standard B+-tree leaf with internal key storage, as in the STX
   B+-tree: a sorted run of keys and the matching tuple ids.  This is
   the representation the elastic index converts *from* under memory
   pressure and back *to* when pressure subsides.

   Keys are stored inline: slot [i] is the [key_len] bytes at
   [i * key_len] of one [capacity * key_len] buffer, which is exactly
   what {!Ei_storage.Memmodel.std_leaf_bytes} charges.  Searches compare
   in place; {!key_at} materialises a fresh string. *)

type t = {
  key_len : int;
  capacity : int;
  mutable n : int;
  keys : Bytes.t;
  tids : int array;
}

let create ~key_len ~capacity () =
  assert (capacity >= 2);
  {
    key_len;
    capacity;
    n = 0;
    keys = Bytes.make (capacity * key_len) '\000';
    tids = Array.make capacity 0;
  }

let count t = t.n
let capacity t = t.capacity
let is_full t = t.n >= t.capacity
let key_at t i = Bytes.sub_string t.keys (i * t.key_len) t.key_len
let tid_at t i = t.tids.(i)

let memory_bytes t =
  Ei_storage.Memmodel.std_leaf_bytes ~capacity:t.capacity ~key_len:t.key_len

let compare_slot t i key =
  Ei_util.Key.compare_at t.keys (i * t.key_len) t.key_len key

(* Copy [key] into slot [i]; keys shorter or longer than [key_len] are
   rejected, as the inline layout has no room for them. *)
let set_slot t i key =
  if String.length key <> t.key_len then invalid_arg "Std_leaf: key length";
  Bytes.blit_string key 0 t.keys (i * t.key_len) t.key_len

(* Move slots [src, src + len) to [dst, dst + len), keys and tids. *)
let move_slots t ~src ~dst len =
  Bytes.blit t.keys (src * t.key_len) t.keys (dst * t.key_len) (len * t.key_len);
  Array.blit t.tids src t.tids dst len

type locate_result = Found of int | Pred of int

(* Binary search with predecessor semantics. *)
let locate t key =
  let lo = ref 0 and hi = ref (t.n - 1) in
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
  match locate t key with Found i -> Some t.tids.(i) | Pred _ -> None

type insert_result = Inserted | Full | Duplicate

let insert t key tid =
  match locate t key with
  | Found _ -> Duplicate
  | Pred _ when t.n >= t.capacity -> Full
  | Pred p ->
    let q = p + 1 in
    move_slots t ~src:q ~dst:(q + 1) (t.n - q);
    set_slot t q key;
    t.tids.(q) <- tid;
    t.n <- t.n + 1;
    Inserted

(* Overwrite the tid of an existing key (value update). *)
let update t key tid =
  match locate t key with
  | Found j ->
    t.tids.(j) <- tid;
    true
  | Pred _ -> false

type remove_result = Removed | Not_present

let remove t key =
  match locate t key with
  | Pred _ -> Not_present
  | Found j ->
    move_slots t ~src:(j + 1) ~dst:j (t.n - j - 1);
    t.n <- t.n - 1;
    Removed

let of_sorted ~key_len ~capacity keys tids (n : int) =
  assert (n <= capacity);
  let t = create ~key_len ~capacity () in
  for i = 0 to n - 1 do
    set_slot t i keys.(i)
  done;
  Array.blit tids 0 t.tids 0 n;
  t.n <- n;
  t

(* Append all entries of [b] to [a]; caller guarantees order and room. *)
let absorb a b =
  assert (a.n + b.n <= a.capacity && a.key_len = b.key_len);
  Bytes.blit b.keys 0 a.keys (a.n * a.key_len) (b.n * b.key_len);
  Array.blit b.tids 0 a.tids a.n b.n;
  a.n <- a.n + b.n

let split t =
  let m = t.n / 2 in
  let moved = t.n - m in
  let right = create ~key_len:t.key_len ~capacity:t.capacity () in
  Bytes.blit t.keys (m * t.key_len) right.keys 0 (moved * t.key_len);
  Array.blit t.tids m right.tids 0 moved;
  right.n <- moved;
  t.n <- m;
  right

let fold_from t pos f acc =
  let acc = ref acc in
  for i = max 0 pos to t.n - 1 do
    acc := f !acc (key_at t i) t.tids.(i)
  done;
  !acc

let lower_bound t key =
  match locate t key with Found j -> j | Pred p -> p + 1

let check_invariants t =
  assert (t.n >= 0 && t.n <= t.capacity);
  for i = 0 to t.n - 2 do
    assert (compare_slot t i (key_at t (i + 1)) < 0)
  done
