(* Fixed-length binary keys.

   A key is an immutable byte string compared lexicographically.  Integer
   keys are encoded big-endian so lexicographic order coincides with
   numeric order, which is what every ordered index here relies on.

   Bits are numbered from zero starting at the most significant bit of
   byte 0, as in the paper (§5.2). *)

type t = string

let compare = String.compare
let equal = String.equal
let length = String.length

let of_string s = s
let to_string k = k

let of_int64 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  Bytes.unsafe_to_string b

let to_int64 k =
  assert (String.length k = 8);
  String.get_int64_be k 0

(* Encode a non-negative OCaml int as an 8-byte big-endian key. *)
let of_int v =
  assert (v >= 0);
  of_int64 (Int64.of_int v)

let to_int k = Int64.to_int (to_int64 k)

let of_int_pair hi lo =
  let b = Bytes.create 16 in
  Bytes.set_int64_be b 0 (Int64.of_int hi);
  Bytes.set_int64_be b 8 (Int64.of_int lo);
  Bytes.unsafe_to_string b

let bits k = 8 * String.length k

(* Bit [i] of the key, MSB of byte 0 being bit 0. *)
let bit k i =
  let byte = Char.code (String.unsafe_get k (i lsr 3)) in
  (byte lsr (7 - (i land 7))) land 1

(* Index of the most significant set bit of a byte in MSB-first numbering,
   i.e. 0 for 0x80..0xff, 7 for 0x01. *)
let msb_first_diff_in_byte x =
  assert (x <> 0);
  let rec loop i = if x land (0x80 lsr i) <> 0 then i else loop (i + 1) in
  loop 0

(* Leading-zero count of a non-zero word: position of its most
   significant set bit in MSB-first numbering (0 for bit 63 set). *)
let[@inline] clz64 w =
  assert (not (Int64.equal w 0L));
  let n = ref 0 in
  let w = ref w in
  if Int64.equal (Int64.shift_right_logical !w 32) 0L then begin
    n := !n + 32;
    w := Int64.shift_left !w 32
  end;
  if Int64.equal (Int64.shift_right_logical !w 48) 0L then begin
    n := !n + 16;
    w := Int64.shift_left !w 16
  end;
  if Int64.equal (Int64.shift_right_logical !w 56) 0L then begin
    n := !n + 8;
    w := Int64.shift_left !w 8
  end;
  if Int64.equal (Int64.shift_right_logical !w 60) 0L then begin
    n := !n + 4;
    w := Int64.shift_left !w 4
  end;
  if Int64.equal (Int64.shift_right_logical !w 62) 0L then begin
    n := !n + 2;
    w := Int64.shift_left !w 2
  end;
  if Int64.equal (Int64.shift_right_logical !w 63) 0L then n := !n + 1;
  !n

(* Word-at-a-time lexicographic comparison of the [len] bytes of [b] at
   [off] with the key [k]: 8-byte big-endian chunks compared as unsigned
   words (big-endian load order makes unsigned word order coincide with
   byte order), then a byte tail, then length.  Agrees with
   [String.compare] on every input.  The loops are top-level functions
   taking every operand, so a comparison allocates no closure.  The
   range is checked once up front: a torn optimistic read handing in a
   stale offset raises [Invalid_argument] (a restart for the OLC reader)
   instead of reading out of bounds. *)
let rec cmp_words b off k ~words ~n ~len ~lk i =
  if i < words then begin
    let wa = Bytes.get_int64_be b (off + (i lsl 3))
    and wb = String.get_int64_be k (i lsl 3) in
    if Int64.equal wa wb then cmp_words b off k ~words ~n ~len ~lk (i + 1)
    else Int64.unsigned_compare wa wb
  end
  else cmp_tail b off k ~n ~len ~lk (words lsl 3)

and cmp_tail b off k ~n ~len ~lk i =
  if i < n then begin
    let ca = Char.code (Bytes.unsafe_get b (off + i))
    and cb = Char.code (String.unsafe_get k i) in
    if ca = cb then cmp_tail b off k ~n ~len ~lk (i + 1) else Int.compare ca cb
  end
  else Int.compare len lk

let compare_at b off len k =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Key.compare_at";
  let lk = String.length k in
  let n = if len < lk then len else lk in
  cmp_words b off k ~words:(n lsr 3) ~n ~len ~lk 0

(* The bytes are only read. *)
let compare_fast a b = compare_at (Bytes.unsafe_of_string a) 0 (String.length a) b

(* First 63 bits of the key in big-endian byte order, as a
   non-negative OCaml int.  Monotone in [compare_fast]: [sort_prefix a
   < sort_prefix b] implies [a < b], so it serves as an immediate-int
   proxy when sorting keys — only equal prefixes need the full
   comparison.  Keys shorter than 8 bytes are zero-padded, which
   preserves the order (0 is the minimal byte); the dropped 64th bit
   only makes ties slightly more common. *)
let sort_prefix k =
  let n = String.length k in
  let w =
    if n >= 8 then String.get_int64_be k 0
    else begin
      let w = ref 0L in
      for i = 0 to 7 do
        let b = if i < n then Char.code (String.unsafe_get k i) else 0 in
        w := Int64.logor (Int64.shift_left !w 8) (Int64.of_int b)
      done;
      !w
    end
  in
  Int64.to_int (Int64.shift_right_logical w 1)

(* Position of the first bit in which [a] and [b] differ, or None if the
   keys are equal.  Keys must have equal length.  Word-at-a-time: XOR of
   8-byte chunks, leading-zero count of the first non-zero XOR.  As for
   [compare_fast], the loops are closure-free top-level functions. *)
let rec diff_words a b ~words ~n i =
  if i < words then begin
    let wa = String.get_int64_be a (i lsl 3)
    and wb = String.get_int64_be b (i lsl 3) in
    if Int64.equal wa wb then diff_words a b ~words ~n (i + 1)
    else Some ((i lsl 6) + clz64 (Int64.logxor wa wb))
  end
  else diff_tail a b ~n (words lsl 3)

and diff_tail a b ~n i =
  if i >= n then None
  else
    let xa = Char.code (String.unsafe_get a i)
    and xb = Char.code (String.unsafe_get b i) in
    if xa = xb then diff_tail a b ~n (i + 1)
    else Some ((i * 8) + msb_first_diff_in_byte (xa lxor xb))

let first_diff_bit a b =
  let n = String.length a in
  assert (String.length b = n);
  diff_words a b ~words:(n lsr 3) ~n 0

let to_hex k =
  let buf = Buffer.create (2 * String.length k) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) k;
  Buffer.contents buf

let pp ppf k = Fmt.string ppf (to_hex k)

(* Random key of [len] bytes. *)
let random rng len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.set b i (Char.chr (Rng.int rng 256))
  done;
  Bytes.unsafe_to_string b
