(* Packed array of small non-negative integers (1 or 2 bytes per entry).

   This is the physical layout of the BlindiBits array of §5: one byte per
   discriminating-bit position for keys of at most 32 bytes, two bytes
   otherwise.  The array has a fixed capacity; the caller tracks how many
   entries are in use. *)

type t = { width : int; data : Bytes.t }

let create ~width ~capacity =
  assert (width = 1 || width = 2);
  { width; data = Bytes.make (max 1 (capacity * width)) '\000' }

(* [count] distinct values (0 .. count-1) per entry: one byte suffices
   for up to 256 values, e.g. bit positions of keys up to 32 bytes. *)
let width_for_bits count = if count <= 0x100 then 1 else 2

let get t i =
  if t.width = 1 then Char.code (Bytes.unsafe_get t.data i)
  else Bytes.get_uint16_le t.data (2 * i)

let set t i v =
  if t.width = 1 then begin
    assert (v >= 0 && v <= 0xff);
    Bytes.unsafe_set t.data i (Char.unsafe_chr v)
  end
  else begin
    assert (v >= 0 && v <= 0xffff);
    Bytes.set_uint16_le t.data (2 * i) v
  end
