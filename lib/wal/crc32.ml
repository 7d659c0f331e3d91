(* CRC-32 (IEEE 802.3, reflected, polynomial 0xedb88320) over bytes.

   Table-driven, one 256-entry int array computed eagerly at module
   initialisation: a lazy table forced by two domains at once raises
   [CamlinternalLazy.Undefined] in one of them.  The 32-bit digest fits
   a non-negative OCaml int on 64-bit platforms, which is all this
   repository targets. *)

let[@ei.guarded_by "frozen at module initialisation"] table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let update_byte tbl crc b = tbl.((crc lxor b) land 0xff) lxor (crc lsr 8)

let bytes ?(pos = 0) ?len (b : Bytes.t) =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.bytes";
  let crc = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    crc := update_byte table !crc (Char.code (Bytes.unsafe_get b i))
  done;
  !crc lxor 0xffffffff

let string ?pos ?len s = bytes ?pos ?len (Bytes.unsafe_of_string s)
