(* The WAL record codec: the tags and fields of one record, carried in
   the shared CRC-framed {!Envelope}.

   payload = u8 tag | u64 lsn | tag-specific fields
     tag 1 Insert : u16 key_len | key bytes | u64 tid
     tag 2 Remove : u16 key_len | key bytes
     tag 3 Update : u16 key_len | key bytes | u64 tid
     tag 4 Bound  : u64 bound *)

type record =
  | Insert of { lsn : int; key : string; tid : int }
  | Remove of { lsn : int; key : string }
  | Update of { lsn : int; key : string; tid : int }
  | Bound of { lsn : int; bound : int }

let lsn = function
  | Insert { lsn; _ } | Remove { lsn; _ } | Update { lsn; _ } | Bound { lsn; _ }
    ->
    lsn

(* The smallest payload is tag + lsn; the largest is tag + lsn +
   key_len + key + tid. *)
let min_payload = 1 + 8
let max_payload = 1 + 8 + 2 + 0xffff + 8

(* --- Encoding -------------------------------------------------------- *)

let encode_payload buf r =
  match r with
  | Insert { lsn; key; tid } ->
    Buffer.add_uint8 buf 1;
    Envelope.add_i64 buf lsn;
    Envelope.add_key buf key;
    Envelope.add_i64 buf tid
  | Remove { lsn; key } ->
    Buffer.add_uint8 buf 2;
    Envelope.add_i64 buf lsn;
    Envelope.add_key buf key
  | Update { lsn; key; tid } ->
    Buffer.add_uint8 buf 3;
    Envelope.add_i64 buf lsn;
    Envelope.add_key buf key;
    Envelope.add_i64 buf tid
  | Bound { lsn; bound } ->
    Buffer.add_uint8 buf 4;
    Envelope.add_i64 buf lsn;
    Envelope.add_i64 buf bound

let encode_into buf r =
  if lsn r < 0 then invalid_arg "Frame.encode_into: negative lsn";
  let payload = Buffer.create 32 in
  encode_payload payload r;
  Envelope.add buf (Buffer.contents payload)

(* --- Decoding -------------------------------------------------------- *)

let parse p =
  let tag = Envelope.u8 p in
  let lsn = Envelope.i64 p ~what:"lsn" in
  match tag with
  | 1 ->
    let key = Envelope.key p in
    Insert { lsn; key; tid = Envelope.i64 p ~what:"tid" }
  | 2 -> Remove { lsn; key = Envelope.key p }
  | 3 ->
    let key = Envelope.key p in
    Update { lsn; key; tid = Envelope.i64 p ~what:"tid" }
  | 4 -> Bound { lsn; bound = Envelope.i64 p ~what:"bound" }
  | t -> Envelope.malformed (Printf.sprintf "unknown tag %d" t)

let decode s ~pos =
  match Envelope.decode ~min:min_payload ~max:max_payload s ~pos parse with
  | Envelope.Done (r, next) -> Ok (r, next)
  | Envelope.More -> Error (Envelope.truncation s ~pos)
  | Envelope.Corrupt msg -> Error msg

let decode_all s =
  let n = String.length s in
  let rec go pos acc =
    if pos = n then (List.rev acc, None)
    else
      match decode s ~pos with
      | Ok (r, next) -> go next (r :: acc)
      | Error msg -> (List.rev acc, Some (pos, msg))
  in
  go 0 []
