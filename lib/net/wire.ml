(* The network protocol codec: the tags and fields of requests and
   replies, carried in the shared CRC-framed {!Ei_wal.Envelope}.

   Request payload = u8 tag | u64 id | tag-specific fields
     tag 1 Insert : u16 key_len | key bytes
     tag 2 Remove : u16 key_len | key bytes
     tag 3 Update : u16 key_len | key bytes
     tag 4 Find   : u16 key_len | key bytes
     tag 5 Scan   : u16 key_len | key bytes | u32 count

   Reply payload = u8 tag | u64 id | tag-specific fields
     tag 16 Applied   : i64 result
     tag 17 Rejected  : (empty)
     tag 18 Timed_out : (empty)
     tag 19 Busy      : (empty)

   Clients never hand the server a row id: the server owns the row
   table and assigns tids on insert/update; [Find] returns the tid as
   its result, so a tid is an opaque handle on the wire. *)

module Envelope = Ei_wal.Envelope

type op =
  | Insert of string
  | Remove of string
  | Update of string
  | Find of string
  | Scan of string * int

type request = { id : int; op : op }

type status =
  | Applied of int
  | Rejected
  | Timed_out
  | Busy

type reply = { rid : int; status : status }

type 'a progress = 'a Envelope.progress =
  | Done of 'a * int
  | More
  | Corrupt of string

let op_key = function
  | Insert k | Remove k | Update k | Find k | Scan (k, _) -> k

let describe_reply { rid; status } =
  match status with
  | Applied r -> Printf.sprintf "%d applied %d" rid r
  | Rejected -> Printf.sprintf "%d rejected" rid
  | Timed_out -> Printf.sprintf "%d timed-out" rid
  | Busy -> Printf.sprintf "%d busy" rid

(* The smallest payload is tag + id (an empty-bodied reply); the
   largest is tag + id + key_len + key + scan count. *)
let min_payload = 1 + 8
let max_payload = 1 + 8 + 2 + 0xffff + 4

(* --- Encoding -------------------------------------------------------- *)

let encode_request_into buf { id; op } =
  if id < 0 then invalid_arg "Wire.encode: negative request id";
  let payload = Buffer.create 32 in
  let tagged tag key =
    Buffer.add_uint8 payload tag;
    Envelope.add_i64 payload id;
    Envelope.add_key payload key
  in
  (match op with
  | Insert k -> tagged 1 k
  | Remove k -> tagged 2 k
  | Update k -> tagged 3 k
  | Find k -> tagged 4 k
  | Scan (k, n) ->
    if n < 0 || n > 0xffffffff then invalid_arg "Wire.encode: bad scan count";
    tagged 5 k;
    Buffer.add_int32_le payload (Int32.of_int n));
  Envelope.add buf (Buffer.contents payload)

let encode_request r =
  let buf = Buffer.create 48 in
  encode_request_into buf r;
  Buffer.contents buf

let encode_reply_into buf { rid; status } =
  if rid < 0 then invalid_arg "Wire.encode: negative reply id";
  let payload = Buffer.create 24 in
  let tagged tag =
    Buffer.add_uint8 payload tag;
    Envelope.add_i64 payload rid
  in
  (match status with
  | Applied r ->
    tagged 16;
    Envelope.add_i64 payload r
  | Rejected -> tagged 17
  | Timed_out -> tagged 18
  | Busy -> tagged 19);
  Envelope.add buf (Buffer.contents payload)

let encode_reply r =
  let buf = Buffer.create 32 in
  encode_reply_into buf r;
  Buffer.contents buf

(* --- Decoding -------------------------------------------------------- *)

let parse_request p =
  let tag = Envelope.u8 p in
  let id = Envelope.i64 p ~what:"request id" in
  match tag with
  | 1 -> { id; op = Insert (Envelope.key p) }
  | 2 -> { id; op = Remove (Envelope.key p) }
  | 3 -> { id; op = Update (Envelope.key p) }
  | 4 -> { id; op = Find (Envelope.key p) }
  | 5 ->
    let key = Envelope.key p in
    { id; op = Scan (key, Envelope.u32 p ~what:"scan count") }
  | t -> Envelope.malformed (Printf.sprintf "unknown request tag %d" t)

(* Operation results are at least -1 ([Find] misses report -1). *)
let parse_reply p =
  let tag = Envelope.u8 p in
  let rid = Envelope.i64 p ~what:"reply id" in
  match tag with
  | 16 -> { rid; status = Applied (Envelope.i64 ~min:(-1) p ~what:"result") }
  | 17 -> { rid; status = Rejected }
  | 18 -> { rid; status = Timed_out }
  | 19 -> { rid; status = Busy }
  | t -> Envelope.malformed (Printf.sprintf "unknown reply tag %d" t)

let decode_request s ~pos =
  Envelope.decode ~min:min_payload ~max:max_payload s ~pos parse_request

let decode_reply s ~pos =
  Envelope.decode ~min:min_payload ~max:max_payload s ~pos parse_reply
