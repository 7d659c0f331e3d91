(* The frame envelope shared by the WAL record codec and the network
   wire codec.  Layout of one frame (all integers little-endian):

     u32 payload_len | u32 crc32(payload) | payload

   Decoding is total: the length field is bounded before any buffering
   decision, the CRC covers the whole payload, and the payload readers
   check every field against the payload's end, so a damaged frame is
   [More] or [Corrupt], never an exception and never a wrong value.
   The readers report a malformed field by raising [Malformed], which
   [decode] alone catches. *)

let header_bytes = 8

let add buf payload =
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_int32_le buf (Int32.of_int (Crc32.string payload));
  Buffer.add_string buf payload

let add_key buf key =
  if String.length key > 0xffff then invalid_arg "Envelope.add_key: key too long";
  Buffer.add_uint16_le buf (String.length key);
  Buffer.add_string buf key

let add_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

type 'a progress =
  | Done of 'a * int
  | More
  | Corrupt of string

type payload = { s : string; mutable at : int; limit : int }
[@@ei.single_domain]

exception Malformed of string

let malformed msg = raise (Malformed msg)

let u32_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xffffffff

let decode ~min ~max s ~pos parse =
  let n = String.length s in
  if pos < 0 || pos > n then Corrupt "position out of range"
  else if n - pos < header_bytes then More
  else begin
    let len = u32_at s pos in
    if len < min || len > max then
      Corrupt (Printf.sprintf "implausible payload length %d" len)
    else if n - pos - header_bytes < len then More
    else begin
      let base = pos + header_bytes in
      if Crc32.string ~pos:base ~len s <> u32_at s (pos + 4) then
        Corrupt "crc mismatch"
      else begin
        (* CRC passed: the payload is byte-exact, so a field error can
           only come from an encoder this decoder does not know —
           still rejected, never a guess. *)
        let c = { s; at = base; limit = base + len } in
        match parse c with
        | v ->
          if c.at <> c.limit then Corrupt "payload length mismatch"
          else Done (v, c.limit)
        | exception Malformed msg -> Corrupt msg
      end
    end
  end

let truncation s ~pos =
  if String.length s - pos < header_bytes then "truncated frame header"
  else "truncated payload"

(* Claim the next [w] bytes of the payload; their offset. *)
let take c w what =
  let at = c.at in
  if at + w > c.limit then malformed ("truncated " ^ what);
  c.at <- at + w;
  at

let u8 c = Char.code c.s.[take c 1 "tag"]
let u32 c ~what = u32_at c.s (take c 4 what)

let i64 ?(min = 0) c ~what =
  let v = String.get_int64_le c.s (take c 8 what) in
  if Int64.compare v (Int64.of_int min) < 0
     || Int64.compare v (Int64.of_int max_int) > 0
  then malformed ("bad " ^ what)
  else Int64.to_int v

let key c =
  if c.at + 2 > c.limit then malformed "payload too short for key";
  let klen = String.get_uint16_le c.s c.at in
  if c.at + 2 + klen > c.limit then malformed "key overruns payload";
  c.at <- c.at + 2 + klen;
  String.sub c.s (c.at - klen) klen
