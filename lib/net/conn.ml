(* Pure per-connection byte-stream state machines.

   A {!reader} turns an arbitrary chunking of incoming bytes into the
   sequence of decoded values; a {!writer} turns a queue of encoded
   frames into arbitrarily short outgoing chunks.  Neither touches a
   socket: the transition functions are deterministic in the bytes
   fed, so the same code runs over real file descriptors (Server,
   Client) and under ei_sim's cooperative scheduler, where a schedule
   feeds one byte at a time and takes one byte at a time.

   The scheduler reaches these machines through the {!Ei_fault.Fault}
   yield points below — one atomic load each when no tap is
   installed, like every other production yield site. *)

module Fault = Ei_fault.Fault

let yp_feed = Fault.site "net.yield.feed"
let yp_take = Fault.site "net.yield.take"

(* --- Reader ----------------------------------------------------------- *)

type 'a reader = {
  decode : string -> pos:int -> 'a Wire.progress;
  mutable pending : string;  (* undecoded tail, always less than one frame *)
  mutable err : string option;  (* a corrupt stream poisons the reader *)
}
[@@ei.single_domain]

let reader ~decode = { decode; pending = ""; err = None }

let reader_pending r = String.length r.pending
let reader_error r = r.err

let feed r ?(pos = 0) ?len chunk =
  match r.err with
  | Some e -> Error e
  | None ->
    Fault.point yp_feed;
    let len = match len with Some l -> l | None -> String.length chunk - pos in
    if pos < 0 || len < 0 || pos + len > String.length chunk then
      invalid_arg "Conn.feed: chunk range out of bounds";
    let s =
      if String.length r.pending = 0 then String.sub chunk pos len
      else r.pending ^ String.sub chunk pos len
    in
    let rec go at acc =
      match r.decode s ~pos:at with
      | Wire.Done (v, next) -> go next (v :: acc)
      | Wire.More ->
        r.pending <-
          (if at = 0 then s else String.sub s at (String.length s - at));
        Ok (List.rev acc)
      | Wire.Corrupt msg ->
        r.err <- Some msg;
        r.pending <- "";
        Error msg
    in
    go 0 []

(* --- Writer ----------------------------------------------------------- *)

(* Queued output bytes with a consumption offset; the buffer compacts
   whenever it is fully drained, which sockets do every flush, so the
   buffer never outlives the deepest reply backlog of one round. *)
type writer = {
  wbuf : Buffer.t;
  mutable woff : int;
}
[@@ei.single_domain]

let writer () = { wbuf = Buffer.create 256; woff = 0 }

let writer_push w s = Buffer.add_string w.wbuf s
let writer_pending w = Buffer.length w.wbuf - w.woff

let writer_take w ~max =
  Fault.point yp_take;
  if max < 0 then invalid_arg "Conn.writer_take: negative max";
  let n = min max (writer_pending w) in
  if n = 0 then ""
  else begin
    let s = Buffer.sub w.wbuf w.woff n in
    w.woff <- w.woff + n;
    if w.woff = Buffer.length w.wbuf then begin
      Buffer.clear w.wbuf;
      w.woff <- 0
    end;
    s
  end
