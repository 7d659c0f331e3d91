(* Server-side per-connection protocol engine.

   One session composes the pure reader/writer machines with the
   pipelining-window policy: bytes are fed in, decoded requests queue
   in arrival order, and rounds are formed for the serving layer —
   the first [window] queued requests become one Serve.exec batch
   (positional outcomes are slot-addressed acks, so per-connection
   order is preserved for free), and everything queued beyond the
   window is shed with [Busy] instead of buffered unboundedly.

   Shed replies are emitted after the round's replies: the batch holds
   the oldest outstanding ids and the shed the newest, so the reply
   stream stays in request order — the ordered-prefix invariant the
   net-pipeline sim scenario checks.

   Like the reader/writer underneath, a session performs no I/O and
   owns no lock: it is single-domain state driven by its connection
   handler (or by a sim fiber). *)

module Invariant = Ei_util.Invariant

type t = {
  window : int;
  reader : Wire.request Conn.reader;
  writer : Conn.writer;
  q : Wire.request Queue.t;  (* decoded, not yet assigned to a round *)
  mutable round : Wire.request array;  (* in flight; [||] when idle *)
  mutable shed_round : Wire.request list;  (* shed of the round, arrival order *)
  mutable shed : int;
  mutable replied : int;
}
[@@ei.single_domain]

let create ?(window = 256) () =
  if window < 1 then invalid_arg "Session.create: window < 1";
  {
    window;
    reader = Conn.reader ~decode:Wire.decode_request;
    writer = Conn.writer ();
    q = Queue.create ();
    round = [||];
    shed_round = [];
    shed = 0;
    replied = 0;
  }

let queued t = Queue.length t.q
let shed_count t = t.shed
let replied_count t = t.replied
let error t = Conn.reader_error t.reader

let feed t ?pos ?len chunk =
  match Conn.feed t.reader ?pos ?len chunk with
  | Error _ as e -> e
  | Ok reqs ->
    List.iter (fun r -> Queue.push r t.q) reqs;
    Ok ()

let in_round t = Array.length t.round > 0

let take t =
  if in_round t then
    Invariant.broken "Session.take: previous round not completed";
  let n = min t.window (Queue.length t.q) in
  let batch = Array.init n (fun _ -> Queue.pop t.q) in
  (* Everything still queued arrived beyond a full window while a round
     was pending: shed it now, reply Busy when the round completes so
     the reply stream stays in request order. *)
  let rec drain acc =
    if Queue.is_empty t.q then List.rev acc else drain (Queue.pop t.q :: acc)
  in
  t.round <- batch;
  t.shed_round <- drain [];
  batch

let complete t statuses =
  let n = Array.length t.round in
  if Array.length statuses <> n then
    Invariant.brokenf "Session.complete: %d statuses for a round of %d"
      (Array.length statuses) n;
  Array.iteri
    (fun i (req : Wire.request) ->
      Conn.writer_push t.writer
        (Wire.encode_reply { Wire.rid = req.Wire.id; status = statuses.(i) }))
    t.round;
  t.replied <- t.replied + n;
  List.iter
    (fun (req : Wire.request) ->
      Conn.writer_push t.writer
        (Wire.encode_reply { Wire.rid = req.Wire.id; status = Wire.Busy });
      t.shed <- t.shed + 1;
      t.replied <- t.replied + 1)
    t.shed_round;
  t.round <- [||];
  t.shed_round <- []

let out_pending t = Conn.writer_pending t.writer
let out_take t ~max = Conn.writer_take t.writer ~max
