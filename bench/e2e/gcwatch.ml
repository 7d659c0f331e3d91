(* OCaml runtime layer, read from the runtime's own event ring
   ([Runtime_events]): words allocated and promoted by minor
   collections, wall time spent in stop-the-world phases, and the
   domains that were alive.  Events count only while [recording]; the
   caller polls at least every few milliseconds so the per-domain rings
   never overwrite unread events (overwritten ones are counted in
   [lost]). *)

module RE = Runtime_events

type t = {
  cursor : RE.cursor;
  mutable recording : bool;
  mutable allocated : int;
  mutable promoted : int;
  mutable lost : int;
  opened : int array;  (* open stop-the-world phase start per ring, 0 = none *)
  mutable intervals : (int * int) list;
  mutable stw_ns : int;  (* union of closed windows' intervals *)
  seen : bool array;  (* rings that emitted an event while recording *)
  mutable cb : RE.Callbacks.t option;
}

let max_rings = 128

let is_stw = function
  | RE.EV_MINOR | RE.EV_MAJOR_GC_STW -> true
  | _ -> false

let ns ts = Int64.to_int (RE.Timestamp.to_int64 ts)

let create () =
  {
    cursor = RE.create_cursor None;
    recording = false;
    allocated = 0;
    promoted = 0;
    lost = 0;
    opened = Array.make max_rings 0;
    intervals = [];
    stw_ns = 0;
    seen = Array.make max_rings false;
    cb = None;
  }

let callbacks t =
  let mark ring = if t.recording && ring < max_rings then t.seen.(ring) <- true in
  RE.Callbacks.create
    ~runtime_begin:(fun ring ts phase ->
      mark ring;
      if t.recording && ring < max_rings && is_stw phase then
        t.opened.(ring) <- ns ts)
    ~runtime_end:(fun ring ts phase ->
      mark ring;
      if ring < max_rings && is_stw phase && t.opened.(ring) > 0 then begin
        t.intervals <- (t.opened.(ring), ns ts) :: t.intervals;
        t.opened.(ring) <- 0
      end)
    ~runtime_counter:(fun ring _ts c v ->
      mark ring;
      if t.recording then
        match c with
        | RE.EV_C_MINOR_ALLOCATED -> t.allocated <- t.allocated + v
        | RE.EV_C_MINOR_PROMOTED -> t.promoted <- t.promoted + v
        | _ -> ())
    ~lost_events:(fun _ n -> t.lost <- t.lost + n)
    ()

let start () =
  RE.start ();
  let t = create () in
  t.cb <- Some (callbacks t);
  t

let poll t =
  match t.cb with
  | Some cb -> ignore (RE.read_poll t.cursor cb None)
  | None -> ()

(* Fold the collected intervals into [stw_ns] as their union: a minor
   collection stops every domain, and each reports its own span. *)
let close_intervals t =
  let ivs = List.sort (fun (a, _) (b, _) -> Int.compare a b) t.intervals in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Int.max a reach in
        if b > a then (acc + (b - a), b) else (acc, reach))
      (0, 0) ivs
  in
  t.stw_ns <- t.stw_ns + total;
  t.intervals <- []

let set_recording t on =
  poll t;
  if not on then close_intervals t;
  t.recording <- on

let domains t = Array.fold_left (fun n s -> if s then n + 1 else n) 0 t.seen
