(* The traced run's measurement layer, kept entirely outside the
   program: wrappers around the closures the benchmark hands to the
   fleet record one span per call, exact per-kind counters, and the
   row-table key loads made inside each call.

   Every domain writes only its own buffer (created on first use and
   registered once under a lock), so recording takes no lock and no
   allocation: exact counters for every call, plus a bounded ring of
   the most recent spans for self-time analysis and the Chrome trace.
   Nothing records until [set_enabled true]; the untraced run does not
   install the wrappers at all. *)

module Index_ops = Ei_harness.Index_ops
module Ctx = Ei_obs.Ctx

type kind = Exec | Find | Multi_find | Insert | Remove | Update | Scan | Set_bound

let kind_count = 8

let kind_index = function
  | Exec -> 0
  | Find -> 1
  | Multi_find -> 2
  | Insert -> 3
  | Remove -> 4
  | Update -> 5
  | Scan -> 6
  | Set_bound -> 7

let kind_names =
  [| "serve.exec"; "olc.find"; "olc.multi_find"; "olc.insert"; "olc.remove";
     "olc.update"; "olc.scan"; "olc.set_size_bound" |]

(* Per-kind counter fields. *)
let f_calls = 0
let f_ns = 1
let f_units = 2 (* keys for multi_find, entries for scan, ops for exec *)
let f_loads = 3
let fields = 4

(* Ring slots per span: kind, start ns, duration ns, id, parent id.
   The ring keeps the spans of one exec in [sample] (by request id) and
   of its index calls, so it covers a long stretch of the run evenly
   rather than only its last moments; the counters see every call. *)
let slot = 5
let ring_spans = 1 lsl 16
let sample = 8

(* Request ids are minted from one counter shared with every span the
   serving layer opens, so they are not evenly spaced: hash them. *)
let sampled id = id <> 0 && Hashtbl.hash id mod sample = 0

type buf = {
  dom : int;
  counters : int array;
  mutable loads : int;
  ring : int array;
  mutable written : int;  (* spans ever written; the ring keeps the last [ring_spans] *)
}

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

let bufs_lock = Mutex.create ()
let bufs : buf list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          dom = (Domain.self () :> int);
          counters = Array.make (kind_count * fields) 0;
          loads = 0;
          ring = Array.make (ring_spans * slot) 0;
          written = 0;
        }
      in
      Mutex.lock bufs_lock;
      bufs := b :: !bufs;
      Mutex.unlock bufs_lock;
      b)

let record b kind ~start ~dur ~units ~loads ~id ~parent =
  let k = kind_index kind * fields in
  let c = b.counters in
  c.(k + f_calls) <- c.(k + f_calls) + 1;
  c.(k + f_ns) <- c.(k + f_ns) + dur;
  c.(k + f_units) <- c.(k + f_units) + units;
  c.(k + f_loads) <- c.(k + f_loads) + loads;
  if sampled (if id <> 0 then id else parent) then begin
    let o = b.written land (ring_spans - 1) * slot in
    let r = b.ring in
    r.(o) <- kind_index kind;
    r.(o + 1) <- start;
    r.(o + 2) <- dur;
    r.(o + 3) <- id;
    r.(o + 4) <- parent;
    b.written <- b.written + 1
  end

(* One index call: its span's parent is the request the serving layer
   installed as this domain's ambient context (the exec that caused
   it), which is why tracing turns the program's own [Ei_obs.Trace] on
   alongside these wrappers. *)
let timed kind ~units call =
  let b = Domain.DLS.get key in
  let l0 = b.loads in
  let t0 = Clock.now_ns () in
  let r = call () in
  let t1 = Clock.now_ns () in
  record b kind ~start:t0 ~dur:(t1 - t0) ~units:(units r) ~loads:(b.loads - l0)
    ~id:0 ~parent:(Ctx.current_trace ());
  r

let one _ = 1

(* With recording off a wrapped call costs one atomic load. *)
let wrap_index (ix : Index_ops.t) =
  let live () = Atomic.get on in
  {
    ix with
    Index_ops.insert =
      (fun k tid ->
        if live () then timed Insert ~units:one (fun () -> ix.insert k tid)
        else ix.insert k tid);
    remove =
      (fun k ->
        if live () then timed Remove ~units:one (fun () -> ix.remove k)
        else ix.remove k);
    update =
      (fun k tid ->
        if live () then timed Update ~units:one (fun () -> ix.update k tid)
        else ix.update k tid);
    find =
      (fun k ->
        if live () then timed Find ~units:one (fun () -> ix.find k) else ix.find k);
    multi_find =
      (fun ks ->
        if live () then
          timed Multi_find ~units:Array.length (fun () -> ix.multi_find ks)
        else ix.multi_find ks);
    scan =
      (fun start n ->
        if live () then timed Scan ~units:Fun.id (fun () -> ix.scan start n)
        else ix.scan start n);
    scan_keys =
      (fun start n visit ->
        if live () then
          timed Scan ~units:Fun.id (fun () -> ix.scan_keys start n visit)
        else ix.scan_keys start n visit);
    set_size_bound =
      (fun b ->
        if live () then timed Set_bound ~units:one (fun () -> ix.set_size_bound b)
        else ix.set_size_bound b);
  }

(* The row-table loader: counts indirect key loads on the calling
   domain, so each index call can report the loads it caused. *)
let wrap_load load tid =
  if Atomic.get on then begin
    let b = Domain.DLS.get key in
    b.loads <- b.loads + 1
  end;
  load tid

(* Client side of one [Serve.exec]: mint the request id the serving
   layer propagates to the shard domains, and record the exec span. *)
let exec_begin () =
  if Atomic.get on then begin
    let c = Ctx.mint () in
    Ctx.set c;
    c.Ctx.trace
  end
  else 0

let exec_end id ~start ~stop ~ops =
  if id <> 0 then begin
    Ctx.clear ();
    record (Domain.DLS.get key) Exec ~start ~dur:(stop - start) ~units:ops
      ~loads:0 ~id ~parent:0
  end

(* --- Reading (quiesce recorders first) -------------------------------- *)

let all_bufs () =
  Mutex.lock bufs_lock;
  let l = !bufs in
  Mutex.unlock bufs_lock;
  l

(* Exact per-kind totals summed over every domain. *)
let totals () =
  let t = Array.make (kind_count * fields) 0 in
  List.iter
    (fun b -> Array.iteri (fun i v -> t.(i) <- t.(i) + v) b.counters)
    (all_bufs ());
  t

let total t kind field = t.((kind_index kind * fields) + field)

type span = { kind : int; start : int; dur : int; id : int; parent : int; dom : int }

(* The retained spans of every ring, and the instant from which every
   ring is complete: a span starting at or after [from] has all of its
   children retained too. *)
let retained () =
  let from = ref 0 in
  let spans =
    List.concat_map
      (fun b ->
        let n = Int.min b.written ring_spans in
        let first = b.written - n in
        let l =
          List.init n (fun i ->
              let o = (first + i) land (ring_spans - 1) * slot in
              let r = b.ring in
              { kind = r.(o); start = r.(o + 1); dur = r.(o + 2); id = r.(o + 3);
                parent = r.(o + 4); dom = b.dom })
        in
        (if b.written > ring_spans then
           match l with s :: _ -> from := Int.max !from s.start | [] -> ());
        l)
      (all_bufs ())
  in
  (spans, !from)

(* Self time of each exec: its duration minus the part of its interval
   that its child index spans cover (children on different shard
   domains overlap, so coverage is the union of their intervals).
   [execs] are (id, start, dur) triples; returns the mean duration,
   mean child coverage and mean self time in ns, over the sampled execs
   that start at or after [from]. *)
let self_times ~execs ~children ~from =
  let kids = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace kids s.parent
          ((s.start, s.start + s.dur)
          :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    children;
  let n = ref 0 and sum_dur = ref 0 and sum_cover = ref 0 in
  List.iter
    (fun (id, start, dur) ->
      if (start : int) >= from && sampled id then begin
        let stop = start + dur in
        let ivs =
          Option.value ~default:[] (Hashtbl.find_opt kids id)
          |> List.map (fun (a, b) -> (Int.max a start, Int.min b stop))
          |> List.filter (fun (a, b) -> b > a)
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        let cover, _ =
          List.fold_left
            (fun (acc, reach) (a, b) ->
              let a = Int.max a reach in
              if b > a then (acc + (b - a), b) else (acc, reach))
            (0, start) ivs
        in
        incr n;
        sum_dur := !sum_dur + dur;
        sum_cover := !sum_cover + cover
      end)
    execs;
  let mean x = if !n = 0 then 0. else float_of_int x /. float_of_int !n in
  (mean !sum_dur, mean !sum_cover, mean (!sum_dur - !sum_cover))

(* Chrome [trace_events] JSON of the retained spans ("X" complete
   events, one track per domain, ids and parents in args). *)
let write_chrome path spans =
  let t0 = List.fold_left (fun a s -> Int.min a s.start) max_int spans in
  let us ns = Ei_util.Mini_json.Float (float_of_int ns /. 1e3) in
  let ev s =
    Ei_util.Mini_json.Obj
      [
        ("name", Str kind_names.(s.kind));
        ("ph", Str "X");
        ("ts", us (s.start - t0));
        ("dur", us s.dur);
        ("pid", Int 1);
        ("tid", Int s.dom);
        ("args", Obj [ ("id", Int s.id); ("parent", Int s.parent) ]);
      ]
  in
  let oc = open_out path in
  output_string oc
    (Ei_util.Mini_json.to_string
       (Obj [ ("traceEvents", List (List.map ev spans)) ]));
  close_out oc
