(* ei_obs telemetry timeline: the registry's trajectory over time, not
   just its total at exit.

   A [capture] walks the {!Metrics} registry and appends one *frame* to
   a fixed-size ring: counter deltas since the previous capture (only
   the ones that moved), current gauge values, and per-histogram
   *windowed* statistics — count/sum/p50/p99/p999 over exactly the
   samples that landed between the two captures, computed by
   subtracting the previous capture's merged bucket array.  Deltas
   telescope: summing a counter's deltas across every frame reproduces
   its final value, which is what makes the frames an honest input for
   a tuner replaying "what was the op mix while p99 degraded?".

   Captures are driven two ways: explicitly at phase boundaries
   ([capture ~label]), and periodically by a ticker domain
   ([start_ticker]).  Both are cold paths — a capture takes the
   registry lock and allocates freely; nothing here touches a request
   hot path.  The frame ring is the flight recorder's second data
   source and the JSON-Lines export behind [ei timeline]. *)

module Clock = Ei_util.Bench_clock
module Invariant = Ei_util.Invariant
module Json = Ei_util.Mini_json
module Strtbl = Ei_util.Strtbl

let on = Atomic.make false
let set_enabled b = Atomic.set on b

type hist_frame = {
  hf_count : int;  (* samples in this window *)
  hf_sum : int;
  hf_p50 : int;
  hf_p99 : int;
  hf_p999 : int;
  hf_min : int;  (* cumulative watermarks at capture time *)
  hf_max : int;
}

type frame = {
  fr_seq : int;
  fr_ts_ns : int;
  fr_label : string;
  fr_counters : (string * int) list;  (* deltas since previous frame *)
  fr_gauges : (string * int) list;    (* values at capture time *)
  fr_hists : (string * hist_frame) list;
}

(* All state below the lock: the frame ring plus the previous capture's
   counter values and histogram bucket arrays (the delta baselines). *)
let lock = Mutex.create ()
let[@ei.guarded_by "lock"] frames_ring : frame option array ref = ref (Array.make 256 None)
let[@ei.guarded_by "lock"] next_seq = ref 0
let[@ei.guarded_by "lock"] prev_counters : int Strtbl.t = Strtbl.create 64
let[@ei.guarded_by "lock"] prev_buckets : int array Strtbl.t = Strtbl.create 32
let[@ei.guarded_by "lock"] prev_sums : int Strtbl.t = Strtbl.create 32

let with_lock f =
  Mutex.lock lock;
  let r = try f () with e -> Mutex.unlock lock; raise e in
  Mutex.unlock lock;
  r

let reset () =
  with_lock (fun () ->
      Array.fill !frames_ring 0 (Array.length !frames_ring) None;
      next_seq := 0;
      Strtbl.reset prev_counters;
      Strtbl.reset prev_buckets;
      Strtbl.reset prev_sums)

let capture ?(label = "") () =
  if Atomic.get on then begin
    let ts = Clock.now_ns () in
    let counters = Metrics.counters_list () in
    let gauges = Metrics.gauges_list () in
    let hists = Metrics.histograms_list () in
    with_lock (fun () ->
        let fr_counters =
          List.filter_map
            (fun (n, v) ->
              let prev =
                Option.value ~default:0 (Strtbl.find_opt prev_counters n)
              in
              Strtbl.replace prev_counters n v;
              if v - prev = 0 then None else Some (n, v - prev))
            counters
        in
        let fr_hists =
          List.filter_map
            (fun (n, h) ->
              let bs = Metrics.histogram_buckets h in
              let sum = Metrics.histogram_sum h in
              let prev_bs = Strtbl.find_opt prev_buckets n in
              let prev_sum =
                Option.value ~default:0 (Strtbl.find_opt prev_sums n)
              in
              Strtbl.replace prev_buckets n (Array.copy bs);
              Strtbl.replace prev_sums n sum;
              (match prev_bs with
              | Some pb -> Array.iteri (fun i p -> bs.(i) <- bs.(i) - p) pb
              | None -> ());
              let count = Array.fold_left ( + ) 0 bs in
              if count = 0 then None
              else
                let lo = Metrics.histogram_min h
                and hi = Metrics.histogram_max h in
                let q p = Metrics.quantile_of_buckets ~lo ~hi bs p in
                Some
                  ( n,
                    {
                      hf_count = count;
                      hf_sum = sum - prev_sum;
                      hf_p50 = q 0.5;
                      hf_p99 = q 0.99;
                      hf_p999 = q 0.999;
                      hf_min = lo;
                      hf_max = hi;
                    } ))
            hists
        in
        let fr =
          {
            fr_seq = !next_seq;
            fr_ts_ns = ts;
            fr_label = label;
            fr_counters;
            fr_gauges = gauges;
            fr_hists;
          }
        in
        let ring = !frames_ring in
        ring.(!next_seq mod Array.length ring) <- Some fr;
        incr next_seq)
  end

let frames () =
  with_lock (fun () ->
      let ring = !frames_ring in
      let cap = Array.length ring in
      let first = if !next_seq > cap then !next_seq - cap else 0 in
      let out = ref [] in
      for s = !next_seq - 1 downto first do
        match ring.(s mod cap) with
        | Some fr -> out := fr :: !out
        | None -> ()
      done;
      !out)

let latest () =
  with_lock (fun () ->
      if !next_seq = 0 then None
      else !frames_ring.((!next_seq - 1) mod Array.length !frames_ring))

(* --- Periodic ticker --------------------------------------------------- *)

let ticker_lock = Mutex.create ()
let[@ei.guarded_by "ticker_lock"] ticker : unit Domain.t option ref = ref None
let ticker_stop = Atomic.make false

let start_ticker ~interval_s =
  Mutex.lock ticker_lock;
  (if !ticker = None then begin
     Atomic.set ticker_stop false;
     ticker :=
       Some
         (Domain.spawn (fun () ->
              while not (Atomic.get ticker_stop) do
                Unix.sleepf interval_s;
                if not (Atomic.get ticker_stop) then capture ~label:"tick" ()
              done))
   end);
  Mutex.unlock ticker_lock

let stop_ticker () =
  Mutex.lock ticker_lock;
  let d = !ticker in
  ticker := None;
  Mutex.unlock ticker_lock;
  match d with
  | None -> ()
  | Some d ->
    Atomic.set ticker_stop true;
    Domain.join d

(* --- JSON-Lines export ------------------------------------------------- *)

let json_of_hist_frame hf =
  Json.Obj
    [
      ("count", Json.Int hf.hf_count);
      ("sum", Json.Int hf.hf_sum);
      ("p50_ns", Json.Int hf.hf_p50);
      ("p99_ns", Json.Int hf.hf_p99);
      ("p999_ns", Json.Int hf.hf_p999);
      ("min_ns", Json.Int hf.hf_min);
      ("max_ns", Json.Int hf.hf_max);
    ]

let json_of_frame fr =
  Json.Obj
    [
      ("seq", Json.Int fr.fr_seq);
      ("ts_ns", Json.Int fr.fr_ts_ns);
      ("label", Json.Str fr.fr_label);
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) fr.fr_counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) fr.fr_gauges));
      ( "histograms",
        Json.Obj
          (List.map (fun (n, hf) -> (n, json_of_hist_frame hf)) fr.fr_hists) );
    ]

let export_jsonl () =
  let b = Buffer.create 4096 in
  List.iter
    (fun fr ->
      Buffer.add_string b (Json.to_string (json_of_frame fr));
      Buffer.add_char b '\n')
    (frames ());
  Buffer.contents b

let write_jsonl path =
  let oc = open_out path in
  output_string oc (export_jsonl ());
  close_out oc
