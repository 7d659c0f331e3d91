(* ei_obs metrics registry: counters, gauges and log-bucketed latency
   histograms over the whole serving stack.

   Hot-path discipline: every recording call first loads one global
   [enabled] atomic and returns when observability is off, so compiled-in
   instrumentation costs a load and a predictable branch on production
   paths.  When enabled, a recording is a single [Atomic.fetch_and_add]
   on a per-domain cell — counters and histogram buckets are sharded
   [shards] ways by domain id and merged on read, so concurrent shard
   domains never contend on one cache line and never lose increments.

   Histograms bucket values (nanoseconds by convention) into power-of-two
   buckets: bucket [i] holds values in [2^i, 2^{i+1}) (bucket 0 also
   absorbs 0).  Quantiles walk the merged buckets to the bucket holding
   the rank-[ceil (q*n)] sample and interpolate linearly inside it
   (assuming samples spread uniformly across the bucket), clamped to the
   histogram's observed min/max watermarks — so a single-sample
   histogram reports the sample itself, not a power-of-two ceiling.
   Each bucket also retains the {!Ctx} trace id of its most recent hit
   (an exemplar, Prometheus-style): ask a histogram for its p999 and it
   can also name a trace that actually landed there.

   [register_probe] folds externally-maintained counters (e.g. the
   SeqTree scan-length stats of {!Ei_blindi.Stats}) into the same export
   surface without forcing them through atomic cells. *)

module Strtbl = Ei_util.Strtbl

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

(* Power of two; domain ids map onto cells by masking.  16 ways covers
   the shard counts the serving layer runs (1..8 domains plus the
   supervisor) with few collisions, and a collision only
   costs contention, never a lost count. *)
let shards = 16

let cell () = (Domain.self () :> int) land (shards - 1)

(* --- Counters --------------------------------------------------------- *)

type counter = { cname : string; ccells : int Atomic.t array }

let sum_cells cells =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells

let incr c =
  if Atomic.get on then
    ignore (Atomic.fetch_and_add c.ccells.(cell ()) 1)

let add c n =
  if Atomic.get on then
    ignore (Atomic.fetch_and_add c.ccells.(cell ()) n)

let counter_value c = sum_cells c.ccells

(* --- Gauges ----------------------------------------------------------- *)

type gauge = { gcell : int Atomic.t }

let set_gauge g v = if Atomic.get on then Atomic.set g.gcell v

let add_gauge g d =
  if Atomic.get on then ignore (Atomic.fetch_and_add g.gcell d)

let gauge_value g = Atomic.get g.gcell

(* --- Histograms ------------------------------------------------------- *)

(* 63 buckets cover every non-negative OCaml int. *)
let buckets = 63

type histogram = {
  hcounts : int Atomic.t array;  (* shards * buckets, row per shard *)
  hsums : int Atomic.t array;    (* per-shard value sums *)
  hmins : int Atomic.t array;    (* per-shard min watermark; max_int = none *)
  hmaxs : int Atomic.t array;    (* per-shard max watermark; -1 = none *)
  hexem : int Atomic.t array;    (* per-bucket last trace id; last-write-wins *)
}

(* Floor of log2 for v > 0, by binary reduction (no popcount/clz in the
   stdlib; six shifts beat a loop on the hot path). *)
let log2 v =
  let v = ref v and r = ref 0 in
  if !v lsr 32 <> 0 then begin v := !v lsr 32; r := !r + 32 end;
  if !v lsr 16 <> 0 then begin v := !v lsr 16; r := !r + 16 end;
  if !v lsr 8 <> 0 then begin v := !v lsr 8; r := !r + 8 end;
  if !v lsr 4 <> 0 then begin v := !v lsr 4; r := !r + 4 end;
  if !v lsr 2 <> 0 then begin v := !v lsr 2; r := !r + 2 end;
  if !v lsr 1 <> 0 then r := !r + 1;
  !r

let bucket_of v = if v <= 1 then 0 else min (buckets - 1) (log2 v)

(* Inclusive upper bound of bucket [i]: the value a quantile reports. *)
let bucket_upper i = if i >= buckets - 1 then max_int else (1 lsl (i + 1)) - 1

(* CAS loops for the watermarks: collisions need two domains to share a
   cell (rare) and race the same extremum update (rarer); the common
   case is one read finding the watermark already past [v]. *)
let rec relax_min c v =
  let cur = Atomic.get c in
  if v < cur && not (Atomic.compare_and_set c cur v) then relax_min c v

let rec relax_max c v =
  let cur = Atomic.get c in
  if v > cur && not (Atomic.compare_and_set c cur v) then relax_max c v

let observe h v =
  if Atomic.get on then begin
    let s = cell () in
    let bkt = bucket_of v in
    ignore (Atomic.fetch_and_add h.hcounts.((s * buckets) + bkt) 1);
    ignore (Atomic.fetch_and_add h.hsums.(s) v);
    relax_min h.hmins.(s) v;
    relax_max h.hmaxs.(s) v;
    let tr = Ctx.current_trace () in
    if tr <> 0 then Atomic.set h.hexem.(bkt) tr
  end

(* Merge the per-domain rows into one bucket array. *)
let merged h =
  let out = Array.make buckets 0 in
  for s = 0 to shards - 1 do
    for b = 0 to buckets - 1 do
      out.(b) <- out.(b) + Atomic.get h.hcounts.((s * buckets) + b)
    done
  done;
  out

let histogram_count h = sum_cells h.hcounts

let histogram_sum h = sum_cells h.hsums

let histogram_min h =
  let m = Array.fold_left (fun acc c -> min acc (Atomic.get c)) max_int h.hmins in
  if m = max_int then 0 else m

let histogram_max h =
  let m = Array.fold_left (fun acc c -> max acc (Atomic.get c)) (-1) h.hmaxs in
  if m < 0 then 0 else m

(* Inclusive lower bound of bucket [i]. *)
let bucket_lower i = if i = 0 then 0 else 1 lsl i

(* Index of the bucket holding the rank-[ceil (q*n)] sample, with the
   sample's rank offset inside the bucket — shared by quantile and
   exemplar lookup.  None when the histogram is empty. *)
let quantile_bucket bs q =
  let n = Array.fold_left ( + ) 0 bs in
  if n = 0 then None
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let rec walk i acc =
      if i >= buckets then Some (buckets - 1, 1, 1)
      else
        let acc' = acc + bs.(i) in
        if acc' >= rank then Some (i, rank - acc, bs.(i)) else walk (i + 1) acc'
    in
    walk 0 0
  end

(* [quantile_of_buckets bs q] interpolates linearly inside the rank's
   bucket — samples are assumed uniform across [lower .. upper] — and
   clamps to the [lo]/[hi] watermarks when given, so exact extrema
   (min, max, single sample) report themselves.  Empty: 0. *)
let quantile_of_buckets ?(lo = 0) ?(hi = max_int) bs q =
  match quantile_bucket bs q with
  | None -> 0
  | Some (i, in_rank, in_count) ->
    let l = bucket_lower i and u = bucket_upper i in
    let frac = float_of_int in_rank /. float_of_int (max in_count 1) in
    let v = l + int_of_float (frac *. float_of_int (u - l)) in
    let v = if v < lo then lo else v in
    if v > hi then hi else v

let quantile h q =
  quantile_of_buckets ~lo:(histogram_min h) ~hi:(histogram_max h) (merged h) q

(* The trace id most recently observed into the bucket a quantile's
   rank lands in; 0 when the histogram is empty or the bucket never saw
   a hit while a request context was installed. *)
let quantile_exemplar h q =
  match quantile_bucket (merged h) q with
  | None -> 0
  | Some (i, _, _) -> Atomic.get h.hexem.(i)

let reset_histogram h =
  Array.iter (fun c -> Atomic.set c 0) h.hcounts;
  Array.iter (fun c -> Atomic.set c 0) h.hsums;
  Array.iter (fun c -> Atomic.set c max_int) h.hmins;
  Array.iter (fun c -> Atomic.set c (-1)) h.hmaxs;
  Array.iter (fun c -> Atomic.set c 0) h.hexem

(* --- Registry --------------------------------------------------------- *)

let lock = Mutex.create ()
let[@ei.guarded_by "lock"] counters : counter Strtbl.t = Strtbl.create 64
let[@ei.guarded_by "lock"] gauges : gauge Strtbl.t = Strtbl.create 16
let[@ei.guarded_by "lock"] histograms : histogram Strtbl.t = Strtbl.create 32
let[@ei.guarded_by "lock"] probes : (unit -> int) Strtbl.t = Strtbl.create 16

let with_lock f =
  Mutex.lock lock;
  let r = try f () with e -> Mutex.unlock lock; raise e in
  Mutex.unlock lock;
  r

let intern tbl name make =
  with_lock (fun () ->
      match Strtbl.find_opt tbl name with
      | Some x -> x
      | None ->
        let x = make () in
        Strtbl.add tbl name x;
        x)

let counter name =
  intern counters name (fun () ->
      { cname = name; ccells = Array.init shards (fun _ -> Atomic.make 0) })

let gauge name =
  intern gauges name (fun () -> { gcell = Atomic.make 0 })

let histogram name =
  intern histograms name (fun () ->
      {
        hcounts = Array.init (shards * buckets) (fun _ -> Atomic.make 0);
        hsums = Array.init shards (fun _ -> Atomic.make 0);
        hmins = Array.init shards (fun _ -> Atomic.make max_int);
        hmaxs = Array.init shards (fun _ -> Atomic.make (-1));
        hexem = Array.init buckets (fun _ -> Atomic.make 0);
      })

let register_probe name f =
  with_lock (fun () -> Strtbl.replace probes name f)

let reset () =
  with_lock (fun () ->
      Strtbl.iter
        (fun _ c -> Array.iter (fun a -> Atomic.set a 0) c.ccells)
        counters;
      Strtbl.iter (fun _ g -> Atomic.set g.gcell 0) gauges;
      Strtbl.iter (fun _ h -> reset_histogram h) histograms)

(* --- Export ----------------------------------------------------------- *)

let sorted_bindings tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Strtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

type hist_snap = {
  hs_count : int;
  hs_sum : int;
  hs_min : int;
  hs_max : int;
  hs_quantiles : (float * int) list;
  hs_exemplars : (float * int) list;  (* quantile -> trace id, 0 = none *)
}

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * int) list;
  snap_probes : (string * int) list;
  snap_histograms : (string * hist_snap) list;
}

let export_quantiles = [ 0.5; 0.9; 0.99; 0.999 ]

let hist_snap_of h =
  let bs = merged h in
  let lo = histogram_min h and hi = histogram_max h in
  {
    hs_count = Array.fold_left ( + ) 0 bs;
    hs_sum = histogram_sum h;
    hs_min = lo;
    hs_max = hi;
    hs_quantiles =
      List.map (fun q -> (q, quantile_of_buckets ~lo ~hi bs q)) export_quantiles;
    hs_exemplars =
      List.map
        (fun q ->
          ( q,
            match quantile_bucket bs q with
            | None -> 0
            | Some (i, _, _) -> Atomic.get h.hexem.(i) ))
        export_quantiles;
  }

let snapshot () =
  with_lock (fun () ->
      {
        snap_counters =
          List.map
            (fun (n, c) -> (n, counter_value c))
            (sorted_bindings counters);
        snap_gauges =
          List.map (fun (n, g) -> (n, gauge_value g)) (sorted_bindings gauges);
        snap_probes =
          List.map (fun (n, f) -> (n, f ())) (sorted_bindings probes);
        snap_histograms =
          List.map (fun (n, h) -> (n, hist_snap_of h)) (sorted_bindings histograms);
      })

(* Registry listings for the {!Timeline} snapshot engine: stable
   name-sorted views, histogram entries as live handles so the caller
   can delta merged bucket arrays between frames. *)
let counters_list () =
  with_lock (fun () ->
      List.map (fun (n, c) -> (n, counter_value c)) (sorted_bindings counters))

let gauges_list () =
  with_lock (fun () ->
      List.map (fun (n, g) -> (n, gauge_value g)) (sorted_bindings gauges))

let histograms_list () = with_lock (fun () -> sorted_bindings histograms)

let histogram_buckets h = merged h

(* Prometheus metric names allow [a-zA-Z0-9_:]; dotted registry names
   map onto underscores under an [ei_] namespace. *)
let prom_name n =
  let b = Bytes.of_string ("ei_" ^ n) in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  Bytes.to_string b

let dump_prometheus () =
  let s = snapshot () in
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  List.iter
    (fun (n, v) ->
      line "# TYPE %s counter" (prom_name n);
      line "%s %d" (prom_name n) v)
    s.snap_counters;
  List.iter
    (fun (n, v) ->
      line "# TYPE %s gauge" (prom_name n);
      line "%s %d" (prom_name n) v)
    (s.snap_gauges @ s.snap_probes);
  List.iter
    (fun (n, hs) ->
      let pn = prom_name n in
      line "# TYPE %s summary" pn;
      List.iter (fun (q, v) -> line "%s{quantile=\"%g\"} %d" pn q v) hs.hs_quantiles;
      line "%s_sum %d" pn hs.hs_sum;
      line "%s_count %d" pn hs.hs_count;
      line "%s_min %d" pn hs.hs_min;
      line "%s_max %d" pn hs.hs_max)
    s.snap_histograms;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let dump_json () =
  let s = snapshot () in
  let b = Buffer.create 4096 in
  let obj fields =
    "{" ^ String.concat ", " fields ^ "}"
  in
  let scalars kvs =
    List.map (fun (n, v) -> Printf.sprintf "\"%s\": %d" (json_escape n) v) kvs
  in
  let qname q =
    (* 0.5 -> "p50", 0.999 -> "p999" *)
    match Printf.sprintf "%g" q with
    | "0.5" -> "p50"
    | "0.9" -> "p90"
    | "0.99" -> "p99"
    | "0.999" -> "p999"
    | s -> "p" ^ s
  in
  let hists =
    List.map
      (fun (n, hs) ->
        Printf.sprintf "\"%s\": %s" (json_escape n)
          (obj
             (Printf.sprintf "\"count\": %d" hs.hs_count
             :: Printf.sprintf "\"sum\": %d" hs.hs_sum
             :: Printf.sprintf "\"min_ns\": %d" hs.hs_min
             :: Printf.sprintf "\"max_ns\": %d" hs.hs_max
             :: List.map
                  (fun (q, v) -> Printf.sprintf "\"%s_ns\": %d" (qname q) v)
                  hs.hs_quantiles
             @ List.filter_map
                 (fun (q, tr) ->
                   if tr = 0 then None
                   else
                     Some
                       (Printf.sprintf "\"%s_exemplar\": %d" (qname q) tr))
                 hs.hs_exemplars)))
      s.snap_histograms
  in
  Buffer.add_string b
    (obj
       [
         Printf.sprintf "\"counters\": %s" (obj (scalars s.snap_counters));
         Printf.sprintf "\"gauges\": %s" (obj (scalars s.snap_gauges));
         Printf.sprintf "\"probes\": %s" (obj (scalars s.snap_probes));
         Printf.sprintf "\"histograms\": %s" (obj hists);
       ]);
  Buffer.contents b
