(* Tests for the ei_obs observability layer: histogram bucketing and
   quantile edge cases, counter merging across concurrent domains
   (qcheck), trace-ring wraparound, the Chrome JSON exporter's
   structural invariants, span-context flow export, histogram
   exemplars, timeline delta telescoping, and the flight recorder. *)

module Metrics = Ei_obs.Metrics
module Trace = Ei_obs.Trace
module Ctx = Ei_obs.Ctx
module Timeline = Ei_obs.Timeline
module Flight = Ei_obs.Flight
module Invariant = Ei_util.Invariant
module Json = Ei_util.Mini_json

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i =
    i + n <= m && (String.equal (String.sub hay i n) needle || go (i + 1))
  in
  go 0

(* Alcotest runs test cases in-process and the registry is global:
   every case enables recording on entry and leaves the registry reset
   so cases stay order-independent. *)
let with_obs f =
  Metrics.set_enabled true;
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Trace.set_enabled false;
      Metrics.reset ();
      Trace.reset ())
    f

(* --- bucketing -------------------------------------------------------- *)

let test_buckets () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b
        (Metrics.bucket_of v))
    [
      (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3); (1023, 9);
      (1024, 10); (max_int, 61);
    ];
  (* Bucket i covers [2^i, 2^(i+1)); its inclusive upper bound is the
     largest member, and the last bucket is unbounded. *)
  Alcotest.(check int) "upper 0" 1 (Metrics.bucket_upper 0);
  Alcotest.(check int) "upper 2" 7 (Metrics.bucket_upper 2);
  Alcotest.(check int) "upper 3" 15 (Metrics.bucket_upper 3);
  Alcotest.(check int) "upper of max_int's bucket" max_int
    (Metrics.bucket_upper 61);
  Alcotest.(check int) "upper last" max_int (Metrics.bucket_upper 62)

(* --- quantile edge cases ---------------------------------------------- *)

let test_quantile_empty () =
  with_obs (fun () ->
      let h = Metrics.histogram "test.empty_ns" in
      Alcotest.(check int) "count" 0 (Metrics.histogram_count h);
      Alcotest.(check int) "p50 of empty" 0 (Metrics.quantile h 0.5);
      Alcotest.(check int) "p999 of empty" 0 (Metrics.quantile h 0.999))

let test_quantile_single () =
  with_obs (fun () ->
      (* One sample: interpolation puts every quantile at the bucket's
         top, and the min/max watermark clamp pulls it back to the
         sample itself — 7 and 8 both report themselves, where the old
         bucket-upper-bound rule turned 8 into 15. *)
      let h = Metrics.histogram "test.single_ns" in
      Metrics.observe h 7;
      Alcotest.(check int) "count" 1 (Metrics.histogram_count h);
      Alcotest.(check int) "sum" 7 (Metrics.histogram_sum h);
      Alcotest.(check int) "min" 7 (Metrics.histogram_min h);
      Alcotest.(check int) "max" 7 (Metrics.histogram_max h);
      Alcotest.(check int) "p50" 7 (Metrics.quantile h 0.5);
      Alcotest.(check int) "p999" 7 (Metrics.quantile h 0.999);
      Metrics.reset_histogram h;
      Alcotest.(check int) "min after reset" 0 (Metrics.histogram_min h);
      Metrics.observe h 8;
      Alcotest.(check int) "p50 is the sample" 8 (Metrics.quantile h 0.5))

let test_quantile_boundaries () =
  with_obs (fun () ->
      (* 90 samples in bucket 0 (value 1) and 10 in bucket 9 (value
         1000): the p50 rank lands in the low bucket (clamped up to the
         min watermark 1), p99 interpolates 9/10 of the way through
         [512, 1023] (= 971), and p1.0 clamps to the max watermark
         1000 instead of the bucket top 1023. *)
      let h = Metrics.histogram "test.bounds_ns" in
      for _ = 1 to 90 do
        Metrics.observe h 1
      done;
      for _ = 1 to 10 do
        Metrics.observe h 1000
      done;
      Alcotest.(check int) "count" 100 (Metrics.histogram_count h);
      Alcotest.(check int) "min" 1 (Metrics.histogram_min h);
      Alcotest.(check int) "max" 1000 (Metrics.histogram_max h);
      Alcotest.(check int) "p50" 1 (Metrics.quantile h 0.5);
      Alcotest.(check int) "p90 on boundary" 1 (Metrics.quantile h 0.9);
      Alcotest.(check int) "p99 interpolates" 971 (Metrics.quantile h 0.99);
      Alcotest.(check int) "p0 clamps to rank 1" 1 (Metrics.quantile h 0.0);
      Alcotest.(check int) "p1 clamps to the max watermark" 1000
        (Metrics.quantile h 1.0))

(* --- disabled fast path ----------------------------------------------- *)

let test_disabled_noop () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test.off" in
  let h = Metrics.histogram "test.off_ns" in
  Metrics.incr c;
  Metrics.add c 5;
  Metrics.observe h 42;
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Metrics.histogram_count h);
  Trace.set_enabled false;
  let before = Trace.events () in
  Trace.emit (Trace.define ~cat:"test" "test.off_ev") 1 2;
  Alcotest.(check int) "ring untouched" before (Trace.events ())

(* --- concurrent counter merge (qcheck) -------------------------------- *)

let test_concurrent_merge =
  QCheck.Test.make ~count:20 ~name:"4-domain counter adds merge to the sum"
    QCheck.(quad (0 -- 500) (0 -- 500) (0 -- 500) (0 -- 500))
    (fun (a, b, c, d) ->
      Metrics.set_enabled true;
      let counter = Metrics.counter "test.concurrent" in
      let h = Metrics.histogram "test.concurrent_ns" in
      Metrics.reset ();
      let work n () =
        for _ = 1 to n do
          Metrics.incr counter;
          Metrics.observe h 3
        done
      in
      (* One bump stream from this domain, three from spawned domains:
         four distinct domain ids hitting the sharded cells at once. *)
      let doms = List.map (fun n -> Domain.spawn (work n)) [ b; c; d ] in
      work a ();
      List.iter Domain.join doms;
      let total = a + b + c + d in
      let ok =
        Metrics.counter_value counter = total
        && Metrics.histogram_count h = total
        && Metrics.histogram_sum h = 3 * total
      in
      Metrics.set_enabled false;
      ok)

(* --- trace ring wraparound -------------------------------------------- *)

let test_ring_wraparound () =
  with_obs (fun () ->
      Trace.set_ring_capacity 64;
      let ev = Trace.define ~cat:"test" ~arg0:"i" "test.wrap" in
      (* A fresh domain gets a fresh ring at the new capacity; 100
         emissions into a 64-slot ring must retain exactly the newest
         64 (payloads 36..99), in write order. *)
      Domain.join
        (Domain.spawn (fun () ->
             for i = 0 to 99 do
               Trace.emit ev i (2 * i)
             done));
      let mine =
        List.rev
          (Trace.fold_events
             (fun acc ~domain:_ ~ts:_ ~id ~a ~b ->
               if id = ev then (a, b) :: acc else acc)
             [])
      in
      Alcotest.(check int) "retained" 64 (List.length mine);
      List.iteri
        (fun idx (a, b) ->
          Alcotest.(check int) "payload a" (36 + idx) a;
          Alcotest.(check int) "payload b" (2 * (36 + idx)) b)
        mine;
      Trace.set_ring_capacity 32768)

(* --- exporter ---------------------------------------------------------- *)

let test_export_json () =
  with_obs (fun () ->
      let ev = Trace.define ~cat:"test" ~arg0:"x" "test.export" in
      let sp = Trace.define ~span:true ~arg1:"n" ~cat:"test" "test.span" in
      Trace.emit ev 1 2;
      let t0 = Trace.start () in
      Trace.emit ev 3 4;
      Trace.span sp ~start_ns:t0 7;
      let json = Trace.export_json () in
      let has = contains json in
      Alcotest.(check bool) "traceEvents" true (has "\"traceEvents\"");
      Alcotest.(check bool) "instant" true (has "\"test.export\"");
      Alcotest.(check bool) "span as X" true (has "\"ph\": \"X\"");
      Alcotest.(check bool) "span name" true (has "\"test.span\"");
      Alcotest.(check bool) "thread metadata" true (has "\"thread_name\""))

(* --- span-context flow export ------------------------------------------ *)

let test_export_flow () =
  with_obs (fun () ->
      (* Two spans under one minted trace — a root and a child — must
         come out of the exporter as a Perfetto flow: the slices carry
         trace/span/parent args and the flow chain opens with "s" and
         closes with "f". *)
      let sp = Trace.define ~span:true ~arg1:"n" ~cat:"test" "test.flow" in
      let root = Ctx.mint () in
      Ctx.set root;
      let t0 = Trace.start () in
      Trace.span sp ~start_ns:t0 1;
      Ctx.set (Ctx.child root);
      let t1 = Trace.start () in
      Trace.span sp ~start_ns:t1 2;
      Ctx.clear ();
      let json = Trace.export_json () in
      let has = contains json in
      Alcotest.(check bool) "trace arg" true
        (has (Printf.sprintf "\"trace\": %d" root.Ctx.trace));
      Alcotest.(check bool) "flow cat" true (has "\"cat\": \"flow\"");
      Alcotest.(check bool) "flow start" true (has "\"ph\": \"s\"");
      Alcotest.(check bool) "flow finish" true (has "\"ph\": \"f\""))

(* --- exemplars --------------------------------------------------------- *)

let test_exemplar_roundtrip () =
  with_obs (fun () ->
      let h = Metrics.histogram "test.exemplar_ns" in
      Metrics.observe h 100;
      Alcotest.(check int) "no ambient ctx, no exemplar" 0
        (Metrics.quantile_exemplar h 0.999);
      let root = Ctx.mint () in
      Ctx.set root;
      Metrics.observe h 5000;
      Ctx.clear ();
      (* The slow sample landed in a higher bucket than the plain one:
         the tail quantile's exemplar is the minted trace, the median's
         bucket saw no traced hit. *)
      Alcotest.(check int) "p999 exemplar is the traced op" root.Ctx.trace
        (Metrics.quantile_exemplar h 0.999);
      Alcotest.(check int) "p50 exemplar empty" 0
        (Metrics.quantile_exemplar h 0.5);
      Alcotest.(check bool) "exemplar survives into dump_json" true
        (contains (Metrics.dump_json ()) "\"p999_exemplar\""))

(* --- timeline delta telescoping (qcheck) ------------------------------- *)

let test_timeline_deltas =
  QCheck.Test.make ~count:10
    ~name:"timeline frame deltas telescope to final counters (4 domains)"
    QCheck.(quad (0 -- 300) (0 -- 300) (0 -- 300) (0 -- 300))
    (fun (a, b, c, d) ->
      Metrics.set_enabled true;
      Timeline.set_enabled true;
      Metrics.reset ();
      Timeline.reset ();
      let counter = Metrics.counter "test.tl" in
      let h = Metrics.histogram "test.tl_ns" in
      let work n () =
        for _ = 1 to n do
          Metrics.incr counter;
          Metrics.observe h 5
        done
      in
      (* Captures race the three spawned bump streams: whatever window
         boundaries they cut, the per-frame deltas must still sum to
         the final totals. *)
      Timeline.capture ~label:"start" ();
      let doms = List.map (fun n -> Domain.spawn (work n)) [ b; c; d ] in
      Timeline.capture ~label:"mid" ();
      work a ();
      List.iter Domain.join doms;
      Timeline.capture ~label:"end" ();
      let total = a + b + c + d in
      let frames = Timeline.frames () in
      let counter_sum =
        List.fold_left
          (fun acc fr ->
            acc
            + Option.value ~default:0
                (List.assoc_opt "test.tl" fr.Timeline.fr_counters))
          0 frames
      in
      let hist_sum =
        List.fold_left
          (fun acc fr ->
            acc
            +
            match List.assoc_opt "test.tl_ns" fr.Timeline.fr_hists with
            | Some hf -> hf.Timeline.hf_count
            | None -> 0)
          0 frames
      in
      Timeline.set_enabled false;
      Metrics.set_enabled false;
      counter_sum = total && hist_sum = total)

(* --- flight recorder --------------------------------------------------- *)

let test_flight_trigger () =
  with_obs (fun () ->
      Timeline.set_enabled true;
      Timeline.reset ();
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ei-flight-test-%d" (Unix.getpid ()))
      in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Flight.arm ~dir ();
      Fun.protect
        ~finally:(fun () ->
          Flight.disarm ();
          Timeline.set_enabled false;
          Ei_wal.Wal.remove_dir dir)
        (fun () ->
          let sp = Trace.define ~span:true ~arg1:"n" ~cat:"test" "test.breach" in
          Ctx.set (Ctx.mint ());
          let t0 = Trace.start () in
          Trace.span sp ~start_ns:t0 1;
          Ctx.clear ();
          Timeline.capture ~label:"pre-breach" ();
          (try Invariant.broken "planted breach" with Invariant.Broken _ -> ());
          match Flight.last_dump () with
          | None -> Alcotest.fail "no flight dump written"
          | Some path -> (
            let ic = open_in_bin path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            match Json.parse s with
            | Error e -> Alcotest.failf "unparseable flight dump: %s" e
            | Ok doc ->
              let str m = Option.bind (Json.member m doc) Json.as_str in
              Alcotest.(check (option string))
                "reason" (Some "invariant-broken") (str "reason");
              Alcotest.(check (option string))
                "detail" (Some "planted breach") (str "detail");
              let events =
                Option.value ~default:[]
                  (Option.bind (Json.member "trace" doc) Json.as_list)
              in
              let breach =
                List.find_opt
                  (fun ev ->
                    match Option.bind (Json.member "name" ev) Json.as_str with
                    | Some "test.breach" -> true
                    | _ -> false)
                  events
              in
              Alcotest.(check bool)
                "breaching span present in the trace section" true
                (Option.is_some breach);
              let traced =
                Option.bind breach (fun ev ->
                    Option.bind (Json.member "trace" ev) Json.as_int)
              in
              Alcotest.(check bool)
                "breaching span carries its context" true
                (match traced with Some t -> t > 0 | None -> false);
              let frames =
                Option.value ~default:[]
                  (Option.bind (Json.member "timeline" doc) Json.as_list)
              in
              Alcotest.(check bool) "timeline frames present" true
                (frames <> []))))

let () =
  Alcotest.run "ei_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "buckets" `Quick test_buckets;
          Alcotest.test_case "quantile: empty" `Quick test_quantile_empty;
          Alcotest.test_case "quantile: single sample" `Quick
            test_quantile_single;
          Alcotest.test_case "quantile: bucket boundaries" `Quick
            test_quantile_boundaries;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
          Alcotest.test_case "exemplar round-trip" `Quick
            test_exemplar_roundtrip;
          QCheck_alcotest.to_alcotest test_concurrent_merge;
        ] );
      ( "trace",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "chrome export" `Quick test_export_json;
          Alcotest.test_case "flow export" `Quick test_export_flow;
        ] );
      ( "timeline",
        [ QCheck_alcotest.to_alcotest test_timeline_deltas ] );
      ( "flight",
        [ Alcotest.test_case "trigger writes a dump" `Quick test_flight_trigger ] );
    ]
