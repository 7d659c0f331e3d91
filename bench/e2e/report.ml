(* Metric names, units and output.  These lists are the single source of
   the names [BENCHMARK.json] declares; the smoke test checks that every
   name there is emitted. *)

module J = Ei_util.Mini_json

let end_to_end =
  [
    ("setup_s", "s");
    ("bytes_per_key", "B/key");
    ("bound_ratio", "ratio");
    ("live_heap_mb", "MB");
  ]

(* Metrics of the traced run: first the speed metrics, measured in its
   untraced sub-windows, and the peak heap (their run-to-run spread on a
   shared host is too wide for a regression bound, see README.md), then
   the layers.  A
   layer a workload does not exercise reads 0 (no WAL outside
   churn-wal, no wire outside net-open, no scans on read-dram ...). *)
let per_layer =
  [
    ("throughput_ops_s", "ops/s");
    ("p50_us", "us");
    ("p99_us", "us");
    ("peak_heap_mb", "MB");
    ("serve.exec_us", "us/exec");
    ("serve.exec_self_us", "us/exec");
    ("serve.exec_child_us", "us/exec");
    ("serve.sub_batches_per_exec", "sub/exec");
    ("serve.shard_busy_frac", "frac");
    ("serve.rebalances_per_s", "1/s");
    ("serve.set_bound_calls", "count");
    ("olc.multi_find_ns_per_key", "ns/key");
    ("olc.multi_find_keys_per_call", "keys/call");
    ("olc.insert_ns", "ns/call");
    ("olc.remove_ns", "ns/call");
    ("olc.conversions", "count");
    ("olc.scan_ns_per_entry", "ns/entry");
    ("olc.scan_calls_per_scan_op", "calls/op");
    ("olc.compact_leaf_frac", "frac");
    ("olc.compact_key_frac", "frac");
    ("table.loads_per_point_op", "loads/op");
    ("table.loads_per_scanned_entry", "loads/entry");
    ("wal.bytes_per_user_byte", "B/B");
    ("wal.records_per_commit", "records/commit");
    ("wal.fsyncs_per_s", "1/s");
    ("wal.fsync_p50_us", "us/fsync");
    ("wal.recover_s", "s/recovery");
    ("net.requests_per_round", "req/round");
    ("net.server_request_p50_us", "us/request");
    ("net.wire_self_us", "us/request");
    ("net.shed_frac", "frac");
    ("net.gen_lag_s", "s/rung");
    ("gc.minor_words_per_op", "words/op");
    ("gc.promoted_words_per_op", "words/op");
    ("gc.stw_frac", "frac");
    ("gc.domains", "count");
    ("trace.overhead_frac", "frac");
  ]

type result = {
  workload : string;
  attempted : int;
  failed : int;
  graded : (string * float) list;
      (** the [end_to_end] or [per_layer] metrics, by name *)
  extra : (string * float * string) list;
      (** reported alongside: sample counts, workload-only metrics *)
}

let unit_of n =
  match List.assoc_opt n (end_to_end @ per_layer) with Some u -> u | None -> "count"

let line ~workload (name, value, unit) =
  print_endline
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str workload);
            ("metric", J.Str name);
            ("value", J.Float value);
            ("unit", J.Str unit);
          ]))

(* One JSON line per metric, then the summary object as the last line.
   [names] is [end_to_end] or [per_layer]; a name the run did not
   measure is a bug and fails the run. *)
let print ~names r =
  let value n =
    match List.assoc_opt n r.graded with
    | Some v when Float.is_finite v -> v
    | Some _ | None ->
      Verdict.fail "metric %s was not measured" n;
      0.
  in
  let graded = List.map (fun (n, u) -> (n, value n, u)) names in
  List.iter (line ~workload:r.workload) graded;
  List.iter (line ~workload:r.workload) r.extra;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (Verdict.ok ()));
            ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, v, u) ->
                     (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
                   graded) );
          ]))
