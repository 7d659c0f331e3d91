(* Closed-loop load of the in-process workloads: one client domain
   submits a batch through [Serve.exec], waits for its outcomes, checks
   them, and submits the next.  One latency sample is one exec call. *)

module Serve = Ei_shard.Serve
module Shard = Ei_shard.Shard
module Wal = Ei_wal.Wal
module Table = Ei_storage.Table
module Index_ops = Ei_harness.Index_ops
module Samples = Stats.Samples

let windows = 10

type window = { dur_s : float; ops : int; lat : int array (* sorted ns *) }

let window_ops_s w = float_of_int w.ops /. w.dur_s

(* Throughput is the median over the windows; latency quantiles pool the
   windows' exec samples. *)
let throughput ws = Stats.median (List.map window_ops_s ws)

let pooled ws =
  let a = Array.concat (List.map (fun w -> w.lat) ws) in
  Array.sort Int.compare a;
  a

let quantile_us lat q = float_of_int (Stats.quantile_sorted lat q) /. 1e3

let speed ws =
  let lat = pooled ws in
  [
    ("throughput_ops_s", throughput ws);
    ("p50_us", quantile_us lat 0.5);
    ("p99_us", quantile_us lat 0.99);
  ]

(* Where the durable workload keeps its log: inside the working
   directory, removed at exit. *)
let scratch_dir = ".ei_bench"

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec tree_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left
      (fun a e -> a + tree_bytes (Filename.concat path e))
      0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0

let ensure_scratch () =
  if not (Sys.file_exists scratch_dir) then Unix.mkdir scratch_dir 0o755

(* Remove [path], then the scratch directory if nothing else uses it. *)
let release path =
  remove_tree path;
  try Unix.rmdir scratch_dir
  with Unix.Unix_error ((Unix.ENOTEMPTY | Unix.EEXIST | Unix.ENOENT), _, _) -> ()

(* After [Serve.stop]: recover every shard's log into a fresh part over
   a fresh row table.  Each restored (tid, key) must be the live table's
   row, and each recovered part must fingerprint like the live one. *)
let check_recovery (f : Fleet.t) cfg =
  let t0 = Clock.now_ns () in
  let recovered =
    Array.init Fleet.shards (fun i ->
        let table = Table.create ~key_len:Fleet.key_len () in
        let part = f.Fleet.mk_part ~table i in
        let restore ~tid ~key =
          Verdict.check
            (tid < Table.length f.Fleet.table
            && String.equal (Table.key f.Fleet.table tid) key)
            "recovered row %d does not match the table" tid;
          Table.restore_row table ~tid ~key
        in
        let w, _ = Wal.recover ~restore cfg ~shard:i ~part in
        Wal.close w;
        part)
  in
  let recover_s = Clock.seconds_since t0 in
  Array.iteri
    (fun i part ->
      Verdict.check
        (Int.equal (Index_ops.fingerprint part)
           (Index_ops.fingerprint (Shard.parts f.Fleet.router).(i)))
        "shard %d: recovered fingerprint differs from the live one" i)
    recovered;
  recover_s

let run (spec : Workloads.spec) ~records ~seed ~seconds ~traced ~trace_out =
  let wal_dir =
    if spec.Workloads.durable then begin
      ensure_scratch ();
      Some (Filename.concat scratch_dir (Printf.sprintf "wal-%d" (Unix.getpid ())))
    end
    else None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter release wal_dir)
    (fun () ->
      let f, setup_s, setup_samples =
        Fleet.start_timed ~records ~traced ?wal_dir ()
      in
      let gen = spec.make f (Ei_util.Rng.create seed) ~records ~batch:spec.batch in
      let tr = if traced then Some (Traced.create f) else None in
      let attempted = ref 0 and failed = ref 0 and scan_ops = ref 0 in
      let step lat =
        let ops = gen.Workloads.next () in
        let t0 = Clock.now_ns () in
        let id = Spans.exec_begin () in
        let outs = Serve.exec f.Fleet.serve ops in
        let t1 = Clock.now_ns () in
        Spans.exec_end id ~start:t0 ~stop:t1 ~ops:(Array.length ops);
        Option.iter (fun l -> Samples.add l (t1 - t0)) lat;
        gen.Workloads.check ops outs;
        attempted := !attempted + Array.length ops;
        Array.iter
          (function Serve.Applied _ -> () | Serve.Rejected | Serve.Timed_out -> incr failed)
          outs;
        if Spans.enabled () then
          Array.iter (function Serve.Scan _ -> incr scan_ops | _ -> ()) ops;
        Option.iter Traced.poll tr;
        Array.length ops
      in
      let run_for s lat =
        let stop = Clock.now_ns () + Clock.ns_of_s s in
        let n = ref 0 in
        let t0 = Clock.now_ns () in
        while Clock.now_ns () < stop do
          n := !n + step lat
        done;
        (Clock.seconds_since t0, !n)
      in
      ignore (run_for (Float.min 2.0 (0.2 *. seconds)) None);
      let ops_on = ref 0 in
      let wins =
        Array.init windows (fun w ->
            let on = traced && w mod 2 = 1 in
            Option.iter (fun t -> if on then Traced.set t true) tr;
            let lat = Samples.create () in
            let dur_s, ops = run_for (seconds /. float_of_int windows) (Some lat) in
            Option.iter (fun t -> if on then Traced.set t false) tr;
            if on then ops_on := !ops_on + ops;
            { dur_s; ops; lat = Samples.sorted lat })
      in
      let peak_heap_mb = Fleet.peak_heap_mb () in
      let agg = Fleet.aggregate_bytes f in
      let live = gen.Workloads.live () in
      let bound_ratio = float_of_int agg /. float_of_int f.Fleet.global_bound in
      Verdict.check (Float.compare bound_ratio 1.1 <= 0)
        "aggregate %d B is %.3f x the global bound" agg bound_ratio;
      Serve.stop f.Fleet.serve;
      Verdict.check (Int.equal (Serve.recoveries f.Fleet.serve) 0)
        "%d shard recoveries in a fault-free run" (Serve.recoveries f.Fleet.serve);
      let count = Shard.count f.Fleet.router in
      Verdict.check (Int.equal count live) "fleet holds %d keys, expected %d" count live;
      let live_heap_mb = Fleet.live_heap_mb () in
      let wal_extra =
        match f.Fleet.wal with
        | None -> []
        | Some cfg ->
          let disk = tree_bytes cfg.Wal.dir in
          let recover_s = check_recovery f cfg in
          let logged = records + gen.Workloads.mutations () in
          [
            ("wal.recover_s", recover_s);
            ("wal.bytes_per_user_byte", float_of_int disk /. (16. *. float_of_int logged));
          ]
      in
      let all = Array.to_list wins in
      let untraced = List.filteri (fun i _ -> not traced || i mod 2 = 0) all in
      let graded =
        match tr with
        | None ->
          [
            ("setup_s", setup_s);
            ("bytes_per_key", float_of_int agg /. float_of_int live);
            ("bound_ratio", bound_ratio);
            ("live_heap_mb", live_heap_mb);
          ]
        | Some t ->
          let traced_wins = List.filteri (fun i _ -> i mod 2 = 1) all in
          let overhead = 1. -. (throughput traced_wins /. throughput untraced) in
          Traced.complete
            ((("trace.overhead_frac", overhead) :: ("peak_heap_mb", peak_heap_mb)
              :: speed untraced)
            @ wal_extra
            @ (match f.Fleet.wal with Some _ -> Traced.wal_layers t | None -> [])
            @ Traced.layers t ~ops:!ops_on ~scan_ops:!scan_ops
                ~compact:(Fleet.compact_fractions f) ~trace_out ())
      in
      let lat = pooled untraced in
      {
        Report.workload = spec.name;
        attempted = !attempted;
        failed = !failed;
        graded;
        extra =
          (if traced then []
           else
             List.map
               (fun (n, v) -> (n, v, Report.unit_of n))
               (("peak_heap_mb", peak_heap_mb) :: speed untraced))
          @ [
              ("p999_us", quantile_us lat 0.999, "us");
              ("samples", float_of_int (Array.length lat), "count");
              ("records", float_of_int records, "count");
              ("live_keys", float_of_int live, "count");
              ("failed_frac", float_of_int !failed /. float_of_int (Int.max 1 !attempted), "frac");
            ]
          @ List.mapi (fun i s -> (Printf.sprintf "setup_s.%d" i, s, "s")) setup_samples
          @ List.mapi
              (fun i w -> (Printf.sprintf "window%d.ops_s" i, window_ops_s w, "ops/s"))
              all;
      })
