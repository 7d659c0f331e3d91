(* net-open: the fleet behind [Ei_net.Server] in a child process (this
   executable re-executed, so no fork happens while domains are alive),
   driven over a unix socket by an open-loop generator of two
   connections on two domains.  Each request is timed from the instant
   the schedule made it due, so a stall delays every later request's
   sample instead of slowing the arrivals down.

   Parent and child talk over the child's stdin/stdout, one line per
   message: the child reports "ready" with its set-up time, takes
   "on"/"off" (traced sub-windows) and "stop", and answers "stop" with
   its final state as one JSON object. *)

module Serve = Ei_shard.Serve
module Shard = Ei_shard.Shard
module Server = Ei_net.Server
module Wire = Ei_net.Wire
module Conn = Ei_net.Conn
module Metrics = Ei_obs.Metrics
module Ycsb = Ei_workload.Ycsb
module Rng = Ei_util.Rng
module J = Ei_util.Mini_json

let records_default = 500_000
let conns = 2
(* The ladder stops where this 2-core box still answers every request:
   at 40k req/s the server sheds Busy replies in a third of the runs, and
   a workload whose operations fail cannot tell a change that sheds more
   from noise. *)
let rungs = [ 5_000.; 10_000.; 20_000. ]
let report_rung = 10_000.
let slo_p99_us = 10_000.
let slo_failed = 0.001

(* --- Line I/O over raw descriptors (select-friendly, no buffering
   beyond one partial line). ---------------------------------------- *)

type lines = { fd : Unix.file_descr; mutable acc : string }
type read = Line of string | Timeout | Eof

let read_line l ~timeout_s =
  let deadline = Clock.now_ns () + Clock.ns_of_s timeout_s in
  let buf = Bytes.create 4096 in
  let rec go () =
    match String.index_opt l.acc '\n' with
    | Some i ->
      let line = String.sub l.acc 0 i in
      l.acc <- String.sub l.acc (i + 1) (String.length l.acc - i - 1);
      Line line
    | None -> (
      let left = float_of_int (deadline - Clock.now_ns ()) *. 1e-9 in
      if Float.compare left 0. <= 0 then Timeout
      else
        match Unix.select [ l.fd ] [] [] left with
        | [], _, _ -> go ()
        | _ -> (
          match Unix.read l.fd buf 0 (Bytes.length buf) with
          | 0 -> Eof
          | n ->
            l.acc <- l.acc ^ Bytes.sub_string buf 0 n;
            go ()))
  in
  go ()

let write_line fd s =
  let s = s ^ "\n" in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    i := !i + Unix.write_substring fd s !i (n - !i)
  done

let print_json j =
  print_string (J.to_string j);
  print_newline ()

(* --- Server child ------------------------------------------------------ *)

(* The [serve.request] spans of the program's own trace ring are the
   exec spans here (the server, not the benchmark, calls
   [Serve.exec]).  That ring is stamped with the wall clock; shift it
   onto the monotonic clock the index spans use. *)
let ring_execs () =
  let rec find_kind id =
    if id > 4096 then -1
    else if String.equal (fst (Ei_obs.Trace.kind_info id)) "serve.request" then id
    else find_kind (id + 1)
  in
  let kind = find_kind 0 in
  let offset = Ei_util.Bench_clock.now_ns () - Clock.now_ns () in
  Ei_obs.Trace.fold_events_ctx
    (fun acc ~domain:_ ~ts ~id ~a ~b:_ ~trace ~span:_ ~parent:_ ->
      if Int.equal id kind && trace <> 0 then (trace, ts - offset, a) :: acc else acc)
    []

let child_main ~records ~traced ~socket ~trace_out =
  let f, setup_s, samples = Fleet.start_timed ~records ~traced () in
  (* Collect the set-ups' garbage now rather than in the first rung. *)
  Gc.full_major ();
  let server =
    Server.start ~serve:f.Fleet.serve ~table:f.Fleet.table (Unix.ADDR_UNIX socket)
  in
  let tr = if traced then Some (Traced.create f) else None in
  print_json
    (J.Obj
       [
         ("ready", J.Bool true);
         ("setup_s", J.Float setup_s);
         ("setup_samples", J.List (List.map (fun s -> J.Float s) samples));
       ]);
  let input = { fd = Unix.stdin; acc = "" } in
  let rec serve_commands () =
    match read_line input ~timeout_s:0.005 with
    | Line "on" ->
      Option.iter (fun t -> Traced.set t true) tr;
      serve_commands ()
    | Line "off" ->
      Option.iter (fun t -> Traced.set t false) tr;
      serve_commands ()
    | Line "stop" -> ()
    | Line other -> Verdict.fail "server child: unknown command %S" other
    | Eof -> Verdict.fail "server child: parent went away"
    | Timeout ->
      Option.iter Traced.poll tr;
      serve_commands ()
  in
  serve_commands ();
  let agg = Fleet.aggregate_bytes f in
  let peak = Fleet.peak_heap_mb () in
  Server.stop server;
  Serve.stop f.Fleet.serve;
  let live_heap = Fleet.live_heap_mb () in
  let layers =
    match tr with
    | None -> []
    | Some t ->
      let requests = Traced.counter "net.requests" in
      let rounds = Metrics.histogram_count (Metrics.histogram "net.batch_ns") in
      [
        ("net.requests_per_round", Traced.ratio requests (float_of_int rounds));
        ("net.server_request_p50_us", Traced.hist_p50_us "net.request_ns");
        ("net.shed_frac", Traced.ratio (Traced.counter "net.shed") requests);
      ]
      @ Traced.layers t ~ops:(int_of_float requests) ~scan_ops:0 ~execs:(ring_execs ())
          ~n_exec:rounds ~compact:(Fleet.compact_fractions f) ~trace_out ()
  in
  print_json
    (J.Obj
       [
         ("aggregate_bytes", J.Int agg);
         ("global_bound", J.Int f.Fleet.global_bound);
         ("count", J.Int (Shard.count f.Fleet.router));
         ("recoveries", J.Int (Serve.recoveries f.Fleet.serve));
         ("peak_heap_mb", J.Float peak);
         ("live_heap_mb", J.Float live_heap);
         ("violations", J.Int (Atomic.get Verdict.violations));
         ("layers", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) layers));
       ])

(* --- Open-loop generator ---------------------------------------------- *)

type phase = { rate : float; dur_s : float; on : bool }

(* Per-connection request log, indexed by request id. *)
type log = {
  sched : int array;  (* due instant, ns *)
  sent : int array;
  recv : int array;
  phase : int array;
  expect : int array;  (* tid a Find must return; -1 for an Insert *)
  status : int array;  (* 0 pending, 1 applied, 2 rejected, 3 timed out, 4 busy *)
  mutable inserts_applied : int;
}

let st_applied = 1

(* Due instants of connection [c]'s requests and their phase: each
   connection carries 1/[conns] of the rate, the connections offset by
   a fraction of the interval so the aggregate arrivals are evenly
   spaced. *)
let schedule ~t0 ~c phases =
  let due = ref [] and off = ref t0 in
  List.iteri
    (fun p ph ->
      let per_conn = ph.rate /. float_of_int conns in
      let n = int_of_float (per_conn *. ph.dur_s) in
      let interval = 1e9 /. per_conn in
      let shift = float_of_int c *. interval /. float_of_int conns in
      for j = 0 to n - 1 do
        due := (!off + int_of_float (shift +. (float_of_int j *. interval)), p) :: !due
      done;
      off := !off + Clock.ns_of_s ph.dur_s)
    phases;
  Array.of_list (List.rev !due)

let drive_conn ~addr ~records ~seed ~c ~due ~end_ns =
  let n = Array.length due in
  let log =
    {
      sched = Array.map fst due;
      sent = Array.make n 0;
      recv = Array.make n 0;
      phase = Array.map snd due;
      expect = Array.make n 0;
      status = Array.make n 0;
      inserts_applied = 0;
    }
  in
  let rng = Rng.stream seed (c + 1) in
  let inserts = ref 0 in
  let op j =
    if Rng.int rng 10 = 0 then begin
      (* fresh keys, disjoint per connection *)
      let seq = records + (conns * !inserts) + c in
      incr inserts;
      log.expect.(j) <- -1;
      Wire.Insert (Ycsb.key_of_seq seq)
    end
    else begin
      let s = Rng.int rng records in
      log.expect.(j) <- s;
      Wire.Find (Ycsb.key_of_seq s)
    end
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  Unix.set_nonblock fd;
  let reader = Conn.reader ~decode:Wire.decode_reply in
  let out = Buffer.create 65536 and out_pos = ref 0 in
  let buf = Bytes.create 65536 in
  let next = ref 0 and replied = ref 0 in
  let absorb (r : Wire.reply) =
    let now = Clock.now_ns () in
    let j = r.Wire.rid in
    if j < 0 || j >= !next || log.status.(j) <> 0 then
      Verdict.fail "connection %d: reply for unsent or answered id %d" c j
    else begin
      incr replied;
      log.recv.(j) <- now;
      log.status.(j) <-
        (match r.Wire.status with
        | Wire.Applied v ->
          let e = log.expect.(j) in
          if e >= 0 then
            Verdict.check (Int.equal v e) "find of key #%d returned tid %d" e v
          else begin
            Verdict.check (Int.equal v 1) "insert returned %d" v;
            log.inserts_applied <- log.inserts_applied + 1
          end;
          st_applied
        | Wire.Rejected -> 2
        | Wire.Timed_out -> 3
        | Wire.Busy -> 4)
    end
  in
  let flush () =
    let len = Buffer.length out - !out_pos in
    if len > 0 then begin
      match Unix.write_substring fd (Buffer.sub out !out_pos len) 0 len with
      | w ->
        out_pos := !out_pos + w;
        if !out_pos = Buffer.length out then begin
          Buffer.clear out;
          out_pos := 0
        end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    end
  in
  let eof = ref false in
  while !replied < n && (not !eof) && (Clock.now_ns () : int) < end_ns do
    let now = Clock.now_ns () in
    while !next < n && log.sched.(!next) <= now do
      let j = !next in
      Wire.encode_request_into out { Wire.id = j; op = op j };
      log.sent.(j) <- now;
      incr next
    done;
    flush ();
    let pending = Buffer.length out > !out_pos in
    let timeout =
      if !next < n then
        Float.max 0. (Float.min 0.001 (float_of_int (log.sched.(!next) - now) *. 1e-9))
      else 0.01
    in
    match Unix.select [ fd ] (if pending then [ fd ] else []) [] timeout with
    | _ :: _, _, _ -> (
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> eof := true
      | k -> (
        match Conn.feed reader (Bytes.sub_string buf 0 k) with
        | Ok replies -> List.iter absorb replies
        | Error msg ->
          Verdict.fail "connection %d: corrupt reply stream: %s" c msg;
          eof := true)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
    | _ -> ()
  done;
  Unix.close fd;
  Verdict.check (Int.equal !replied n) "connection %d: %d of %d requests unanswered" c
    (n - !replied) n;
  log

(* Latency samples (ns from due instant to reply) of one phase; a
   request that failed counts as slower than any that succeeded. *)
let phase_latencies logs p =
  let s = Stats.Samples.create () in
  List.iter
    (fun l ->
      Array.iteri
        (fun j ph ->
          if Int.equal ph p then
            Stats.Samples.add s
              (if Int.equal l.status.(j) st_applied then l.recv.(j) - l.sched.(j)
               else max_int))
        l.phase)
    logs;
  Stats.Samples.sorted s

type rung_stats = {
  offered : float;
  achieved : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  requests : int;
  failed : int;
  lag_s : float;  (* how late the last request of the phase went out *)
}

let rung_stats logs ~t_start p (ph : phase) =
  let lat = phase_latencies logs p in
  let us q = float_of_int (Stats.quantile_sorted lat q) /. 1e3 in
  let applied = ref 0 and failed = ref 0 and last_recv = ref t_start in
  let lag = ref 0 in
  List.iter
    (fun l ->
      let last = ref (-1) in
      Array.iteri
        (fun j ph ->
          if Int.equal ph p then begin
            last := j;
            if Int.equal l.status.(j) st_applied then incr applied else incr failed;
            last_recv := Int.max !last_recv l.recv.(j)
          end)
        l.phase;
      if !last >= 0 then lag := Int.max !lag (l.sent.(!last) - l.sched.(!last)))
    logs;
  {
    offered = ph.rate;
    achieved =
      float_of_int !applied /. Float.max 1e-9 (float_of_int (!last_recv - t_start) *. 1e-9);
    p50_us = us 0.5;
    p99_us = us 0.99;
    p999_us = us 0.999;
    requests = Array.length lat;
    failed = !failed;
    lag_s = float_of_int !lag *. 1e-9;
  }

let meets_slo r =
  Float.compare r.p99_us slo_p99_us <= 0
  && Float.compare (float_of_int r.failed) (slo_failed *. float_of_int (Int.max 1 r.requests)) <= 0
  && Float.compare r.achieved (0.99 *. r.offered) >= 0

let field j name = Option.value ~default:J.Null (J.member name j)
let num j name = Option.value ~default:Float.nan (J.as_float (field j name))

let run ~records ~seed ~seconds ~traced ~trace_out =
  Inproc.ensure_scratch ();
  let socket =
    Filename.concat Inproc.scratch_dir (Printf.sprintf "net-%d.sock" (Unix.getpid ()))
  in
  let to_child_r, to_child_w = Unix.pipe ~cloexec:true () in
  let from_child_r, from_child_w = Unix.pipe ~cloexec:true () in
  let args =
    [ Sys.executable_name; "--serve-child"; "--records"; string_of_int records;
      "--socket"; socket; "--trace"; (if traced then "1" else "0") ]
    @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
  in
  flush stdout;
  flush stderr;
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) to_child_r
      from_child_w Unix.stderr
  in
  Unix.close to_child_r;
  Unix.close from_child_w;
  let reaped = ref false in
  let reap () =
    if not !reaped then begin
      reaped := true;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Verdict.fail "server child exited abnormally"
    end
  in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
        reaped := true;
        ignore (Unix.waitpid [] pid)
      end;
      Unix.close to_child_w;
      Unix.close from_child_r;
      Inproc.release socket)
    (fun () ->
      let lines = { fd = from_child_r; acc = "" } in
      let read_json what =
        match read_line lines ~timeout_s:150. with
        | Timeout | Eof -> failwith ("server child did not send its " ^ what)
        | Line l -> (
          match J.parse l with
          | Ok j -> j
          | Error e -> failwith (Printf.sprintf "server child %s: %s" what e))
      in
      let ready = read_json "ready line" in
      let warm = { rate = List.hd rungs; dur_s = Float.min 2.0 (0.2 *. seconds); on = false } in
      let phases =
        warm
        :: (if traced then
              List.init 6 (fun w ->
                  { rate = report_rung; dur_s = seconds /. 6.; on = w mod 2 = 1 })
            else
              List.map (fun rate -> { rate; dur_s = seconds /. 3.; on = false }) rungs)
      in
      (* Leave the server time to accept both connections and spawn their
         handler domains before the first request is due. *)
      let t0 = Clock.now_ns () + 200_000_000 in
      let total_ns = List.fold_left (fun a p -> a + Clock.ns_of_s p.dur_s) 0 phases in
      let end_ns = t0 + total_ns + Clock.ns_of_s 30. in
      let addr = Unix.ADDR_UNIX socket in
      let gens =
        List.init conns (fun c ->
            let due = schedule ~t0 ~c phases in
            Domain.spawn (fun () -> drive_conn ~addr ~records ~seed ~c ~due ~end_ns))
      in
      (* Traced sub-window switches, at the phase boundaries. *)
      let starts =
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) p -> (at + Clock.ns_of_s p.dur_s, at :: acc))
                (t0, []) phases))
      in
      if traced then
        List.iteri
          (fun i p ->
            let prev_on = i > 0 && (List.nth phases (i - 1)).on in
            if not (Bool.equal p.on prev_on) then begin
              let at = List.nth starts i in
              let wait = float_of_int (at - Clock.now_ns ()) *. 1e-9 in
              if Float.compare wait 0. > 0 then Unix.sleepf wait;
              write_line to_child_w (if p.on then "on" else "off")
            end)
          phases;
      let logs = List.map Domain.join gens in
      if traced && (List.nth phases (List.length phases - 1)).on then
        write_line to_child_w "off";
      write_line to_child_w "stop";
      let fin = read_json "final state" in
      reap ();
      let stats =
        List.mapi (fun p ph -> rung_stats logs ~t_start:(List.nth starts p) p ph) phases
      in
      let measured = List.tl stats in
      let attempted = List.fold_left (fun a l -> a + Array.length l.sched) 0 logs in
      let failed =
        List.fold_left
          (fun a l -> a + Array.fold_left (fun a s -> if Int.equal s st_applied then a else a + 1) 0 l.status)
          0 logs
      in
      let inserted = List.fold_left (fun a l -> a + l.inserts_applied) 0 logs in
      let live = records + inserted in
      let count = int_of_float (num fin "count") in
      Verdict.check (Int.equal count live) "fleet holds %d keys, expected %d" count live;
      Verdict.check (Float.equal (num fin "recoveries") 0.) "shard recoveries in a fault-free run";
      Verdict.check (Float.equal (num fin "violations") 0.) "the server child's checks failed";
      let agg = num fin "aggregate_bytes" and gb = num fin "global_bound" in
      let bound_ratio = agg /. gb in
      Verdict.check (Float.compare bound_ratio 1.1 <= 0) "aggregate is %.3f x the global bound" bound_ratio;
      let lag = List.fold_left (fun a r -> Float.max a r.lag_s) 0. measured in
      (* An open loop that falls behind its schedule offers less load than
         it claims: such a run is invalid. *)
      let schedule_s = List.fold_left (fun a p -> a +. p.dur_s) 0. (List.tl phases) in
      Verdict.check (Float.compare lag (0.01 *. schedule_s) <= 0)
        "generator ran %.4f s behind its schedule (run invalid)" lag;
      let med sel rs = Stats.median (List.map sel rs) in
      let speed rs =
        [
          ("throughput_ops_s", med (fun r -> r.achieved) rs);
          ("p50_us", med (fun r -> r.p50_us) rs);
          ("p99_us", med (fun r -> r.p99_us) rs);
        ]
      in
      let graded =
        if traced then begin
          let ph = List.tl phases in
          let sel flag = List.filteri (fun i _ -> Bool.equal (List.nth ph i).on flag) measured in
          let layers =
            match field fin "layers" with
            | J.Obj l -> List.map (fun (n, v) -> (n, Option.value ~default:0. (J.as_float v))) l
            | _ -> []
          in
          let server_p50 = Option.value ~default:0. (List.assoc_opt "net.server_request_p50_us" layers) in
          let p50 flag = med (fun r -> r.p50_us) (sel flag) in
          (* The open loop fixes throughput, so tracing's cost shows as
             latency: the traced sub-windows' p50 against the others'. *)
          Traced.complete
            ([
               ("trace.overhead_frac", 1. -. (p50 false /. p50 true));
               ("net.wire_self_us", p50 true -. server_p50);
               ("net.gen_lag_s", lag);
               ("peak_heap_mb", num fin "peak_heap_mb");
             ]
            @ speed (sel false)
            @ layers)
        end
        else
          [
            ("setup_s", num ready "setup_s");
            ("bytes_per_key", agg /. float_of_int live);
            ("bound_ratio", bound_ratio);
            ("live_heap_mb", num fin "live_heap_mb");
          ]
      in
      let slo =
        List.fold_left (fun a r -> if meets_slo r then Float.max a r.offered else a) 0. measured
      in
      let per_rung =
        List.concat_map
          (fun r ->
            let k = Printf.sprintf "rung%.0f." r.offered in
            [
              (k ^ "achieved_ops_s", r.achieved, "ops/s");
              (k ^ "p50_us", r.p50_us, "us");
              (k ^ "p99_us", r.p99_us, "us");
              (k ^ "p999_us", r.p999_us, "us");
              (k ^ "samples", float_of_int r.requests, "count");
              (k ^ "failed", float_of_int r.failed, "count");
            ])
          measured
      in
      let report = List.filter (fun r -> Float.equal r.offered report_rung) measured in
      {
        Report.workload = "net-open";
        attempted;
        failed;
        graded;
        extra =
          (if traced then []
           else
             List.map
               (fun (n, v) -> (n, v, Report.unit_of n))
               (("peak_heap_mb", num fin "peak_heap_mb") :: speed report)
             @ [ ("p999_us", med (fun r -> r.p999_us) report, "us");
                 ("slo_rate_ops_s", slo, "ops/s") ]
             @ per_rung)
          @ [
              ("failed_frac", float_of_int failed /. float_of_int (Int.max 1 attempted), "frac");
              ("gen_lag_s", lag, "s");
              ("records", float_of_int records, "count");
              ("live_keys", float_of_int live, "count");
            ];
      })
