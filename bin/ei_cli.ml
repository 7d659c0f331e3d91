(* elastic-indexes command-line tool.

   Subcommands:
     ycsb   — run a YCSB workload against a chosen index
     ingest — ingest a synthetic IOTTA-like log trace through the
              MCAS-like store and query it (formerly [trace])
     volumes — print the Fig-1 style daily-volume model
     check  — churn an index with random mutations and run the deep
              invariant sanitizer ({!Ei_check.Check}) over it
     serve  — run a sharded elastic fleet ({!Ei_shard.Serve}) with the
              global memory coordinator under a YCSB-style load
     serve-net — serve a sharded fleet over the wire protocol
              ({!Ei_net.Server}) on a unix or TCP socket; SIGTERM drains
              gracefully (every in-flight request keeps its reply)
     bench-net — closed-/open-loop load generator against a running
              serve-net; prints p50/p99/p999 and appends a JSON-Lines row
     chaos  — deterministic fault-injection soak against the supervised,
              durable fleet; --wal-dir keeps the log, so the soak can
              also prove crash recovery (kill -9, restart, verify)
     wal    — inspect / verify / repair a durable shard's write-ahead
              log and checkpoint manifests
     stats  — run a YCSB workload with the ei_obs metrics registry on
              and print the exposition (Prometheus text or JSON)
     trace  — run a sharded YCSB workload with the ei_obs trace ring on,
              slash the global bound mid-churn, and dump a Chrome
              trace_events JSON (chrome://tracing / Perfetto)
     timeline — same fleet shape with the telemetry timeline on; dump
              the frame ring (op-mix deltas, gauges, windowed latency
              quantiles) as JSON-Lines
     top    — live per-shard telemetry view refreshed from the newest
              timeline frame (--once for a single CI-friendly render)
     analyze — run the ei_race static analyzer (concurrency discipline,
              exports without a caller) over the typedtrees (.cmt files)
     sim    — deterministic simulation testing ({!Ei_sim}): differential
              op tapes against a pure oracle, schedule exploration over
              the production yield points, perturbed chaos rounds; shrunk
              failures replay from .sim.json artifacts

   Examples:
     ei ycsb --index elastic --workload E --records 50000 --ops 100000
     ei ingest --index elastic --bound 50 --rows 200000
     ei volumes --days 90
     ei check --index elastic --bound 40 --ops 200000 --strict
     ei serve --shards 4 --records 100000 --ops 200000 --bound 60
     ei serve-net --shards 8 --socket /tmp/ei-net.sock
     ei bench-net --clients 4 --count 50000 --mode closed --window 64
     ei stats --index elastic --workload A --json
     ei trace --shards 2 --records 50000 --ops 100000 --out ei.trace.json
     ei timeline --shards 2 --out ei.timeline.jsonl
     ei top --shards 4 --interval 0.5
     ei chaos --scale 0.1 --wal-dir /tmp/ei-wal
     ei wal --dir /tmp/ei-wal --verify
     ei sim diff --a oracle --b olc-elastic --gen elastic --ops 40000
     ei sim sched --scenario olc-convert-scan --rounds 25 --seed 1
     ei sim --replay repro.sim.json *)

open Cmdliner

module Table = Ei_storage.Table
module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops
module Ycsb = Ei_workload.Ycsb
module Check = Ei_check.Check
module Iotta = Ei_workload.Iotta
module Clock = Ei_util.Bench_clock

(* --- shared index and bound arguments ------------------------------ *)

let index_arg =
  let doc =
    "Index to use: " ^ String.concat ", " Registry.names
    ^ " (N >= 32).  Elastic indexes are bounded by $(b,--bound)."
  in
  Arg.(value & opt string "elastic" & info [ "i"; "index" ] ~docv:"INDEX" ~doc)

let bound_arg =
  Arg.(value & opt int 60
       & info [ "bound" ] ~docv:"PCT"
           ~doc:"Soft memory bound as a percentage of the STX index's \
                 size for the load (27 B/key at 8-byte keys).  The \
                 fleet commands split it across shards; trace, timeline \
                 and top halve it mid-churn.")

(* The index named [name], elastic kinds bounded at [pct] percent of
   STX for [records] keys of [key_len] bytes; exits 2 on a bad name. *)
let kind_of_arg ~key_len ~records ~pct name =
  let bound = Ei_shard.Fleet.stx_bound ~key_len ~records ~pct in
  match Registry.kind_of_name ~bound name with
  | Ok kind -> kind
  | Error m -> prerr_endline m; exit 2

(* An empty index of [name] over a fresh row table of 8-byte keys. *)
let index_of_arg ~records ~pct name =
  let kind = kind_of_arg ~key_len:8 ~records ~pct name in
  let table = Table.create ~key_len:8 () in
  (table, Registry.make ~key_len:8 ~load:(Table.loader table) kind)

(* --- shared run flags -------------------------------------------------- *)

(* Exits 2 below one shard. *)
let shards_arg default =
  let at_least_one n =
    if n >= 1 then n else (prerr_endline "need at least one shard"; exit 2)
  in
  Term.(const at_least_one
        $ Arg.(value & opt int default & info [ "shards" ] ~doc:"Shard domains to spawn."))

let records_arg default =
  Arg.(value & opt int default & info [ "records" ] ~doc:"Records to load.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed for the workload.")

let wal_arg =
  Term.(const (Option.map (fun dir -> Ei_wal.Wal.default_config ~dir))
        $ Arg.(value & opt (some string) None
               & info [ "wal" ] ~docv:"DIR"
                   ~doc:"Write-ahead-log directory: shards run durable \
                         (group commit, fingerprinted checkpoints) and \
                         recover from DIR on start."))

(* --- ycsb ------------------------------------------------------------ *)

(* The YCSB run flags of [ycsb] and [stats], parsed. *)
let ycsb_workload_arg =
  let parse w =
    match Ycsb.workload_of_name w with
    | Some w -> w
    | None ->
      Printf.ksprintf failwith "unknown workload %s" (String.uppercase_ascii w)
  in
  Term.(const parse
        $ Arg.(value & opt string "A" & info [ "w"; "workload" ] ~docv:"A..F" ~doc:"YCSB workload."))

let ycsb_ops_arg =
  Arg.(value & opt int 100_000 & info [ "ops" ] ~doc:"Transactions to run.")

let dist_arg =
  Term.(const (fun z -> if z then Ycsb.Zipfian else Ycsb.Uniform)
        $ Arg.(value & flag & info [ "zipfian" ] ~doc:"Zipfian key distribution (default uniform)."))

let ycsb_cmd =
  let run index_name pct workload records ops dist =
    let table, index = index_of_arg ~records ~pct index_name in
    let runner = Ycsb.create ~index ~table ~record_count:records () in
    let (), load_dt = Clock.time (fun () -> Ycsb.load runner records) in
    Printf.printf "%-12s load  %8d recs  %6.2f Mops  %7.2f MiB %s\n"
      index.Index_ops.name records (Clock.mops records load_dt)
      (Clock.mib (index.Index_ops.memory_bytes ()))
      (index.Index_ops.info ());
    let (), dt =
      Clock.time (fun () -> ignore (Ycsb.run runner ~workload ~dist ~ops))
    in
    Printf.printf "%-12s txn-%s %8d ops   %6.2f Mops  %7.2f MiB %s\n"
      index.Index_ops.name
      (Ycsb.workload_name workload)
      ops (Clock.mops ops dt)
      (Clock.mib (index.Index_ops.memory_bytes ()))
      (index.Index_ops.info ())
  in
  let term =
    Term.(const run $ index_arg $ bound_arg $ ycsb_workload_arg
          $ records_arg 50_000 $ ycsb_ops_arg $ dist_arg)
  in
  Cmd.v (Cmd.info "ycsb" ~doc:"Run a YCSB workload against an index.") term

(* --- ingest ----------------------------------------------------------- *)

let ingest_cmd =
  let rows_arg =
    Arg.(value & opt int 200_000 & info [ "rows" ] ~doc:"Trace rows to ingest.")
  in
  let run index_name pct rows_n =
    let kind = kind_of_arg ~key_len:16 ~records:rows_n ~pct index_name in
    let rows = Iotta.generate ~rows:rows_n ~objects:(max 100 (rows_n / 10)) () in
    let store = Ei_mcas.Store.create () in
    let table = Ei_mcas.Log_table.create ~index_kind:kind () in
    Ei_mcas.Store.attach_ado store ~partition:0 (Ei_mcas.Log_table.ado table);
    let (), ingest_dt =
      Clock.time (fun () ->
          Array.iter
            (fun r ->
              ignore
                (Ei_mcas.Store.invoke store ~partition:0 (Ei_mcas.Ado.Ingest r)))
            rows)
    in
    Printf.printf "ingested %d rows in %.2f s (%.2f Mops)\n" rows_n ingest_dt
      (Clock.mops rows_n ingest_dt);
    Printf.printf "index %s: %.2f MiB (%.2fx the dataset) %s\n"
      (Ei_mcas.Log_table.index_name table)
      (Clock.mib (Ei_mcas.Log_table.index_memory_bytes table))
      (float_of_int (Ei_mcas.Log_table.index_memory_bytes table)
      /. float_of_int (Ei_mcas.Log_table.data_bytes table))
      (Ei_mcas.Log_table.index_info table);
    let rng = Ei_util.Rng.create 3 in
    let lookups = min 100_000 rows_n in
    let (), lkp_dt =
      Clock.time (fun () ->
          for _ = 1 to lookups do
            let r = rows.(Ei_util.Rng.int rng rows_n) in
            ignore
              (Ei_mcas.Store.invoke store ~partition:0
                 (Ei_mcas.Ado.Lookup (Iotta.key_of_row r)))
          done)
    in
    Printf.printf "%d lookups: %.2f Mops end-to-end\n" lookups
      (Clock.mops lookups lkp_dt)
  in
  let term = Term.(const run $ index_arg $ bound_arg $ rows_arg) in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:"Ingest a synthetic object-store log trace via the MCAS-like \
             store (formerly the trace subcommand; trace now dumps \
             Chrome traces).")
    term

(* --- check ------------------------------------------------------------- *)

let check_cmd =
  let ops_arg =
    Arg.(value & opt int 100_000 & info [ "ops" ] ~doc:"Random mutations to drive after the load.")
  in
  let every_arg =
    Arg.(value & opt int 10_000 & info [ "every" ] ~doc:"Mutations between periodic deep checks.")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Treat lazily-enforced compact-occupancy advisories as errors.")
  in
  let run index_name pct records ops every strict seed =
    let table, index = index_of_arg ~records ~pct index_name in
    let periodic = ref 0 in
    let bad = ref 0 in
    let on_report r =
      incr periodic;
      if not (Check.ok r) then begin
        incr bad;
        Format.printf "%a@." Check.pp_report r
      end
    in
    let wrapped = Check.wrap ~strict ~every:(max 1 every) ~on_report index in
    let rng = Ei_util.Rng.create seed in
    let pool =
      Array.init (max 16 records) (fun _ -> Ei_util.Key.random rng 8)
    in
    let tid_of = Ei_util.Strtbl.create 1024 in
    let tid_for k =
      match Ei_util.Strtbl.find_opt tid_of k with
      | Some tid -> tid
      | None ->
        let tid = Table.append table k in
        Ei_util.Strtbl.add tid_of k tid;
        tid
    in
    Array.iter (fun k -> ignore (wrapped.Index_ops.insert k (tid_for k))) pool;
    (* Mixed churn over a bounded key pool: inserts and removes fight
       so an elastic index crosses its size bound in both directions. *)
    for _ = 1 to ops do
      let k = pool.(Ei_util.Rng.int rng (Array.length pool)) in
      let c = Ei_util.Rng.int rng 100 in
      if c < 45 then ignore (wrapped.Index_ops.insert k (tid_for k))
      else if c < 80 then ignore (wrapped.Index_ops.remove k)
      else if c < 95 then ignore (wrapped.Index_ops.update k (tid_for k))
      else ignore (wrapped.Index_ops.scan_keys k 16 (fun _ _ -> ()))
    done;
    let final = Check.run ~strict index in
    Format.printf "%a@." Check.pp_report final;
    Format.printf "ei check: %s — %d periodic checks (%d with errors), final %s %s@."
      index.Index_ops.name !periodic !bad
      (if Check.ok final then "clean" else "CORRUPT")
      (index.Index_ops.info ());
    if !bad > 0 || not (Check.ok final) then exit 1
  in
  let term =
    Term.(const run $ index_arg $ bound_arg $ records_arg 20_000 $ ops_arg
          $ every_arg $ strict_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Churn an index with random mutations and run the deep invariant sanitizer.")
    term

(* --- serve -------------------------------------------------------------- *)

(* Run [f stop] with SIGTERM / SIGINT setting [stop] instead of killing
   the process, so the caller can drain at a batch boundary; the
   previous handlers come back afterwards. *)
let with_drain_signals f =
  let stop = Atomic.make false in
  let request _ = Atomic.set stop true in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle request) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle request) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int)
    (fun () -> f stop)

(* Load the YCSB keys of sequence numbers [0, records) into a fleet:
   append their rows to its table, then insert them in one [Fleet.run].
   Returns the tids (indexed by sequence number) and the shed count. *)
let preload ?stop (fleet : Ei_shard.Fleet.t) records =
  let tids =
    Array.init records (fun s ->
        Table.append fleet.Ei_shard.Fleet.table (Ycsb.key_of_seq s))
  in
  let inserts =
    Array.init records (fun s ->
        Ei_shard.Serve.Insert (Ycsb.key_of_seq s, tids.(s)))
  in
  (tids, Ei_shard.Fleet.run ?stop fleet inserts)

(* The fleet of [serve] and the observability commands: elastic
   BTreeOLC shards bounded at [pct] percent of STX for [records] keys,
   with the periodic coordinator passes when [coordinated].  Returns the fleet
   and its global bound. *)
let elastic_fleet ~coordinated ~shards ~records ~pct ?wal () =
  let module Fleet = Ei_shard.Fleet in
  let global_bound = Fleet.stx_bound ~key_len:8 ~records ~pct in
  let coordinator = Ei_shard.Serve.default_coordinator ~global_bound in
  ( Fleet.start ~shards
      ~part:(Fleet.part (Fleet.olc_elastic ~global_bound ~shards))
      ?coordinator:(if coordinated then Some coordinator else None)
      ?wal (),
    global_bound )

let serve_cmd =
  let module Shard = Ei_shard.Shard in
  let module Serve = Ei_shard.Serve in
  let module Fleet = Ei_shard.Fleet in
  let ops_arg =
    Arg.(value & opt int 200_000
         & info [ "ops" ] ~doc:"Read and churn operations per phase.")
  in
  let run shards records ops pct seed wal =
    let module Wal = Ei_wal.Wal in
    let fleet, global_bound =
      elastic_fleet ~coordinated:true ~shards ~records ~pct ?wal ()
    in
    let { Fleet.router; serve; _ } = fleet in
    (match Serve.wal_recoveries serve with
    | [] -> ()
    | boot ->
      List.iter
        (fun (i, r) ->
          Printf.printf
            "shard %d: recovered ckpt %d (%d entries) + %d replayed, \
             last lsn %d%s%s\n"
            i r.Wal.r_ckpt_seq r.Wal.r_ckpt_entries r.Wal.r_replayed
            r.Wal.r_last_lsn
            (if r.Wal.r_torn > 0 then ", torn tail truncated" else "")
            (if r.Wal.r_clean then ", clean shutdown" else ""))
        boot);
    (* Graceful shutdown: SIGTERM / SIGINT request a drain instead of
       killing the process mid-batch.  The workload loop stops at the
       next chunk boundary; [Serve.stop] then joins the domains and
       closes the WAL writers — final fsync plus the clean-shutdown
       marker — and the process exits 0.  Acknowledged ops are on disk;
       the next start recovers them without replay surprises. *)
    let interrupted =
      with_drain_signals @@ fun stop ->
      let (tids, load_shed), load_dt =
        Clock.time (fun () -> preload ~stop fleet records)
      in
      let shed = ref load_shed in
      let batched a = shed := !shed + Fleet.run ~stop fleet a in
      Printf.printf
        "%d shard domain(s), coordinated%s; global bound %.1f MiB\n" shards
        (if wal = None then "" else " + WAL")
        (Clock.mib global_bound);
      Printf.printf "load   %8d ops  %6.2f Mops\n" records
        (Clock.mops records load_dt);
      let rng = Ei_util.Rng.stream seed 0 in
      let (), read_dt =
        Clock.time (fun () ->
            batched
              (Array.init ops (fun _ ->
                   Serve.Find (Ycsb.key_of_seq (Ei_util.Rng.int rng records)))))
      in
      Printf.printf "read   %8d ops  %6.2f Mops\n" ops (Clock.mops ops read_dt);
      (* Churn: reads plus in-place updates (a tid of the same key). *)
      let (), churn_dt =
        Clock.time (fun () ->
            batched
              (Array.init ops (fun _ ->
                   let s = Ei_util.Rng.int rng records in
                   if Ei_util.Rng.int rng 2 = 0 then
                     Serve.Find (Ycsb.key_of_seq s)
                   else Serve.Update (Ycsb.key_of_seq s, tids.(s)))))
      in
      Printf.printf "churn  %8d ops  %6.2f Mops\n" ops
        (Clock.mops ops churn_dt);
      let sizes = Serve.shard_sizes serve in
      let agg = Array.fold_left ( + ) 0 sizes in
      Array.iteri
        (fun i b ->
          Printf.printf "shard %d: %7.2f MiB  %s\n" i (Clock.mib b)
            ((Shard.parts router).(i).Index_ops.info ()))
        sizes;
      Printf.printf
        "aggregate %.2f MiB / bound %.2f MiB (%.2fx), %d coordinator pass(es)\n"
        (Clock.mib agg) (Clock.mib global_bound)
        (float_of_int agg /. float_of_int global_bound)
        (Serve.rebalances serve);
      if !shed > 0 then
        Printf.printf "%d operation(s) shed (rejected or timed out)\n" !shed;
      Serve.stop serve;
      Atomic.get stop
    in
    if interrupted then begin
      Printf.printf
        "interrupted: drained in-flight batches and shut down cleanly%s\n"
        (if wal = None then ""
         else " (WAL fsynced, clean-shutdown marker written)");
      exit 0
    end
  in
  let term =
    Term.(const run $ shards_arg 4 $ records_arg 100_000 $ ops_arg $ bound_arg
          $ seed_arg $ wal_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run a sharded elastic fleet with the global memory coordinator.")
    term

(* --- serve-net / bench-net ---------------------------------------------- *)

(* Shared address selection: a TCP port wins over the unix socket path. *)
let net_addr ~socket ~port ~host =
  if port > 0 then Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
  else Unix.ADDR_UNIX socket

let net_addr_string = function
  | Unix.ADDR_UNIX p -> p
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

let net_socket_arg =
  Arg.(value & opt string "/tmp/ei-net.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket path (ignored when --port is given).")

let net_port_arg =
  Arg.(value & opt int 0
       & info [ "port" ] ~doc:"TCP port (0 = use the unix socket).")

let net_host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~doc:"Host address for --port.")

let serve_net_cmd =
  let module Olc = Ei_olc.Btree_olc in
  let module Serve = Ei_shard.Serve in
  let module Fleet = Ei_shard.Fleet in
  let module Server = Ei_net.Server in
  let module Metrics = Ei_obs.Metrics in
  let module Trace = Ei_obs.Trace in
  let window_arg =
    Arg.(value & opt int 256
         & info [ "window" ]
             ~doc:"Per-connection pipelining window: requests pipelined \
                   past it are shed with a typed Busy reply instead of \
                   buffered unboundedly.")
  in
  let timeout_arg =
    Arg.(value & opt float 5.0
         & info [ "timeout-s" ]
             ~doc:"Serve.exec deadline per round; expired slots reply \
                   Timed_out (0 = no deadline).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Enable the trace ring and dump Chrome trace_events \
                   JSON to FILE on shutdown.")
  in
  let run shards records socket port host window timeout_s wal trace_out =
    Metrics.set_enabled true;
    if trace_out <> None then Trace.set_enabled true;
    let fleet =
      Fleet.start ~shards ~part:(Fleet.part (Registry.Olc Olc.Olc_std)) ?wal ()
    in
    let { Fleet.table; serve; _ } = fleet in
    if records > 0 then ignore (preload fleet records);
    let config =
      {
        Server.default_config with
        window;
        exec_timeout_s =
          (if Float.compare timeout_s 0.0 <= 0 then None else Some timeout_s);
      }
    in
    let server =
      Server.start ~config ~serve ~table (net_addr ~socket ~port ~host)
    in
    Printf.printf
      "ei serve-net: %d shard(s)%s, window %d, %d record(s) preloaded, \
       listening on %s\n%!"
      shards
      (if wal = None then "" else " + WAL")
      window records
      (net_addr_string (Server.addr server));
    (* SIGTERM / SIGINT request a graceful drain: the listener closes,
       every live connection answers its already-decoded requests and
       flushes, then the fleet joins — no in-flight request loses its
       reply. *)
    with_drain_signals (fun stop ->
        while not (Atomic.get stop) do
          try Unix.sleepf 0.05
          with Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        Server.stop server;
        Serve.stop serve);
    (match trace_out with
    | Some out ->
      let n = Trace.events () in
      Trace.write_json out;
      Printf.printf "wrote %s: %d events\n" out n
    | None -> ());
    let requests, shed, proto = Server.stats () in
    Printf.printf "drained: %d request(s) served, %d shed, %d protocol error(s)\n"
      requests shed proto
  in
  let term =
    Term.(const run $ shards_arg 4 $ records_arg 0 $ net_socket_arg $ net_port_arg
          $ net_host_arg $ window_arg $ timeout_arg $ wal_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "serve-net"
       ~doc:"Serve a sharded fleet over the wire protocol (unix or TCP \
             socket); SIGTERM drains gracefully.")
    term

let bench_net_cmd =
  let module Client = Ei_net.Client in
  let module Wire = Ei_net.Wire in
  let module Key = Ei_util.Key in
  let clients_arg =
    Arg.(value & opt int 4
         & info [ "clients" ] ~doc:"Concurrent client connections.")
  in
  let count_arg =
    Arg.(value & opt int 50_000
         & info [ "count" ] ~doc:"Requests per client.")
  in
  let mode_arg =
    Arg.(value
         & opt (enum [ ("closed", `Closed); ("open", `Open) ]) `Closed
         & info [ "mode" ]
             ~doc:"Load shape: closed keeps --window requests pipelined \
                   per client; open sends on a fixed --rate schedule so \
                   queueing delay shows up in the measured latency.")
  in
  let window_arg =
    Arg.(value & opt int 64
         & info [ "window" ] ~doc:"Closed-loop pipelining window per client.")
  in
  let rate_arg =
    Arg.(value & opt float 50_000.0
         & info [ "rate" ] ~doc:"Open-loop request rate per client (req/s).")
  in
  let results_arg =
    Arg.(value & opt string "BENCH_results.json"
         & info [ "results" ] ~docv:"FILE"
             ~doc:"JSON-Lines results file to append the measurement to.")
  in
  let run socket port host clients count mode window rate results =
    if clients < 1 || count < 1 then begin
      prerr_endline "need at least one client and one request";
      exit 2
    end;
    let addr = net_addr ~socket ~port ~host in
    let mode_name = match mode with `Closed -> "closed" | `Open -> "open" in
    (* Each client inserts a disjoint key range, so applied counts are
       deterministic (no cross-client duplicate rejections). *)
    let worker j () =
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let op i = Wire.Insert (Key.of_int ((j * count) + i)) in
          match mode with
          | `Closed -> Client.run_closed c ~window ~count ~op
          | `Open -> Client.run_open c ~rate ~count ~op)
    in
    match
      List.map Domain.join
        (List.init clients (fun j -> Domain.spawn (worker j)))
    with
    | exception Client.Protocol msg ->
      Printf.eprintf "protocol error: %s\n" msg;
      exit 1
    | exception Unix.Unix_error (e, fn, _) ->
      Printf.eprintf "cannot reach server at %s: %s (%s)\n"
        (net_addr_string addr) (Unix.error_message e) fn;
      exit 1
    | per_client ->
      let s = Client.merge_stats per_client in
      let mops =
        float_of_int s.Client.sent /. Float.max 1e-9 s.Client.elapsed_s /. 1e6
      in
      let q p = Client.quantile s.Client.lat_ns p in
      let us ns = float_of_int ns /. 1e3 in
      Printf.printf
        "ei bench-net: %s loop, %d client(s) x %d req against %s\n"
        mode_name clients count
        (net_addr_string addr);
      Printf.printf
        "  %8d sent  %.2f Mops  (applied %d, rejected %d, timed-out %d, \
         busy %d)\n"
        s.Client.sent mops s.Client.applied s.Client.rejected
        s.Client.timed_out s.Client.busy;
      Printf.printf "  latency p50 %8.1f us   p99 %8.1f us   p999 %8.1f us\n"
        (us (q 0.5)) (us (q 0.99)) (us (q 0.999));
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 results in
      Printf.fprintf oc
        "{\"name\": \"net-cli\", \"params\": {\"mode\": \"%s\", \"clients\": \
         \"%d\", \"count\": \"%d\", \"%s\": \"%s\"}, \"ops_per_sec\": %.0f, \
         \"bytes\": 0, \"scale\": 1, \"seed\": 0, \"p50_ns\": %d, \
         \"p99_ns\": %d, \"p999_ns\": %d}\n"
        mode_name clients count
        (match mode with `Closed -> "window" | `Open -> "rate")
        (match mode with
        | `Closed -> string_of_int window
        | `Open -> Printf.sprintf "%.0f" rate)
        (mops *. 1e6) (q 0.5) (q 0.99) (q 0.999);
      close_out oc
  in
  let term =
    Term.(const run $ net_socket_arg $ net_port_arg $ net_host_arg
          $ clients_arg $ count_arg $ mode_arg $ window_arg $ rate_arg
          $ results_arg)
  in
  Cmd.v
    (Cmd.info "bench-net"
       ~doc:"Closed- or open-loop load generator against a running ei \
             serve-net; exits nonzero on any protocol violation.")
    term

(* --- chaos ------------------------------------------------------------- *)

let chaos_cmd =
  let module Chaos = Ei_chaos.Chaos in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ]
             ~doc:"Seed driving the workload and every fault stream; a \
                   failing run replays exactly from its seed.")
  in
  let scale_arg =
    Arg.(value & opt float 1.0
         & info [ "scale" ]
             ~doc:"Workload scale factor (1.0 = full soak; CI smoke uses 0.05).")
  in
  let plan_arg =
    Arg.(value & opt (some string) None
         & info [ "plan" ]
             ~doc:"Fault plan as site=prob,... (defaults to the built-in \
                   soak plan covering every fault kind, WAL crashes \
                   included).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress lines.")
  in
  let wal_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "wal-dir" ] ~docv:"DIR"
             ~doc:"Keep the shards' group-commit WAL under DIR (reset on \
                   entry, with an acknowledgement journal beside it) \
                   instead of a temporary directory removed at exit.  \
                   It only chooses the directory: the shards are durable \
                   and the restart check runs either way.")
  in
  let kill_at_arg =
    Arg.(value & opt int 0
         & info [ "kill-at" ] ~docv:"ROUND"
             ~doc:"SIGKILL the whole process mid-batch at this round \
                   (requires --wal-dir; expect exit 137), then prove \
                   recovery with --verify-only from a fresh process.")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify-only" ]
             ~doc:"Skip the soak: recover the shards left in --wal-dir \
                   by a previous (killed) run, reconcile them against \
                   the on-disk acknowledgement journal, deep-validate.")
  in
  let run seed scale shards plan quiet wal_dir kill_at verify_only =
    if (kill_at > 0 || verify_only) && wal_dir = None then begin
      prerr_endline "--kill-at and --verify-only require --wal-dir";
      exit 2
    end;
    match (verify_only, wal_dir) with
    | true, Some dir ->
      let v = Chaos.verify ~shards ~dir () in
      Format.printf "%a%!" Chaos.pp_verify v;
      if Chaos.verify_ok v then print_endline "chaos verify: OK"
      else begin
        print_endline "chaos verify: FAILED";
        exit 1
      end
    | _ ->
      let plan =
        match plan with
        | None -> Chaos.default_plan
        | Some spec -> (
          match Ei_fault.Fault.parse_plan spec with
          | Ok p -> p
          | Error e ->
            prerr_endline e;
            exit 2)
      in
      let cfg = Chaos.default_config ~seed in
      let cfg =
        {
          cfg with
          Chaos.scale;
          shards;
          plan;
          progress = (if quiet then None else Some print_endline);
          wal_dir;
          kill_at;
        }
      in
      (* Failure artifacts: trace ring on and flight recorder armed, so
         a quarantine or WAL commit failure mid-soak dumps the events
         (and fault draws) leading up to it as ei-*.flight.json. *)
      Ei_obs.Trace.set_enabled true;
      Ei_obs.Flight.arm ~dir:"." ();
      let report = Chaos.run cfg in
      Format.printf "%a%!" Chaos.pp_report report;
      if Chaos.ok report then begin
        Ei_obs.Flight.disarm ();
        print_endline "chaos soak: OK"
      end
      else begin
        (* Re-arm first: routine injected-crash quarantines may have
           spent the dump cap; the end-state artifact must still land. *)
        Ei_obs.Flight.arm ~dir:"." ();
        Ei_obs.Flight.trigger ~reason:"chaos-failed"
          ~detail:(Format.asprintf "%a" Chaos.pp_report report);
        Ei_obs.Flight.disarm ();
        print_endline "chaos soak: FAILED";
        (match Ei_obs.Flight.last_dump () with
        | Some p -> Printf.printf "flight dump: %s\n" p
        | None -> ());
        Printf.printf
          "reproduce with: ei chaos --seed %d --scale %g --shards %d%s\n" seed
          scale shards
          (match wal_dir with Some d -> " --wal-dir " ^ d | None -> "");
        exit 1
      end
  in
  let term =
    Term.(const run $ seed_arg $ scale_arg $ shards_arg 4 $ plan_arg $ quiet_arg
          $ wal_dir_arg $ kill_at_arg $ verify_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the deterministic chaos soak: seeded fault injection \
             against the supervised, durable shard fleet, with \
             shadow-model reconciliation, deep validation and a \
             recover-from-disk restart check.  With --wal-dir the log \
             outlives the run, so a soak can also prove crash recovery \
             (kill -9 via --kill-at, then --verify-only).")
    term

(* --- wal ---------------------------------------------------------------- *)

(* Read-only WAL forensics (plus one explicit repair): what an operator
   points at a durable shard's directory after a crash, before deciding
   to restart.  The listing rides on {!Ei_wal.Wal}'s total decoders;
   the verdict is {!Ei_wal.Wal.verify}, recovery's own walk run
   read-only, so this command holds no recoverability rule of its own. *)
let wal_cmd =
  let module Wal = Ei_wal.Wal in
  let dir_arg =
    Arg.(required & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"WAL root (the --wal value of ei serve / --wal-dir of ei \
                   chaos); each shard lives under DIR/shard<i>/.")
  in
  let shard_arg =
    Arg.(value & opt (some int) None
         & info [ "shard" ] ~docv:"N" ~doc:"Restrict to one shard.")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Exit non-zero unless every shard is recoverable: \
                   recovery's own checkpoint pick and LSN-prefix replay, \
                   run read-only (a torn tail of the newest segment is \
                   legal — recovery truncates it).")
  in
  let truncate_arg =
    Arg.(value & flag
         & info [ "truncate" ]
             ~doc:"Repair: cut each shard's torn tail where recovery \
                   would cut it.  A shard recovery refuses is left \
                   untouched and reported (exit 1).  The only mutating \
                   mode.")
  in
  let manifest_arg =
    Arg.(value & flag
         & info [ "manifest" ]
             ~doc:"Print each shard's newest parseable checkpoint manifest \
                   as JSON and nothing else.")
  in
  let run dir shard verify truncate manifest =
    let shards =
      match shard with Some i -> [ i ] | None -> Wal.shards ~dir
    in
    if shards = [] then begin
      Printf.eprintf "no shards under %s\n" dir;
      exit 2
    end;
    let bad = ref 0 in
    if truncate then begin
      List.iter
        (fun i ->
          Printf.printf "shard%d: %s\n" i
            (match Wal.truncate_torn ~dir ~shard:i with
            | Ok 0 -> "no torn tail"
            | Ok _ -> "torn tail truncated"
            | Error msg ->
              incr bad;
              "PROBLEM: " ^ msg))
        shards;
      if !bad > 0 then exit 1
    end
    else if manifest then
      List.iter
        (fun i ->
          match Wal.manifest ~dir ~shard:i with
          | Some j -> print_endline (Ei_util.Mini_json.to_string j)
          | None -> Printf.printf "shard%d: no parseable manifest\n" i)
        shards
    else begin
      List.iter
        (fun i ->
          let segs, ckpts, clean = Wal.inspect_shard ~dir ~shard:i in
          Printf.printf "shard%d: %d segment(s), %d checkpoint(s)%s\n" i
            (List.length segs) (List.length ckpts)
            (if clean then ", clean shutdown" else "");
          if not verify then begin
            List.iter
              (fun s ->
                Printf.printf "  %s: %s, %d byte(s)%s\n"
                  (Filename.basename s.Wal.si_path)
                  (if s.Wal.si_frames = 0 then
                     Printf.sprintf "empty (next lsn %d)" s.Wal.si_first_lsn
                   else
                     Printf.sprintf "lsn %d..%d, %d frame(s)"
                       s.Wal.si_first_lsn s.Wal.si_last_lsn s.Wal.si_frames)
                  s.Wal.si_bytes
                  (match s.Wal.si_torn with
                  | None -> ""
                  | Some (off, e) ->
                    Printf.sprintf " — TORN at byte %d (%s)" off e))
              segs;
            List.iter
              (fun c ->
                Printf.printf
                  "  ckpt %d: lsn %d, %d entries, fingerprint %016x, \
                   bound %d%s\n"
                  c.Wal.ci_seq c.Wal.ci_lsn c.Wal.ci_count c.Wal.ci_fingerprint
                  c.Wal.ci_bound
                  (match c.Wal.ci_error with
                  | None -> ""
                  | Some e -> " — INVALID (" ^ e ^ ")"))
              ckpts
          end;
          match Wal.verify ~dir ~shard:i with
          | Ok _ -> if verify then print_endline "  recoverable"
          | Error msg ->
            incr bad;
            Printf.printf "  PROBLEM: %s\n" msg)
        shards;
      if verify then
        if !bad = 0 then print_endline "wal verify: OK"
        else begin
          Printf.printf "wal verify: %d problem(s)\n" !bad;
          exit 1
        end
    end
  in
  let term =
    Term.(const run $ dir_arg $ shard_arg $ verify_arg $ truncate_arg
          $ manifest_arg)
  in
  Cmd.v
    (Cmd.info "wal"
       ~doc:"Inspect, verify or repair a durable shard's write-ahead log: \
             per-segment frame counts and LSN ranges, checkpoint manifests \
             with validation status, torn-tail detection (--verify) and \
             repair (--truncate).")
    term

(* --- stats -------------------------------------------------------------- *)

(* YCSB under the ei_obs metrics registry: the index is wrapped in
   {!Index_ops.observed}, so every point operation lands in a per-op
   latency histogram, on top of the structure-modification counters the
   instrumented libraries record on their own.  The exposition goes to
   stdout (run commentary to stderr), so the output pipes straight into
   a scrape file or [jq]. *)
let stats_cmd =
  let module Metrics = Ei_obs.Metrics in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the registry as JSON instead of Prometheus text.")
  in
  let run index_name pct workload records ops dist json =
    Metrics.set_enabled true;
    (* Tracing on too: per-op root contexts feed the histogram
       exemplars, so --json can name the trace behind a p999. *)
    Ei_obs.Trace.set_enabled true;
    let table, index = index_of_arg ~records ~pct index_name in
    let observed = Index_ops.traced (Index_ops.observed ~prefix:"op" index) in
    let runner = Ycsb.create ~index:observed ~table ~record_count:records () in
    let (), load_dt = Clock.time (fun () -> Ycsb.load runner records) in
    let (), dt =
      Clock.time (fun () -> ignore (Ycsb.run runner ~workload ~dist ~ops))
    in
    Printf.eprintf
      "%s: load %d recs %.2f Mops; txn-%s %d ops %.2f Mops; %.2f MiB %s\n"
      index.Index_ops.name records
      (Clock.mops records load_dt)
      (Ycsb.workload_name workload)
      ops (Clock.mops ops dt)
      (Clock.mib (index.Index_ops.memory_bytes ()))
      (index.Index_ops.info ());
    print_string (if json then Metrics.dump_json () else Metrics.dump_prometheus ())
  in
  let term =
    Term.(const run $ index_arg $ bound_arg $ ycsb_workload_arg
          $ records_arg 50_000 $ ycsb_ops_arg $ dist_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a YCSB workload with the metrics registry enabled and \
             print the exposition (Prometheus text, or JSON with --json).")
    term

(* --- trace / timeline / top --------------------------------------------- *)

(* Shared fleet driver for the observability commands: sharded YCSB
   load, churn, a mid-flight slash of the global bound, churn again,
   with a [phase] callback at every boundary so the caller can cut
   timeline frames (ei timeline) or refresh a live view (ei top), and
   an optional WAL so the captured flows include the durability leg.
   Each [phase l] call closes the window named [l].  The periodic
   coordinator is deliberately NOT configured — it would restore the
   original bound split on its next pass and blur the slash;
   [Serve.rebalance_with] leaves each split once, and every shard
   applies it at its next batch.  Returns
   the shed count, the sub-batches applied and the global bound. *)
let run_obs_fleet ~shards ~records ~ops ~update_pct ~pct ~seed ?wal ~phase () =
  let module Serve = Ei_shard.Serve in
  let module Fleet = Ei_shard.Fleet in
  let fleet, global_bound =
    elastic_fleet ~coordinated:false ~shards ~records ~pct ?wal ()
  in
  let tids, load_shed = preload fleet records in
  let shed = ref load_shed in
  let batched a = shed := !shed + Fleet.run fleet a in
  let serve = fleet.Fleet.serve in
  (* One explicit coordinator pass leaves the configured split. *)
  Serve.rebalance_with serve (Serve.default_coordinator ~global_bound);
  phase "load";
  let rng = Ei_util.Rng.stream seed 0 in
  let churn n =
    batched
      (Array.init n (fun _ ->
           let s = Ei_util.Rng.int rng records in
           if Ei_util.Rng.int rng 100 < update_pct then
             Serve.Update (Ycsb.key_of_seq s, tids.(s))
           else Serve.Find (Ycsb.key_of_seq s)))
  in
  churn (ops / 2);
  phase "churn";
  (* Mid-flight slash: re-split half the budget, forcing the fleet
     into the shrinking state while the second churn phase runs. *)
  Serve.rebalance_with serve
    (Serve.default_coordinator ~global_bound:(max 1 (global_bound / 2)));
  churn (ops - (ops / 2));
  phase "churn-slashed";
  Serve.stop serve;
  phase "drain";
  (!shed, Serve.batches serve, global_bound)

let update_pct_of_workload w =
  match Ycsb.workload_of_name w with
  | Some Ycsb.A -> 50
  | Some Ycsb.B -> 5
  | Some Ycsb.C -> 0
  | Some _ | None ->
    Printf.ksprintf failwith "unknown workload %s (want A, B or C)"
      (String.uppercase_ascii w)

(* The churn flags of the observability commands. *)
let obs_ops_arg default =
  Arg.(value & opt int default & info [ "ops" ] ~doc:"Churn operations.")

let obs_workload_arg =
  Arg.(value & opt string "A"
       & info [ "w"; "workload" ] ~docv:"A..C"
           ~doc:"YCSB point-op mix for the churn phases: A = 50/50 \
                 read/update, B = 95/5, C = reads only.")

(* A tracing run over the sharded serving layer ({!run_obs_fleet}): load,
   churn, slash the global soft bound mid-churn, keep churning, then
   export the merged trace rings. *)
let obs_trace_cmd =
  let module Metrics = Ei_obs.Metrics in
  let module Trace = Ei_obs.Trace in
  let out_arg =
    Arg.(value & opt string "ei.trace.json"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Output file (Chrome trace_events JSON; open in \
                   chrome://tracing or ui.perfetto.dev).")
  in
  let run shards records ops pct workload out seed =
    let update_pct = update_pct_of_workload workload in
    Metrics.set_enabled true;
    Trace.set_enabled true;
    let shed, batches, global_bound =
      run_obs_fleet ~shards ~records ~ops ~update_pct ~pct ~seed
        ~phase:ignore ()
    in
    let events = Trace.events () in
    Trace.write_json out;
    Printf.printf
      "wrote %s: %d events (%d elastic transitions, %d batches); bound \
       %.1f MiB slashed to %.1f MiB mid-churn\n"
      out events
      (Metrics.counter_value (Metrics.counter "olc.transitions"))
      batches
      (Clock.mib global_bound)
      (Clock.mib (global_bound / 2));
    if shed > 0 then
      Printf.printf "%d operation(s) shed (rejected or timed out)\n" shed;
    if events = 0 then begin
      prerr_endline "empty trace: no events were recorded";
      exit 1
    end
  in
  let term =
    Term.(const run $ shards_arg 2 $ records_arg 50_000 $ obs_ops_arg 100_000
          $ bound_arg $ obs_workload_arg $ out_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a sharded YCSB workload with tracing on, slash the \
             global bound mid-churn, and dump Chrome trace_events JSON.")
    term

let obs_timeline_cmd =
  let module Metrics = Ei_obs.Metrics in
  let module Trace = Ei_obs.Trace in
  let module Timeline = Ei_obs.Timeline in
  let interval_arg =
    Arg.(value & opt float 0.05
         & info [ "interval" ] ~docv:"SECONDS"
             ~doc:"Periodic ticker interval between phase boundaries \
                   (0 disables the ticker; phase frames remain).")
  in
  let out_arg =
    Arg.(value & opt string "-"
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Output file for the JSON-Lines frames (- = stdout).")
  in
  let run shards records ops pct workload interval out seed wal =
    let update_pct = update_pct_of_workload workload in
    Metrics.set_enabled true;
    (* Tracing on too: span contexts ride the same run, so the frames'
       histograms carry exemplar trace ids. *)
    Trace.set_enabled true;
    Timeline.set_enabled true;
    Timeline.capture ~label:"start" ();
    if Float.compare interval 0.0 > 0 then
      Timeline.start_ticker ~interval_s:interval;
    let shed, _, _ =
      run_obs_fleet ~shards ~records ~ops ~update_pct ~pct ~seed ?wal
        ~phase:(fun l -> Timeline.capture ~label:l ())
        ()
    in
    Timeline.stop_ticker ();
    let frames = List.length (Timeline.frames ()) in
    (match out with
    | "-" -> print_string (Timeline.export_jsonl ())
    | path -> Timeline.write_jsonl path);
    Printf.eprintf
      "%s%d frame(s) over %d op(s) on %d shard(s), workload %s%s\n"
      (if String.equal out "-" then "" else Printf.sprintf "wrote %s: " out)
      frames ops shards workload
      (if shed > 0 then Printf.sprintf "; %d op(s) shed" shed else "");
    if frames = 0 then begin
      prerr_endline "empty timeline: no frames were captured";
      exit 1
    end
  in
  let term =
    Term.(const run $ shards_arg 2 $ records_arg 50_000 $ obs_ops_arg 100_000
          $ bound_arg $ obs_workload_arg $ interval_arg $ out_arg
          $ seed_arg $ wal_arg)
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Run a sharded YCSB workload with the telemetry timeline on \
             and dump the frame ring as JSON-Lines: per-window op-mix \
             counter deltas, queue-depth gauges and windowed latency \
             quantiles, cut at phase boundaries and on a periodic ticker.")
    term

(* Live per-shard view rendered from the newest timeline frame: op-mix
   deltas and queue depth per shard plus windowed latency quantiles,
   refreshed in place while the workload domain runs.  --once renders a
   single frame without terminal control sequences (the CI smoke). *)
let obs_top_cmd =
  let module Metrics = Ei_obs.Metrics in
  let module Timeline = Ei_obs.Timeline in
  let interval_arg =
    Arg.(value & opt float 0.5
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh interval.")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Run the workload to completion, render the final \
                   frame once and exit (no terminal control; for CI).")
  in
  let render ~shards ~clear fr =
    let b = Buffer.create 512 in
    if clear then Buffer.add_string b "\027[2J\027[H";
    Printf.bprintf b "ei top — frame %d%s\n" fr.Timeline.fr_seq
      (if String.equal fr.Timeline.fr_label "" then ""
       else Printf.sprintf " (%s)" fr.Timeline.fr_label);
    Printf.bprintf b "%5s %10s %10s %10s %8s\n" "shard" "reads" "writes"
      "scans" "queue";
    for i = 0 to shards - 1 do
      let c k =
        Option.value ~default:0
          (List.assoc_opt
             (Printf.sprintf "serve.shard%d.%s" i k)
             fr.Timeline.fr_counters)
      in
      let q =
        Option.value ~default:0
          (List.assoc_opt
             (Printf.sprintf "serve.shard%d.queue_depth" i)
             fr.Timeline.fr_gauges)
      in
      Printf.bprintf b "%5d %10d %10d %10d %8d\n" i (c "reads") (c "writes")
        (c "scans") q
    done;
    if fr.Timeline.fr_hists <> [] then begin
      Printf.bprintf b "%-24s %8s %8s %8s %8s %8s\n" "histogram (window)"
        "count" "p50" "p99" "p999" "max";
      List.iter
        (fun (name, h) ->
          Printf.bprintf b "%-24s %8d %8d %8d %8d %8d\n" name
            h.Timeline.hf_count h.Timeline.hf_p50 h.Timeline.hf_p99
            h.Timeline.hf_p999 h.Timeline.hf_max)
        fr.Timeline.fr_hists
    end;
    print_string (Buffer.contents b);
    flush stdout
  in
  let run shards records ops pct workload interval once seed =
    let update_pct = update_pct_of_workload workload in
    Metrics.set_enabled true;
    Timeline.set_enabled true;
    Timeline.capture ~label:"start" ();
    if once then begin
      let shed, _, _ =
        run_obs_fleet ~shards ~records ~ops ~update_pct ~pct ~seed
          ~phase:(fun l -> Timeline.capture ~label:l ())
          ()
      in
      (* The drain window is empty by construction; show the newest
         frame that actually saw traffic. *)
      let busy fr = fr.Timeline.fr_counters <> [] in
      (match List.find_opt busy (List.rev (Timeline.frames ())) with
      | Some fr -> render ~shards ~clear:false fr
      | None ->
        prerr_endline "no timeline frame captured";
        exit 1);
      if shed > 0 then Printf.printf "%d op(s) shed\n" shed
    end
    else begin
      let done_flag = Atomic.make false in
      let worker =
        Domain.spawn (fun () ->
            let shed, _, _ =
              run_obs_fleet ~shards ~records ~ops ~update_pct ~pct ~seed
                ~phase:(fun _ -> ())
                ()
            in
            Atomic.set done_flag true;
            shed)
      in
      while not (Atomic.get done_flag) do
        Unix.sleepf interval;
        Timeline.capture ~label:"top" ();
        match Timeline.latest () with
        | Some fr -> render ~shards ~clear:true fr
        | None -> ()
      done;
      let shed = Domain.join worker in
      Timeline.capture ~label:"final" ();
      (match Timeline.latest () with
      | Some fr -> render ~shards ~clear:true fr
      | None -> ());
      if shed > 0 then Printf.printf "%d op(s) shed\n" shed
    end
  in
  let term =
    Term.(const run $ shards_arg 2 $ records_arg 50_000 $ obs_ops_arg 200_000
          $ bound_arg $ obs_workload_arg $ interval_arg $ once_arg
          $ seed_arg)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live per-shard telemetry view: op-mix deltas, queue depth \
             and windowed latency quantiles from the newest timeline \
             frame, refreshed while a YCSB workload runs (--once for a \
             single non-interactive render).")
    term

(* --- sim ---------------------------------------------------------------- *)

(* Deterministic simulation testing (ei_sim): differential op tapes
   against the pure oracle, schedule exploration over the production
   yield points, and perturbed chaos rounds over the serving stack.
   Every failure is shrunk and written as a replayable .sim.json
   artifact; [ei sim --replay FILE] re-executes one. *)
let sim_cmd =
  let module Sim = Ei_sim.Sim in
  let module Tape = Ei_sim.Tape in
  let module Sched = Ei_sim.Sched in
  let engine_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"ENGINE"
             ~doc:"$(b,diff) (differential tape), $(b,sched) (schedule \
                   exploration) or $(b,serve) (perturbed chaos rounds). \
                   Omit when using --replay.")
  in
  let subject_doc =
    "Sim subject: " ^ String.concat ", " Sim.subject_names ^ "."
  in
  let a_arg =
    Arg.(value & opt string "oracle" & info [ "a" ] ~docv:"SUBJECT" ~doc:subject_doc)
  in
  let b_arg =
    Arg.(value & opt string "stx" & info [ "b" ] ~docv:"SUBJECT" ~doc:subject_doc)
  in
  let ops_arg =
    Arg.(value & opt int 40_000 & info [ "ops" ] ~doc:"Tape length (diff).")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ]
             ~doc:"Seed for the tape / schedule sampling / perturbed \
                   rounds; a failing run replays exactly from its \
                   artifact.")
  in
  let gen_arg =
    Arg.(value & opt string "default"
         & info [ "gen" ]
             ~doc:"Tape generator (diff): default, elastic (adds bound \
                   retunes; enables bound-compliance checks), or faulty \
                   (adds transient-fault windows).")
  in
  let bound_arg =
    Arg.(value & opt int (48 * 1024)
         & info [ "bound" ]
             ~doc:"Elastic size bound in bytes: seeds elastic subjects \
                   and centres the elastic generator's bound sweep.")
  in
  let slack_arg =
    Arg.(value & opt float 4.0
         & info [ "slack" ]
             ~doc:"Bound-compliance slack: checkpoints require \
                   memory <= slack * bound (elastic subjects only).")
  in
  let scenario_arg =
    Arg.(value & opt string "olc-race"
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"Scheduler scenario (sched): olc-race, olc-convert-scan, \
                   olc-multi-find, olc-breathe, olc-hysteresis, wal-torn, \
                   wal-fsync, wal-wedge, net-pipeline or lost-update (the \
                   planted-race self-test).")
  in
  let rounds_arg =
    Arg.(value & opt int 50
         & info [ "rounds" ]
             ~doc:"Random schedules (sched) or perturbed chaos rounds \
                   (serve) to sample.")
  in
  let shards_arg =
    Arg.(value & opt int 2 & info [ "shards" ] ~doc:"Shard domains (serve).")
  in
  let scale_arg =
    Arg.(value & opt float 0.02
         & info [ "scale" ] ~doc:"Chaos workload scale factor (serve).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the shrunk repro as a .sim.json artifact on \
                   failure.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a .sim.json artifact instead of running an \
                   engine; exits 1 if it still reproduces.")
  in
  let run engine a b ops seed gen bound slack scenario rounds shards scale out
      replay =
    (* Any engine (or a replay) that trips an invariant or quarantines a
       shard leaves an ei-*.flight.json next to the .sim.json repro. *)
    Ei_obs.Trace.set_enabled true;
    Ei_obs.Flight.arm ~dir:"." ();
    let write art =
      match out with
      | None -> ()
      | Some path ->
        Sim.write_artifact ~path art;
        Printf.printf "wrote %s\n" path
    in
    match (replay, engine) with
    | Some path, _ -> (
      match Sim.replay_file ~path with
      | Error e ->
        prerr_endline e;
        exit 2
      | Ok (true, msg) ->
        Printf.printf "%s: still reproduces\n%s\n" path msg;
        exit 1
      | Ok (false, msg) ->
        Printf.printf "%s: no longer reproduces\n%s\n" path msg)
    | None, Some "diff" ->
      let subj name =
        match Sim.subject_of_name ~bound ~key_len:8 name with
        | Ok s -> s
        | Error e ->
          prerr_endline e;
          exit 2
      in
      let sa = subj a and sb = subj b in
      let g =
        match gen with
        | "default" -> Tape.default_gen ~ops ()
        | "elastic" -> Tape.elastic_gen ~ops ~base_bound:bound ()
        | "faulty" -> Tape.faulty_gen ~ops ()
        | g ->
          prerr_endline ("unknown generator: " ^ g);
          exit 2
      in
      let check_mem =
        (match gen with "elastic" -> true | _ -> false)
        && sa.Sim.s_elastic && sb.Sim.s_elastic
      in
      let tape = Tape.generate ~seed g in
      (match Sim.diff_pair ~slack ~check_mem sa sb tape with
      | None ->
        Printf.printf "ei sim diff: %s vs %s agree over %d op(s) (seed %d)\n"
          a b (Array.length tape.Tape.ops) seed
      | Some _ ->
        let small = Sim.shrink_tape ~slack ~check_mem sa sb tape in
        let d =
          match Sim.diff_pair ~slack ~check_mem sa sb small with
          | Some d -> d
          | None ->
            prerr_endline "shrunk tape no longer diverges (unstable repro)";
            exit 2
        in
        let divergence = Sim.pp_divergence ~a ~b d in
        Printf.printf "ei sim diff: DIVERGENCE (shrunk to %d op(s))\n%s\n"
          (Array.length small.Tape.ops)
          divergence;
        write (Sim.A_diff { tape = small; a; b; bound; slack; check_mem; divergence });
        exit 1)
    | None, Some "sched" -> (
      match Sim.scenario scenario with
      | None ->
        Printf.eprintf "unknown scenario %s (have: %s)\n" scenario
          (String.concat ", " (Sim.scenario_names ()));
        exit 2
      | Some mk -> (
        match Sched.explore ~seed ~rounds mk with
        | None ->
          Printf.printf
            "ei sim sched: %s survived %d random schedule(s) (seed %d)\n"
            scenario rounds seed
        | Some f ->
          let small = Sched.shrink ~schedule:f.Sched.schedule mk in
          Printf.printf
            "ei sim sched: %s FAILED (round %d)\n%s\nshrunk schedule \
             (%d choice(s)): %s\n"
            scenario f.Sched.round f.Sched.error (List.length small)
            (String.concat " " (List.map string_of_int small));
          write
            (Sim.A_sched
               { scenario; seed; schedule = small; error = f.Sched.error });
          exit 1))
    | None, Some "serve" -> (
      match Sim.explore_serve ~shards ~scale ~seed ~rounds () with
      | None ->
        Printf.printf
          "ei sim serve: %d perturbed round(s) clean (seed %d, %d \
           shard(s), scale %g)\n"
          rounds seed shards scale
      | Some (round_seed, error) ->
        Printf.printf "ei sim serve: FAILED (round seed %d)\n%s\n" round_seed
          error;
        write (Sim.A_serve { seed = round_seed; shards; scale; error });
        exit 1)
    | None, Some e ->
      prerr_endline ("unknown engine: " ^ e ^ " (want diff, sched or serve)");
      exit 2
    | None, None ->
      prerr_endline "need an ENGINE (diff, sched or serve) or --replay FILE";
      exit 2
  in
  let term =
    Term.(const run $ engine_arg $ a_arg $ b_arg $ ops_arg $ seed_arg $ gen_arg
          $ bound_arg $ slack_arg $ scenario_arg $ rounds_arg $ shards_arg
          $ scale_arg $ out_arg $ replay_arg)
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Deterministic simulation testing: differential tapes against \
             the oracle, schedule exploration, perturbed chaos — with \
             ddmin-shrunk replayable .sim.json repros.")
    term

(* --- analyze ------------------------------------------------------------ *)

(* The ei_race static analyzer behind the CLI: scan the typedtrees
   (.cmt files) for lock-discipline, yield-point and shared-state
   findings and, with no roots, for exports nothing calls.  Roots are
   resolved against _build/default, so [dune build @check && ei
   analyze] works from a checkout. *)
let analyze_cmd =
  let roots_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"DIR|FILE.cmt"
             ~doc:"Directories (searched recursively for .cmt files) or \
                   single .cmt files for the concurrency rules; given \
                   paths are tried as-is, then under _build/default.  \
                   With none, the nine concurrent libraries (lib/olc \
                   lib/shard lib/core lib/fault lib/obs lib/btree lib/wal \
                   lib/net lib/blindi) plus the export rules over every \
                   lib/ interface, which need the .cmt files of lib bin \
                   bench examples tools and test (dune build @check).")
  in
  let baseline_arg =
    Arg.(value & opt (some string) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Baseline file of accepted findings (one \
                   $(i,rule file slug) per line); matching findings are \
                   suppressed, unmatched entries are reported as stale.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit findings and the shared-state inventory as JSON.")
  in
  let inventory_arg =
    Arg.(value & flag
         & info [ "inventory" ]
             ~doc:"Also print the shared-state inventory (every mutable \
                   datum with its declared guard).")
  in
  let rules_arg =
    Arg.(value & flag
         & info [ "rules" ] ~doc:"Describe the rule families and exit.")
  in
  let run roots baseline json inventory rules =
    if rules then print_endline (Analyze_rules.rules_help ())
    else
      match Analyze_driver.execute ?baseline_file:baseline roots with
      | Error msg ->
        prerr_endline ("ei analyze: " ^ msg);
        exit 2
      | Ok r ->
        if json then print_endline (Analyze_driver.json_string r)
        else Analyze_driver.print_text ~show_inventory:inventory r;
        exit (Analyze_driver.exit_code r)
  in
  let term =
    Term.(const run $ roots_arg $ baseline_arg $ json_arg $ inventory_arg
          $ rules_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the ei_race static analyzer (concurrency discipline and \
             exports without a caller) over the typedtrees (.cmt files).")
    term

(* --- volumes ----------------------------------------------------------- *)

let volumes_cmd =
  let days_arg = Arg.(value & opt int 60 & info [ "days" ] ~doc:"Days to model.") in
  let run days =
    let v = Ei_workload.Datagen.daily_volumes ~days () in
    Array.iteri (fun d x -> Printf.printf "day %3d: %5.2fx\n" d x) v;
    let mean, a15, a20, mx = Ei_workload.Datagen.stats v in
    Printf.printf "mean %.2f, days>=1.5x: %d, days>=2x: %d, max %.2fx\n" mean a15 a20 mx
  in
  Cmd.v (Cmd.info "volumes" ~doc:"Print the Fig-1 style daily volume model.")
    Term.(const run $ days_arg)

let () =
  let info =
    Cmd.info "ei" ~version:"1.0.0"
      ~doc:"Elastic indexes: dynamic space vs. query efficiency tuning."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            ycsb_cmd;
            ingest_cmd;
            volumes_cmd;
            check_cmd;
            serve_cmd;
            serve_net_cmd;
            bench_net_cmd;
            chaos_cmd;
            wal_cmd;
            stats_cmd;
            obs_trace_cmd;
            obs_timeline_cmd;
            obs_top_cmd;
            sim_cmd;
            analyze_cmd;
          ]))
