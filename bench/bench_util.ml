(* Shared benchmark plumbing: scaling, timing, table output.

   Paper experiments run 50-100 M items on large Xeons; these benchmarks
   default to ~100-500 k items so the full suite completes in minutes.
   Set EI_SCALE (a float, default 1.0) to scale all sizes; shapes are
   stable from ~0.5 upwards.  EXPERIMENTS.md records paper-vs-measured
   at the default scale. *)

module Clock = Ei_util.Bench_clock

let scale =
  match Sys.getenv_opt "EI_SCALE" with
  | Some s -> ( try float_of_string s with _ -> 1.0)
  | None -> 1.0

let scaled n = max 1 (int_of_float (float_of_int n *. scale))

(* Single experiment seed (EI_SEED, default 42).  Parallel drivers
   derive one splitmix64 stream per domain from it, so multi-domain
   runs are reproducible: same seed, same per-domain op sequences,
   regardless of interleaving. *)
let seed = Ei_util.Rng.env_seed ~default:42

let domain_rng d = Ei_util.Rng.stream seed d

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let subheader s = Printf.printf "--- %s ---\n%!" s

(* Measure a closure's throughput in Mops for [ops] operations. *)
let mops ops f =
  let (), dt = Clock.time f in
  Clock.mops ops dt

(* Warmup once, then repeat and take the median throughput — the
   repeatable middle of the run-to-run distribution (GC and allocator
   noise skew the mean).  [f] must be idempotent (read-only workloads,
   or rebuilt state per call). *)
let median_mops ?(warmup = 1) ?(repeat = 3) ops f =
  assert (repeat >= 1);
  for _ = 1 to warmup do
    f ()
  done;
  let samples = Array.init repeat (fun _ -> mops ops f) in
  Array.sort Float.compare samples;
  samples.(repeat / 2)

(* --- Machine-readable results (BENCH_results.json) ------------------- *)

(* Every experiment appends one JSON object per measurement, one per
   line (JSON Lines), so the perf trajectory of the repo is diffable
   across commits.  The file is append-only: no run truncates it. *)

let results_file = "BENCH_results.json"

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

(* [emit ~name ~params ~ops_per_sec ~bytes] appends one record.
   [params] is a list of (key, value) strings describing the
   configuration cell (index kind, domains, workload, ...).
   [quantiles], when present, adds tail-latency fields
   [p50_ns]/[p99_ns]/[p999_ns]; prior keys are unchanged, so old lines
   and old consumers keep parsing. *)
let emit_record ?quantiles ~name ~params ~ops_per_sec ~bytes () =
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 results_file
  in
  let params_json =
    params
    |> List.map (fun (k, v) ->
           Printf.sprintf "\"%s\": \"%s\"" (json_escape k) (json_escape v))
    |> String.concat ", "
  in
  let quantiles_json =
    match quantiles with
    | None -> ""
    | Some (p50, p99, p999) ->
      Printf.sprintf ", \"p50_ns\": %d, \"p99_ns\": %d, \"p999_ns\": %d" p50
        p99 p999
  in
  Printf.fprintf oc
    "{\"name\": \"%s\", \"params\": {%s}, \"ops_per_sec\": %.0f, \"bytes\": %d, \"scale\": %g, \"seed\": %d%s}\n"
    (json_escape name) params_json ops_per_sec bytes scale seed quantiles_json;
  close_out oc

let emit ~name ~params ~ops_per_sec ~bytes =
  emit_record ~name ~params ~ops_per_sec ~bytes ()

(* Convenience: most call sites measure Mops. *)
let emit_mops ~name ~params ~mops:m ~bytes =
  emit ~name ~params ~ops_per_sec:(m *. 1e6) ~bytes

(* Mops record with tail latencies (see [emit_record ?quantiles]). *)
let emit_mops_q ?quantiles ~name ~params ~mops:m ~bytes () =
  emit_record ?quantiles ~name ~params ~ops_per_sec:(m *. 1e6) ~bytes ()

(* --- Driver-side observability (EI_OBS=1) ---------------------------- *)

(* Benchmarks run with the registry disabled by default, so the recorded
   throughput is the obs-compiled-but-off configuration EXPERIMENTS.md
   tracks.  EI_OBS=1 turns the whole observability stack on for the
   driver run: the metrics registry (phase histograms then feed the
   [p50_ns]/[p99_ns]/[p999_ns] fields of emitted records), the trace
   ring with span contexts, and the telemetry timeline — drivers that
   cut phase frames ({!phase_capture}) and dump artifacts do so only
   under this flag. *)
let obs_enabled =
  match Sys.getenv_opt "EI_OBS" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let () =
  if obs_enabled then begin
    Ei_obs.Metrics.set_enabled true;
    Ei_obs.Trace.set_enabled true;
    Ei_obs.Timeline.set_enabled true
  end

(* Cut a timeline frame at a phase boundary (no-op when EI_OBS unset). *)
let phase_capture label =
  if obs_enabled then Ei_obs.Timeline.capture ~label ()

(* Start a measurement phase feeding histogram [h] (clears samples left
   by earlier phases or warmup). *)
let begin_phase h = if obs_enabled then Ei_obs.Metrics.reset_histogram h

(* The phase's tail latencies, for [emit ?quantiles]. *)
let phase_quantiles h =
  if obs_enabled && Ei_obs.Metrics.histogram_count h > 0 then
    Some
      ( Ei_obs.Metrics.quantile h 0.5,
        Ei_obs.Metrics.quantile h 0.99,
        Ei_obs.Metrics.quantile h 0.999 )
  else None

let pf = Printf.printf

let print_row ?(w = 12) cells =
  List.iter (fun c -> pf "%*s" w c) cells;
  pf "\n%!"

let f2 v = Printf.sprintf "%.2f" v
let f3 v = Printf.sprintf "%.3f" v
let mb bytes = Printf.sprintf "%.1f" (Clock.mib bytes)

(* Unique random keys of a given length, backed by a table. *)
let unique_keys rng table n key_len =
  let seen = Hashtbl.create (2 * n) in
  Array.init n (fun _ ->
      let rec fresh () =
        let k = Ei_util.Key.random rng key_len in
        if Hashtbl.mem seen k then fresh ()
        else begin
          Hashtbl.add seen k ();
          k
        end
      in
      let k = fresh () in
      (k, Ei_storage.Table.append table k))
