(* Smoke test of the benchmark (run by [dune runtest]): every workload on
   a tiny fleet with a short window, untraced and traced.  Each run must
   exit 0, report [correct = true], and emit every end-to-end (untraced)
   or per-layer (traced) metric BENCHMARK.json names.

     smoke.exe EI_BENCH_EXE BENCHMARK_JSON *)

module J = Ei_util.Mini_json

let workloads = [ "read-dram"; "scan-cached"; "churn-wal"; "net-open" ]

let names bench key =
  Option.value ~default:[] (Option.bind (J.member key bench) J.as_list)
  |> List.filter_map (fun m -> Option.bind (J.member "name" m) J.as_str)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("smoke: " ^ s))
    fmt

(* net-open gets a longer window: a run whose generator falls behind
   by more than 1 % of its schedule is invalid, and a 0.6 s schedule
   leaves no room for a loaded machine's scheduling hiccups. *)
let run exe ~workload ~trace ~want =
  let seconds = if String.equal workload "net-open" then "3" else "0.6" in
  let args =
    [| exe; "--workload"; workload; "--seed"; "7"; "--seconds"; seconds;
       "--scale"; "0.04"; "--trace"; trace |]
  in
  let ic = Unix.open_process_args_in exe args in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    List.fold_left
      (fun acc l -> if String.length l > 0 then Some l else acc)
      None
      (String.split_on_char '\n' out)
  in
  let what = Printf.sprintf "%s --trace %s" workload trace in
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "%s: nonzero exit" what);
  match Option.map J.parse last with
  | Some (Ok summary) -> (
    (match J.member "correct" summary with
    | Some (J.Bool true) -> ()
    | _ -> fail "%s: correct is not true" what);
    match J.member "metrics" summary with
    | Some (J.Obj ms) ->
      List.iter
        (fun n -> if not (List.mem_assoc n ms) then fail "%s: %s not emitted" what n)
        want
    | _ -> fail "%s: no metrics object" what)
  | _ -> fail "%s: last line is not a JSON summary" what

let () =
  match Sys.argv with
  | [| _; exe; bench_path |] ->
    let bench =
      match J.parse (In_channel.with_open_bin bench_path In_channel.input_all) with
      | Ok j -> j
      | Error e -> failwith (bench_path ^ ": " ^ e)
    in
    let exe = if Filename.is_implicit exe then Filename.concat "." exe else exe in
    List.iter
      (fun workload ->
        run exe ~workload ~trace:"0" ~want:(names bench "end_to_end");
        run exe ~workload ~trace:"1" ~want:(names bench "per_layer"))
      workloads;
    if !failures > 0 then exit 1;
    print_endline "smoke: all workloads ran, checked and reported every metric"
  | _ ->
    prerr_endline "usage: smoke.exe EI_BENCH_EXE BENCHMARK_JSON";
    exit 2
