(* ei_bench: the end-to-end benchmark.

     ei_bench.exe --workload W --seed N [--seconds S] [--trace 0|1]
                  [--trace-out FILE] [--scale F]

   W is read-dram, scan-cached, churn-wal, net-open, or all (each
   workload in its own process, one after another).  Every metric is
   printed as one JSON line; the last line is the run's summary object.
   With --trace 1 the run reports the per-layer metrics instead of the
   end-to-end ones (and --trace-out writes the retained spans as a
   Chrome trace).  --scale multiplies every workload's record count (the
   smoke test runs tiny fleets).  The exit code is nonzero when any
   correctness check failed.  README.md in this directory defines every
   metric. *)

let workloads = [ "read-dram"; "scan-cached"; "churn-wal"; "net-open" ]

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 30. in
  let trace = ref 0 and trace_out = ref None and scale = ref 1.0 in
  let serve_child = ref false and records = ref 0 and socket = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  one of: all, " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N  seed of every generated input");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run reporting per-layer metrics");
      ("--trace-out", Arg.String (fun p -> trace_out := Some p), "FILE  Chrome trace of the traced run");
      ("--scale", Arg.Set_float scale, "F  multiply record counts (default 1)");
      ("--serve-child", Arg.Set serve_child, " (internal) net-open server process");
      ("--records", Arg.Set_int records, " (internal) server child record count");
      ("--socket", Arg.Set_string socket, " (internal) server child socket path");
    ]
  in
  let usage = "ei_bench.exe --workload W --seed N [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let traced =
    match !trace with
    | 0 -> false
    | 1 -> true
    | _ ->
      prerr_endline "ei_bench: --trace takes 0 or 1";
      exit 2
  in
  if Float.compare !seconds 0. <= 0 then begin
    prerr_endline "ei_bench: --seconds must be positive";
    exit 2
  end;
  (* The CRC-32 table behind every WAL and wire frame is a lazy value,
     and forcing it from two domains at once raises
     [CamlinternalLazy.Undefined] (two shard domains' first commits, or
     two connections' first frames, kill their domains).  Force it here,
     before any domain exists. *)
  ignore (Ei_wal.Crc32.string "");
  let scaled n = Int.max 1000 (int_of_float (float_of_int n *. !scale)) in
  if !serve_child then begin
    Netopen.child_main ~records:!records ~traced ~socket:!socket ~trace_out:!trace_out;
    exit (if Verdict.ok () then 0 else 1)
  end;
  let names = if traced then Report.per_layer else Report.end_to_end in
  let run_one = function
    | "net-open" ->
      Netopen.run ~records:(scaled Netopen.records_default) ~seed:!seed
        ~seconds:!seconds ~traced ~trace_out:!trace_out
    | w ->
      let spec =
        List.find
          (fun s -> String.equal s.Workloads.name w)
          Workloads.[ read_dram; scan_cached; churn_wal ]
      in
      Inproc.run spec ~records:(scaled spec.Workloads.records) ~seed:!seed
        ~seconds:!seconds ~traced ~trace_out:!trace_out
  in
  match !workload with
  | "all" ->
    (* One process per workload: peak heap and the runtime's state are
       then each workload's own. *)
    let args w =
      Array.of_list
        ([ Sys.executable_name; "--workload"; w; "--seed"; string_of_int !seed;
           "--seconds"; Printf.sprintf "%.17g" !seconds; "--trace"; string_of_int !trace;
           "--scale"; Printf.sprintf "%.17g" !scale ]
        @ match !trace_out with Some p -> [ "--trace-out"; p ^ "." ^ w ] | None -> [])
    in
    let bad =
      List.filter
        (fun w ->
          flush stdout;
          let pid =
            Unix.create_process Sys.executable_name (args w) Unix.stdin Unix.stdout
              Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> false
          | _ -> true)
        workloads
    in
    if not (List.is_empty bad) then begin
      prerr_endline ("ei_bench: failed: " ^ String.concat ", " bad);
      exit 1
    end
  | w when List.mem w workloads ->
    let r = run_one w in
    Report.print ~names r;
    exit (if Verdict.ok () then 0 else 1)
  | w ->
    prerr_endline (Printf.sprintf "ei_bench: unknown workload %S\n%s" w usage);
    exit 2
