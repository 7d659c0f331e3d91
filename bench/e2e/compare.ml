(* compare: judge a change's benchmark runs against its parent's.

     compare.exe [--bench BENCHMARK.json] PARENT CHANGE

   PARENT and CHANGE are result sets: directories whose files each hold
   the standard output of one ei_bench run (any number of workloads per
   file).  Runs pair up in file-name order per workload.  For every
   (workload, metric) the tool prints both sides' median and quartiles,
   the share of pairs the change won, and a verdict against the bound
   BENCHMARK.json fixes for the metric:

   - regressed: the change's median is worse than the parent's by more
     than the bound;
   - unresolved: the parent's own spread (interquartile range over
     median) is wider than the bound, unless every change run beat
     every parent run (not applied to setup_s, whose spread the
     benchmark contract exempts: set-up time is judged on its median);
   - improved: the change won at least 9 in 10 pairs and the medians
     differ by more than the parent's interquartile range;
   - no-worse: anything else.

   A metric without a bound (the per-layer list, which holds the speed
   metrics too) gets the pair rule alone: improved, worse (the parent won
   9 in 10 pairs by more than its interquartile range) or "-".  The
   last line is the overall verdict of the bounded rows — regressed if
   any regressed, else unresolved if any is, else improved if any is,
   else no-worse — followed by the unbounded rows' improved and worse
   counts.  Metrics BENCHMARK.json does not name are skipped.  Exit code
   1 when regressed, 2 on bad input. *)

module J = Ei_util.Mini_json

type metric = { better_lower : bool; bound : float option }

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_bench path =
  match J.parse (read_file path) with
  | Error e -> die "%s: %s" path e
  | Ok j ->
    let entries key =
      Option.value ~default:[] (Option.bind (J.member key j) J.as_list)
      |> List.filter_map (fun m ->
             match
               ( Option.bind (J.member "name" m) J.as_str,
                 Option.bind (J.member "better" m) J.as_str )
             with
             | Some n, Some b ->
               Some
                 ( n,
                   {
                     better_lower = String.equal b "lower";
                     bound = Option.bind (J.member "bound" m) J.as_float;
                   } )
             | _ -> None)
    in
    entries "end_to_end" @ entries "per_layer"

(* (workload, metric) -> value, for one run's output. *)
let parse_run path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun l ->
         match J.parse l with
         | Ok j -> (
           match
             ( Option.bind (J.member "workload" j) J.as_str,
               Option.bind (J.member "metric" j) J.as_str,
               Option.bind (J.member "value" j) J.as_float )
           with
           | Some w, Some m, Some v -> Some ((w, m), v)
           | _ -> None)
         | Error _ -> None)

let load_set dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then die "%s: not a directory" dir;
  let files = Sys.readdir dir in
  Array.sort String.compare files;
  Array.to_list files
  |> List.filter (fun f -> not (Sys.is_directory (Filename.concat dir f)))
  |> List.map (fun f -> parse_run (Filename.concat dir f))

(* Values of one (workload, metric) across the set's runs, in run order. *)
let series runs key = List.filter_map (fun r -> List.assoc_opt key r) runs

let keys runs =
  List.sort_uniq
    (fun (w1, m1) (w2, m2) ->
      match String.compare w1 w2 with 0 -> String.compare m1 m2 | c -> c)
    (List.concat_map (List.map fst) runs)

type verdict = Improved | No_worse | Regressed | Unresolved | Worse | Unjudged

let verdict_name = function
  | Improved -> "improved"
  | No_worse -> "no-worse"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Worse -> "worse"
  | Unjudged -> "-"

let judge ~name m ~parent ~change =
  let pm = Stats.median parent and cm = Stats.median change in
  let better a b = if m.better_lower then Float.compare a b < 0 else Float.compare a b > 0 in
  let pairs = List.combine (List.filteri (fun i _ -> i < List.length change) parent)
      (List.filteri (fun i _ -> i < List.length parent) change) in
  let frac f = float_of_int (List.length (List.filter f pairs)) /. float_of_int (Int.max 1 (List.length pairs)) in
  let win_frac = frac (fun (p, c) -> better c p) in
  let loss_frac = frac (fun (p, c) -> better p c) in
  let q1, q3 = Stats.quartiles parent in
  let beyond_iqr = Float.abs (cm -. pm) > q3 -. q1 in
  let verdict =
    match m.bound with
    | None ->
      if Float.compare win_frac 0.9 >= 0 && beyond_iqr then Improved
      else if Float.compare loss_frac 0.9 >= 0 && beyond_iqr then Worse
      else Unjudged
    | Some bound ->
      let worse_by =
        (if m.better_lower then cm -. pm else pm -. cm) /. Float.abs pm
      in
      let dominates =
        List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change
      in
      if Float.compare worse_by bound > 0 then Regressed
      else if
        Float.compare (Stats.rel_spread parent) bound > 0
        && (not dominates) && not (String.equal name "setup_s")
      then Unresolved
      else if Float.compare win_frac 0.9 >= 0 && beyond_iqr then Improved
      else No_worse
  in
  (pm, q1, q3, cm, Stats.quartiles change, win_frac, List.length pairs, verdict)

let () =
  let bench = ref "BENCHMARK.json" and sets = ref [] in
  Arg.parse
    [ ("--bench", Arg.Set_string bench, "FILE  bounds and directions (default BENCHMARK.json)") ]
    (fun d -> sets := !sets @ [ d ])
    "compare.exe [--bench BENCHMARK.json] PARENT_DIR CHANGE_DIR";
  let parent_dir, change_dir =
    match !sets with [ p; c ] -> (p, c) | _ -> die "need PARENT_DIR and CHANGE_DIR"
  in
  let metrics = load_bench !bench in
  let parent = load_set parent_dir and change = load_set change_dir in
  Printf.printf "%-12s %-30s %12s %25s %12s %25s %6s  %s\n" "workload" "metric"
    "parent" "[q1, q3]" "change" "[q1, q3]" "wins" "verdict";
  let verdicts =
    List.filter_map
      (fun ((w, name) as key) ->
        match List.assoc_opt name metrics with
        | None -> None
        | Some m ->
          let p = series parent key and c = series change key in
          if List.is_empty p || List.is_empty c then None
          else begin
            let pm, q1, q3, cm, (c1, c3), wf, np, v = judge ~name m ~parent:p ~change:c in
            Printf.printf "%-12s %-30s %12.6g %25s %12.6g %25s %6s  %s\n" w name pm
              (Printf.sprintf "[%.6g, %.6g]" q1 q3)
              cm
              (Printf.sprintf "[%.6g, %.6g]" c1 c3)
              (Printf.sprintf "%.0f%%" (100. *. wf))
              (verdict_name v);
            ignore np;
            Some (Option.is_some m.bound, v)
          end)
      (keys (parent @ change))
  in
  let count bounded v =
    List.length
      (List.filter
         (fun (b, x) -> Bool.equal b bounded && String.equal (verdict_name x) (verdict_name v))
         verdicts)
  in
  let has v = count true v > 0 in
  let overall =
    if has Regressed then Regressed
    else if has Unresolved then Unresolved
    else if has Improved then Improved
    else No_worse
  in
  Printf.printf "overall: %s (unbounded rows: %d improved, %d worse)\n"
    (verdict_name overall) (count false Improved) (count false Worse);
  exit (match overall with Regressed -> 1 | _ -> 0)
