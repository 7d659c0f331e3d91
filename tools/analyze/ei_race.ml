(* ei_race: typed analyzer driver (concurrency discipline, exports
   without a caller).

   Usage:
     ei_race [--rules] [--baseline FILE] [--format=text|json]
             [--inventory] [DIR|FILE.cmt ...]

   Directories are searched recursively for .cmt files (dune keeps
   them under <dir>/.<lib>.objs/byte/ inside _build; roots that only
   exist under _build/default are resolved there).  With no roots the
   whole tree is analyzed: the concurrency rules over
   Analyze_driver.default_roots and the export rules over every lib/
   interface, refusing (exit 2) a build whose .cmt files are missing —
   the @analyze alias runs it so from _build/default.  Findings are
   diffed against the baseline file:
   baselined findings are suppressed, anything else exits 1, so a
   *new* finding fails the build without blocking on the accepted
   legacy patterns listed in the baseline. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.exists (String.equal "--rules") args then begin
    print_endline (Analyze_rules.rules_help ());
    exit 0
  end;
  let fmt, args =
    match Report.split_format_arg args with
    | Ok (fmt, rest) -> (Option.value fmt ~default:Report.Text, rest)
    | Error v ->
      Printf.eprintf "ei_race: unknown format %S (expected text or json)\n" v;
      exit 2
  in
  let show_inventory = List.exists (String.equal "--inventory") args in
  let args = List.filter (fun a -> not (String.equal a "--inventory")) args in
  let rec split_baseline acc = function
    | "--baseline" :: file :: rest -> (Some file, List.rev_append acc rest)
    | a :: rest -> split_baseline (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let baseline_file, roots = split_baseline [] args in
  match Analyze_driver.execute ?baseline_file roots with
  | Error msg ->
    Printf.eprintf "ei_race: %s\n" msg;
    exit 2
  | Ok r ->
    (match fmt with
    | Report.Text -> Analyze_driver.print_text ~show_inventory r
    | Report.Json -> print_endline (Analyze_driver.json_string r));
    exit (Analyze_driver.exit_code r)
