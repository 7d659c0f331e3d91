(* Shared driver for the [ei_race] executable and the [ei analyze] CLI
   subcommand: root resolution, cmt collection, baseline diffing and
   the text/JSON renderings. *)

(* The concurrency rules' scope: every library that shares state
   across domains or runs under ei_sim. *)
let default_roots =
  [
    "lib/olc"; "lib/shard"; "lib/core"; "lib/fault"; "lib/obs"; "lib/btree";
    "lib/wal"; "lib/net"; "lib/blindi";
  ]

(* The export rules' scope beside lib/ itself: the callers of lib/'s
   interfaces.  test/ only tells a test-only export from a dead one. *)
let caller_dirs = [ "bin"; "bench"; "examples"; "tools" ]

let rec collect ~suffix path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry -> collect ~suffix (Filename.concat path entry) acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if Filename.check_suffix path suffix then path :: acc
  else acc

type run = {
  diags : Report.diag list;  (* post-baseline, sorted *)
  suppressed : int;  (* findings matched by the baseline *)
  unused : string list;  (* baseline entries nothing matched *)
  inventory : Analyze_rules.inv_entry list;
  cmts_scanned : int;
}

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  content

(* Where a root's cmts live: the path as given when it holds some,
   else _build/default/<root> (a source checkout keeps its cmts in the
   build tree), so [ei analyze lib/olc] works from a repo root and
   from inside _build/default alike. *)
let root_dir r =
  let fallback = Filename.concat (Filename.concat "_build" "default") r in
  let has_cmts =
    Sys.file_exists r
    && match collect ~suffix:".cmt" r [] with [] -> false | _ -> true
  in
  if has_cmts || (Sys.file_exists r && not (Sys.file_exists fallback)) then
    Ok r
  else if Sys.file_exists fallback then Ok fallback
  else Error (Printf.sprintf "no such file or directory: %s" r)

let all_ok results =
  match
    List.partition_map
      (function Ok x -> Either.Left x | Error e -> Either.Right e)
      results
  with
  | oks, [] -> Ok oks
  | _, e :: _ -> Error e

(* One export-scope directory's [(cmts, cmtis)], refusing a partial
   build: with a directory's implementations missing, every export only
   it calls would look dead.  An executable's module with an interface
   gets its .cmt from @check only. *)
let built dir =
  Result.bind (root_dir dir) (fun d ->
      let cmts = collect ~suffix:".cmt" d [] in
      let cmtis = collect ~suffix:".cmti" d [] in
      let orphan i = not (Sys.file_exists (Filename.chop_suffix i "i")) in
      match (cmts, List.find_opt orphan cmtis) with
      | [], _ -> Error (Printf.sprintf "no .cmt under %s; run dune build @check" d)
      | _, Some i ->
        Error (Printf.sprintf "no .cmt beside %s; run dune build @check" i)
      | _, None -> Ok (cmts, cmtis))

let ( let* ) = Result.bind

let export_findings () =
  let* lib_cmts, interfaces = built "lib" in
  let* callers = all_ok (List.map built caller_dirs) in
  let* tests, _ = built "test" in
  Ok
    (Analyze_rules.dead_exports ~interfaces
       ~prod:(lib_cmts @ List.concat_map fst callers)
       ~test:tests)

let execute ?baseline_file roots =
  let whole_tree = match roots with [] -> true | _ -> false in
  let roots = if whole_tree then default_roots else roots in
  let* per_root =
    all_ok
      (List.map
         (fun r -> Result.map (fun d -> collect ~suffix:".cmt" d []) (root_dir r))
         roots)
  in
  let* exports = if whole_tree then export_findings () else Ok [] in
  let cmts = List.sort String.compare (List.concat per_root) in
  let result = Analyze_rules.analyze_cmts cmts in
  match baseline_file with
  | Some f when not (Sys.file_exists f) ->
    Error (Printf.sprintf "baseline file not found: %s" f)
  | _ ->
    let baseline =
      match baseline_file with
      | None -> []
      | Some f -> Analyze_rules.parse_baseline (read_file f)
    in
    let remaining, suppressed, unused =
      Analyze_rules.apply_baseline ~baseline (result.findings @ exports)
    in
    let diags =
      List.sort Report.compare_diag
        (List.map (fun (f : Analyze_rules.finding) -> f.diag) remaining)
    in
    Ok
      {
        diags;
        suppressed;
        unused;
        inventory = result.inventory;
        cmts_scanned = List.length cmts;
      }

let print_text ~show_inventory r =
  List.iter (fun d -> Format.printf "%a@." Report.pp_diag d) r.diags;
  if show_inventory then begin
    Format.printf "-- shared-state inventory (%d entries)@."
      (List.length r.inventory);
    List.iter
      (fun (i : Analyze_rules.inv_entry) ->
        Format.printf "%s:%d: %-14s %-28s %s@." i.inv_file i.inv_line
          i.inv_kind i.inv_name
          (match i.inv_guard with Some g -> g | None -> "UNANNOTATED"))
      r.inventory
  end;
  List.iter
    (fun b -> Printf.eprintf "ei_race: unused baseline entry: %s\n" b)
    r.unused;
  Format.printf "ei_race: %d finding(s), %d baselined, %d modules@."
    (List.length r.diags) r.suppressed
    (List.length
       (List.sort_uniq String.compare
          (List.map (fun (d : Report.diag) -> d.Report.file) r.diags)))

let inv_json (i : Analyze_rules.inv_entry) =
  Printf.sprintf
    "{\"file\": \"%s\", \"line\": %d, \"name\": \"%s\", \"kind\": \"%s\", \
     \"guard\": %s}"
    (Report.json_escape i.inv_file)
    i.inv_line
    (Report.json_escape i.inv_name)
    (Report.json_escape i.inv_kind)
    (match i.inv_guard with
    | Some g -> Printf.sprintf "\"%s\"" (Report.json_escape g)
    | None -> "null")

let json_string r =
  let extra =
    [
      ( "inventory",
        "[" ^ String.concat ", " (List.map inv_json r.inventory) ^ "]" );
      ("baselined", string_of_int r.suppressed);
      ( "unused_baseline",
        "["
        ^ String.concat ", "
            (List.map
               (fun b -> Printf.sprintf "\"%s\"" (Report.json_escape b))
               r.unused)
        ^ "]" );
      ("cmts_scanned", string_of_int r.cmts_scanned);
    ]
  in
  Report.to_json ~tool:"ei_race" ~extra r.diags

(* Exit status shared by both frontends: 1 iff findings remain. *)
let exit_code r = match r.diags with [] -> 0 | _ -> 1
