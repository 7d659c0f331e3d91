(* Chaos soak driver (not part of `dune runtest`): seeded fault
   injection against the supervised serving layer, with shadow-model
   reconciliation and deep validation.  See lib/chaos for the engine
   and EXPERIMENTS.md for the methodology.

   Run with: dune exec bench/soak/chaos.exe -- [--seed N] [--scale F]
             [--shards N] [--plan SPEC] [--wal-dir DIR] [--kill-at N]
             [--quiet]

   EI_SEED is honoured when --seed is absent.  Exits non-zero on any
   lost acknowledged write, phantom row, read inconsistency or
   Ei_check violation — the soak's pass/fail line. *)

module Chaos = Ei_chaos.Chaos
module Fault = Ei_fault.Fault

let () =
  let seed = ref None
  and scale = ref 1.0
  and shards = ref 4
  and plan = ref None
  and wal_dir = ref None
  and kill_at = ref 0
  and quiet = ref false in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
      seed := Some (int_of_string v);
      parse rest
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--shards" :: v :: rest ->
      shards := int_of_string v;
      parse rest
    | "--plan" :: v :: rest ->
      (match Fault.parse_plan v with
      | Ok p -> plan := Some p
      | Error e ->
        prerr_endline e;
        exit 2);
      parse rest
    | "--wal-dir" :: v :: rest ->
      wal_dir := Some v;
      parse rest
    | "--kill-at" :: v :: rest ->
      kill_at := int_of_string v;
      parse rest
    | "--quiet" :: rest ->
      quiet := true;
      parse rest
    | arg :: _ ->
      Printf.eprintf "chaos: unknown argument %s\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed =
    match !seed with
    | Some s -> s
    | None -> Ei_util.Rng.env_seed ~default:42
  in
  let cfg = Chaos.default_config ~seed in
  let cfg =
    {
      cfg with
      Chaos.scale = !scale;
      shards = !shards;
      plan = Option.value !plan ~default:cfg.Chaos.plan;
      progress = (if !quiet then None else Some print_endline);
      wal_dir = !wal_dir;
      kill_at = !kill_at;
    }
  in
  let report = Chaos.run cfg in
  Format.printf "%a%!" Chaos.pp_report report;
  if Chaos.ok report then print_endline "chaos soak: OK"
  else begin
    print_endline "chaos soak: FAILED";
    Printf.printf "reproduce with: dune exec bench/soak/chaos.exe -- --seed %d --scale %g --shards %d\n"
      seed !scale !shards;
    exit 1
  end
