(* Property test for the deep invariant sanitizer (ei_check): long
   random workloads against the elastic B+-tree with a size bound tight
   enough to force all three elasticity states, with [Check.run] fired
   through the [Check.wrap] hook every 1000 mutations.  The sanitizer
   must never report an [Error]-severity finding ([Advisory] occupancy
   findings are expected while shrinking/expanding).

   Three seeded trials of 36k phased ops each (grow-heavy, mixed churn,
   drain-heavy) put >= 100k operations through the wrapped index.

   The §4 occupancy rule is the elastic tree's alone: a churned
   fixed-policy SeqTree64 with half-split leaves is clean under
   [~strict], while an elastic tree with an underfull compact leaf is
   not. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng

(* All trial seeds derive from EI_SEED (default 0): stream N here was
   formerly the fixed seed N, so default behaviour is unchanged in
   spirit while EI_SEED re-rolls the whole executable. *)
let seed = Rng.env_seed ~default:0
module Table = Ei_storage.Table
module Elasticity = Ei_core.Elasticity
module Elastic = Ei_core.Elastic_btree
module Index_ops = Ei_harness.Index_ops
module Check = Ei_check.Check

let ops_per_phase = 12_000
let check_every = 1_000
let pool_size = 3_000

(* One trial: build an elastic tree under a 24 KB bound, wrap it, and
   drive [3 * ops_per_phase] operations whose insert/remove bias shifts
   per phase so the index grows past the bound (Normal -> Shrinking),
   then drains well below it (-> Expanding), then converges.  Returns
   [(error_findings, reports_seen, states_seen)]. *)
let run_trial seed =
  let table = Table.create ~key_len:8 () in
  let config = Elasticity.default_config ~size_bound:24_000 in
  let tree = Elastic.create ~key_len:8 ~load:(Table.loader table) config () in
  let ix = Index_ops.of_elastic "elastic" tree in
  let error_findings = ref [] in
  let reports = ref 0 in
  let on_report r =
    incr reports;
    if not (Check.ok r) then
      error_findings := Check.errors r @ !error_findings
  in
  let wrapped = Check.wrap ~every:check_every ~on_report ix in
  let rng = Rng.create seed in
  let pool = Array.init pool_size (fun _ -> Key.random rng 8) in
  let tid_of = Ei_util.Strtbl.create 256 in
  let tid_for k =
    match Ei_util.Strtbl.find_opt tid_of k with
    | Some tid -> tid
    | None ->
      let tid = Table.append table k in
      Ei_util.Strtbl.add tid_of k tid;
      tid
  in
  let states = Hashtbl.create 4 in
  let note_state () =
    Hashtbl.replace states (Ei_btree.Hysteresis.state_name (Elastic.state tree)) ()
  in
  note_state ();
  (* insert/remove percentage biases per phase; the remainder splits
     between updates and scans. *)
  let phases = [| (80, 5); (45, 35); (10, 75) |] in
  Array.iter
    (fun (ins, rem) ->
      for _ = 1 to ops_per_phase do
        let k = pool.(Rng.int rng pool_size) in
        let c = Rng.int rng 100 in
        if c < ins then ignore (wrapped.Index_ops.insert k (tid_for k))
        else if c < ins + rem then ignore (wrapped.Index_ops.remove k)
        else if c < ins + rem + 10 then
          ignore (wrapped.Index_ops.update k (tid_for k))
        else ignore (wrapped.Index_ops.scan_keys k 16 (fun _ _ -> ()));
        note_state ()
      done)
    phases;
  let final = Check.run ix in
  if not (Check.ok final) then
    error_findings := Check.errors final @ !error_findings;
  (!error_findings, !reports, states)

let prop_sanitizer_clean =
  QCheck.Test.make ~name:"sanitizer clean across elastic churn" ~count:3
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let errors, reports, states = run_trial seed in
      (match errors with
      | [] -> ()
      | f :: _ ->
        QCheck.Test.fail_reportf "sanitizer error (of %d): %s"
          (List.length errors)
          (Format.asprintf "%a" Check.pp_finding f));
      (* The periodic hook must actually have fired throughout the run. *)
      let expected_reports = 3 * ops_per_phase * 90 / 100 / check_every in
      if reports < expected_reports then
        QCheck.Test.fail_reportf "only %d periodic reports (expected >= %d)"
          reports expected_reports;
      (* The workload must have exercised every elasticity state. *)
      List.iter
        (fun s ->
          if not (Hashtbl.mem states s) then
            QCheck.Test.fail_reportf "state %s never reached" s)
        [ "normal"; "shrinking"; "expanding" ];
      true)

(* --- Sanitizer detects seeded corruption ----------------------------- *)

(* A sanitizer that never fires is vacuous: corrupt a tree's table
   bindings behind its back and require an Error finding. *)
let test_detects_corruption () =
  let table = Table.create ~key_len:8 () in
  let config = Elasticity.default_config ~size_bound:10_000 in
  let tree = Elastic.create ~key_len:8 ~load:(Table.loader table) config () in
  let rng = Rng.stream seed 7 in
  for _ = 1 to 4_000 do
    let k = Key.random rng 8 in
    ignore (Elastic.insert tree k (Table.append table k))
  done;
  (* Shrinking must hold compact leaves whose keys live only in the
     table; remapping the loader to garbage breaks key order. *)
  Alcotest.(check bool) "has compact leaves" true (Elastic.compact_leaves tree > 0);
  let corrupt_load tid = Key.of_int (tid * 0x9E3779B9 land 0xFFFF) in
  let intro = Ei_btree.Btree.introspect (Elastic.tree tree) in
  let findings =
    Array.fold_left
      (fun acc (leaf : Ei_btree.Leaf.t) ->
        match leaf.Ei_btree.Leaf.repr with
        | Ei_btree.Leaf.Seq node ->
          acc @ Check.check_seqtree ~load:corrupt_load node
        | _ -> acc)
      [] intro.Ei_btree.Btree.leaves
  in
  let is_error (f : Check.finding) =
    match f.Check.severity with Check.Error -> true | Check.Advisory -> false
  in
  Alcotest.(check bool) "corruption detected" true (List.exists is_error findings)

(* --- The occupancy rule applies to elastic trees only ---------------- *)

module Btree = Ei_btree.Btree
module Hysteresis = Ei_btree.Hysteresis

(* Compact leaves of [tree] holding fewer than §4's k+1 keys. *)
let underfull tree =
  Btree.fold_leaves tree
    (fun n spec count ->
      match spec with
      | Ei_btree.Policy.Spec_seq c when Hysteresis.underflows ~capacity:c ~count
        ->
        n + 1
      | _ -> n)
    0

let occupancy_errors (r : Check.report) =
  List.filter (fun (f : Check.finding) -> f.Check.validator = "occupancy")
    (Check.errors r)

(* [ei check --index seqtree64]'s churn: a 2000-key load, then mixed
   ops until some leaf holds fewer than k+1 keys.  The leaves half-split,
   as STX's do, and that is no error even under [~strict]. *)
let test_fixed_seqtree_strict_clean () =
  let table = Table.create ~key_len:8 () in
  let kind =
    match Ei_harness.Registry.kind_of_name ~bound:1 "seqtree64" with
    | Ok k -> k
    | Error e -> Alcotest.fail e
  in
  let ix = Ei_harness.Registry.make ~key_len:8 ~load:(Table.loader table) kind in
  let rng = Rng.stream seed 11 in
  let pool = Array.init 2_000 (fun _ -> Key.random rng 8) in
  let tids = Array.map (Table.append table) pool in
  Array.iteri (fun i k -> ignore (ix.Index_ops.insert k tids.(i))) pool;
  let tree =
    match ix.Index_ops.backend with
    | Index_ops.B_btree t -> t
    | _ -> Alcotest.fail "seqtree64 is not a plain B+-tree"
  in
  let rec churn step =
    if underfull tree = 0 then
      if step = 5_000 then Alcotest.fail "no leaf fell below k+1 keys"
      else begin
        let i = Rng.int rng (Array.length pool) in
        if Rng.int rng 100 < 55 then
          ignore (ix.Index_ops.insert pool.(i) tids.(i))
        else ignore (ix.Index_ops.remove pool.(i));
        churn (step + 1)
      end
  in
  churn 0;
  let r = Check.run ~strict:true ix in
  Alcotest.(check int) "no error under ~strict" 0 (List.length (Check.errors r))

(* An elastic tree shrunk into compact leaves, then drained key by key
   until one compact leaf holds fewer than k+1 keys: [~strict] reports
   it as an occupancy error, the default as an advisory. *)
let test_elastic_underfull_strict_error () =
  let table = Table.create ~key_len:8 () in
  let config = Elasticity.default_config ~size_bound:10_000 in
  let tree = Elastic.create ~key_len:8 ~load:(Table.loader table) config () in
  let ix = Index_ops.of_elastic "elastic" tree in
  let rng = Rng.stream seed 13 in
  let keys = Array.init 4_000 (fun _ -> Key.random rng 8) in
  Array.iter (fun k -> ignore (Elastic.insert tree k (Table.append table k))) keys;
  Alcotest.(check bool) "has compact leaves" true (Elastic.compact_leaves tree > 0);
  let rec drain i =
    if underfull (Elastic.tree tree) = 0 then
      if i = Array.length keys then Alcotest.fail "no compact leaf underflowed"
      else begin
        ignore (Elastic.remove tree keys.(i));
        drain (i + 1)
      end
  in
  drain 0;
  Alcotest.(check bool) "an occupancy error under ~strict" true
    (occupancy_errors (Check.run ~strict:true ix) <> []);
  Alcotest.(check int) "only advisories by default" 0
    (List.length (Check.errors (Check.run ix)))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ei_check"
    [
      ("sanitizer", [ qt prop_sanitizer_clean ]);
      ( "detection",
        [ Alcotest.test_case "seeded corruption found" `Quick test_detects_corruption ] );
      ( "occupancy",
        [
          Alcotest.test_case "fixed seqtree64 clean under strict" `Quick
            test_fixed_seqtree_strict_clean;
          Alcotest.test_case "underfull elastic leaf is a strict error" `Quick
            test_elastic_underfull_strict_error;
        ] );
    ]
