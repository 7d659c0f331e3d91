(* Regression tests for the ei_race concurrency-discipline analyzer.

   The fixtures under fixtures_analyze/ are compiled by dune like any
   library, so their .cmt typedtrees sit in the build tree next to this
   test; the analyzer must fire on every planted violation at its exact
   file:line:col, and stay silent on the clean fixture and on every
   deliberately-annotated declaration inside the others.  The export
   rules run over the fix_export* interfaces with fix_export_test.ml as
   the only test-side unit.  The baseline machinery is exercised
   separately: a matching entry suppresses its finding, a stale entry
   is reported as unused. *)

let fixture_dir = "fixtures_analyze/.analyze_fixtures.objs/byte"

let fixture_files suffix =
  if not (Sys.file_exists fixture_dir) then
    Alcotest.failf "fixture cmts not found at %s (cwd %s)" fixture_dir
      (Sys.getcwd ());
  Sys.readdir fixture_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.sort String.compare
  |> List.map (Filename.concat fixture_dir)

let fixture_cmts () = fixture_files ".cmt"

let result = lazy (Analyze_rules.analyze_cmts (fixture_cmts ()))

let findings_of file =
  List.filter
    (fun (f : Analyze_rules.finding) ->
      String.equal (Filename.basename f.diag.Report.file) file)
    (Lazy.force result).Analyze_rules.findings

let check_firing ~file expected =
  let got =
    List.sort compare
      (List.map
         (fun (f : Analyze_rules.finding) ->
           (f.diag.Report.line, f.diag.Report.col, f.diag.Report.rule))
         (findings_of file))
  in
  let expected = List.sort compare expected in
  let show l =
    String.concat "; "
      (List.map (fun (l, c, r) -> Printf.sprintf "%d:%d %s" l c r) l)
  in
  if got <> expected then
    Alcotest.failf "%s: expected [%s], got [%s]" file (show expected)
      (show got)

(* --- rule 1: shared-state inventory ---------------------------------- *)

let test_unguarded () =
  check_firing ~file:"fix_unguarded.ml"
    [
      (6, 2, "unguarded-state");  (* mutable field cache.hits *)
      (7, 2, "unguarded-state");  (* array field cache.slots *)
      (11, 4, "unguarded-state");  (* module-level ref total *)
      (13, 4, "unguarded-state");  (* module-level table, through a
                                      type constraint *)
    ]

let test_inventory_guards () =
  (* The annotated declarations appear in the inventory WITH their
     guards — suppressed from findings, not from the inventory. *)
  let inv = (Lazy.force result).Analyze_rules.inventory in
  let guard_of name =
    match
      List.find_opt
        (fun (i : Analyze_rules.inv_entry) ->
          String.equal i.inv_name name
          && String.equal (Filename.basename i.inv_file) "fix_unguarded.ml")
        inv
    with
    | Some i -> i.inv_guard
    | None -> Alcotest.failf "no inventory entry for %s" name
  in
  Alcotest.(check (option string))
    "cache.misses" (Some "guarded_by lock") (guard_of "cache.misses");
  Alcotest.(check (option string))
    "scratch" (Some "single_domain") (guard_of "scratch");
  Alcotest.(check (option string)) "total" None (guard_of "total")

(* --- rule 2: lock-release discipline ---------------------------------- *)

let test_lock_discipline () =
  check_firing ~file:"fix_lock_leak.ml"
    [
      (11, 2, "lock-divergent");  (* leak: branches disagree *)
      (11, 5, "lock-leak");  (* leak: held at exit *)
      (16, 19, "lock-raise");  (* raise_locked: failwith while locked *)
      (29, 2, "lock-divergent");  (* mutex_leak: one path unlocks *)
    ]

(* --- rule 3: yield-point coverage ------------------------------------- *)

let test_yield_points () =
  check_firing ~file:"fix_spin.ml"
    [
      (4, 8, "yield-point");  (* spin_cas retry function *)
      (10, 2, "yield-point");  (* busy_wait while loop *)
    ]

(* --- rule 4: atomic RMW hygiene --------------------------------------- *)

let test_atomic_rmw () =
  check_firing ~file:"fix_rmw.ml" [ (4, 30, "atomic-rmw") ]

(* --- version words ------------------------------------------------------ *)

let test_version_words () =
  check_firing ~file:"fix_version_word.ml"
    [
      (9, 2, "unguarded-state");  (* Skewed: no version word at field 0 *)
      (9, 30, "unguarded-state");  (* skewed.sv: not field 0 *)
      (11, 2, "unguarded-state");  (* Bare: an immediate *)
      (19, 0, "unguarded-state");  (* any_version: not typed at a node *)
      (23, 31, "unguarded-state");  (* peek: direct read *)
      (24, 30, "unguarded-state");  (* poke: direct write *)
      (25, 26, "unguarded-state");  (* bound: record pattern *)
      (26, 13, "atomic-rmw");  (* bump: stubs count as Atomic get/set *)
    ];
  let inv = (Lazy.force result).Analyze_rules.inventory in
  match
    List.find_opt
      (fun (i : Analyze_rules.inv_entry) -> String.equal i.inv_name "node.iv")
      inv
  with
  | Some i ->
    Alcotest.(check string) "kind" "version-word" i.inv_kind;
    Alcotest.(check (option string)) "guard" (Some "version_word") i.inv_guard
  | None -> Alcotest.fail "no inventory entry for node.iv"

(* --- clean fixture ----------------------------------------------------- *)

let test_clean () = check_firing ~file:"fix_clean.ml" []

(* --- rule 5: exports without a caller ---------------------------------- *)

let export_findings =
  lazy
    (let is_test f =
       String.ends_with ~suffix:"__Fix_export_test.cmt" (Filename.basename f)
     in
     let test, prod = List.partition is_test (fixture_cmts ()) in
     Analyze_rules.dead_exports ~interfaces:(fixture_files ".cmti") ~prod ~test)

let test_exports () =
  let got =
    List.map
      (fun (f : Analyze_rules.finding) ->
        ( Filename.basename f.diag.Report.file,
          f.diag.Report.line,
          f.diag.Report.col,
          f.diag.Report.rule,
          f.slug ))
      (Lazy.force export_findings)
  in
  (* Silent on the values reached through a module alias and an open
     (fix_export.mli), as a functor argument (fix_export_arg.mli) and
     as a first-class module (fix_export_packed.mli). *)
  let expected =
    [
      ("fix_export.mli", 3, 0, "dead-export", "unused");
      ("fix_export.mli", 4, 0, "test-only-export", "test_only");
    ]
  in
  let show l =
    String.concat "; "
      (List.map
         (fun (f, l, c, r, s) -> Printf.sprintf "%s:%d:%d %s %s" f l c r s)
         l)
  in
  if List.sort compare got <> expected then
    Alcotest.failf "expected [%s], got [%s]" (show expected) (show got)

let test_export_baseline () =
  let findings = Lazy.force export_findings in
  let dead =
    List.filter
      (fun (f : Analyze_rules.finding) ->
        String.equal f.diag.Report.rule "dead-export")
      findings
  in
  let baseline = List.map Analyze_rules.finding_key dead in
  Alcotest.(check (list string))
    "key" [ "dead-export test/fixtures_analyze/fix_export.mli unused" ] baseline;
  let remaining, suppressed, unused =
    Analyze_rules.apply_baseline ~baseline findings
  in
  Alcotest.(check int) "suppressed" 1 suppressed;
  Alcotest.(check (list string)) "unused" [] unused;
  Alcotest.(check (list string))
    "remaining" [ "test-only-export" ]
    (List.map (fun (f : Analyze_rules.finding) -> f.diag.Report.rule) remaining)

(* --- baseline ---------------------------------------------------------- *)

let test_baseline () =
  let findings = (Lazy.force result).Analyze_rules.findings in
  let rmw =
    match
      List.find_opt
        (fun (f : Analyze_rules.finding) ->
          String.equal f.diag.Report.rule "atomic-rmw")
        findings
    with
    | Some f -> f
    | None -> Alcotest.fail "no atomic-rmw finding to baseline"
  in
  let baseline =
    Analyze_rules.parse_baseline
      ("# comment\n\n" ^ Analyze_rules.finding_key rmw ^ "\nstale entry x\n")
  in
  let remaining, suppressed, unused =
    Analyze_rules.apply_baseline ~baseline findings
  in
  Alcotest.(check int) "suppressed" 1 suppressed;
  Alcotest.(check int)
    "remaining" (List.length findings - 1) (List.length remaining);
  Alcotest.(check (list string)) "unused" [ "stale entry x" ] unused;
  if
    List.exists
      (fun (f : Analyze_rules.finding) ->
        String.equal f.diag.Report.rule "atomic-rmw"
        && String.equal
             (Filename.basename f.diag.Report.file)
             "fix_rmw.ml")
      remaining
  then Alcotest.fail "baselined finding still reported"

let () =
  Alcotest.run "analyze"
    [
      ( "rules",
        [
          Alcotest.test_case "rule 1: unguarded shared state" `Quick
            test_unguarded;
          Alcotest.test_case "rule 1: inventory carries guards" `Quick
            test_inventory_guards;
          Alcotest.test_case "rule 2: lock-release discipline" `Quick
            test_lock_discipline;
          Alcotest.test_case "rule 3: yield-point coverage" `Quick
            test_yield_points;
          Alcotest.test_case "rule 4: atomic RMW hygiene" `Quick
            test_atomic_rmw;
          Alcotest.test_case "version words: stubs only" `Quick
            test_version_words;
          Alcotest.test_case "clean fixture is silent" `Quick test_clean;
          Alcotest.test_case "rule 5: exports without a caller" `Quick
            test_exports;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "suppress and stale entries" `Quick test_baseline;
          Alcotest.test_case "suppress an export finding" `Quick
            test_export_baseline;
        ]
      );
    ]
