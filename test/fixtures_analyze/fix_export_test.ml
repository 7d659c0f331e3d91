(* The test-side caller of the export fixtures. *)

let t = Fix_export.test_only
