(* Correctness checks: every violated check is counted and the first
   few are described on stderr; any violation makes the run exit
   nonzero with [correct = false]. *)

let violations = Atomic.make 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      let n = Atomic.fetch_and_add violations 1 in
      if n < 10 then prerr_endline ("ei_bench: check failed: " ^ msg))
    fmt

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

let ok () = Atomic.get violations = 0
