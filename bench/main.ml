(* Benchmark harness entry point: one experiment per figure of the
   paper's evaluation (§6), plus the §6.1 operation-cost breakdown and
   Bechamel micro-benchmarks.

   Usage:
     dune exec bench/main.exe                 # run everything
     dune exec bench/main.exe fig5 fig9       # selected experiments
     EI_SCALE=2 dune exec bench/main.exe fig8 # scale item counts

   EXPERIMENTS.md records the expected shapes next to the paper's
   reported numbers. *)

let experiments =
  [
    ("fig1", Fig1.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig7", Fig7.run);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig6_par", Fig6_par.run);
    ("fig7_par", Fig7_par.run);
    ("cost", Cost.run);
    ("keysize", Keysize.run);
    ("ablation", Ablation.run);
    ("net", Bench_net.run);
    ("micro", Micro.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  Printf.printf "elastic-indexes benchmark suite (EI_SCALE=%.2f, EI_SEED=%d)\n%!"
    Bench_util.scale Bench_util.seed;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run ->
        let (), dt = Ei_util.Bench_clock.time run in
        Printf.printf "[%s done in %.1f s]\n%!" name dt
      | None ->
        Printf.eprintf "unknown experiment %S; available: %s\n%!" name
          (String.concat ", " (List.map fst experiments));
        exit 2)
    requested
