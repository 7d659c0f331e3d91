(* Tests for the workload generators (YCSB, IOTTA-like trace, Fig-1
   volume model) and a cross-index integration battery: every index kind
   in the registry survives every YCSB workload with consistent counts. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng
module Table = Ei_storage.Table
module Ycsb = Ei_workload.Ycsb
module Iotta = Ei_workload.Iotta
module Datagen = Ei_workload.Datagen
module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops

(* --- IOTTA trace ----------------------------------------------------- *)

let test_iotta_shape () =
  let rows = Iotta.generate ~rows:20_000 ~objects:5_000 () in
  Alcotest.(check int) "row count" 20_000 (Array.length rows);
  (* Timestamps strictly increasing => unique index keys. *)
  for i = 0 to Array.length rows - 2 do
    if rows.(i).Iotta.ts >= rows.(i + 1).Iotta.ts then
      Alcotest.fail "timestamps not strictly increasing"
  done;
  (* Object popularity is skewed: the most popular object accounts for
     far more than the uniform share. *)
  let counts = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      Hashtbl.replace counts r.Iotta.obj
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts r.Iotta.obj)))
    rows;
  let max_count = Hashtbl.fold (fun _ c m -> max c m) counts 0 in
  Alcotest.(check bool) "skewed objects" true (max_count > 20_000 / 5_000 * 10);
  (* Ops are valid indices and GETs dominate. *)
  let gets = Array.fold_left (fun a r -> if r.Iotta.op = 0 then a + 1 else a) 0 rows in
  Alcotest.(check bool) "request-type codes" true
    (Array.for_all (fun r -> r.Iotta.op >= 0 && r.Iotta.op < 6) rows);
  Alcotest.(check bool) "GET-dominated" true (gets > Array.length rows / 3);
  (* Keys round-trip their ordering. *)
  let k1 = Iotta.key_of_row rows.(0) and k2 = Iotta.key_of_row rows.(1) in
  Alcotest.(check bool) "time-ordered keys" true (Key.compare k1 k2 < 0)

let test_iotta_deterministic () =
  let a = Iotta.generate ~seed:5 ~rows:1000 ~objects:100 () in
  let b = Iotta.generate ~seed:5 ~rows:1000 ~objects:100 () in
  Alcotest.(check bool) "same trace for same seed" true (a = b)

(* --- Fig 1 volumes ---------------------------------------------------- *)

let test_daily_volumes () =
  let v = Datagen.daily_volumes ~days:365 () in
  let mean, above_15, above_20, max_v = Datagen.stats v in
  Alcotest.(check bool) "mean ~1" true (abs_float (mean -. 1.0) < 0.05);
  (* The paper: "many days" at 1.5x, "some days" at 2x-3.5x. *)
  Alcotest.(check bool) "many 1.5x days" true (above_15 > 10);
  Alcotest.(check bool) "some 2x days" true (above_20 > 2);
  Alcotest.(check bool) "spikes up to 2x-3.5x" true (max_v >= 2.0 && max_v < 5.0)

(* --- YCSB -------------------------------------------------------------- *)

let mk_runner kind =
  let table = Table.create ~key_len:8 () in
  let index = Registry.make ~key_len:8 ~load:(Table.loader table) kind in
  let runner = Ycsb.create ~index ~table ~record_count:2_000 () in
  (runner, index)

let test_ycsb_load () =
  let runner, index = mk_runner Registry.Stx in
  Ycsb.load runner 2_000;
  Alcotest.(check int) "all loaded" 2_000 (index.Index_ops.count ())

let test_ycsb_key_uniqueness () =
  (* The bijective hash must produce distinct keys. *)
  let seen = Hashtbl.create 4096 in
  for seq = 0 to 9_999 do
    let k = Ycsb.key_of_seq seq in
    if Hashtbl.mem seen k then Alcotest.fail "key collision";
    Hashtbl.add seen k ()
  done

let test_workload_names () =
  List.iter
    (fun w ->
      let name = Ycsb.workload_name w in
      Alcotest.(check bool) (name ^ " round-trips") true
        (Ycsb.workload_of_name name = Some w
        && Ycsb.workload_of_name (String.lowercase_ascii name) = Some w))
    [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.D; Ycsb.E; Ycsb.F ];
  Alcotest.(check bool) "other names rejected" true
    (List.for_all (fun n -> Ycsb.workload_of_name n = None) [ ""; "G"; "AB"; " a" ])

(* [Registry.kind_of_name] inverts [kind_name] on one kind of every
   constructor, hands elastic kinds its bound, and rejects the rest. *)
let test_index_names () =
  let module Olc = Ei_olc.Btree_olc in
  let parse = Registry.kind_of_name ~bound:12_345 in
  Registry.
    [ Stx; Seqtree 64; Subtrie 32; Stringtrie 128; Prefix; Bwtree; Hot; Art;
      Skiplist; Hybrid 0.08; Olc Olc.Olc_std;
      Olc (Olc.Olc_seqtree { capacity = 16; levels = 2; breathing = 1 });
      Olc (Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:1));
      Elastic (Ei_core.Elasticity.default_config ~size_bound:1);
      Elastic_skiplist 1 ]
  |> List.iter (fun k ->
         let name = Registry.kind_name k in
         Alcotest.(check (result string string)) name (Ok name)
           (Result.map Registry.kind_name (parse name)));
  let bound = function
    | Ok (Registry.Elastic c) -> c.Ei_core.Elasticity.size_bound
    | Ok (Registry.Elastic_skiplist b) -> b
    | Ok (Registry.Olc (Olc.Olc_elastic c)) -> c.Olc.size_bound
    | Ok _ | Error _ -> 0
  in
  Alcotest.(check (list int)) "elastic kinds carry the bound"
    [ 12_345; 12_345; 12_345 ]
    (List.map (fun n -> bound (parse n)) [ "elastic"; "elastic-skiplist"; "olc-elastic" ]);
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " rejected") true (Result.is_error (parse n)))
    [ ""; "btree"; "seqtree"; "seqtree31"; "seqtree064"; "elastic60" ]

(* At 8-byte keys the bound is the paper's 27 B/key rule, exactly. *)
let test_stx_bound () =
  List.iter
    (fun records ->
      List.iter
        (fun pct ->
          Alcotest.(check int) "27 B/key" (records * 27 * pct / 100)
            (Ei_shard.Fleet.stx_bound ~key_len:8 ~records ~pct))
        [ 1; 7; 33; 37; 60; 99; 100; 150 ])
    [ 0; 1; 3; 999; 5_000; 33_333; 100_001; 2_000_000 ]

(* Every workload on every index kind: counts must stay consistent and no
   operation may lose a key. *)
let ycsb_matrix =
  let kinds =
    [
      Registry.Stx;
      Registry.Seqtree 128;
      Registry.Subtrie 64;
      Registry.Elastic (Ei_core.Elasticity.default_config ~size_bound:40_000);
      Registry.Hot;
      Registry.Art;
      Registry.Skiplist;
      Registry.Hybrid 0.08;
      Registry.Bwtree;
      Registry.Elastic_skiplist 60_000;
    ]
  in
  let workloads = [ Ycsb.A; Ycsb.B; Ycsb.C; Ycsb.D; Ycsb.E; Ycsb.F ] in
  List.concat_map
    (fun kind ->
      List.map
        (fun w ->
          let name =
            Printf.sprintf "%s on %s" (Ycsb.workload_name w)
              (Registry.kind_name kind)
          in
          Alcotest.test_case name `Quick (fun () ->
              let runner, index = mk_runner kind in
              Ycsb.load runner 2_000;
              (* run raises if any read/update misses a loaded key *)
              ignore (Ycsb.run runner ~workload:w ~dist:Ycsb.Zipfian ~ops:2_000);
              ignore (Ycsb.run runner ~workload:w ~dist:Ycsb.Uniform ~ops:1_000);
              Alcotest.(check bool) "count grew or stable" true
                (index.Index_ops.count () >= 2_000)))
        workloads)
    kinds

(* --- MCAS --------------------------------------------------------------- *)

let test_mcas_log_table () =
  let store = Ei_mcas.Store.create () in
  let table =
    Ei_mcas.Log_table.create
      ~index_kind:(Registry.Elastic (Ei_core.Elasticity.default_config ~size_bound:1_000_000))
      ()
  in
  Ei_mcas.Store.attach_ado store ~partition:0 (Ei_mcas.Log_table.ado table);
  let rows = Iotta.generate ~rows:5_000 ~objects:1_000 () in
  Array.iter
    (fun r ->
      match Ei_mcas.Store.invoke store ~partition:0 (Ei_mcas.Ado.Ingest r) with
      | Ei_mcas.Ado.Ack -> ()
      | _ -> Alcotest.fail "unexpected response")
    rows;
  Alcotest.(check int) "rows" 5_000 ((Ei_mcas.Log_table.index table).Index_ops.count ());
  (* Point lookups return the full row. *)
  Array.iter
    (fun r ->
      match
        Ei_mcas.Store.invoke store ~partition:0
          (Ei_mcas.Ado.Lookup (Iotta.key_of_row r))
      with
      | Ei_mcas.Ado.Found (Some row) ->
        if row <> r then Alcotest.fail "row corrupted"
      | _ -> Alcotest.fail "row lost")
    rows;
  (* Scans visit the requested number of keys. *)
  (match
     Ei_mcas.Store.invoke store ~partition:0
       (Ei_mcas.Ado.Scan (Iotta.key_of_row rows.(100), 50))
   with
  | Ei_mcas.Ado.Scanned n -> Alcotest.(check int) "scan length" 50 n
  | _ -> Alcotest.fail "scan failed");
  (* Included-column monitoring query: cross-check against a direct
     computation over the trace. *)
  let start_row = 200 in
  let span = 400 in
  (match
     Ei_mcas.Store.invoke store ~partition:0
       (Ei_mcas.Ado.Distinct_objects (Iotta.key_of_row rows.(start_row), span))
   with
  | Ei_mcas.Ado.Distinct got ->
    let expect = Hashtbl.create 64 in
    for i = start_row to start_row + span - 1 do
      Hashtbl.replace expect rows.(i).Iotta.obj ()
    done;
    Alcotest.(check int) "distinct objects" (Hashtbl.length expect) got
  | _ -> Alcotest.fail "distinct query failed");
  (* Accounting is wired through. *)
  Alcotest.(check bool) "index memory positive" true
    (Ei_mcas.Store.ado_memory_bytes store ~partition:0 > 0);
  Alcotest.(check int) "data bytes" (5_000 * 32)
    (Ei_mcas.Log_table.data_bytes table)

let test_mcas_partitioned () =
  (* The partitioned architecture: one log-table ADO per partition, rows
     routed by object id, one domain driving each partition's engine. *)
  let partitions = 4 in
  let store = Ei_mcas.Store.create ~partitions () in
  let tables =
    Array.init partitions (fun p ->
        let t = Ei_mcas.Log_table.create ~index_kind:(Registry.Seqtree 128) () in
        Ei_mcas.Store.attach_ado store ~partition:p (Ei_mcas.Log_table.ado t);
        t)
  in
  let rows = Iotta.generate ~rows:8_000 ~objects:1_000 () in
  let route r = r.Iotta.obj mod partitions in
  let worker p () =
    Array.iter
      (fun r ->
        if route r = p then
          match Ei_mcas.Store.invoke store ~partition:p (Ei_mcas.Ado.Ingest r) with
          | Ei_mcas.Ado.Ack -> ()
          | _ -> failwith "bad response")
      rows
  in
  List.iter Domain.join
    (List.init partitions (fun p -> Domain.spawn (worker p)));
  (* Every row is found in exactly its partition. *)
  Array.iter
    (fun r ->
      let p = route r in
      (match
         Ei_mcas.Store.invoke store ~partition:p
           (Ei_mcas.Ado.Lookup (Iotta.key_of_row r))
       with
      | Ei_mcas.Ado.Found (Some row) when row = r -> ()
      | _ -> Alcotest.fail "row missing from its partition");
      let other = (p + 1) mod partitions in
      match
        Ei_mcas.Store.invoke store ~partition:other
          (Ei_mcas.Ado.Lookup (Iotta.key_of_row r))
      with
      | Ei_mcas.Ado.Found None -> ()
      | _ -> Alcotest.fail "row leaked across partitions")
    rows;
  let total =
    Array.fold_left
      (fun a t -> a + (Ei_mcas.Log_table.index t).Index_ops.count ())
      0 tables
  in
  Alcotest.(check int) "all rows stored once" (Array.length rows) total

let test_mcas_index_variants () =
  (* The same trace through every index plugged into the table. *)
  let rows = Iotta.generate ~rows:3_000 ~objects:500 () in
  List.iter
    (fun kind ->
      let table = Ei_mcas.Log_table.create ~index_kind:kind () in
      let ado = Ei_mcas.Log_table.ado table in
      Array.iter (fun r -> ignore (ado.Ei_mcas.Ado.on_work (Ei_mcas.Ado.Ingest r))) rows;
      Array.iter
        (fun r ->
          match ado.Ei_mcas.Ado.on_work (Ei_mcas.Ado.Lookup (Iotta.key_of_row r)) with
          | Ei_mcas.Ado.Found (Some row) when row = r -> ()
          | _ -> Alcotest.failf "lost row under %s" (Registry.kind_name kind))
        rows)
    [ Registry.Stx; Registry.Seqtree 128; Registry.Hot ]

let () =
  Alcotest.run "ei_workload_mcas"
    [
      ( "iotta",
        [
          Alcotest.test_case "trace shape" `Quick test_iotta_shape;
          Alcotest.test_case "deterministic" `Quick test_iotta_deterministic;
        ] );
      ("fig1", [ Alcotest.test_case "daily volumes" `Quick test_daily_volumes ]);
      ( "ycsb",
        Alcotest.test_case "load phase" `Quick test_ycsb_load
        :: Alcotest.test_case "key uniqueness" `Quick test_ycsb_key_uniqueness
        :: Alcotest.test_case "workload names" `Quick test_workload_names
        :: Alcotest.test_case "index names" `Quick test_index_names
        :: Alcotest.test_case "stx bound" `Quick test_stx_bound
        :: ycsb_matrix );
      ( "mcas",
        [
          Alcotest.test_case "log table ado" `Quick test_mcas_log_table;
          Alcotest.test_case "partitioned ado engines" `Quick test_mcas_partitioned;
          Alcotest.test_case "index variants" `Quick test_mcas_index_variants;
        ] );
    ]
