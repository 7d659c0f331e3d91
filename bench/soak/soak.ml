(* Extended soak utility (not part of `dune runtest`, which favours CI
   speed): 300k mixed operations on the elastic B+-tree (cold sweep
   enabled) and 150k on the elastic skip list, validated against Map
   reference models with structural invariant checks every 10k steps.

   Run with: dune exec bench/soak/soak.exe *)
module Key = Ei_util.Key
module Rng = Ei_util.Rng
module Table = Ei_storage.Table
module Smap = Map.Make (String)

let soak_btree () =
  let table = Table.create ~key_len:8 () in
  let config = Ei_core.Elasticity.default_config ~size_bound:120_000 in
  let config = { config with Ei_core.Elasticity.cold_sweep_period = 32 } in
  let t = Ei_core.Elastic_btree.create ~key_len:8 ~load:(Table.loader table) config () in
  let rng = Rng.create 424242 in
  let pool = Array.init 12_000 (fun _ -> Key.random rng 8) in
  let tid_of = Hashtbl.create 1024 in
  let model = ref Smap.empty in
  for step = 1 to 300_000 do
    let k = pool.(Rng.int rng (Array.length pool)) in
    let c = Rng.int rng 100 in
    if c < 50 then begin
      let tid = match Hashtbl.find_opt tid_of k with
        | Some t -> t | None -> let t = Table.append table k in Hashtbl.add tid_of k t; t in
      let r = Ei_core.Elastic_btree.insert t k tid in
      if Bool.equal r (Smap.mem k !model) then failwith "insert mismatch";
      if r then model := Smap.add k tid !model
    end else if c < 75 then begin
      let r = Ei_core.Elastic_btree.remove t k in
      if not (Bool.equal r (Smap.mem k !model)) then failwith "remove mismatch";
      model := Smap.remove k !model
    end else if c < 90 then begin
      if not (Option.equal Int.equal (Ei_core.Elastic_btree.find t k)
                (Smap.find_opt k !model))
      then failwith "find mismatch"
    end else begin
      let got = Ei_core.Elastic_btree.fold_range t ~start:k ~n:12 (fun a k' v -> (k',v)::a) [] |> List.rev in
      let exp = Smap.to_seq !model |> Seq.filter (fun (k',_) -> Key.compare k' k >= 0) |> Seq.take 12 |> List.of_seq in
      let pair_eq (k1, v1) (k2, v2) = String.equal k1 k2 && Int.equal v1 v2 in
      if not (List.equal pair_eq got exp) then failwith "scan mismatch"
    end;
    if step mod 10_000 = 0 then Ei_core.Elastic_btree.check_invariants t
  done;
  Printf.printf "btree soak: 300k ops ok; %d items, %d transitions, %d compact leaves, %.2f MB\n%!"
    (Ei_core.Elastic_btree.count t) (Ei_core.Elastic_btree.transitions t)
    (Ei_core.Elastic_btree.compact_leaves t)
    (float_of_int (Ei_core.Elastic_btree.memory_bytes t) /. 1048576.)

let soak_skiplist () =
  let module E = Ei_core.Elastic_skiplist in
  let table = Table.create ~key_len:8 () in
  let t = E.create ~key_len:8 ~load:(Table.loader table) ~size_bound:60_000 () in
  let rng = Rng.create 777 in
  let pool = Array.init 6_000 (fun _ -> Key.random rng 8) in
  let tid_of = Hashtbl.create 1024 in
  let model = ref Smap.empty in
  for step = 1 to 150_000 do
    let k = pool.(Rng.int rng (Array.length pool)) in
    let c = Rng.int rng 100 in
    if c < 50 then begin
      let tid = match Hashtbl.find_opt tid_of k with
        | Some t -> t | None -> let t = Table.append table k in Hashtbl.add tid_of k t; t in
      let r = E.insert t k tid in
      if Bool.equal r (Smap.mem k !model) then failwith "sl insert mismatch";
      if r then model := Smap.add k tid !model
    end else if c < 75 then begin
      let r = E.remove t k in
      if not (Bool.equal r (Smap.mem k !model)) then failwith "sl remove mismatch";
      model := Smap.remove k !model
    end else if
      not (Option.equal Int.equal (Ei_core.Elastic_skiplist.find t k)
             (Smap.find_opt k !model))
    then failwith "sl find mismatch";
    if step mod 10_000 = 0 then E.check_invariants t
  done;
  Printf.printf "skiplist soak: 150k ops ok; %d items, %d segments\n%!" (E.count t) (E.segments t)

let () = soak_btree (); soak_skiplist ()
