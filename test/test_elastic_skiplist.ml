(* Tests for the elastic skip list: differential correctness against a
   Map model while the state machine churns, the shrink/expand
   lifecycle, and space savings against the plain skip list. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng

(* All trial seeds derive from EI_SEED (default 0): stream N here was
   formerly the fixed seed N, so default behaviour is unchanged in
   spirit while EI_SEED re-rolls the whole executable. *)
let seed = Rng.env_seed ~default:0
module Table = Ei_storage.Table
module Esl = Ei_core.Elastic_skiplist
module Skiplist = Ei_baselines.Skiplist

module Metrics = Ei_obs.Metrics
module Smap = Map.Make (String)

let mk ?(size_bound = 64 * 1024) ~key_len () =
  let table = Table.create ~key_len () in
  let t = Esl.create ~key_len ~load:(Table.loader table) ~size_bound () in
  (table, t)

let test_random_ops () =
  (* Small bound => constant churn between states while checking every
     operation against the model. *)
  let table, t = mk ~size_bound:20_000 ~key_len:8 () in
  let rng = Rng.stream seed 41 in
  let model = ref Smap.empty in
  let pool = Array.init 1_500 (fun _ -> Key.random rng 8) in
  let tid_of = Hashtbl.create 128 in
  (* Elasticity is read off the process-wide counters, as deltas across
     this run with metrics on. *)
  let transitions = Metrics.counter "skiplist.transitions" in
  let conversions = Metrics.counter "skiplist.conversions" in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let transitions0 = Metrics.counter_value transitions in
  let conversions0 = Metrics.counter_value conversions in
  for step = 1 to 10_000 do
    let k = pool.(Rng.int rng (Array.length pool)) in
    let c = Rng.int rng 100 in
    if c < 50 then begin
      let tid =
        match Hashtbl.find_opt tid_of k with
        | Some tid -> tid
        | None ->
          let tid = Table.append table k in
          Hashtbl.add tid_of k tid;
          tid
      in
      if Esl.insert t k tid <> not (Smap.mem k !model) then
        Alcotest.failf "insert mismatch at step %d" step;
      if not (Smap.mem k !model) then model := Smap.add k tid !model
    end
    else if c < 72 then begin
      if Esl.remove t k <> Smap.mem k !model then
        Alcotest.failf "remove mismatch at step %d" step;
      model := Smap.remove k !model
    end
    else if c < 88 then begin
      match (Esl.find t k, Smap.find_opt k !model) with
      | Some a, Some b -> if a <> b then Alcotest.fail "tid mismatch"
      | None, None -> ()
      | _ -> Alcotest.failf "membership mismatch at step %d" step
    end
    else begin
      let start = Key.random rng 8 in
      let n = 1 + Rng.int rng 25 in
      let got =
        List.rev (Esl.fold_range t ~start ~n (fun acc k' v -> (k', v) :: acc) [])
      in
      let expected =
        Smap.to_seq !model
        |> Seq.filter (fun (k', _) -> Key.compare k' start >= 0)
        |> Seq.take n |> List.of_seq
      in
      if got <> expected then Alcotest.failf "scan mismatch at step %d" step
    end;
    if Esl.count t <> Smap.cardinal !model then
      Alcotest.failf "count mismatch at step %d" step;
    if step mod 500 = 0 then Esl.check_invariants t
  done;
  Esl.check_invariants t;
  Alcotest.(check bool) "elasticity engaged" true
    (Metrics.counter_value transitions > transitions0);
  Alcotest.(check bool) "segments were formed" true
    (Metrics.counter_value conversions > conversions0)

let test_lifecycle () =
  let size_bound = 600_000 in
  let table, t = mk ~size_bound ~key_len:8 () in
  let rng = Rng.stream seed 3 in
  let seen = Hashtbl.create 1024 in
  let keys =
    Array.init 15_000 (fun _ ->
        let rec fresh () =
          let k = Key.random rng 8 in
          if Hashtbl.mem seen k then fresh ()
          else begin
            Hashtbl.add seen k ();
            k
          end
        in
        fresh ())
  in
  Array.iter (fun k -> ignore (Esl.insert t k (Table.append table k))) keys;
  Esl.check_invariants t;
  Alcotest.(check string) "shrinking" "shrinking" (Ei_btree.Hysteresis.state_name (Esl.state t));
  Alcotest.(check bool) "has segments" true (Esl.segments t > 0);
  let overshoot = float_of_int (Esl.memory_bytes t) /. float_of_int size_bound in
  if overshoot > 1.2 then Alcotest.failf "overshoot %.2f" overshoot;
  Array.iter
    (fun k -> if Esl.find t k = None then Alcotest.fail "key lost under pressure")
    keys;
  (* Delete 85% and drive searches: segments dissolve, state normalises. *)
  Array.iteri (fun i k -> if i mod 7 <> 0 then ignore (Esl.remove t k)) keys;
  Esl.check_invariants t;
  let budget = ref 300_000 in
  while Esl.segments t > 0 && !budget > 0 do
    decr budget;
    ignore (Esl.find t keys.(7 * (!budget mod (Array.length keys / 7))))
  done;
  Alcotest.(check int) "all segments dissolved" 0 (Esl.segments t);
  Esl.check_invariants t;
  Array.iteri
    (fun i k -> if i mod 7 = 0 && Esl.find t k = None then Alcotest.fail "survivor lost")
    keys

let test_space_savings () =
  (* Same data: elastic skip list under a tight bound vs plain skip
     list.  The framework claim (§3): the same transformation works on a
     skip list and yields comparable savings. *)
  let key_len = 16 in
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let rng = Rng.stream seed 9 in
  let seen = Hashtbl.create 1024 in
  let keys =
    Array.init 20_000 (fun _ ->
        let rec fresh () =
          let k = Key.random rng key_len in
          if Hashtbl.mem seen k then fresh ()
          else begin
            Hashtbl.add seen k ();
            k
          end
        in
        fresh ())
  in
  let tids = Array.map (Table.append table) keys in
  let plain = Skiplist.create ~key_len () in
  Array.iteri (fun i k -> ignore (Skiplist.insert plain k tids.(i))) keys;
  let plain_bytes = Skiplist.memory_bytes plain in
  let elastic = Esl.create ~key_len ~load ~size_bound:(plain_bytes / 3) () in
  Array.iteri (fun i k -> ignore (Esl.insert elastic k tids.(i))) keys;
  Esl.check_invariants elastic;
  let ratio = float_of_int (Esl.memory_bytes elastic) /. float_of_int plain_bytes in
  if ratio > 0.55 then Alcotest.failf "elastic/plain ratio too high: %.2f" ratio;
  Array.iteri
    (fun i k ->
      match Esl.find elastic k with
      | Some tid when tid = tids.(i) -> ()
      | _ -> Alcotest.fail "key lost")
    keys

let () =
  Alcotest.run "ei_elastic_skiplist"
    [
      ( "elastic-skiplist",
        [
          Alcotest.test_case "random ops with churn" `Quick test_random_ops;
          Alcotest.test_case "shrink/expand lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "space savings vs plain" `Quick test_space_savings;
        ] );
    ]
