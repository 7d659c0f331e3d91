(* Tour of the elastic index framework: the SAME transformation — a soft
   size bound, compact SeqTree nodes with indirect key storage, and a
   shrink/expand state machine — applied to three different base
   structures:

     1. the B+-tree (the paper's §4),
     2. a skip list (§3's generality claim),
     3. a concurrent OLC B+-tree (the elastic BTreeOLC §6.2 leaves as
        future work), exercised from multiple domains.

   Each index gets the same data and the same bound (one third of what
   the plain structure would need) and reports how it adapted.

   Run with: dune exec examples/framework_tour.exe *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng
module Table = Ei_storage.Table
module Clock = Ei_util.Bench_clock

let n = 50_000
let key_len = 16

let () =
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let rng = Rng.create 2024 in
  let seen = Hashtbl.create 1024 in
  let keys =
    Array.init n (fun _ ->
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
  (* What would the plain structures need? *)
  let plain_btree =
    Ei_btree.Btree.create ~key_len ~load ~policy:Ei_btree.Policy.(fixed Spec_std) ()
  in
  Array.iteri (fun i k -> ignore (Ei_btree.Btree.insert plain_btree k tids.(i))) keys;
  let btree_bytes = Ei_btree.Btree.memory_bytes plain_btree in
  let bound = btree_bytes / 3 in
  Printf.printf
    "%d keys of %d bytes; plain B+-tree needs %.2f MiB; every elastic\n\
     variant gets a soft bound of %.2f MiB (a third)\n\n"
    n key_len (Clock.mib btree_bytes) (Clock.mib bound);

  (* 1. Elastic B+-tree. *)
  let eb =
    Ei_core.Elastic_btree.create ~key_len ~load
      (Ei_core.Elasticity.default_config ~size_bound:bound)
      ()
  in
  Array.iteri (fun i k -> ignore (Ei_core.Elastic_btree.insert eb k tids.(i))) keys;
  Printf.printf "elastic B+-tree:   %.2f MiB, %s, %d compact leaves\n"
    (Clock.mib (Ei_core.Elastic_btree.memory_bytes eb))
    (Ei_btree.Hysteresis.state_name (Ei_core.Elastic_btree.state eb))
    (Ei_core.Elastic_btree.compact_leaves eb);

  (* 2. Elastic skip list: same bound, same compact representation. *)
  let esl =
    Ei_core.Elastic_skiplist.create ~key_len ~load ~size_bound:bound ()
  in
  Array.iteri (fun i k -> ignore (Ei_core.Elastic_skiplist.insert esl k tids.(i))) keys;
  Printf.printf "elastic skiplist:  %.2f MiB, %s, %d compact segments\n"
    (Clock.mib (Ei_core.Elastic_skiplist.memory_bytes esl))
    (Ei_btree.Hysteresis.state_name (Ei_core.Elastic_skiplist.state esl))
    (Ei_core.Elastic_skiplist.segments esl);

  (* 3. Elastic BTreeOLC: four domains inserting concurrently. *)
  let module Olc = Ei_olc.Btree_olc in
  let olc =
    Olc.create
      ~kind:(Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:bound))
      ~key_len
      ~load:
        (Olc.safe_loader ~key_len
           ~table_length:(fun () -> Table.length table)
           ~load)
      ()
  in
  let domains = 4 in
  let shuffled = Array.init n (fun i -> i) in
  Rng.shuffle (Rng.create 7) shuffled;
  let worker d () =
    let per = n / domains in
    for j = d * per to ((d + 1) * per) - 1 do
      let i = shuffled.(j) in
      ignore (Olc.insert olc keys.(i) tids.(i))
    done
  in
  List.iter Domain.join (List.init domains (fun d -> Domain.spawn (worker d)));
  Printf.printf "elastic BTreeOLC:  %.2f MiB, %s, %d compact leaves (4 domains)\n"
    (Clock.mib (Olc.tracked_memory_bytes olc))
    (Option.fold ~none:"" ~some:Ei_btree.Hysteresis.state_name
       (Olc.elastic_state olc))
    (Olc.elastic_compact_leaves olc);

  (* All three still answer queries correctly. *)
  let check name find =
    let rng = Rng.create 99 in
    for _ = 1 to 5_000 do
      let i = Rng.int rng n in
      match find keys.(i) with
      | Some tid when tid = tids.(i) -> ()
      | _ -> failwith (name ^ ": lost a key under pressure")
    done
  in
  check "btree" (Ei_core.Elastic_btree.find eb);
  check "skiplist" (Ei_core.Elastic_skiplist.find esl);
  check "olc" (Olc.find olc);
  Printf.printf "\nall three verified: every key answered correctly under pressure\n"
