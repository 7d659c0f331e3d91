(* Tests for the elasticity algorithm and the elastic B+-tree:
   correctness under random operations while states churn, the
   shrink/expand lifecycle against the soft size bound, hysteresis, and
   convergence back to a fully standard tree. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng

(* All trial seeds derive from EI_SEED (default 0): stream N here was
   formerly the fixed seed N, so default behaviour is unchanged in
   spirit while EI_SEED re-rolls the whole executable. *)
let seed = Rng.env_seed ~default:0
module Table = Ei_storage.Table
module Btree = Ei_btree.Btree
module Policy = Ei_btree.Policy
module Elasticity = Ei_core.Elasticity
module Hysteresis = Ei_btree.Hysteresis
module Elastic = Ei_core.Elastic_btree

module Smap = Map.Make (String)

let mk ?(size_bound = 64 * 1024) ~key_len () =
  let table = Table.create ~key_len () in
  let config = Elasticity.default_config ~size_bound in
  let tree =
    Elastic.create ~key_len ~load:(Table.loader table) config ()
  in
  (table, tree)

(* --- Correctness while elasticity is active ------------------------ *)

let test_random_ops () =
  (* A small bound forces Normal -> Shrinking -> Expanding churn while we
     verify every operation against the model. *)
  let table, tree = mk ~size_bound:24_000 ~key_len:8 () in
  let rng = Rng.stream seed 1234 in
  let model = ref Smap.empty in
  let pool = Array.init 2_000 (fun _ -> Key.random rng 8) in
  let tid_of = Hashtbl.create 256 in
  for step = 1 to 12_000 do
    let k = pool.(Rng.int rng (Array.length pool)) in
    let choice = Rng.int rng 100 in
    if choice < 55 then begin
      let tid =
        match Hashtbl.find_opt tid_of k with
        | Some tid -> tid
        | None ->
          let tid = Table.append table k in
          Hashtbl.add tid_of k tid;
          tid
      in
      let inserted = Elastic.insert tree k tid in
      if inserted <> not (Smap.mem k !model) then
        Alcotest.fail "insert mismatch";
      if inserted then model := Smap.add k tid !model
    end
    else if choice < 80 then begin
      let removed = Elastic.remove tree k in
      if removed <> Smap.mem k !model then Alcotest.fail "remove mismatch";
      if removed then model := Smap.remove k !model
    end
    else begin
      match (Elastic.find tree k, Smap.find_opt k !model) with
      | Some a, Some b -> if a <> b then Alcotest.fail "tid mismatch"
      | None, None -> ()
      | _ -> Alcotest.fail "membership mismatch"
    end;
    if Elastic.count tree <> Smap.cardinal !model then
      Alcotest.failf "count mismatch at step %d" step;
    if step mod 500 = 0 then Elastic.check_invariants tree
  done;
  Elastic.check_invariants tree;
  (* Elasticity must actually have engaged during the run. *)
  Alcotest.(check bool) "states changed" true (Elastic.transitions tree > 0)

(* --- Lifecycle: shrink under pressure, expand after ----------------- *)

let test_lifecycle () =
  (* The bound must be reachable: 12k 8-byte keys need ~130 KB even at
     maximal compaction, while STX would use ~330 KB.  200 KB forces
     shrinking but is attainable. *)
  let size_bound = 200_000 in
  let table, tree = mk ~size_bound ~key_len:8 () in
  let rng = Rng.stream seed 9 in
  let keys = Array.init 12_000 (fun _ -> Key.random rng 8) in
  (* Deduplicate: regenerate clashes. *)
  let seen = Hashtbl.create 1024 in
  Array.iteri
    (fun i k ->
      let rec fresh k = if Hashtbl.mem seen k then fresh (Key.random rng 8) else k in
      let k = fresh k in
      Hashtbl.add seen k ();
      keys.(i) <- k)
    keys;
  Alcotest.(check string) "starts normal" "normal"
    (Hysteresis.state_name (Elastic.state tree));
  Array.iter (fun k -> ignore (Elastic.insert tree k (Table.append table k))) keys;
  Elastic.check_invariants tree;
  Alcotest.(check string) "shrinking under pressure" "shrinking"
    (Hysteresis.state_name (Elastic.state tree));
  Alcotest.(check bool) "has compact leaves" true (Elastic.compact_leaves tree > 0);
  (* The index must stay close to the soft bound despite holding far more
     items than a standard tree could: allow 15% overshoot. *)
  let overshoot =
    float_of_int (Elastic.memory_bytes tree) /. float_of_int size_bound
  in
  if overshoot > 1.15 then
    Alcotest.failf "index exceeded soft bound by %.0f%%" ((overshoot -. 1.0) *. 100.0);
  (* Every key still findable through mixed representations. *)
  Array.iter
    (fun k -> if Elastic.find tree k = None then Alcotest.fail "key lost")
    keys;
  (* Delete 90% of the data: expansion should kick in. *)
  Array.iteri
    (fun i k -> if i mod 10 <> 0 then ignore (Elastic.remove tree k))
    keys;
  Elastic.check_invariants tree;
  Alcotest.(check bool) "left shrinking" true (Elastic.state tree <> Hysteresis.Shrinking);
  (* Drive searches so the random search-split decompacts hot leaves, and
     verify convergence to a fully standard tree. *)
  let survivors = Array.of_list
      (Array.to_list keys |> List.filteri (fun i _ -> i mod 10 = 0))
  in
  let budget = ref 400_000 in
  while Elastic.compact_leaves tree > 0 && !budget > 0 do
    decr budget;
    ignore (Elastic.find tree survivors.(Rng.int rng (Array.length survivors)))
  done;
  Alcotest.(check int) "fully decompacted" 0 (Elastic.compact_leaves tree);
  Alcotest.(check string) "back to normal" "normal"
    (Hysteresis.state_name (Elastic.state tree));
  Elastic.check_invariants tree;
  Array.iter
    (fun k -> if Elastic.find tree k = None then Alcotest.fail "survivor lost")
    survivors

(* --- Capacity progression ------------------------------------------ *)

let test_capacity_progression () =
  let table, tree = mk ~size_bound:60_000 ~key_len:8 () in
  let rng = Rng.stream seed 5 in
  for _ = 1 to 20_000 do
    let k = Key.random rng 8 in
    ignore (Elastic.insert tree k (Table.append table k))
  done;
  let specs =
    Btree.fold_leaves (Elastic.tree tree)
      (fun acc spec _ ->
        match spec with
        | Policy.Spec_seq c ->
          if not (List.mem c acc) then c :: acc else acc
        | Policy.Spec_std | Policy.Spec_sub _ | Policy.Spec_pre | Policy.Spec_str _ | Policy.Spec_bw -> acc)
      []
  in
  (* Compact capacities must be from the 32 -> 64 -> 128 progression and
     the cap must have been reached under this much pressure. *)
  List.iter
    (fun c ->
      if c <> 32 && c <> 64 && c <> 128 then
        Alcotest.failf "unexpected compact capacity %d" c)
    specs;
  Alcotest.(check bool) "reached max capacity" true (List.mem 128 specs)

(* --- Elasticity state machine in isolation ------------------------- *)

let test_state_machine () =
  let config = Elasticity.default_config ~size_bound:1000 in
  let e = Elasticity.create ~std_capacity:16 config in
  let view bytes compact : Policy.view =
    { Policy.bytes; compact_leaves = compact; items = 0 }
  in
  let touch v =
    ignore
      ((Elasticity.policy e).Policy.on_underflow v ~current:Policy.Spec_std
         ~count:0)
  in
  Alcotest.(check string) "initial" "normal" (Hysteresis.state_name (Elasticity.state e));
  touch (view 500 0);
  Alcotest.(check string) "below threshold stays normal" "normal"
    (Hysteresis.state_name (Elasticity.state e));
  touch (view 901 0);
  Alcotest.(check string) "shrinks at 90%" "shrinking"
    (Hysteresis.state_name (Elasticity.state e));
  (* Hysteresis: dropping just below the shrink threshold must NOT expand. *)
  touch (view 880 5);
  Alcotest.(check string) "hysteresis holds" "shrinking"
    (Hysteresis.state_name (Elasticity.state e));
  touch (view 700 5);
  Alcotest.(check string) "expands below 75%" "expanding"
    (Hysteresis.state_name (Elasticity.state e));
  touch (view 800 5);
  Alcotest.(check string) "expanding persists mid-band" "expanding"
    (Hysteresis.state_name (Elasticity.state e));
  touch (view 800 0);
  Alcotest.(check string) "normal once decompacted" "normal"
    (Hysteresis.state_name (Elasticity.state e));
  touch (view 950 0);
  Alcotest.(check string) "re-shrinks" "shrinking"
    (Hysteresis.state_name (Elasticity.state e))

(* --- The engine, exhaustively ---------------------------------------- *)

let test_engine_exhaustive () =
  (* Bounds 1-4 are left out: both thresholds round to the same byte
     count there, so the hysteresis band is empty. *)
  for bound = 5 to 64 do
    for bytes = 0 to 2 * bound do
      List.iter
        (fun compact ->
          List.iter
            (fun s ->
              let step s = Hysteresis.step s ~bound ~bytes ~compact in
              let fail what =
                Alcotest.failf "bound %d, bytes %d, compact %d, from %s: %s"
                  bound bytes compact (Hysteresis.state_name s) what
              in
              let s1 = step s in
              (match (s, s1) with
              | Hysteresis.Shrinking, Hysteresis.Normal ->
                fail "shrinking stepped straight to normal"
              | Hysteresis.Normal, Hysteresis.Expanding ->
                fail "normal stepped straight to expanding"
              | _ -> ());
              let s2 = step s1 in
              if not (Hysteresis.state_equal (step s2) s2) then
                fail "no fixed point within two steps")
            Hysteresis.[ Normal; Shrinking; Expanding ])
        [ 0; 1 ]
    done
  done

let test_capacity_closure () =
  (* The capacities doubling and halving reach from the first compact
     capacity are exactly the ones the legal-capacity check accepts. *)
  List.iter
    (fun std ->
      let initial, max_capacity = Hysteresis.lift ~std in
      let rec close seen = function
        | [] -> seen
        | c :: rest when List.mem c seen -> close seen rest
        | c :: rest ->
          close (c :: seen)
            (List.filter_map
               (fun next -> next c)
               [ Hysteresis.double ~max_capacity; Hysteresis.halve ~floor:std ]
            @ rest)
      in
      let reachable = close [] [ initial ] in
      for c = 1 to 4 * max_capacity do
        let legal = Hysteresis.legal_capacity ~std c in
        if legal <> List.mem c reachable then
          Alcotest.failf "std %d: capacity %d legal %b, reachable %b" std c
            legal (List.mem c reachable)
      done)
    [ 8; 16; 32 ]

let test_shrink_overflow_exhaustive () =
  (* Every state x standard leaf or compact capacity 32/64/128 x standard
     capacity 8/16/32, against a written-out table of §4's shrink rule:
     only a Shrinking tree converts, a standard leaf to the first compact
     capacity (2n once n reaches 32) and a compact leaf to twice its
     capacity below 128. *)
  let shrinking ~std = function
    | None -> Some (if std >= 32 then 2 * std else 32)
    | Some 32 -> Some 64
    | Some 64 -> Some 128
    | Some _ -> None
  in
  let show = function None -> "split" | Some c -> string_of_int c in
  List.iter
    (fun std ->
      List.iter
        (fun leaf ->
          List.iter
            (fun s ->
              let got = Hysteresis.shrink_to ~std s leaf in
              let want =
                match s with
                | Hysteresis.Shrinking -> shrinking ~std leaf
                | Hysteresis.Normal | Hysteresis.Expanding -> None
              in
              if got <> want then
                Alcotest.failf "std %d, %s leaf, %s: got %s, want %s" std
                  (match leaf with None -> "std" | Some c -> string_of_int c)
                  (Hysteresis.state_name s) (show got) (show want);
              match got with
              | Some d when not (Hysteresis.legal_capacity ~std d) ->
                Alcotest.failf "std %d: target %d is not a legal capacity" std d
              | Some _ | None -> ())
            Hysteresis.[ Normal; Shrinking; Expanding ])
        [ None; Some 32; Some 64; Some 128 ])
    [ 8; 16; 32 ]

let test_search_split_draw () =
  (* The draw happens only while Expanding, once per call. *)
  List.iter
    (fun s ->
      let rng = Rng.create 9 in
      let twin = Rng.copy rng in
      let hit = Hysteresis.search_splits s rng in
      let expanding = Hysteresis.state_equal s Hysteresis.Expanding in
      if expanding then begin
        Alcotest.(check bool) "hit is the draw" hit
          (Float.compare (Rng.float twin) Hysteresis.search_split_probability
           < 0)
      end
      else Alcotest.(check bool) "no split" false hit;
      Alcotest.(check int)
        (Printf.sprintf "%s: draws" (Hysteresis.state_name s))
        (Rng.next_int twin) (Rng.next_int rng))
    Hysteresis.[ Normal; Shrinking; Expanding ]

(* --- Elastic vs STX space at equal item counts ---------------------- *)

let test_space_savings () =
  (* With a tight bound, the elastic tree holds the same data in a
     fraction of STX's space (Fig 5b / Fig 8a shapes). *)
  let rng = Rng.stream seed 31 in
  let keys = Array.init 30_000 (fun _ -> Key.random rng 8) in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let tids = Array.map (Table.append table) keys in
  let stx = Btree.create ~key_len:8 ~load ~policy:(Policy.fixed Policy.Spec_std) () in
  Array.iteri (fun i k -> ignore (Btree.insert stx k tids.(i))) keys;
  let stx_bytes = Btree.memory_bytes stx in
  let config = Elasticity.default_config ~size_bound:(stx_bytes / 3) in
  let elastic = Elastic.create ~key_len:8 ~load:(Table.loader table) config () in
  Array.iteri (fun i k -> ignore (Elastic.insert elastic k tids.(i))) keys;
  Elastic.check_invariants elastic;
  let ratio = float_of_int (Elastic.memory_bytes elastic) /. float_of_int stx_bytes in
  if ratio > 0.55 then Alcotest.failf "elastic/stx ratio too high: %.2f" ratio;
  (* And the data is all there. *)
  Array.iteri
    (fun i k ->
      match Elastic.find elastic k with
      | Some tid when tid = tids.(i) -> ()
      | _ -> Alcotest.fail "key lost under pressure")
    keys


(* --- Bulk load -------------------------------------------------------- *)

let test_bulk_load_elastic () =
  let table = Table.create ~key_len:8 () in
  let n = 20_000 in
  let keys = Array.init n (fun i -> Key.of_int (2 * i)) in
  let tids = Array.map (Table.append table) keys in
  let config = Elasticity.default_config ~size_bound:200_000 in
  let tree =
    Elastic.of_sorted ~key_len:8 ~load:(Table.loader table) config keys tids n
  in
  Elastic.check_invariants tree;
  Alcotest.(check int) "count" n (Elastic.count tree);
  (* Elasticity takes over: push past the bound with more inserts. *)
  let rng = Rng.stream seed 77 in
  for _ = 1 to 20_000 do
    let k = Key.random rng 8 in
    ignore (Elastic.insert tree k (Table.append table k))
  done;
  Elastic.check_invariants tree;
  Alcotest.(check bool) "shrank after bulk load" true
    (Elastic.compact_leaves tree > 0);
  Array.iteri
    (fun i k ->
      match Elastic.find tree k with
      | Some tid when tid = tids.(i) -> ()
      | _ -> Alcotest.fail "bulk-loaded key lost")
    keys

(* --- Cold-leaf compaction (access-aware policy variant) -------------- *)

let test_cold_sweep () =
  (* Append-only (sequential) insertion is adversarial for the default
     overflow-piggybacking policy: cold half-full leaves never overflow,
     so they are never compacted and the index overshoots its bound.
     The cold-sweep variant compacts untouched leaves and respects it. *)
  let run ~cold_sweep_period =
    let table = Table.create ~key_len:8 () in
    let n = 30_000 in
    let config =
      {
        (Elasticity.default_config ~size_bound:500_000) with
        Elasticity.cold_sweep_period;
        cold_sweep_batch = 16;
      }
    in
    let tree = Elastic.create ~key_len:8 ~load:(Table.loader table) config () in
    for i = 0 to n - 1 do
      let k = Key.of_int i in
      ignore (Elastic.insert tree k (Table.append table k))
    done;
    Elastic.check_invariants tree;
    (* All keys must survive either policy. *)
    for i = 0 to n - 1 do
      if Elastic.find tree (Key.of_int i) = None then Alcotest.fail "key lost"
    done;
    Elastic.memory_bytes tree
  in
  let default_bytes = run ~cold_sweep_period:0 in
  let swept_bytes = run ~cold_sweep_period:8 in
  (* Default policy blows well past the bound on this pattern... *)
  Alcotest.(check bool) "default overshoots on append-only" true
    (default_bytes > 550_000);
  (* ...while the access-aware variant stays close to it. *)
  if swept_bytes > 550_000 then
    Alcotest.failf "cold sweep failed to hold the bound: %d bytes" swept_bytes;
  Alcotest.(check bool) "sweep saves vs default" true
    (swept_bytes < default_bytes)

let test_cold_sweep_preserves_hot () =
  (* Leaves that keep being read must not be compacted by the sweep. *)
  let table = Table.create ~key_len:8 () in
  let config =
    {
      (Elasticity.default_config ~size_bound:200_000) with
      Elasticity.cold_sweep_period = 4;
      cold_sweep_batch = 16;
    }
  in
  let tree = Elastic.create ~key_len:8 ~load:(Table.loader table) config () in
  let n = 20_000 in
  for i = 0 to n - 1 do
    let k = Key.of_int i in
    ignore (Elastic.insert tree k (Table.append table k));
    (* Keep the lowest key range hot. *)
    ignore (Elastic.find tree (Key.of_int (i mod 64)))
  done;
  Elastic.check_invariants tree;
  (* The hot prefix should still be served from standard leaves: check
     via the leaf spec distribution that not everything compacted. *)
  let stds =
    Btree.fold_leaves (Elastic.tree tree)
      (fun acc spec _ -> match spec with Policy.Spec_std -> acc + 1 | _ -> acc)
      0
  in
  Alcotest.(check bool) "some standard leaves remain" true (stds > 0)

let test_slash_moves_sweep_bound () =
  (* An injected slash halves the one live bound, which the cold sweep
     reads too: an append-only tree configured at 1 MB and slashed once
     ends within 1.1x of 500 kB, like a tree configured there. *)
  let module Fault = Ei_fault.Fault in
  let site = "test.elastic.slash" in
  let table = Table.create ~key_len:8 () in
  let config =
    {
      (Elasticity.default_config ~size_bound:1_000_000) with
      Elasticity.cold_sweep_period = 8;
      cold_sweep_batch = 16;
      fault_site = site;
    }
  in
  let tree = Elastic.create ~key_len:8 ~load:(Table.loader table) config () in
  let append i =
    let k = Key.of_int i in
    ignore (Elastic.insert tree k (Table.append table k))
  in
  Fault.configure ~seed:1 [ (site, 1.0) ];
  let i = ref 0 in
  Fun.protect ~finally:Fault.clear (fun () ->
      let fired () =
        List.exists (fun (name, _, fired) -> name = site && fired > 0)
          (Fault.stats ())
      in
      while not (fired ()) do
        append !i;
        incr i
      done);
  while !i < 30_000 do
    append !i;
    incr i
  done;
  Elastic.check_invariants tree;
  let bytes = Elastic.memory_bytes tree in
  if bytes > 550_000 then
    Alcotest.failf "slashed to 500 kB, ended at %d bytes" bytes

(* --- Behaviour pin ------------------------------------------------------ *)

(* A seeded churn with bound retunes mid-run against each elastic index,
   pinned to the values the tree held before the §4 rules moved into
   {!Hysteresis}: (memory bytes, compact leaves or segments, conversions,
   transitions, fingerprint).  The seed is fixed, not [EI_SEED]. *)
let pin_churn name =
  let module Registry = Ei_harness.Registry in
  let module Index_ops = Ei_harness.Index_ops in
  let module Olc = Ei_olc.Btree_olc in
  let module Esl = Ei_core.Elastic_skiplist in
  let module Metrics = Ei_obs.Metrics in
  let kind =
    match Registry.kind_of_name ~bound:80_000 name with
    | Ok k -> k
    | Error e -> Alcotest.fail e
  in
  let table = Table.create ~key_len:8 () in
  let ix = Registry.make ~key_len:8 ~load:(Table.loader table) kind in
  (* Transitions of the OLC tree and the skip list, and the skip list's
     conversions, are read off the process-wide counters as deltas. *)
  let delta name =
    let c = Metrics.counter name in
    let before = Metrics.counter_value c in
    fun () -> Metrics.counter_value c - before
  in
  Metrics.set_enabled true;
  let olc_transitions = delta "olc.transitions" in
  let sl_transitions = delta "skiplist.transitions" in
  let sl_conversions = delta "skiplist.conversions" in
  let rng = Rng.create 0x91a5 in
  let pool = Array.init 6_000 (fun _ -> Key.random rng 8) in
  let tids = Array.make (Array.length pool) (-1) in
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) (fun () ->
      for step = 1 to 20_000 do
        (match step with
        | 5_000 -> ix.Index_ops.set_size_bound 40_000
        | 10_000 -> ix.Index_ops.set_size_bound 10_000_000
        | 15_000 -> ix.Index_ops.set_size_bound 60_000
        | 17_500 -> ix.Index_ops.set_size_bound 10_000_000
        | _ -> ());
        let i = Rng.int rng (Array.length pool) in
        let k = pool.(i) in
        let choice = Rng.int rng 100 in
        if choice < 55 then begin
          if tids.(i) < 0 then tids.(i) <- Table.append table k;
          ignore (ix.Index_ops.insert k tids.(i))
        end
        else if choice < 75 then ignore (ix.Index_ops.remove k)
        else ignore (ix.Index_ops.find k)
      done;
      let compact, conversions, transitions =
        match ix.Index_ops.backend with
        | Index_ops.B_elastic t ->
          ( Elastic.compact_leaves t,
            (Elastic.stats t).Btree.conversions,
            Elastic.transitions t )
        | Index_ops.B_elastic_skiplist t ->
          (Esl.segments t, sl_conversions (), sl_transitions ())
        | Index_ops.B_olc t ->
          ( Olc.elastic_compact_leaves t,
            Olc.elastic_conversions t,
            olc_transitions () )
        | _ -> Alcotest.failf "%s: not an elastic backend" name
      in
      ( ix.Index_ops.memory_bytes (),
        compact,
        conversions,
        transitions,
        Index_ops.fingerprint ix ))

let test_behaviour_pin () =
  List.iter
    (fun (name, expected) ->
      Alcotest.(check (pair int (pair int (pair int (pair int int)))))
        (name ^ ": bytes, compact, conversions, transitions, fingerprint")
        expected
        (let bytes, compact, conversions, transitions, fp = pin_churn name in
         (bytes, (compact, (conversions, (transitions, fp))))))
    [
      ("elastic", (97154, (54, (220, (4, 2951675967606575299)))));
      ("elastic-skiplist", (96632, (88, (339, (4, 2951675967606575299)))));
      ("olc-elastic", (91738, (78, (294, (4, 2951675967606575299)))));
    ]

let () =
  Alcotest.run "ei_core"
    [
      ( "elastic",
        [
          Alcotest.test_case "random ops with churn" `Quick test_random_ops;
          Alcotest.test_case "shrink/expand lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "capacity progression" `Quick test_capacity_progression;
          Alcotest.test_case "space savings vs STX" `Quick test_space_savings;
        ] );
      ( "state-machine",
        [
          Alcotest.test_case "transitions + hysteresis" `Quick test_state_machine;
          Alcotest.test_case "engine over every small bound" `Quick
            test_engine_exhaustive;
          Alcotest.test_case "capacity progression closure" `Quick
            test_capacity_closure;
          Alcotest.test_case "shrink-overflow target, exhaustively" `Quick
            test_shrink_overflow_exhaustive;
          Alcotest.test_case "search-split draw" `Quick test_search_split_draw;
        ] );
      ( "bulk",
        [ Alcotest.test_case "of_sorted + elasticity" `Quick test_bulk_load_elastic ] );
      ( "cold-sweep",
        [
          Alcotest.test_case "bound held on append-only" `Quick test_cold_sweep;
          Alcotest.test_case "hot leaves preserved" `Quick test_cold_sweep_preserves_hot;
          Alcotest.test_case "a bound slash moves the sweep's bound" `Quick
            test_slash_moves_sweep_bound;
        ] );
      ( "pin",
        [
          Alcotest.test_case "seeded churn matches the recorded values" `Quick
            test_behaviour_pin;
        ] );
    ]
