(* Tests for the optimistic-lock-coupling B+-tree: single-threaded
   equivalence against a Map model (both leaf kinds), then multi-domain
   stress tests — concurrent disjoint inserts, concurrent overlapping
   inserts, and readers racing writers — followed by full validation. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng
module Table = Ei_storage.Table
module Olc = Ei_olc.Btree_olc

module Smap = Map.Make (String)

(* Every seed below derives from EI_SEED (default 1), so a CI failure
   reproduces with the printed seed: EI_SEED=n dune exec test/test_olc.exe *)
let seed = Rng.env_seed ~default:1

let mk ?(kind = Olc.Olc_std) ~key_len () =
  let table = Table.create ~key_len () in
  let load =
    Olc.safe_loader ~key_len ~table_length:(fun () -> Table.length table)
      ~load:(Table.loader table)
  in
  let tree = Olc.create ~kind ~key_len ~load () in
  (table, tree)

let seq_kind = Olc.Olc_seqtree { capacity = 128; levels = 2; breathing = 4 }

let elastic_kind ~size_bound =
  Olc.Olc_elastic (Olc.default_elastic_config ~size_bound)

(* --- Single-threaded equivalence ------------------------------------ *)

let single_thread ~kind ~seed () =
  let table, tree = mk ~kind ~key_len:8 () in
  let rng = Rng.create seed in
  let model = ref Smap.empty in
  let pool = Array.init 800 (fun _ -> Key.random rng 8) in
  let tid_of = Hashtbl.create 128 in
  for step = 1 to 4000 do
    let k = pool.(Rng.int rng 800) in
    let c = Rng.int rng 100 in
    if c < 55 then begin
      let tid =
        match Hashtbl.find_opt tid_of k with
        | Some t -> t
        | None ->
          let t = Table.append table k in
          Hashtbl.add tid_of k t;
          t
      in
      if Olc.insert tree k tid <> not (Smap.mem k !model) then
        Alcotest.fail "insert mismatch";
      if not (Smap.mem k !model) then model := Smap.add k tid !model
    end
    else if c < 75 then begin
      if Olc.remove tree k <> Smap.mem k !model then
        Alcotest.fail "remove mismatch";
      model := Smap.remove k !model
    end
    else if c < 90 then begin
      match (Olc.find tree k, Smap.find_opt k !model) with
      | Some a, Some b -> if a <> b then Alcotest.fail "tid mismatch"
      | None, None -> ()
      | _ -> Alcotest.fail "membership mismatch"
    end
    else begin
      let start = Key.random rng 8 in
      let n = 1 + Rng.int rng 20 in
      let got =
        List.rev (Olc.fold_range tree ~start ~n (fun acc k t -> (k, t) :: acc) [])
      in
      let expected =
        Smap.to_seq !model
        |> Seq.filter (fun (k, _) -> Key.compare k start >= 0)
        |> Seq.take n |> List.of_seq
      in
      if got <> expected then Alcotest.failf "scan mismatch at step %d" step
    end;
    if Olc.count tree <> Smap.cardinal !model then Alcotest.fail "count mismatch"
  done;
  Olc.check_invariants tree

(* --- Multi-domain tests --------------------------------------------- *)

let domains = 4

let test_parallel_disjoint_inserts () =
  let table, tree = mk ~key_len:8 () in
  let per_domain = 5_000 in
  (* Pre-append all rows: the table itself is not the system under test. *)
  let keys =
    Array.init (domains * per_domain) (fun i -> Key.of_int ((i * 2654435761) land 0xFFFFFF))
  in
  (* Deduplicate by construction: use index-based unique keys instead. *)
  let keys = Array.mapi (fun i _ -> Key.of_int i) keys in
  let tids = Array.map (Table.append table) keys in
  let worker d () =
    for i = d * per_domain to ((d + 1) * per_domain) - 1 do
      if not (Olc.insert tree keys.(i) tids.(i)) then failwith "dup?"
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  Olc.check_invariants tree;
  Alcotest.(check int) "all inserted" (domains * per_domain) (Olc.count tree);
  Array.iteri
    (fun i k ->
      match Olc.find tree k with
      | Some tid when tid = tids.(i) -> ()
      | _ -> Alcotest.fail "key lost")
    keys

let test_mixed_sim () =
  (* Deterministic port of the old free-running reader/writer race
     (writers inserting overlapping slices, readers checking tids and
     scan ordering until an Atomic stop flag flipped): the same
     invariants, but the fibers now interleave at the tree's production
     yield points under seeded schedules from the ei_sim scheduler, so
     a failure replays bit-identically from its choice list instead of
     depending on wall-clock timing.  Readers do a fixed amount of work
     — no stop flag, no retry loop. *)
  let module Sched = Ei_sim.Sched in
  let n_keys = 512 in
  let mk_scenario () =
    let table, tree = mk ~kind:seq_kind ~key_len:8 () in
    let rng = Rng.stream seed 99 in
    let seen = Hashtbl.create 1024 in
    let keys =
      Array.init n_keys (fun _ ->
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
    let tids = Array.map (Table.append table) keys in
    let writer d () =
      (* Overlapping slice [d * n/8, d * n/8 + n/2). *)
      let start = d * n_keys / 8 in
      for i = start to start + (n_keys / 2) - 1 do
        let i = i mod n_keys in
        ignore (Olc.insert tree keys.(i) tids.(i))
      done
    in
    let reader r () =
      let rng = Rng.stream seed (7 + r) in
      for _ = 1 to 128 do
        let i = Rng.int rng n_keys in
        (match Olc.find tree keys.(i) with
        | Some tid -> if tid <> tids.(i) then failwith "wrong tid under race"
        | None -> ());
        ignore
          (Olc.fold_range tree ~start:keys.(i) ~n:10
             (fun acc k _ ->
               (match acc with
               | Some prev ->
                 if Key.compare prev k >= 0 then failwith "scan out of order"
               | None -> ());
               Some k)
             None);
        Sched.pause ()
      done
    in
    let check () =
      Olc.check_invariants tree;
      (* Union of writer slices. *)
      let expected = Hashtbl.create 1024 in
      for d = 0 to 2 do
        let start = d * n_keys / 8 in
        for i = start to start + (n_keys / 2) - 1 do
          Hashtbl.replace expected (i mod n_keys) ()
        done
      done;
      Alcotest.(check int) "union size" (Hashtbl.length expected)
        (Olc.count tree);
      Hashtbl.iter
        (fun i () ->
          match Olc.find tree keys.(i) with
          | Some tid when tid = tids.(i) -> ()
          | _ -> Alcotest.fail "missing after race")
        expected
    in
    {
      Sched.fibers =
        Array.append
          (Array.init 3 (fun d -> (Printf.sprintf "writer%d" d, writer d)))
          (Array.init 2 (fun r -> (Printf.sprintf "reader%d" r, reader r)));
      check;
    }
  in
  match Sched.explore ~seed ~rounds:12 mk_scenario with
  | None -> ()
  | Some f ->
    Alcotest.failf "mixed read/write failed (seed %d, round %d): %s" seed
      f.Sched.round f.Sched.error

let test_parallel_remove () =
  let table, tree = mk ~key_len:8 () in
  let n = 10_000 in
  let keys = Array.init n (fun i -> Key.of_int i) in
  let tids = Array.map (Table.append table) keys in
  Array.iteri (fun i k -> ignore (Olc.insert tree k tids.(i))) keys;
  (* Each domain removes a disjoint residue class. *)
  let worker d () =
    let i = ref d in
    while !i < n do
      if not (Olc.remove tree keys.(!i)) then failwith "remove failed";
      i := !i + domains
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  Olc.check_invariants tree;
  Alcotest.(check int) "emptied" 0 (Olc.count tree)

(* --- Elastic BTreeOLC -------------------------------------------------- *)

let test_elastic_single_thread () =
  single_thread ~kind:(elastic_kind ~size_bound:20_000) ~seed:(seed + 2) ()

let test_convert_scan_straddle () =
  (* Regression: range queries straddling a compact/standard leaf
     boundary while conversions run.  A tight bound leaves the tree
     with both leaf kinds side by side; windowed scans from starts
     spread across the whole key space must agree with a model after
     every conversion-churning phase — filling past the bound
     (compaction), interleaved removals (decompaction of drained
     leaves), and a bound slash/restore cycle (forced sweeps in both
     directions). *)
  let table, tree = mk ~kind:(elastic_kind ~size_bound:8_192) ~key_len:8 () in
  let n = 2_000 in
  let keys = Array.init n (fun i -> Key.of_int i) in
  let tids = Array.map (Table.append table) keys in
  let present = Array.make n false in
  let check_window start_i w =
    let got =
      List.rev
        (Olc.fold_range tree ~start:keys.(start_i) ~n:w
           (fun acc k t -> (k, t) :: acc)
           [])
    in
    let expected =
      let rec take j w acc =
        if j >= n || w = 0 then List.rev acc
        else if present.(j) then take (j + 1) (w - 1) ((keys.(j), tids.(j)) :: acc)
        else take (j + 1) w acc
      in
      take start_i w []
    in
    if got <> expected then
      Alcotest.failf "straddle scan mismatch at start %d width %d" start_i w
  in
  let sweep_windows () =
    (* Starts at every 17th key cover every leaf boundary over the
       phases; widths larger than a leaf force multi-leaf walks. *)
    let i = ref 0 in
    while !i < n do
      check_window !i 48;
      i := !i + 17
    done
  in
  (* Phase 1: fill past the bound — the tree must compact some leaves
     but not others. *)
  Array.iteri
    (fun i k ->
      ignore (Olc.insert tree k tids.(i));
      present.(i) <- true)
    keys;
  Alcotest.(check bool) "compact leaves exist" true
    (Olc.elastic_compact_leaves tree > 0);
  sweep_windows ();
  (* Phase 2: interleave removals with scans so windows cross leaves
     that are draining (and decompacting) as the sweep advances. *)
  for i = 0 to n - 1 do
    if i mod 3 = 0 then begin
      ignore (Olc.remove tree keys.(i));
      present.(i) <- false;
      if i mod 96 = 0 then check_window (max 0 (i - 24)) 48
    end
  done;
  sweep_windows ();
  (* Phase 3: slash then restore the bound — full conversion sweeps in
     both directions — scanning after each retune. *)
  Olc.set_size_bound tree 2_048;
  sweep_windows ();
  Olc.set_size_bound tree (1 lsl 20);
  for i = 0 to n - 1 do
    if (not present.(i)) && i mod 6 = 0 then begin
      ignore (Olc.insert tree keys.(i) tids.(i));
      present.(i) <- true
    end
  done;
  sweep_windows ();
  Olc.check_invariants tree

let test_elastic_concurrent_pressure () =
  (* Several domains insert concurrently past the bound: the tree must
     shrink itself, stay consistent, and keep every key findable. *)
  let table, tree = mk ~kind:(elastic_kind ~size_bound:450_000) ~key_len:8 () in
  let per_domain = 8_000 in
  let keys = Array.init (domains * per_domain) (fun i -> Key.of_int i) in
  (* Shuffle so inserts spread over the key space: the overflow-piggyback
     policy compacts leaves that keep receiving inserts (append-only
     patterns need the cold-sweep variant, tested in ei_core). *)
  Rng.shuffle (Rng.stream seed 17) keys;
  let tids = Array.map (Table.append table) keys in
  let worker d () =
    for i = d * per_domain to ((d + 1) * per_domain) - 1 do
      if not (Olc.insert tree keys.(i) tids.(i)) then failwith "dup?"
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  Olc.check_invariants tree;
  Alcotest.(check int) "all inserted" (domains * per_domain) (Olc.count tree);
  Alcotest.(check (option string)) "under pressure" (Some "shrinking")
    (Option.map Ei_btree.Hysteresis.state_name (Olc.elastic_state tree));
  Alcotest.(check bool) "converted leaves" true (Olc.elastic_conversions tree > 0);
  Alcotest.(check bool) "has compact leaves" true (Olc.elastic_compact_leaves tree > 0);
  (* The atomically tracked size is approximate under races but must be
     close to the exact recomputation, and near the soft bound. *)
  let exact = Olc.memory_bytes tree in
  let tracked = Olc.tracked_memory_bytes tree in
  let drift = abs (exact - tracked) in
  if drift * 20 > exact then
    Alcotest.failf "accounting drift too large: exact=%d tracked=%d" exact tracked;
  if exact > 450_000 * 12 / 10 then
    Alcotest.failf "blew the bound: %d" exact;
  Array.iteri
    (fun i k ->
      match Olc.find tree k with
      | Some tid when tid = tids.(i) -> ()
      | _ -> Alcotest.fail "key lost under concurrent pressure")
    keys

let test_elastic_concurrent_drain () =
  (* Fill past the bound, then remove most keys from several domains:
     compact leaves must shrink back (expansion by removal). *)
  let table, tree = mk ~kind:(elastic_kind ~size_bound:200_000) ~key_len:8 () in
  let n = 24_000 in
  let keys = Array.init n (fun i -> Key.of_int i) in
  let tids = Array.map (Table.append table) keys in
  Array.iteri (fun i k -> ignore (Olc.insert tree k tids.(i))) keys;
  let before_compact = Olc.elastic_compact_leaves tree in
  Alcotest.(check bool) "compacted during fill" true (before_compact > 0);
  let worker d () =
    let i = ref d in
    while !i < n do
      if !i mod 8 <> 7 then ignore (Olc.remove tree keys.(!i));
      i := !i + domains
    done
  in
  let ds = List.init domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join ds;
  Olc.check_invariants tree;
  (* 7/8 of the keys removed: far fewer compact leaves remain. *)
  Alcotest.(check bool) "decompacted by removals" true
    (Olc.elastic_compact_leaves tree < before_compact / 2);
  Array.iteri
    (fun i k ->
      let expect = i mod 8 = 7 in
      match Olc.find tree k with
      | Some _ when expect -> ()
      | None when not expect -> ()
      | _ -> Alcotest.fail "drain inconsistency")
    keys

(* A long single-threaded elastic churn: phases of insert-heavy and
   remove-heavy traffic over a key pool, with a bound low enough that
   the tree shrinks, then expands as it drains.  The structure, the
   model and the tracked size must agree at the end. *)
let test_elastic_churn () =
  let table, tree = mk ~kind:(elastic_kind ~size_bound:60_000) ~key_len:8 () in
  let rng = Rng.create (seed + 7) in
  let pool = 8_000 in
  let keys = Array.init pool (fun i -> Key.of_int (i * 7919)) in
  let tids = Array.map (Table.append table) keys in
  let present = Array.make pool false in
  for step = 0 to 99_999 do
    let i = Rng.int rng pool in
    (* 20k-op phases alternate 80 % and 20 % inserts *)
    let insert_pct = if step / 20_000 mod 2 = 0 then 80 else 20 in
    if Rng.int rng 100 < insert_pct then begin
      if Olc.insert tree keys.(i) tids.(i) = present.(i) then
        Alcotest.failf "insert %d mismatch at step %d" i step;
      present.(i) <- true
    end
    else begin
      if Olc.remove tree keys.(i) <> present.(i) then
        Alcotest.failf "remove %d mismatch at step %d" i step;
      present.(i) <- false
    end
  done;
  Olc.check_invariants tree;
  Alcotest.(check bool) "converted" true (Olc.elastic_conversions tree > 0);
  Alcotest.(check int) "tracked = walked" (Olc.memory_bytes tree)
    (Olc.tracked_memory_bytes tree);
  Alcotest.(check int) "count"
    (Array.fold_left (fun a p -> if p then a + 1 else a) 0 present)
    (Olc.count tree);
  Array.iteri
    (fun i k ->
      if Olc.find tree k <> (if present.(i) then Some tids.(i) else None) then
        Alcotest.failf "find %d after churn" i)
    keys

(* --- Heap footprint pin ---------------------------------------------- *)

(* A standard-leaf tree's whole heap: nodes are inline records that
   carry their own version word and the sibling chain ends in one
   shared sentinel, so a leaf is the node block and its one Std_leaf
   image (header, inline keys, tids), and an inner node is the node
   block, key buffer and child array.  A re-added per-node block (a
   version Atomic, a constructor box, a [Some] sibling link, a separate
   key or tid block) raises the count.  The loader captures nothing, so
   the words are the tree's alone; the insertion order is a fixed
   permutation, so the shape is too. *)
let olc_std_words = 41_744

let test_olc_std_footprint () =
  let load (_ : int) = invalid_arg "standard leaves never load keys" in
  let tree = Olc.create ~kind:Olc.Olc_std ~key_len:8 ~load () in
  for i = 0 to 9_999 do
    ignore (Olc.insert tree (Key.of_int (i * 7919 mod 10_007)) i)
  done;
  Olc.check_invariants tree;
  Alcotest.(check int) "keys" 10_000 (Olc.count tree);
  let words = Obj.reachable_words (Obj.repr tree) in
  if words > olc_std_words then
    Alcotest.failf "10k-key Olc_std tree holds %d heap words, pinned at %d"
      words olc_std_words

(* Every leaf is two heap blocks — the node record (header, version
   word, repr, next) and the one payload image — and every inner node
   three: node record (header and four fields), the separator bytes and
   the child array.  So an elastic tree's heap is a
   fixed part (tree record, elastic state, the chain-end sentinel) plus
   exactly those words per node; a second block behind any leaf breaks
   the sum.  The number of inner nodes follows from the memory model. *)
let test_olc_elastic_blocks () =
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let kind = elastic_kind ~size_bound:60_000 in
  let heap_words tree =
    Obj.reachable_words (Obj.repr tree) - Obj.reachable_words (Obj.repr load)
  in
  let image_words img = (Bytes.length img / 8) + 2 in
  let leaf_words img = 4 + image_words img in
  let inner_words = 5 + ((16 * 8 / 8) + 2) + (17 + 1) in
  let leaves tree = Olc.fold_images tree (fun acc img -> img :: acc) [] in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let fixed =
    let empty = Olc.create ~kind ~key_len:8 ~load () in
    heap_words empty - sum leaf_words (leaves empty)
  in
  let tree = Olc.create ~kind ~key_len:8 ~load () in
  for i = 0 to 4_999 do
    let k = Key.of_int (i * 7919 mod 10_007) in
    ignore (Olc.insert tree k (Table.append table k))
  done;
  Olc.check_invariants tree;
  let imgs = leaves tree in
  let compact = List.filter Ei_blindi.Seqtree.is_image imgs in
  Alcotest.(check bool) "has compact leaves" true (List.length compact > 10);
  let model img =
    if Ei_blindi.Seqtree.is_image img then
      Ei_blindi.Seqtree.memory_bytes (Ei_blindi.Seqtree.of_image img)
    else Ei_btree.Std_leaf.memory_bytes (Ei_btree.Std_leaf.of_image img)
  in
  let inner_bytes = Ei_storage.Memmodel.inner_bytes ~capacity:16 ~key_len:8 in
  let inners = (Olc.memory_bytes tree - sum model imgs) / inner_bytes in
  Alcotest.(check int) "heap words: 2 blocks per leaf, 3 per inner node"
    (fixed + sum leaf_words imgs + (inners * inner_words))
    (heap_words tree)

(* An elastic preload under a tight bound (60 % of STX) loads one
   key from the table per compact-leaf insert — the verify of its
   search — and nothing else: a compact-leaf insert derives its
   BlindiBits from that one load, and a compact -> compact capacity
   change (32 -> 64 -> 128) carries tids and bits over without loading
   any key. *)
let test_elastic_preload_loads () =
  let n = 50_000 in
  let table = Table.create ~key_len:8 () in
  let loads = ref 0 in
  let load tid =
    incr loads;
    Table.loader table tid
  in
  let tree =
    let size_bound = Ei_shard.Fleet.stx_bound ~key_len:8 ~records:n ~pct:60 in
    Olc.create ~kind:(elastic_kind ~size_bound) ~key_len:8 ~load ()
  in
  let st = Ei_blindi.Stats.current () in
  let inserts0 = st.Ei_blindi.Stats.inserts in
  for i = 0 to n - 1 do
    let k = Key.of_int (i * 7919 mod 50_021) in
    ignore (Olc.insert tree k (Table.append table k))
  done;
  let compact_inserts = st.Ei_blindi.Stats.inserts - inserts0 in
  let capacities =
    Olc.fold_leaves tree
      (fun acc ~compact ~capacity ~count:_ ~bytes:_ ->
        if compact && not (List.mem capacity acc) then capacity :: acc
        else acc)
      []
  in
  Alcotest.(check bool) "compact leaves of several capacities" true
    (List.length capacities >= 2);
  Alcotest.(check bool) "compact-leaf inserts ran" true (compact_inserts > 0);
  Alcotest.(check int) "table loads = compact-leaf inserts" compact_inserts
    !loads

(* --- Version-word primitives --------------------------------------- *)

module Vw = Olc.For_tests

let test_version_stale_cas () =
  let n = Vw.leaf () in
  Alcotest.(check int) "built at 0" 0 (Vw.version n);
  Alcotest.(check bool) "fresh CAS" true (Vw.compare_and_set n 0 4);
  Alcotest.(check bool) "stale CAS" false (Vw.compare_and_set n 0 6);
  Alcotest.(check int) "stale CAS leaves the word" 4 (Vw.version n);
  Alcotest.(check bool) "stale upgrade" false (Vw.try_upgrade n 2);
  Alcotest.(check int) "stale upgrade leaves the word" 4 (Vw.version n)

let test_version_unlock_abort () =
  let n = Vw.leaf () in
  let v = Vw.read_lock n in
  Alcotest.(check bool) "upgrade" true (Vw.try_upgrade n v);
  Alcotest.(check int) "lock bit set" (v lor 1) (Vw.version n);
  Vw.write_unlock n;
  Alcotest.(check int) "unlock bumps by 2" (v + 2) (Vw.version n);
  Alcotest.(check int) "unlock clears bit 0" 0 (Vw.version n land 1);
  let v = Vw.read_lock n in
  Alcotest.(check bool) "upgrade again" true (Vw.try_upgrade n v);
  Vw.write_abort n;
  Alcotest.(check int) "abort restores" v (Vw.version n)

(* Two domains take one leaf's lock 100 000 times each around a plain
   counter: any lost exclusion drops an increment.  A broken CAS can
   also leave the word locked for good, so the spin is bounded and a
   wedged word fails the test instead of hanging it. *)
let test_version_mutual_exclusion () =
  let n = Vw.leaf () in
  let counter = ref 0 in
  let rounds = 100_000 in
  let rec lock spins =
    if spins > 100_000_000 then Alcotest.fail "version word wedged";
    let v = Vw.version n in
    if v land 1 = 1 || not (Vw.try_upgrade n v) then begin
      Domain.cpu_relax ();
      lock (spins + 1)
    end
  in
  let worker () =
    for _ = 1 to rounds do
      lock 0;
      counter := !counter + 1;
      Vw.write_unlock n
    done
  in
  let d = Domain.spawn worker in
  worker ();
  Domain.join d;
  Alcotest.(check int) "counter" (2 * rounds) !counter;
  Alcotest.(check int) "version" (4 * rounds) (Vw.version n)

(* Compact-leaf headers hold key lengths up to 65535: an elastic tree
   over 300-byte keys converts leaves and still finds every key.
   Parameters a header cannot hold are refused by [create], not at the
   first conversion. *)
let test_elastic_long_keys () =
  let key_len = 300 in
  let table, tree = mk ~kind:(elastic_kind ~size_bound:150_000) ~key_len () in
  let key i =
    let b = Bytes.make key_len '\x5a' in
    Bytes.set_int64_be b (key_len - 8) (Int64.of_int (i * 7919 mod 10_007));
    Bytes.unsafe_to_string b
  in
  let tids = Array.init 2_000 (fun i ->
      let k = key i in
      let tid = Table.append table k in
      Alcotest.(check bool) "insert" true (Olc.insert tree k tid);
      tid)
  in
  Olc.check_invariants tree;
  Alcotest.(check bool) "converted leaves" true (Olc.elastic_conversions tree > 0);
  Array.iteri
    (fun i tid -> Alcotest.(check (option int)) "find" (Some tid) (Olc.find tree (key i)))
    tids;
  match
    Olc.create ~kind:(elastic_kind ~size_bound:1) ~key_len:65_536
      ~load:(Table.loader table) ()
  with
  | _ -> Alcotest.fail "key_len 65536 accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "ei_olc"
    [
      ( "single-thread",
        [
          Alcotest.test_case "std leaves" `Quick
            (single_thread ~kind:Olc.Olc_std ~seed);
          Alcotest.test_case "seqtree leaves" `Quick
            (single_thread ~kind:seq_kind ~seed:(seed + 1));
        ] );
      ( "multi-domain",
        [
          Alcotest.test_case "disjoint inserts" `Quick test_parallel_disjoint_inserts;
          Alcotest.test_case "mixed read/write (sim-scheduled)" `Quick
            test_mixed_sim;
          Alcotest.test_case "parallel removes" `Quick test_parallel_remove;
        ] );
      ( "elastic-olc",
        [
          Alcotest.test_case "single-thread equivalence" `Quick
            test_elastic_single_thread;
          Alcotest.test_case "convert/scan straddle regression" `Quick
            test_convert_scan_straddle;
          Alcotest.test_case "concurrent pressure" `Quick
            test_elastic_concurrent_pressure;
          Alcotest.test_case "concurrent drain" `Quick test_elastic_concurrent_drain;
          Alcotest.test_case "invariants after 100k-op churn" `Quick
            test_elastic_churn;
          Alcotest.test_case "preload loads one key per compact insert" `Quick
            test_elastic_preload_loads;
          Alcotest.test_case "300-byte keys and header limits" `Quick
            test_elastic_long_keys;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "10k-key Olc_std heap words" `Quick
            test_olc_std_footprint;
          Alcotest.test_case "Olc_elastic blocks per node" `Quick
            test_olc_elastic_blocks;
        ] );
      ( "version-word",
        [
          Alcotest.test_case "stale CAS leaves the word" `Quick
            test_version_stale_cas;
          Alcotest.test_case "unlock bumps, abort restores" `Quick
            test_version_unlock_abort;
          Alcotest.test_case "2-domain lock/increment/unlock" `Quick
            test_version_mutual_exclusion;
        ] );
    ]
