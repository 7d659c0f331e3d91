(* Edge-case battery across the whole stack:
   - wide keys (> 32 bytes) that force 2-byte BlindiBits entries — a
     code path the main grids (8/16/30-byte keys) never touch;
   - keys differing only in their very last bit (maximum discriminating
     bit values, including 255, the 1-byte boundary);
   - node capacities above 256 (2-byte SubTrie subtree sizes);
   - empty and single-key indexes, zero-length scans, scans starting
     beyond the maximum key;
   - elasticity oscillation resistance around the thresholds;
   - non-default leaf capacities for the elastic tree. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng

(* All trial seeds derive from EI_SEED (default 0): stream N here was
   formerly the fixed seed N, so default behaviour is unchanged in
   spirit while EI_SEED re-rolls the whole executable. *)
let seed = Rng.env_seed ~default:0
module Table = Ei_storage.Table
module Seqtree = Ei_blindi.Seqtree
module Subtrie = Ei_blindi.Subtrie
module Stringtrie = Ei_blindi.Stringtrie
module Btree = Ei_btree.Btree
module Policy = Ei_btree.Policy
module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops
module Elasticity = Ei_core.Elasticity
module Elastic = Ei_core.Elastic_btree

(* --- Wide keys: 2-byte discriminating-bit entries ------------------- *)

let test_wide_keys () =
  (* 40-byte keys have 320 bit positions: BlindiBits entries need 2
     bytes.  Keys share a 39-byte prefix so every discriminating bit is
     above 255. *)
  let key_len = 40 in
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let mk i =
    let b = Bytes.make key_len '\x11' in
    Bytes.set b (key_len - 1) (Char.chr i);
    Bytes.unsafe_to_string b
  in
  let keys = Array.init 200 mk in
  let node = ref (Seqtree.create ~key_len ~capacity:256 ~levels:3 ~breathing:2 ()) in
  let insert k tid =
    match Seqtree.insert !node ~load k tid with
    | Seqtree.Inserted -> ()
    | Seqtree.Grown s -> node := s
    | Seqtree.Full | Seqtree.Duplicate -> Alcotest.fail "wide-key insert failed"
  in
  Array.iter (fun k -> insert k (Table.append table k)) keys;
  let node = !node in
  Seqtree.check_invariants node ~load;
  Array.iter
    (fun k -> if Seqtree.find node ~load k = None then Alcotest.fail "wide key lost")
    keys;
  (* Discriminating bits really are above one byte. *)
  Alcotest.(check int) "bits width" 2
    (Ei_blindi.Bitsarr.width_for_bits (key_len * 8));
  (* Same battery through the full B+-tree with every blind leaf kind. *)
  List.iter
    (fun policy ->
      let table = Table.create ~key_len () in
      let tree = Btree.create ~key_len ~load:(Table.loader table) ~policy () in
      Array.iter
        (fun k -> ignore (Btree.insert tree k (Table.append table k)))
        keys;
      Btree.check_invariants tree;
      Array.iter
        (fun k -> if Btree.find tree k = None then Alcotest.fail "lost in tree")
        keys;
      (* Remove half, re-check. *)
      Array.iteri (fun i k -> if i mod 2 = 0 then ignore (Btree.remove tree k)) keys;
      Btree.check_invariants tree)
    [
      Policy.fixed (Policy.Spec_seq 64);
      Policy.fixed (Policy.Spec_sub 64);
      Policy.fixed (Policy.Spec_str 64);
    ]

let test_last_bit_boundary () =
  (* 32-byte keys: the last bit is position 255 — the maximum value a
     1-byte BlindiBits entry can hold. *)
  let key_len = 32 in
  Alcotest.(check int) "1-byte entries at 256 bits" 1
    (Ei_blindi.Bitsarr.width_for_bits (key_len * 8));
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let base = String.make key_len '\xAA' in
  let flip_last s =
    let b = Bytes.of_string s in
    Bytes.set b (key_len - 1) (Char.chr (Char.code (Bytes.get b (key_len - 1)) lxor 1));
    Bytes.unsafe_to_string b
  in
  let k0 = base and k1 = flip_last base in
  Alcotest.(check (option int)) "first diff bit is 255" (Some 255)
    (Key.first_diff_bit k0 k1);
  let node = Seqtree.create ~key_len ~capacity:4 ~levels:1 ~breathing:0 () in
  let t0 = Table.append table k0 and t1 = Table.append table k1 in
  ignore (Seqtree.insert node ~load k0 t0);
  ignore (Seqtree.insert node ~load k1 t1);
  Seqtree.check_invariants node ~load;
  Alcotest.(check (option int)) "find k0" (Some t0) (Seqtree.find node ~load k0);
  Alcotest.(check (option int)) "find k1" (Some t1) (Seqtree.find node ~load k1)

(* --- Large node capacities ------------------------------------------ *)

let test_capacity_300 () =
  (* Above 256: SubTrie subtree sizes and StringTrie child slots need two
     bytes.  Run the full random battery at capacity 300. *)
  let key_len = 8 in
  List.iter
    (fun policy ->
      let table = Table.create ~key_len () in
      let tree = Btree.create ~key_len ~load:(Table.loader table) ~policy () in
      let rng = Rng.stream seed 55 in
      let seen = Hashtbl.create 512 in
      let keys =
        Array.init 2_000 (fun _ ->
            let rec fresh () =
              let k = Key.random rng key_len in
              if Hashtbl.mem seen k then fresh ()
              else (Hashtbl.add seen k (); k)
            in
            fresh ())
      in
      Array.iter (fun k -> ignore (Btree.insert tree k (Table.append table k))) keys;
      Btree.check_invariants tree;
      Array.iter
        (fun k -> if Btree.find tree k = None then Alcotest.fail "lost at cap 300")
        keys;
      Array.iteri (fun i k -> if i mod 3 <> 0 then ignore (Btree.remove tree k)) keys;
      Btree.check_invariants tree)
    [
      Policy.fixed ~levels:4 (Policy.Spec_seq 300);
      Policy.fixed (Policy.Spec_sub 300);
      Policy.fixed (Policy.Spec_str 300);
    ]

(* --- Degenerate sizes ------------------------------------------------ *)

let every_kind =
  [
    Registry.Stx;
    Registry.Seqtree 32;
    Registry.Subtrie 32;
    Registry.Stringtrie 32;
    Registry.Prefix;
    Registry.Elastic (Elasticity.default_config ~size_bound:10_000);
    Registry.Hot;
    Registry.Art;
    Registry.Skiplist;
    Registry.Hybrid 0.1;
  ]

let test_empty_and_single () =
  List.iter
    (fun kind ->
      let table = Table.create ~key_len:8 () in
      let index = Registry.make ~key_len:8 ~load:(Table.loader table) kind in
      let name = Registry.kind_name kind in
      (* Empty index. *)
      if index.Index_ops.find (Key.of_int 7) <> None then
        Alcotest.failf "%s: find on empty" name;
      if index.Index_ops.remove (Key.of_int 7) then
        Alcotest.failf "%s: remove on empty" name;
      if index.Index_ops.scan (Key.of_int 0) 10 <> 0 then
        Alcotest.failf "%s: scan on empty" name;
      if index.Index_ops.scan (Key.of_int 0) 0 <> 0 then
        Alcotest.failf "%s: zero-length scan" name;
      (* Single key. *)
      let k = Key.of_int 42 in
      let tid = Table.append table k in
      if not (index.Index_ops.insert k tid) then Alcotest.failf "%s: insert" name;
      if index.Index_ops.insert k tid then Alcotest.failf "%s: dup" name;
      if index.Index_ops.find k <> Some tid then Alcotest.failf "%s: find" name;
      (* Scan starting beyond the only key. *)
      if index.Index_ops.scan (Key.of_int 100) 5 <> 0 then
        Alcotest.failf "%s: scan past max" name;
      if index.Index_ops.scan (Key.of_int 0) 5 <> 1 then
        Alcotest.failf "%s: scan from min" name;
      (* Remove back to empty and reinsert. *)
      if not (index.Index_ops.remove k) then Alcotest.failf "%s: remove" name;
      if index.Index_ops.count () <> 0 then Alcotest.failf "%s: count" name;
      if not (index.Index_ops.insert k tid) then Alcotest.failf "%s: reinsert" name)
    every_kind

(* --- Elasticity oscillation resistance ------------------------------- *)

let test_no_oscillation () =
  (* Insert/remove cycling exactly around the shrink threshold: the
     hysteresis band must keep the state-transition count far below the
     number of crossings. *)
  let table = Table.create ~key_len:8 () in
  let config = Elasticity.default_config ~size_bound:60_000 in
  let tree = Elastic.create ~key_len:8 ~load:(Table.loader table) config () in
  let rng = Rng.stream seed 2 in
  let keys = Array.init 4_000 (fun _ -> Key.random rng 8) in
  let tids = Array.map (Table.append table) keys in
  (* Fill to just past the shrink point. *)
  Array.iteri (fun i k -> ignore (Elastic.insert tree k tids.(i))) keys;
  let cycles = 60 in
  for _ = 1 to cycles do
    (* Remove and reinsert a 10% slice: memory wobbles around the
       threshold. *)
    for i = 0 to (Array.length keys / 10) - 1 do
      ignore (Elastic.remove tree keys.(i))
    done;
    for i = 0 to (Array.length keys / 10) - 1 do
      ignore (Elastic.insert tree keys.(i) tids.(i))
    done
  done;
  Elastic.check_invariants tree;
  (* Without hysteresis this could transition ~2x per cycle. *)
  if Elastic.transitions tree > cycles then
    Alcotest.failf "oscillation: %d transitions in %d cycles"
      (Elastic.transitions tree) cycles

(* --- Non-default leaf capacities -------------------------------------- *)

let test_custom_leaf_capacity () =
  List.iter
    (fun leaf_capacity ->
      let table = Table.create ~key_len:8 () in
      let config = Elasticity.default_config ~size_bound:50_000 in
      let tree =
        Elastic.create ~leaf_capacity ~key_len:8 ~load:(Table.loader table)
          config ()
      in
      let rng = Rng.create leaf_capacity in
      for _ = 1 to 8_000 do
        let k = Key.random rng 8 in
        ignore (Elastic.insert tree k (Table.append table k))
      done;
      Elastic.check_invariants tree;
      Alcotest.(check bool)
        (Printf.sprintf "leaf capacity %d engaged elasticity" leaf_capacity)
        true
        (Elastic.compact_leaves tree > 0))
    [ 8; 32; 64 ]

(* --- Adversarial key patterns ----------------------------------------- *)

let test_dense_then_sparse () =
  (* Dense low range and sparse high range in one tree: deep and shallow
     trie regions side by side. *)
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let tree =
    Btree.create ~key_len:8 ~load ~policy:(Policy.fixed (Policy.Spec_seq 64)) ()
  in
  let keys =
    Array.init 1_000 (fun i -> Key.of_int i)
    |> Array.append
         (Array.init 1_000 (fun i -> Key.of_int64 (Int64.shift_left (Int64.of_int (i + 1)) 40)))
  in
  Array.iter (fun k -> ignore (Btree.insert tree k (Table.append table k))) keys;
  Btree.check_invariants tree;
  Array.iter
    (fun k -> if Btree.find tree k = None then Alcotest.fail "mixed-density key lost")
    keys;
  (* Scan across the dense/sparse boundary. *)
  let got =
    Btree.fold_range tree ~start:(Key.of_int 995) ~n:10
      (fun acc k _ -> k :: acc)
      []
  in
  Alcotest.(check int) "scan crosses boundary" 10 (List.length got)

let () =
  Alcotest.run "ei_edge"
    [
      ( "wide-keys",
        [
          Alcotest.test_case "40-byte keys (2-byte bit entries)" `Quick test_wide_keys;
          Alcotest.test_case "last-bit boundary (bit 255)" `Quick test_last_bit_boundary;
        ] );
      ( "capacities",
        [
          Alcotest.test_case "capacity 300 (2-byte aux entries)" `Quick test_capacity_300;
          Alcotest.test_case "custom elastic leaf capacities" `Quick
            test_custom_leaf_capacity;
        ] );
      ( "degenerate",
        [ Alcotest.test_case "empty/single on every index" `Quick test_empty_and_single ] );
      ( "elasticity",
        [ Alcotest.test_case "no oscillation at threshold" `Quick test_no_oscillation ] );
      ( "adversarial",
        [ Alcotest.test_case "dense + sparse regions" `Quick test_dense_then_sparse ] );
    ]
