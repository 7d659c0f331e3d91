(* B+-tree tests: every policy (STX, STX-SeqTree, STX-SubTrie) is driven
   through random operation sequences and compared against a Map
   reference model, with full structural invariant checks along the way.
   Range scans are compared against the model's sorted bindings. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng

(* All trial seeds derive from EI_SEED (default 0): stream N here was
   formerly the fixed seed N, so default behaviour is unchanged in
   spirit while EI_SEED re-rolls the whole executable. *)
let seed = Rng.env_seed ~default:0
module Table = Ei_storage.Table
module Btree = Ei_btree.Btree
module Policy = Ei_btree.Policy

module Smap = Map.Make (String)

let mk_tree ~key_len ~policy () =
  let table = Table.create ~key_len () in
  let tree =
    Btree.create ~key_len ~leaf_capacity:16 ~inner_capacity:16
      ~load:(Table.loader table) ~policy ()
  in
  (table, tree)

(* Compare a range scan against the reference model. *)
let check_scan tree model rng key_len =
  let start = Key.random rng key_len in
  let n = 1 + Rng.int rng 30 in
  let got =
    List.rev
      (Btree.fold_range tree ~start ~n (fun acc k tid -> (k, tid) :: acc) [])
  in
  let expected =
    Smap.to_seq model
    |> Seq.filter (fun (k, _) -> Key.compare k start >= 0)
    |> Seq.take n |> List.of_seq
  in
  if got <> expected then
    Alcotest.failf "scan mismatch: got %d entries, expected %d"
      (List.length got) (List.length expected)

let random_ops ~key_len ~policy ~nops ~key_space ~check_every () =
  let table, tree = mk_tree ~key_len ~policy () in
  let rng = Rng.create (nops + key_space) in
  let model = ref Smap.empty in
  (* Key universe: a fixed pool so that removes and duplicate inserts hit
     existing keys often. *)
  let pool =
    Array.init key_space (fun i ->
        ignore i;
        Key.random rng key_len)
  in
  let tid_of = Hashtbl.create 256 in
  for step = 1 to nops do
    let k = pool.(Rng.int rng key_space) in
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
      let inserted = Btree.insert tree k tid in
      let expected = not (Smap.mem k !model) in
      if inserted <> expected then Alcotest.fail "insert result mismatch";
      if expected then model := Smap.add k tid !model
    end
    else if choice < 80 then begin
      let removed = Btree.remove tree k in
      let expected = Smap.mem k !model in
      if removed <> expected then Alcotest.fail "remove result mismatch";
      if expected then model := Smap.remove k !model
    end
    else if choice < 95 then begin
      match (Btree.find tree k, Smap.find_opt k !model) with
      | Some a, Some b -> if a <> b then Alcotest.fail "find tid mismatch"
      | None, None -> ()
      | Some _, None -> Alcotest.fail "found phantom key"
      | None, Some _ -> Alcotest.fail "lost key"
    end
    else check_scan tree !model rng key_len;
    if Btree.count tree <> Smap.cardinal !model then
      Alcotest.failf "count mismatch at step %d" step;
    if step mod check_every = 0 then Btree.check_invariants tree
  done;
  Btree.check_invariants tree;
  (* Full contents comparison. *)
  let collected = ref [] in
  Btree.iter tree (fun k tid -> collected := (k, tid) :: !collected);
  let got = List.rev !collected in
  let expected = Smap.bindings !model in
  if got <> expected then Alcotest.fail "final contents mismatch"

let policies =
  [
    ("stx", Policy.fixed Policy.Spec_std);
    ("seqtree32", Policy.fixed (Policy.Spec_seq 32));
    ("seqtree128", Policy.fixed (Policy.Spec_seq 128));
    ("seqtree128-nobreath", Policy.fixed ~breathing:0 (Policy.Spec_seq 128));
    ("subtrie64", Policy.fixed (Policy.Spec_sub 64));
    ("stringtrie64", Policy.fixed (Policy.Spec_str 64));
    ("prefix", Policy.fixed Policy.Spec_pre);
    ("bwtree", Policy.fixed Policy.Spec_bw);
  ]

let grid =
  List.concat_map
    (fun (pname, policy) ->
      List.map
        (fun key_len ->
          Alcotest.test_case
            (Printf.sprintf "%s k=%dB random-ops" pname key_len)
            `Quick
            (random_ops ~key_len ~policy ~nops:1200 ~key_space:400
               ~check_every:50))
        [ 8; 16 ])
    policies

let soak =
  [
    Alcotest.test_case "stx soak 8k ops" `Slow
      (random_ops ~key_len:8 ~policy:(Policy.fixed Policy.Spec_std) ~nops:8000 ~key_space:3000
         ~check_every:1000);
    Alcotest.test_case "seqtree128 soak 8k ops" `Slow
      (random_ops ~key_len:8
         ~policy:(Policy.fixed (Policy.Spec_seq 128))
         ~nops:8000 ~key_space:3000 ~check_every:1000);
  ]

(* --- Directed unit tests ------------------------------------------- *)

let test_sequential_insert () =
  let table, tree = mk_tree ~key_len:8 ~policy:(Policy.fixed Policy.Spec_std) () in
  for i = 0 to 999 do
    let k = Key.of_int i in
    let tid = Table.append table k in
    if not (Btree.insert tree k tid) then Alcotest.fail "sequential insert"
  done;
  Btree.check_invariants tree;
  Alcotest.(check int) "count" 1000 (Btree.count tree);
  for i = 0 to 999 do
    if Btree.find tree (Key.of_int i) = None then Alcotest.fail "missing key"
  done;
  (* Full ordered iteration. *)
  let xs = ref [] in
  Btree.iter tree (fun k _ -> xs := Key.to_int k :: !xs);
  Alcotest.(check (list int)) "iteration order" (List.init 1000 (fun i -> i))
    (List.rev !xs)

let test_drain () =
  let table, tree = mk_tree ~key_len:8 ~policy:(Policy.fixed (Policy.Spec_seq 32)) () in
  let n = 500 in
  for i = 0 to n - 1 do
    let k = Key.of_int i in
    ignore (Btree.insert tree k (Table.append table k))
  done;
  Btree.check_invariants tree;
  (* Remove everything in a scrambled order. *)
  let order = Array.init n (fun i -> i) in
  let rng = Rng.stream seed 4 in
  Ei_util.Rng.shuffle rng order;
  Array.iteri
    (fun step i ->
      if not (Btree.remove tree (Key.of_int i)) then Alcotest.fail "remove failed";
      if step mod 100 = 0 then Btree.check_invariants tree)
    order;
  Btree.check_invariants tree;
  Alcotest.(check int) "empty" 0 (Btree.count tree)

let test_memory_accounting () =
  let table, tree = mk_tree ~key_len:8 ~policy:(Policy.fixed (Policy.Spec_seq 128)) () in
  let m0 = Btree.memory_bytes tree in
  for i = 0 to 2999 do
    let k = Key.of_int i in
    ignore (Btree.insert tree k (Table.append table k))
  done;
  Btree.check_invariants tree;
  (* check_invariants already cross-checks tracked vs recomputed bytes;
     additionally the index must have grown. *)
  Alcotest.(check bool) "grew" true (Btree.memory_bytes tree > m0)

let test_prefix_distribution_dependence () =
  (* §2: prefix compression's ratio depends on the key distribution —
     shared-prefix keys compress well, random keys do not — whereas the
     compact (SeqTree) representation always saves. *)
  let key_len = 16 in
  let build policy keys =
    let table = Table.create ~key_len () in
    let tree =
      Btree.create ~key_len ~load:(Table.loader table) ~policy ()
    in
    Array.iter
      (fun k -> ignore (Btree.insert tree k (Table.append table k)))
      keys;
    Btree.check_invariants tree;
    Btree.memory_bytes tree
  in
  let n = 8_000 in
  (* Shared-prefix keys: a 12-byte constant prefix + 4-byte counter. *)
  let shared =
    Array.init n (fun i ->
        let b = Bytes.make key_len 'p' in
        Bytes.set_int32_be b 12 (Int32.of_int i);
        Bytes.unsafe_to_string b)
  in
  let rng = Rng.stream seed 123 in
  let seen = Hashtbl.create 1024 in
  let random =
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
  let stx_shared = build (Policy.fixed Policy.Spec_std) shared in
  let pre_shared = build (Policy.fixed Policy.Spec_pre) shared in
  let seq_shared = build (Policy.fixed (Policy.Spec_seq 128)) shared in
  let stx_random = build (Policy.fixed Policy.Spec_std) random in
  let pre_random = build (Policy.fixed Policy.Spec_pre) random in
  let seq_random = build (Policy.fixed (Policy.Spec_seq 128)) random in
  (* Prefix compression shines on shared prefixes... *)
  Alcotest.(check bool) "prefix wins on shared prefixes" true
    (float_of_int pre_shared < 0.7 *. float_of_int stx_shared);
  (* ...but saves almost nothing on random keys... *)
  Alcotest.(check bool) "prefix useless on random keys" true
    (float_of_int pre_random > 0.95 *. float_of_int stx_random);
  (* ...while the compact representation always saves. *)
  Alcotest.(check bool) "seqtree saves on shared" true (seq_shared * 2 < stx_shared);
  Alcotest.(check bool) "seqtree saves on random" true (seq_random * 2 < stx_random)

let test_compression_ratio () =
  (* STX-SeqTree128 must be several times smaller than STX for the same
     data — the headline space claim. *)
  let build policy =
    let table, tree = mk_tree ~key_len:8 ~policy () in
    let rng = Rng.stream seed 77 in
    for _ = 1 to 20_000 do
      let k = Key.random rng 8 in
      ignore (Btree.insert tree k (Table.append table k))
    done;
    Btree.memory_bytes tree
  in
  let stx = build (Policy.fixed Policy.Spec_std) in
  let compact = build (Policy.fixed (Policy.Spec_seq 128)) in
  let ratio = float_of_int stx /. float_of_int compact in
  if ratio < 1.8 then
    Alcotest.failf "compression ratio too low: %.2f (stx=%d compact=%d)" ratio
      stx compact


let test_bulk_load () =
  (* Bulk loading must be equivalent to inserting in order, for standard
     and compact initial representations, across sizes including the
     boundary cases (0, 1, one leaf, many levels). *)
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun n ->
          let table = Table.create ~key_len:8 () in
          let keys = Array.init n (fun i -> Key.of_int (3 * i)) in
          let tids = Array.map (Table.append table) keys in
          let tree =
            Btree.of_sorted ~key_len:8 ~load:(Table.loader table) ~policy keys
              tids n
          in
          Btree.check_invariants tree;
          Alcotest.(check int) (Printf.sprintf "%s n=%d count" pname n) n
            (Btree.count tree);
          Array.iteri
            (fun i k ->
              match Btree.find tree k with
              | Some tid when tid = tids.(i) -> ()
              | _ -> Alcotest.failf "%s n=%d: bulk-loaded key lost" pname n)
            keys;
          (* The tree must remain fully operational after bulk load. *)
          let extra = Key.of_int 1 in
          let xt = Table.append table extra in
          if not (Btree.insert tree extra xt) then Alcotest.fail "insert after bulk";
          if n > 2 && not (Btree.remove tree keys.(n / 2)) then
            Alcotest.fail "remove after bulk";
          Btree.check_invariants tree;
          (* Ordered iteration intact. *)
          let prev = ref None in
          Btree.iter tree (fun k _ ->
              (match !prev with
              | Some p -> assert (Key.compare p k < 0)
              | None -> ());
              prev := Some k))
        [ 0; 1; 2; 13; 14; 15; 100; 5_000 ])
    [
      ("stx", Policy.fixed Policy.Spec_std);
      ("seqtree64", Policy.fixed (Policy.Spec_seq 64));
      ("prefix", Policy.fixed Policy.Spec_pre);
    ]

let () =
  Alcotest.run "ei_btree"
    [
      ("random-ops", grid);
      ("soak", soak);
      ( "directed",
        [
          Alcotest.test_case "sequential insert" `Quick test_sequential_insert;
          Alcotest.test_case "drain" `Quick test_drain;
          Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
          Alcotest.test_case "compression ratio" `Quick test_compression_ratio;
          Alcotest.test_case "prefix compression distribution dependence" `Quick
            test_prefix_distribution_dependence;
          Alcotest.test_case "bulk load" `Quick test_bulk_load;
        ] );
    ]
