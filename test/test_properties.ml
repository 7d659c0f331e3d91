(* QCheck property tests over the core data structures and invariants.
   Unlike the seeded random-ops trials elsewhere in the suite, these use
   QCheck generators with shrinking, so a failing case minimises to a
   small operation sequence.

   Operations draw keys from a small integer pool to maximise collisions
   (duplicate inserts, removes of absent keys, re-insertions). *)

module Key = Ei_util.Key
module Table = Ei_storage.Table
module Seqtree = Ei_blindi.Seqtree
module Bitsarr = Ei_blindi.Bitsarr
module Btree = Ei_btree.Btree
module Policy = Ei_btree.Policy
module Radix = Ei_baselines.Radix
module Skiplist = Ei_baselines.Skiplist
module Elasticity = Ei_core.Elasticity

module Smap = Map.Make (String)

(* An operation over a pool of [pool_size] possible keys. *)
type op = Insert of int | Remove of int | Find of int | Scan of int * int

let op_gen pool_size =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun i -> Insert i) (int_bound (pool_size - 1)));
        (3, map (fun i -> Remove i) (int_bound (pool_size - 1)));
        (2, map (fun i -> Find i) (int_bound (pool_size - 1)));
        (1, map2 (fun i n -> Scan (i, 1 + n)) (int_bound (pool_size - 1)) (int_bound 20));
      ])

let print_op = function
  | Insert i -> Printf.sprintf "Insert %d" i
  | Remove i -> Printf.sprintf "Remove %d" i
  | Find i -> Printf.sprintf "Find %d" i
  | Scan (i, n) -> Printf.sprintf "Scan (%d,%d)" i n

let ops_arbitrary ?(pool = 64) n =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map print_op l))
    QCheck.Gen.(list_size (int_bound n) (op_gen pool))

(* Key pool: spread the small ints so neighbouring pool entries differ in
   interesting bit positions. *)
let key_of_pool i = Key.of_int (i * 0x9E3779B9)

(* Dense pool: consecutive even integers, so keys share long prefixes and
   discriminating bits sit near the end of the key. *)
let dense_key_of_pool i = Key.of_int (2 * i)

(* ------------------------------------------------------------------ *)
(* Generic: apply ops to an index and a model, checking every result.  *)

type driver = {
  d_insert : string -> int -> bool;
  d_remove : string -> bool;
  d_find : string -> int option;
  d_scan : (string -> int -> (string * int) list) option;
  d_check : unit -> unit;
}

let agree_with_model ?(key_of = key_of_pool) driver ops =
  let table_tids = Hashtbl.create 64 in
  let model = ref Smap.empty in
  let tid_counter = ref 0 in
  List.for_all
    (fun op ->
      let ok =
        match op with
        | Insert i ->
          let k = key_of i in
          let tid =
            match Hashtbl.find_opt table_tids k with
            | Some t -> t
            | None ->
              let t = !tid_counter in
              incr tid_counter;
              Hashtbl.add table_tids k t;
              t
          in
          let expect = not (Smap.mem k !model) in
          if expect then model := Smap.add k tid !model;
          driver.d_insert k tid = expect
        | Remove i ->
          let k = key_of i in
          let expect = Smap.mem k !model in
          model := Smap.remove k !model;
          driver.d_remove k = expect
        | Find i ->
          let k = key_of i in
          driver.d_find k = Smap.find_opt k !model
        | Scan (i, n) -> (
          let k = key_of i in
          match driver.d_scan with
          | None -> true
          | Some scan ->
            let got = scan k n in
            let expect =
              Smap.to_seq !model
              |> Seq.filter (fun (k', _) -> Key.compare k' k >= 0)
              |> Seq.take n |> List.of_seq
            in
            got = expect)
      in
      driver.d_check ();
      ok)
    ops

(* ------------------------------------------------------------------ *)
(* Drivers.                                                            *)

(* The table must pre-register every pool key so compact nodes can load
   them; tids are the pool positions. *)
let seqtree_driver ~levels ~breathing () =
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  (* The node's owner: breathing growth swaps in a larger image. *)
  let node = ref (Seqtree.create ~key_len:8 ~capacity:64 ~levels ~breathing ()) in
  let insert k tid =
    match Seqtree.insert !node ~load k tid with
    | Seqtree.Inserted -> true
    | Seqtree.Grown s ->
      node := s;
      true
    | Seqtree.Duplicate -> false
    | Seqtree.Full -> true (* capacity 64 > pool; unreachable *)
  in
  {
    d_insert =
      (fun k tid ->
        (* tids are assigned in increasing order, so this appends the
           current key exactly when it is first seen. *)
        while Table.length table <= tid do
          ignore (Table.append table k)
        done;
        insert k tid);
    d_remove =
      (fun k ->
        match Seqtree.remove !node ~load k with
        | Seqtree.Removed -> true
        | Seqtree.Not_present -> false);
    d_find = (fun k -> Seqtree.find !node ~load k);
    d_scan = None;
    d_check = (fun () -> Seqtree.check_invariants !node ~load);
  }

let btree_driver policy =
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let tree = Btree.create ~key_len:8 ~load ~policy () in
  let registered = Hashtbl.create 64 in
  let reg k tid =
    if not (Hashtbl.mem registered tid) then begin
      Hashtbl.add registered tid ();
      (* tid order equals append order by construction in the model. *)
      while Table.length table <= tid do
        ignore (Table.append table k)
      done
    end
  in
  {
    d_insert =
      (fun k tid ->
        reg k tid;
        Btree.insert tree k tid);
    d_remove = (fun k -> Btree.remove tree k);
    d_find = (fun k -> Btree.find tree k);
    d_scan =
      Some
        (fun k n ->
          List.rev
            (Btree.fold_range tree ~start:k ~n
               (fun acc k' tid -> (k', tid) :: acc)
               []));
    d_check = (fun () -> Btree.check_invariants tree);
  }

let radix_driver ~store_keys () =
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let tree = Radix.create ~store_keys ~key_len:8 ~load () in
  let registered = Hashtbl.create 64 in
  let reg k tid =
    if not (Hashtbl.mem registered tid) then begin
      Hashtbl.add registered tid ();
      while Table.length table <= tid do
        ignore (Table.append table k)
      done
    end
  in
  {
    d_insert =
      (fun k tid ->
        reg k tid;
        Radix.insert tree k tid);
    d_remove = (fun k -> Radix.remove tree k);
    d_find = (fun k -> Radix.find tree k);
    d_scan =
      Some
        (fun k n ->
          List.rev
            (Radix.fold_range tree ~start:k ~n
               (fun acc k' tid -> (k', tid) :: acc)
               []));
    d_check = (fun () -> Radix.check_invariants tree);
  }

let hybrid_driver ~merge_ratio () =
  let table = Table.create ~key_len:8 () in
  let tree =
    Ei_baselines.Hybrid.create ~merge_ratio ~key_len:8
      ~load:(Table.loader table) ()
  in
  let registered = Hashtbl.create 64 in
  let reg k tid =
    if not (Hashtbl.mem registered tid) then begin
      Hashtbl.add registered tid ();
      while Table.length table <= tid do
        ignore (Table.append table k)
      done
    end
  in
  {
    d_insert =
      (fun k tid ->
        reg k tid;
        Ei_baselines.Hybrid.insert tree k tid);
    d_remove = (fun k -> Ei_baselines.Hybrid.remove tree k);
    d_find = (fun k -> Ei_baselines.Hybrid.find tree k);
    d_scan =
      Some
        (fun k n ->
          List.rev
            (Ei_baselines.Hybrid.fold_range tree ~start:k ~n
               (fun acc k' tid -> (k', tid) :: acc)
               []));
    d_check = (fun () -> Ei_baselines.Hybrid.check_invariants tree);
  }

let elastic_skiplist_driver ~size_bound () =
  let table = Table.create ~key_len:8 () in
  let tree =
    Ei_core.Elastic_skiplist.create ~key_len:8 ~load:(Table.loader table)
      ~size_bound ()
  in
  let registered = Hashtbl.create 64 in
  let reg k tid =
    if not (Hashtbl.mem registered tid) then begin
      Hashtbl.add registered tid ();
      while Table.length table <= tid do
        ignore (Table.append table k)
      done
    end
  in
  {
    d_insert =
      (fun k tid ->
        reg k tid;
        Ei_core.Elastic_skiplist.insert tree k tid);
    d_remove = (fun k -> Ei_core.Elastic_skiplist.remove tree k);
    d_find = (fun k -> Ei_core.Elastic_skiplist.find tree k);
    d_scan =
      Some
        (fun k n ->
          List.rev
            (Ei_core.Elastic_skiplist.fold_range tree ~start:k ~n
               (fun acc k' tid -> (k', tid) :: acc)
               []));
    d_check = (fun () -> Ei_core.Elastic_skiplist.check_invariants tree);
  }

let skiplist_driver () =
  let tree = Skiplist.create ~key_len:8 () in
  {
    d_insert = (fun k tid -> Skiplist.insert tree k tid);
    d_remove = (fun k -> Skiplist.remove tree k);
    d_find = (fun k -> Skiplist.find tree k);
    d_scan =
      Some
        (fun k n ->
          List.rev
            (Skiplist.fold_range tree ~start:k ~n
               (fun acc k' tid -> (k', tid) :: acc)
               []));
    d_check = (fun () -> Skiplist.check_invariants tree);
  }

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)

let prop_seqtree =
  QCheck.Test.make ~name:"seqtree agrees with model (levels 3, breathing 2)"
    ~count:300 (ops_arbitrary ~pool:48 120)
    (fun ops -> agree_with_model (seqtree_driver ~levels:3 ~breathing:2 ()) ops)

let prop_seqtrie =
  QCheck.Test.make ~name:"pure seqtrie agrees with model (levels 0)" ~count:300
    (ops_arbitrary ~pool:48 120)
    (fun ops -> agree_with_model (seqtree_driver ~levels:0 ~breathing:0 ()) ops)

let prop_btree_stx =
  QCheck.Test.make ~name:"stx btree agrees with model" ~count:200
    (ops_arbitrary 150)
    (fun ops -> agree_with_model (btree_driver (Policy.fixed Policy.Spec_std)) ops)

let prop_btree_seqtree =
  QCheck.Test.make ~name:"stx-seqtree btree agrees with model" ~count:200
    (ops_arbitrary 150)
    (fun ops ->
      agree_with_model (btree_driver (Policy.fixed (Policy.Spec_seq 32))) ops)

let prop_btree_elastic =
  QCheck.Test.make ~name:"elastic btree agrees with model" ~count:200
    (ops_arbitrary 150)
    (fun ops ->
      let e =
        Elasticity.create ~std_capacity:16
          (Elasticity.default_config ~size_bound:2_000)
      in
      agree_with_model (btree_driver (Elasticity.policy e)) ops)

let prop_radix_hot =
  QCheck.Test.make ~name:"radix (hot mode) agrees with model" ~count:200
    (ops_arbitrary 150)
    (fun ops -> agree_with_model (radix_driver ~store_keys:false ()) ops)

let prop_radix_art =
  QCheck.Test.make ~name:"radix (art mode) agrees with model" ~count:200
    (ops_arbitrary 150)
    (fun ops -> agree_with_model (radix_driver ~store_keys:true ()) ops)

let prop_skiplist =
  QCheck.Test.make ~name:"skiplist agrees with model" ~count:200
    (ops_arbitrary 150)
    (fun ops -> agree_with_model (skiplist_driver ()) ops)

let prop_seqtree_dense =
  QCheck.Test.make ~name:"seqtree agrees with model on dense prefixes"
    ~count:300 (ops_arbitrary ~pool:48 120)
    (fun ops ->
      agree_with_model ~key_of:dense_key_of_pool
        (seqtree_driver ~levels:3 ~breathing:2 ())
        ops)

let prop_btree_elastic_dense =
  QCheck.Test.make ~name:"elastic btree agrees with model on dense prefixes"
    ~count:200 (ops_arbitrary 150)
    (fun ops ->
      let e =
        Elasticity.create ~std_capacity:16
          (Elasticity.default_config ~size_bound:2_000)
      in
      agree_with_model ~key_of:dense_key_of_pool (btree_driver (Elasticity.policy e))
        ops)

let prop_radix_dense =
  QCheck.Test.make ~name:"radix agrees with model on dense prefixes" ~count:200
    (ops_arbitrary 150)
    (fun ops ->
      agree_with_model ~key_of:dense_key_of_pool (radix_driver ~store_keys:false ())
        ops)

let prop_hybrid =
  QCheck.Test.make ~name:"hybrid index agrees with model (eager merges)"
    ~count:200 (ops_arbitrary 150)
    (fun ops -> agree_with_model (hybrid_driver ~merge_ratio:0.05 ()) ops)

let prop_elastic_skiplist =
  QCheck.Test.make ~name:"elastic skiplist agrees with model (tiny bound)"
    ~count:200 (ops_arbitrary 150)
    (fun ops -> agree_with_model (elastic_skiplist_driver ~size_bound:800 ()) ops)

(* --- Inline standard leaf vs a sorted-assoc model ----------------------- *)

(* Keys of [key_len] bytes from a pool index.  Length 3 exercises only
   the byte tail of the inline comparison, 8 one word, 16 a shared first
   word so the order is decided in the second. *)
let sized_key ~key_len i =
  let k = key_of_pool i in
  if key_len <= 8 then String.sub k (8 - key_len) key_len
  else String.make (key_len - 8) '\x5a' ^ k

let prop_std_leaf_model key_len =
  let module Std_leaf = Ei_btree.Std_leaf in
  let capacity = 16 in
  QCheck.Test.make
    ~name:(Printf.sprintf "inline std leaf matches sorted assoc (key_len %d)" key_len)
    ~count:300 (ops_arbitrary ~pool:24 120)
    (fun ops ->
      let leaf = Std_leaf.create ~key_len ~capacity () in
      let model = ref [] in
      let key i = sized_key ~key_len i in
      let from k = List.filter (fun (k', _) -> String.compare k' k >= 0) !model in
      let step op =
        match op with
        | Insert i ->
          let k = key i in
          let expect =
            if List.mem_assoc k !model then Std_leaf.Duplicate
            else if List.length !model >= capacity then Std_leaf.Full
            else begin
              model := List.sort compare ((k, i) :: !model);
              Std_leaf.Inserted
            end
          in
          Std_leaf.insert leaf k i = expect
        | Remove i ->
          let k = key i in
          let expect =
            if List.mem_assoc k !model then Std_leaf.Removed else Std_leaf.Not_present
          in
          model := List.remove_assoc k !model;
          Std_leaf.remove leaf k = expect
        | Find i ->
          let k = key i in
          Std_leaf.find leaf k = List.assoc_opt k !model
          && Std_leaf.lower_bound leaf k = List.length !model - List.length (from k)
        | Scan (i, n) ->
          let k = key i in
          let got =
            Std_leaf.fold_from leaf (Std_leaf.lower_bound leaf k)
              (fun acc k' tid -> if List.length acc < n then (k', tid) :: acc else acc)
              []
          in
          List.rev got = List.filteri (fun j _ -> j < n) (from k)
      in
      let agrees () =
        Std_leaf.check_invariants leaf;
        Std_leaf.count leaf = List.length !model
        && List.for_all2
             (fun j (k, tid) -> Std_leaf.key_at leaf j = k && Std_leaf.tid_at leaf j = tid)
             (List.init (List.length !model) Fun.id)
             !model
      in
      List.for_all (fun op -> step op && agrees ()) ops
      &&
      (* split then absorb is the identity on contents *)
      let right = Std_leaf.split leaf in
      let halves =
        Std_leaf.fold_from leaf 0 (fun acc k tid -> (k, tid) :: acc) []
        |> fun l -> Std_leaf.fold_from right 0 (fun acc k tid -> (k, tid) :: acc) l
      in
      Std_leaf.absorb leaf right;
      List.rev halves = !model && agrees ())

(* --- OLC size tracker -------------------------------------------------- *)

(* The O(1) tracked size every OLC kind reports (and [Serve] publishes
   after each batch) must equal the memory-model walk once quiescent. *)
let prop_olc_tracker =
  let module Olc = Ei_olc.Btree_olc in
  let kinds =
    [
      ("std", Olc.Olc_std);
      ("seqtree", Olc.Olc_seqtree { capacity = 64; levels = 2; breathing = 4 });
      ("elastic", Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:6_000));
    ]
  in
  List.map
    (fun (name, kind) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "olc tracked size = memory_bytes walk (%s)" name)
        ~count:100 (ops_arbitrary ~pool:600 1500)
        (fun ops ->
          let table = Table.create ~key_len:8 () in
          let load =
            Olc.safe_loader ~key_len:8
              ~table_length:(fun () -> Table.length table)
              ~load:(Table.loader table)
          in
          let tree = Olc.create ~kind ~key_len:8 ~load () in
          let tids = Hashtbl.create 64 in
          List.iter
            (function
              | Insert i ->
                let k = key_of_pool i in
                let tid =
                  match Hashtbl.find_opt tids k with
                  | Some t -> t
                  | None ->
                    let t = Table.append table k in
                    Hashtbl.add tids k t;
                    t
                in
                ignore (Olc.insert tree k tid)
              | Remove i -> ignore (Olc.remove tree (key_of_pool i))
              | Find _ | Scan _ -> ())
            ops;
          Olc.tracked_memory_bytes tree = Olc.memory_bytes tree))
    kinds

(* --- multi_find equivalence ------------------------------------------- *)

module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops

(* [multi_find] must be bit-equivalent to a [find] loop on every
   backend, for batches with duplicate and missing keys, queried both
   mid-history (across leaf splits and elastic conversions) and at the
   end. *)
let multi_find_agrees mk (ops, queries) =
  let table = Table.create ~key_len:8 () in
  let ix = mk table in
  let tids = Hashtbl.create 64 in
  let apply op =
    match op with
    | Insert i ->
      let k = key_of_pool i in
      let tid =
        match Hashtbl.find_opt tids k with
        | Some t -> t
        | None ->
          let t = Table.append table k in
          Hashtbl.add tids k t;
          t
      in
      ignore (ix.Index_ops.insert k tid)
    | Remove i -> ignore (ix.Index_ops.remove (key_of_pool i))
    | Find i -> ignore (ix.Index_ops.find (key_of_pool i))
    | Scan _ -> ()
  in
  let check () =
    (* queries range over twice the pool, so roughly half miss *)
    let keys = Array.of_list (List.map key_of_pool queries) in
    ix.Index_ops.multi_find keys = Array.map ix.Index_ops.find keys
  in
  let rec halves n = function
    | [] -> true
    | op :: rest ->
      apply op;
      if n = 0 then check () && halves (-1) rest else halves (n - 1) rest
  in
  halves (List.length ops / 2) ops && check ()

let prop_multi_find =
  let mk_plain kind table = Registry.make ~key_len:8 ~load:(Table.loader table) kind in
  let mk_olc kind table =
    let load =
      Ei_olc.Btree_olc.safe_loader ~key_len:8
        ~table_length:(fun () -> Table.length table)
        ~load:(Table.loader table)
    in
    Registry.make ~key_len:8 ~load kind
  in
  let backends =
    [
      ("stx", mk_plain Registry.Stx);
      ("seqtree", mk_plain (Registry.Seqtree 64));
      ( "elastic",
        mk_plain (Registry.Elastic (Elasticity.default_config ~size_bound:2_000)) );
      ("skiplist", mk_plain Registry.Skiplist);
      ("hot", mk_plain Registry.Hot);
      ("olc", mk_olc (Registry.Olc Ei_olc.Btree_olc.Olc_std));
      ( "olc-elastic",
        mk_olc
          (Registry.Olc
             (Ei_olc.Btree_olc.Olc_elastic
                (Ei_olc.Btree_olc.default_elastic_config ~size_bound:2_000))) );
    ]
  in
  List.map
    (fun (name, mk) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "multi_find = find loop (%s)" name)
        ~count:100
        QCheck.(
          pair (ops_arbitrary ~pool:64 200)
            (list_of_size (Gen.int_bound 80) (int_bound 127)))
        (multi_find_agrees mk))
    backends

(* --- Bitsarr ---------------------------------------------------------- *)

let prop_bitsarr =
  (* Set/get against a reference array, both widths. *)
  QCheck.Test.make ~name:"bitsarr set/get matches array model" ~count:300
    QCheck.(pair (oneofl [ 1; 2 ]) (small_list (pair small_nat int)))
    (fun (width, ops) ->
      let cap = 40 in
      let arr = Bitsarr.create ~width ~capacity:cap in
      let model = Array.make cap 0 in
      List.iter
        (fun (pos, v) ->
          let v = v land if width = 1 then 0xff else 0xffff in
          Bitsarr.set arr (pos mod cap) v;
          model.(pos mod cap) <- v)
        ops;
      Array.for_all Fun.id (Array.mapi (fun i v -> Bitsarr.get arr i = v) model))

(* --- Memory model ------------------------------------------------------ *)

let prop_memmodel_monotone =
  QCheck.Test.make ~name:"seqtree size model monotone in capacity and slots"
    ~count:300
    QCheck.(triple (int_range 2 256) (int_range 0 7) (int_range 8 32))
    (fun (capacity, levels, key_len) ->
      let sz slots =
        Ei_storage.Memmodel.seqtree_bytes ~capacity ~key_len ~levels
          ~tid_slots:slots ~breathing:true
      in
      let s1 = sz 1 and s2 = sz capacity in
      s1 <= s2
      && Ei_storage.Memmodel.seqtree_bytes ~capacity:(2 * capacity) ~key_len
           ~levels ~tid_slots:1 ~breathing:true
         > Ei_storage.Memmodel.seqtree_bytes ~capacity ~key_len ~levels
             ~tid_slots:1 ~breathing:true)

let prop_elastic_requirement =
  (* §4 requirement: compact leaf of capacity 2n smaller than standard
     leaf of capacity n, for keys of 16 bytes and up. *)
  QCheck.Test.make ~name:"compact(2n) < std(n) for key_len >= 16" ~count:200
    QCheck.(pair (int_range 8 64) (int_range 16 64))
    (fun (n, key_len) ->
      Ei_storage.Memmodel.seqtree_bytes ~capacity:(2 * n) ~key_len ~levels:2
        ~tid_slots:(2 * n) ~breathing:false
      < Ei_storage.Memmodel.std_leaf_bytes ~capacity:n ~key_len)

(* --- Elasticity state machine ----------------------------------------- *)

let prop_state_machine =
  (* Arbitrary sequences of (bytes, compact-leaves) observations never
     reach an inconsistent state: Expanding requires having shrunk, and
     in Normal state there is no pressure above the shrink threshold. *)
  QCheck.Test.make ~name:"elasticity state machine sanity" ~count:300
    QCheck.(small_list (pair (int_bound 2000) (int_bound 10)))
    (fun observations ->
      let e =
        Elasticity.create ~std_capacity:16
          (Elasticity.default_config ~size_bound:1000)
      in
      let policy = Elasticity.policy e in
      List.for_all
        (fun (bytes, compact) ->
          let view = { Policy.bytes; compact_leaves = compact; items = 0 } in
          ignore (policy.Policy.on_underflow view ~current:Policy.Spec_std ~count:0);
          match Elasticity.state e with
          | Ei_btree.Hysteresis.Normal -> bytes < 900
          | Ei_btree.Hysteresis.Shrinking -> true
          | Ei_btree.Hysteresis.Expanding -> bytes < 900)
        observations)

let () =
  (* Seed QCheck's generator state from EI_SEED (default 0) so property
     runs are reproducible and re-rollable like the rest of the suite. *)
  let qt =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Ei_util.Rng.env_seed ~default:0 |])
  in
  Alcotest.run "ei_properties"
    [
      ( "indexes-vs-model",
        [
          qt prop_seqtree;
          qt prop_seqtrie;
          qt prop_btree_stx;
          qt prop_btree_seqtree;
          qt prop_btree_elastic;
          qt prop_radix_hot;
          qt prop_radix_art;
          qt prop_skiplist;
          qt prop_hybrid;
          qt prop_elastic_skiplist;
          qt prop_seqtree_dense;
          qt prop_btree_elastic_dense;
          qt prop_radix_dense;
        ] );
      ("std-leaf", List.map (fun kl -> qt (prop_std_leaf_model kl)) [ 3; 8; 16 ]);
      ("olc-tracker", List.map qt prop_olc_tracker);
      ("multi-find", List.map qt prop_multi_find);
      ("bitsarr", [ qt prop_bitsarr ]);
      ( "memory-model",
        [ qt prop_memmodel_monotone; qt prop_elastic_requirement ] );
      ("elasticity", [ qt prop_state_machine ]);
    ]
