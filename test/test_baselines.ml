(* Tests for the baseline indexes: the adaptive blind radix trie (HOT
   substitute with indirect keys / ART mode with stored keys) and the
   skip list.  All are driven against a Map reference model, including
   range scans from random (usually absent) start keys — the hard case
   for blind tries. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng

(* All trial seeds derive from EI_SEED (default 0): stream N here was
   formerly the fixed seed N, so default behaviour is unchanged in
   spirit while EI_SEED re-rolls the whole executable. *)
let seed = Rng.env_seed ~default:0
module Table = Ei_storage.Table
module Radix = Ei_baselines.Radix
module Skiplist = Ei_baselines.Skiplist
module Hybrid = Ei_baselines.Hybrid

module Smap = Map.Make (String)

module type INDEX = sig
  type t

  val insert : t -> string -> int -> bool
  val remove : t -> string -> bool
  val find : t -> string -> int option
  val count : t -> int
  val fold_range : t -> start:string -> n:int -> ('a -> string -> int -> 'a) -> 'a -> 'a
  val check_invariants : t -> unit
end

let random_ops (type a) (module I : INDEX with type t = a) (index : a)
    (table : Table.t) ~key_len ~nops ~key_space ~seed () =
  let rng = Rng.create seed in
  let model = ref Smap.empty in
  let pool = Array.init key_space (fun _ -> Key.random rng key_len) in
  let tid_of = Hashtbl.create 256 in
  for step = 1 to nops do
    let k = pool.(Rng.int rng key_space) in
    let choice = Rng.int rng 100 in
    if choice < 50 then begin
      let tid =
        match Hashtbl.find_opt tid_of k with
        | Some tid -> tid
        | None ->
          let tid = Table.append table k in
          Hashtbl.add tid_of k tid;
          tid
      in
      if I.insert index k tid <> not (Smap.mem k !model) then
        Alcotest.fail "insert mismatch";
      if not (Smap.mem k !model) then model := Smap.add k tid !model
    end
    else if choice < 75 then begin
      if I.remove index k <> Smap.mem k !model then Alcotest.fail "remove mismatch";
      model := Smap.remove k !model
    end
    else if choice < 90 then begin
      match (I.find index k, Smap.find_opt k !model) with
      | Some a, Some b -> if a <> b then Alcotest.fail "tid mismatch"
      | None, None -> ()
      | _ -> Alcotest.fail "membership mismatch"
    end
    else begin
      (* Range scan from a random start key. *)
      let start = Key.random rng key_len in
      let n = 1 + Rng.int rng 20 in
      let got =
        List.rev
          (I.fold_range index ~start ~n (fun acc k tid -> (k, tid) :: acc) [])
      in
      let expected =
        Smap.to_seq !model
        |> Seq.filter (fun (k, _) -> Key.compare k start >= 0)
        |> Seq.take n |> List.of_seq
      in
      if got <> expected then
        Alcotest.failf "scan mismatch at step %d (got %d, want %d)" step
          (List.length got) (List.length expected)
    end;
    if I.count index <> Smap.cardinal !model then Alcotest.fail "count mismatch";
    if step mod 200 = 0 then I.check_invariants index
  done;
  I.check_invariants index;
  let got =
    I.fold_range index ~start:(String.make key_len '\000') ~n:max_int
      (fun acc k tid -> (k, tid) :: acc)
      []
  in
  if List.rev got <> Smap.bindings !model then Alcotest.fail "final contents"

let radix_case ~store_keys ~key_len ~seed () =
  let table = Table.create ~key_len () in
  let index = Radix.create ~store_keys ~key_len ~load:(Table.loader table) () in
  random_ops (module Radix) index table ~key_len ~nops:3000 ~key_space:800
    ~seed ()

let hybrid_case ~merge_ratio ~key_len ~seed () =
  let table = Table.create ~key_len () in
  let index = Hybrid.create ~merge_ratio ~key_len ~load:(Table.loader table) () in
  random_ops (module Hybrid) index table ~key_len ~nops:3000 ~key_space:800
    ~seed ()

let skiplist_case ~key_len ~seed () =
  let table = Table.create ~key_len () in
  let index = Skiplist.create ~key_len () in
  random_ops (module Skiplist) index table ~key_len ~nops:3000
    ~key_space:800 ~seed ()

(* --- Directed tests ------------------------------------------------- *)

let test_radix_dense () =
  (* Sequential integer keys exercise deep shared prefixes. *)
  let table = Table.create ~key_len:8 () in
  let t = Radix.create ~key_len:8 ~load:(Table.loader table) () in
  for i = 0 to 4999 do
    let k = Key.of_int i in
    if not (Radix.insert t k (Table.append table k)) then
      Alcotest.fail "dense insert"
  done;
  Radix.check_invariants t;
  for i = 0 to 4999 do
    if Radix.find t (Key.of_int i) = None then Alcotest.fail "dense find"
  done;
  (* Scan across a boundary. *)
  let got =
    Radix.fold_range t ~start:(Key.of_int 1234) ~n:5
      (fun acc k _ -> Key.to_int k :: acc)
      []
  in
  Alcotest.(check (list int)) "scan" [ 1238; 1237; 1236; 1235; 1234 ] got

let test_radix_memory_vs_stored () =
  (* Indirect key storage (HOT mode) must be substantially smaller than
     stored keys (ART mode) for long keys. *)
  let key_len = 30 in
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let hot = Radix.create ~store_keys:false ~key_len ~load () in
  let art = Radix.create ~store_keys:true ~key_len ~load () in
  let rng = Rng.stream seed 3 in
  for _ = 1 to 5000 do
    let k = Key.random rng key_len in
    let tid = Table.append table k in
    ignore (Radix.insert hot k tid);
    ignore (Radix.insert art k tid)
  done;
  Alcotest.(check bool) "indirect smaller" true
    (Radix.memory_bytes hot < Radix.memory_bytes art)

let test_radix_key_loads () =
  (* Scans in indirect mode must load every emitted key from the table —
     the cost HOT pays in the paper's scan experiments. *)
  let table = Table.create ~key_len:8 () in
  let loads = ref 0 in
  let load tid =
    incr loads;
    Table.key table tid
  in
  let t = Radix.create ~store_keys:false ~key_len:8 ~load () in
  for i = 0 to 999 do
    let k = Key.of_int i in
    ignore (Radix.insert t k (Table.append table k))
  done;
  let before = !loads in
  ignore (Radix.fold_range t ~start:(Key.of_int 100) ~n:50 (fun a _ _ -> a) ());
  let loads = !loads - before in
  Alcotest.(check bool) "at least one load per scanned key" true (loads >= 50)

let test_hybrid_merge_behaviour () =
  (* Insert-only load: few merges, compact static stage (smaller than
     STX).  Updates against OLD entries violate the skew assumption and
     force repeated full rebuilds (the merge_work blow-up of §2). *)
  let key_len = 8 in
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let hybrid = Hybrid.create ~merge_ratio:0.1 ~key_len ~load () in
  let stx = Ei_btree.Btree.create ~key_len ~load ~policy:Ei_btree.Policy.(fixed Spec_std) () in
  let n = 20_000 in
  let keys = Array.init n (fun i -> Key.of_int i) in
  let tids = Array.map (Table.append table) keys in
  Array.iteri
    (fun i k ->
      ignore (Hybrid.insert hybrid k tids.(i));
      ignore (Ei_btree.Btree.insert stx k tids.(i)))
    keys;
  Hybrid.check_invariants hybrid;
  Alcotest.(check int) "count" n (Hybrid.count hybrid);
  (* The mostly-static hybrid is considerably smaller than STX. *)
  Alcotest.(check bool) "hybrid compact after load" true
    (Hybrid.memory_bytes hybrid * 3 < Ei_btree.Btree.memory_bytes stx * 2);
  let work_after_load = (Hybrid.stats hybrid).Hybrid.merge_work in
  (* Update old entries uniformly: every shadow lands in the dynamic
     stage and periodically forces an O(total) rebuild. *)
  let rng = Rng.stream seed 5 in
  for _ = 1 to n / 2 do
    let i = Rng.int rng n in
    ignore (Hybrid.update hybrid keys.(i) tids.(i))
  done;
  Hybrid.check_invariants hybrid;
  let work_after_updates = (Hybrid.stats hybrid).Hybrid.merge_work in
  (* n/2 updates caused rebuild work several times the data size. *)
  Alcotest.(check bool) "uniform updates trigger heavy merge work" true
    (work_after_updates - work_after_load > 2 * n)

let test_skiplist_memory () =
  (* The paper omits skip lists because they use more memory than STX. *)
  let key_len = 8 in
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let sl = Skiplist.create ~key_len () in
  let stx =
    Ei_btree.Btree.create ~key_len ~load ~policy:Ei_btree.Policy.(fixed Spec_std) ()
  in
  let rng = Rng.stream seed 11 in
  for _ = 1 to 10_000 do
    let k = Key.random rng key_len in
    let tid = Table.append table k in
    ignore (Skiplist.insert sl k tid);
    ignore (Ei_btree.Btree.insert stx k tid)
  done;
  Alcotest.(check bool) "skip list bigger than STX" true
    (Skiplist.memory_bytes sl > Ei_btree.Btree.memory_bytes stx)

let () =
  Alcotest.run "ei_baselines"
    [
      ( "radix",
        [
          Alcotest.test_case "hot-mode random ops 8B" `Quick
            (radix_case ~store_keys:false ~key_len:8 ~seed:1);
          Alcotest.test_case "hot-mode random ops 16B" `Quick
            (radix_case ~store_keys:false ~key_len:16 ~seed:2);
          Alcotest.test_case "hot-mode random ops 30B" `Quick
            (radix_case ~store_keys:false ~key_len:30 ~seed:3);
          Alcotest.test_case "art-mode random ops 8B" `Quick
            (radix_case ~store_keys:true ~key_len:8 ~seed:4);
          Alcotest.test_case "art-mode random ops 16B" `Quick
            (radix_case ~store_keys:true ~key_len:16 ~seed:5);
          Alcotest.test_case "dense keys" `Quick test_radix_dense;
          Alcotest.test_case "indirect vs stored memory" `Quick
            test_radix_memory_vs_stored;
          Alcotest.test_case "scan key loads" `Quick test_radix_key_loads;
        ] );
      ( "skiplist",
        [
          Alcotest.test_case "random ops 8B" `Quick (skiplist_case ~key_len:8 ~seed:6);
          Alcotest.test_case "random ops 16B" `Quick (skiplist_case ~key_len:16 ~seed:7);
          Alcotest.test_case "memory vs STX" `Quick test_skiplist_memory;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "random ops 8B" `Quick
            (hybrid_case ~merge_ratio:0.1 ~key_len:8 ~seed:8);
          Alcotest.test_case "random ops 16B, eager merges" `Quick
            (hybrid_case ~merge_ratio:0.02 ~key_len:16 ~seed:9);
          Alcotest.test_case "merge behaviour (skew assumption)" `Quick
            test_hybrid_merge_behaviour;
        ] );
    ]
