(* Property and unit tests for the blind-trie node representations:
   SeqTree (all tree levels, with and without breathing) and SubTrie.
   Every representation is compared against a sorted-array reference
   model on random operation sequences, and structural invariants are
   checked after each mutation. *)

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

(* ------------------------------------------------------------------ *)
(* Reference model: sorted array of (key, tid).                        *)

module Ref_model = struct
  type t = { mutable entries : (string * int) list }

  let create () = { entries = [] }

  let insert t key tid =
    if List.mem_assoc key t.entries then `Duplicate
    else begin
      t.entries <-
        List.sort (fun (a, _) (b, _) -> Key.compare a b) ((key, tid) :: t.entries);
      `Ok
    end

  let remove t key =
    if List.mem_assoc key t.entries then begin
      t.entries <- List.remove_assoc key t.entries;
      `Ok
    end
    else `Absent

  let count t = List.length t.entries

  (* Position of [key] if present, else predecessor position (-1 if none):
     the same semantics as Seqtree.locate. *)
  let locate t key =
    let arr = Array.of_list t.entries in
    let n = Array.length arr in
    let rec scan i =
      if i >= n then `Pred (n - 1)
      else
        let c = Key.compare key (fst arr.(i)) in
        if c = 0 then `Found i else if c < 0 then `Pred (i - 1) else scan (i + 1)
    in
    scan 0

  let tid_at t i = snd (List.nth t.entries i)
  let _keys t = List.map fst t.entries
  let tids t = List.map snd t.entries
end

(* ------------------------------------------------------------------ *)
(* Random keys backed by a table.                                      *)

let fresh_key rng table seen key_len =
  let rec draw () =
    let k = Key.random rng key_len in
    if Hashtbl.mem seen k then draw () else k
  in
  let k = draw () in
  Hashtbl.add seen k ();
  let tid = Table.append table k in
  (k, tid)

(* ------------------------------------------------------------------ *)
(* Generic driver over a node implementation.                          *)

module type NODE = sig
  type t

  val count : t -> int
  val tid_at : t -> int -> int
  val locate : t -> load:(int -> string) -> string -> [ `Found of int | `Pred of int ]
  val insert : t -> load:(int -> string) -> string -> int -> [ `Ok | `Full | `Dup ]
  val remove : t -> load:(int -> string) -> string -> [ `Ok | `Absent ]
  val check : t -> load:(int -> string) -> unit
end

(* The node's owner: breathing growth swaps in a larger image. *)
module Seqtree_node : NODE with type t = Seqtree.t ref = struct
  type t = Seqtree.t ref

  let count t = Seqtree.count !t
  let tid_at t = Seqtree.tid_at !t

  let locate t ~load key =
    match Seqtree.locate !t ~load key with
    | Seqtree.Found i -> `Found i
    | Seqtree.Pred p -> `Pred p

  let insert t ~load key tid =
    match Seqtree.insert !t ~load key tid with
    | Seqtree.Inserted -> `Ok
    | Seqtree.Grown s ->
      t := s;
      `Ok
    | Seqtree.Full -> `Full
    | Seqtree.Duplicate -> `Dup

  let remove t ~load key =
    match Seqtree.remove !t ~load key with
    | Seqtree.Removed -> `Ok
    | Seqtree.Not_present -> `Absent

  let check t ~load = Seqtree.check_invariants !t ~load
end

module Stringtrie_node : NODE with type t = Stringtrie.t = struct
  type t = Stringtrie.t

  let count = Stringtrie.count
  let tid_at = Stringtrie.tid_at

  let locate t ~load key =
    match Stringtrie.locate t ~load key with
    | Stringtrie.Found i -> `Found i
    | Stringtrie.Pred p -> `Pred p

  let insert t ~load key tid =
    match Stringtrie.insert t ~load key tid with
    | Stringtrie.Inserted -> `Ok
    | Stringtrie.Full -> `Full
    | Stringtrie.Duplicate -> `Dup

  let remove t ~load key =
    match Stringtrie.remove t ~load key with
    | Stringtrie.Removed -> `Ok
    | Stringtrie.Not_present -> `Absent

  let check t ~load = Stringtrie.check_invariants t ~load
end

module Subtrie_node : NODE with type t = Subtrie.t = struct
  type t = Subtrie.t

  let count = Subtrie.count
  let tid_at = Subtrie.tid_at

  let locate t ~load key =
    match Subtrie.locate t ~load key with
    | Subtrie.Found i -> `Found i
    | Subtrie.Pred p -> `Pred p

  let insert t ~load key tid =
    match Subtrie.insert t ~load key tid with
    | Subtrie.Inserted -> `Ok
    | Subtrie.Full -> `Full
    | Subtrie.Duplicate -> `Dup

  let remove t ~load key =
    match Subtrie.remove t ~load key with
    | Subtrie.Removed -> `Ok
    | Subtrie.Not_present -> `Absent

  let check t ~load = Subtrie.check_invariants t ~load
end

(* Run a random operation sequence against a node and the reference model,
   verifying results and invariants after every step. *)
let run_trial (type a) (module N : NODE with type t = a) (node : a) ~capacity
    ~key_len ~seed ~nops =
  let rng = Rng.create seed in
  let table = Table.create ~key_len () in
  let load = Table.loader table in
  let seen = Hashtbl.create 64 in
  let model = Ref_model.create () in
  let live = ref [] in
  for _step = 1 to nops do
    let choice = Rng.int rng 100 in
    if choice < 50 && Ref_model.count model < capacity then begin
      (* Insert a fresh key. *)
      let k, tid = fresh_key rng table seen key_len in
      (match (N.insert node ~load k tid, Ref_model.insert model k tid) with
      | `Ok, `Ok -> live := k :: !live
      | r, m ->
        Alcotest.failf "insert mismatch: node=%s model=%s"
          (match r with `Ok -> "ok" | `Full -> "full" | `Dup -> "dup")
          (match m with `Ok -> "ok" | `Duplicate -> "dup"))
    end
    else if choice < 65 && !live <> [] then begin
      (* Remove a random live key. *)
      let k = List.nth !live (Rng.int rng (List.length !live)) in
      (match (N.remove node ~load k, Ref_model.remove model k) with
      | `Ok, `Ok -> live := List.filter (fun k' -> not (Key.equal k k')) !live
      | _ -> Alcotest.fail "remove mismatch")
    end
    else if choice < 75 then begin
      (* Duplicate insert / absent remove must be rejected. *)
      match !live with
      | k :: _ ->
        (match N.insert node ~load k (-1) with
        | `Dup -> ()
        | _ -> Alcotest.fail "duplicate insert accepted");
        let absent = Key.random rng key_len in
        if not (Hashtbl.mem seen absent) then (
          match N.remove node ~load absent with
          | `Absent -> ()
          | `Ok -> Alcotest.fail "removed absent key")
      | [] -> ()
    end
    else begin
      (* Locate: a present key or a random probe. *)
      let probe =
        if Rng.bool rng && !live <> [] then
          List.nth !live (Rng.int rng (List.length !live))
        else Key.random rng key_len
      in
      match (N.locate node ~load probe, Ref_model.locate model probe) with
      | `Found i, `Found j ->
        if i <> j then Alcotest.failf "found at %d, expected %d" i j;
        if N.tid_at node i <> Ref_model.tid_at model j then
          Alcotest.fail "tid mismatch"
      | `Pred i, `Pred j ->
        if i <> j then Alcotest.failf "pred %d, expected %d" i j
      | `Found _, `Pred _ -> Alcotest.fail "node found a key the model lacks"
      | `Pred _, `Found _ -> Alcotest.fail "node missed a present key"
    end;
    N.check node ~load;
    if N.count node <> Ref_model.count model then
      Alcotest.failf "count mismatch: node=%d model=%d" (N.count node)
        (Ref_model.count model)
  done;
  (* Final sweep: tids in key order must match the model exactly. *)
  let tids = List.init (N.count node) (fun i -> N.tid_at node i) in
  if tids <> Ref_model.tids model then Alcotest.fail "final tid order mismatch"

(* ------------------------------------------------------------------ *)
(* Trial instantiations.                                               *)

let seqtree_case ~key_len ~capacity ~levels ~breathing ~seed () =
  let node = ref (Seqtree.create ~key_len ~capacity ~levels ~breathing ()) in
  run_trial (module Seqtree_node) node ~capacity ~key_len ~seed
    ~nops:(6 * capacity)

let subtrie_case ~key_len ~capacity ~seed () =
  let node = Subtrie.of_sorted ~key_len ~capacity [||] [||] 0 in
  run_trial (module Subtrie_node) node ~capacity ~key_len ~seed
    ~nops:(6 * capacity)

let stringtrie_case ~key_len ~capacity ~seed () =
  let node = Stringtrie.of_sorted ~key_len ~capacity [||] [||] 0 in
  run_trial (module Stringtrie_node) node ~capacity ~key_len ~seed
    ~nops:(6 * capacity)

let seqtree_grid =
  List.concat_map
    (fun key_len ->
      List.concat_map
        (fun (capacity, levels_list) ->
          List.concat_map
            (fun levels ->
              List.map
                (fun breathing ->
                  let name =
                    Printf.sprintf "seqtree k=%dB cap=%d lvl=%d s=%d" key_len
                      capacity levels breathing
                  in
                  Alcotest.test_case name `Quick
                    (seqtree_case ~key_len ~capacity ~levels ~breathing
                       ~seed:(key_len + capacity + levels + breathing)))
                [ 0; 1; 4 ])
            levels_list)
        [ (2, [ 0 ]); (16, [ 0; 2; 3 ]); (64, [ 0; 2; 5 ]); (128, [ 2; 6 ]) ])
    [ 8; 16; 30 ]

(* Packed-entry width switches: BlindiTree slots go to 2 bytes from
   capacity 255 on, BlindiBits entries once keys exceed 32 bytes.  The
   grid above stays within 1-byte entries throughout. *)
let seqtree_wide =
  List.concat_map
    (fun (key_len, capacity, levels) ->
      List.map
        (fun breathing ->
          let name =
            Printf.sprintf "seqtree k=%dB cap=%d lvl=%d s=%d" key_len capacity
              levels breathing
          in
          Alcotest.test_case name `Quick
            (seqtree_case ~key_len ~capacity ~levels ~breathing
               ~seed:(key_len + capacity + levels + breathing)))
        [ 0; 4 ])
    [ (8, 300, 3); (8, 300, 9); (40, 64, 2); (40, 300, 9) ]

let subtrie_grid =
  List.concat_map
    (fun key_len ->
      List.map
        (fun capacity ->
          let name = Printf.sprintf "subtrie k=%dB cap=%d" key_len capacity in
          Alcotest.test_case name `Quick
            (subtrie_case ~key_len ~capacity ~seed:(17 * key_len + capacity)))
        [ 2; 16; 64; 128 ])
    [ 8; 16; 30 ]

let stringtrie_grid =
  List.concat_map
    (fun key_len ->
      List.map
        (fun capacity ->
          let name = Printf.sprintf "stringtrie k=%dB cap=%d" key_len capacity in
          Alcotest.test_case name `Quick
            (stringtrie_case ~key_len ~capacity ~seed:(23 * key_len + capacity)))
        [ 2; 16; 64; 128 ])
    [ 8; 16; 30 ]

(* ------------------------------------------------------------------ *)
(* Bulk construction / split / merge.                                  *)

let sorted_fixture rng table ~key_len ~n =
  let seen = Hashtbl.create 64 in
  let pairs = Array.init n (fun _ -> fresh_key rng table seen key_len) in
  Array.sort (fun (a, _) (b, _) -> Key.compare a b) pairs;
  (Array.map fst pairs, Array.map snd pairs)

let test_of_sorted () =
  let rng = Rng.stream seed 99 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys, tids = sorted_fixture rng table ~key_len:8 ~n:50 in
  let t =
    Seqtree.of_sorted ~key_len:8 ~capacity:64 ~levels:3 ~breathing:4 keys tids 50
  in
  Seqtree.check_invariants t ~load;
  Array.iteri
    (fun i k ->
      match Seqtree.find t ~load k with
      | Some tid -> Alcotest.(check int) "tid" tids.(i) tid
      | None -> Alcotest.fail "key lost by of_sorted")
    keys

let test_split_merge () =
  let rng = Rng.stream seed 7 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys, tids = sorted_fixture rng table ~key_len:8 ~n:40 in
  let t =
    Seqtree.of_sorted ~key_len:8 ~capacity:64 ~levels:2 ~breathing:0 keys tids 40
  in
  let left, right = Seqtree.split t ~left_capacity:32 ~right_capacity:32 in
  Seqtree.check_invariants left ~load;
  Seqtree.check_invariants right ~load;
  Alcotest.(check int) "left count" 20 (Seqtree.count left);
  Alcotest.(check int) "right count" 20 (Seqtree.count right);
  (* Every key findable in exactly the expected half. *)
  Array.iteri
    (fun i k ->
      let half = if i < 20 then left else right in
      match Seqtree.find half ~load k with
      | Some tid -> Alcotest.(check int) "tid" tids.(i) tid
      | None -> Alcotest.fail "key lost by split")
    keys;
  let merged = Seqtree.merge left right ~load ~capacity:64 ~levels:2 in
  Seqtree.check_invariants merged ~load;
  Alcotest.(check int) "merged count" 40 (Seqtree.count merged);
  Array.iteri
    (fun i k ->
      match Seqtree.find merged ~load k with
      | Some tid -> Alcotest.(check int) "tid" tids.(i) tid
      | None -> Alcotest.fail "key lost by merge")
    keys

let test_subtrie_split_merge () =
  let rng = Rng.stream seed 8 in
  let table = Table.create ~key_len:16 () in
  let load = Table.loader table in
  let keys, tids = sorted_fixture rng table ~key_len:16 ~n:30 in
  let t = Subtrie.of_sorted ~key_len:16 ~capacity:32 keys tids 30 in
  let left, right = Subtrie.split t ~left_capacity:32 ~right_capacity:32 in
  Subtrie.check_invariants left ~load;
  Subtrie.check_invariants right ~load;
  let merged = Subtrie.merge left right ~load ~capacity:32 in
  Subtrie.check_invariants merged ~load;
  Array.iteri
    (fun i k ->
      match Subtrie.find merged ~load k with
      | Some tid -> Alcotest.(check int) "tid" tids.(i) tid
      | None -> Alcotest.fail "key lost")
    keys

let test_with_capacity () =
  let rng = Rng.stream seed 21 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys, tids = sorted_fixture rng table ~key_len:8 ~n:30 in
  let t =
    Seqtree.of_sorted ~key_len:8 ~capacity:32 ~levels:2 ~breathing:2 keys tids 30
  in
  let grown = Seqtree.with_capacity t ~capacity:64 ~levels:2 in
  Seqtree.check_invariants grown ~load;
  Alcotest.(check int) "capacity" 64 (Seqtree.capacity grown);
  Array.iter
    (fun k ->
      if Seqtree.find grown ~load k = None then Alcotest.fail "key lost by grow")
    keys

(* An insert into a compact leaf loads one key from the table: the
   candidate its search verifies against.  That candidate shares the
   longest prefix with the new key, which fixes both new BlindiBits
   entries without loading the neighbours.  Middle inserts on either
   side of their candidate, and inserts at both ends, each load once;
   the node stays valid and finds every key. *)
let test_insert_loads_once () =
  let table = Table.create ~key_len:8 () in
  let keys = Array.init 20 (fun i -> Key.of_int (16 + (4 * i))) in
  let tids = Array.map (Table.append table) keys in
  List.iter
    (fun x ->
      let t =
        Seqtree.of_sorted ~key_len:8 ~capacity:32 ~levels:2 ~breathing:0 keys
          tids 20
      in
      let k = Key.of_int x in
      let tid = Table.append table k in
      let loads = ref 0 in
      let load i =
        incr loads;
        Table.loader table i
      in
      (match Seqtree.insert t ~load k tid with
      | Seqtree.Inserted -> ()
      | _ -> Alcotest.failf "insert of %d not in place" x);
      Alcotest.(check int) (Printf.sprintf "table loads inserting %d" x) 1 !loads;
      let load = Table.loader table in
      Seqtree.check_invariants t ~load;
      Array.iteri
        (fun i k ->
          Alcotest.(check (option int)) "old key" (Some tids.(i))
            (Seqtree.find t ~load k))
        keys;
      Alcotest.(check (option int)) "new key" (Some tid) (Seqtree.find t ~load k))
    [ 41; 43; 57; 63; 1; 200 ]

(* of_sorted / split / merge / with_capacity at capacity 300, where
   BlindiTree slots are 2 bytes wide. *)
let test_round_trip_wide () =
  let rng = Rng.stream seed 41 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys, tids = sorted_fixture rng table ~key_len:8 ~n:280 in
  let all_found what t =
    Seqtree.check_invariants t ~load;
    Array.iteri
      (fun i k ->
        match Seqtree.find t ~load k with
        | Some tid -> Alcotest.(check int) what tids.(i) tid
        | None -> Alcotest.failf "key %d lost by %s" i what)
      keys
  in
  let t =
    Seqtree.of_sorted ~key_len:8 ~capacity:300 ~levels:9 ~breathing:4 keys tids
      280
  in
  all_found "of_sorted" t;
  let left, right = Seqtree.split t ~left_capacity:300 ~right_capacity:300 in
  Seqtree.check_invariants left ~load;
  Seqtree.check_invariants right ~load;
  Alcotest.(check int) "left count" 140 (Seqtree.count left);
  let merged = Seqtree.merge left right ~load ~capacity:300 ~levels:9 in
  all_found "merge" merged;
  let shrunk = Seqtree.with_capacity merged ~capacity:280 ~levels:3 in
  all_found "with_capacity down" shrunk;
  let grown = Seqtree.with_capacity shrunk ~capacity:300 ~levels:9 in
  all_found "with_capacity up" grown;
  Alcotest.(check int) "capacity" 300 (Seqtree.capacity grown)

(* ------------------------------------------------------------------ *)
(* Scans.                                                              *)

let test_lower_bound_scan () =
  let rng = Rng.stream seed 31 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys, tids = sorted_fixture rng table ~key_len:8 ~n:60 in
  let t =
    Seqtree.of_sorted ~key_len:8 ~capacity:64 ~levels:3 ~breathing:0 keys tids 60
  in
  for trial = 0 to 199 do
    ignore trial;
    let probe = Key.random rng 8 in
    let pos = Seqtree.lower_bound t ~load probe in
    (* Reference lower bound. *)
    let expected =
      let rec go i =
        if i >= 60 then 60
        else if Key.compare keys.(i) probe >= 0 then i
        else go (i + 1)
      in
      go 0
    in
    Alcotest.(check int) "lower bound" expected pos;
    (* A 5-element scan from the position yields consecutive tids. *)
    let collected =
      List.rev (Seqtree.fold_from t pos (fun acc tid -> tid :: acc) [])
    in
    let got = List.filteri (fun i _ -> i < 5) collected in
    let expect_scan = Array.to_list (Array.sub tids expected (min 5 (60 - expected))) in
    Alcotest.(check (list int)) "scan order" expect_scan got
  done

(* --- Breathing memory model --------------------------------------- *)

let test_breathing_memory () =
  let mk breathing =
    Seqtree.create ~key_len:8 ~capacity:128 ~levels:2 ~breathing ()
  in
  let nobr = mk 0 and br = mk 4 in
  (* Empty breathing node must be much smaller than a full-capacity tid
     array node. *)
  Alcotest.(check bool) "breathing saves space when sparse" true
    (Seqtree.memory_bytes br < Seqtree.memory_bytes nobr);
  (* Elasticity requirement (§4): a compact leaf with capacity 2n is
     smaller than a standard leaf with capacity n.  For >= 16-byte keys
     this holds outright; for 8-byte keys (where tuple ids dominate) it
     relies on breathing at conversion-time occupancy, which is how the
     paper configures the elastic B+-tree (s = 4). *)
  let std16 = Ei_storage.Memmodel.std_leaf_bytes ~capacity:16 ~key_len:16 in
  let compact16 =
    Seqtree.create ~key_len:16 ~capacity:32 ~levels:2 ~breathing:0 ()
  in
  Alcotest.(check bool) "compact(2n) < std(n), 16B keys" true
    (Seqtree.memory_bytes compact16 < std16);
  let std8 = Ei_storage.Memmodel.std_leaf_bytes ~capacity:16 ~key_len:8 in
  (* A just-converted compact leaf holds n+1 = 17 keys with slack 4. *)
  let converted =
    Ei_storage.Memmodel.seqtree_bytes ~capacity:32 ~key_len:8 ~levels:2
      ~tid_slots:21 ~breathing:true
  in
  Alcotest.(check bool) "converted compact leaf < std leaf, 8B keys" true
    (converted < std8)

(* --- Heap footprint pin -------------------------------------------- *)

(* A SeqTree is one heap block: its image holds the header, BlindiBits
   then BlindiTree at 1 byte per entry here (padded to a word), and the
   tid slots.  Any further block (a record, a separate metadata buffer
   or tid array) changes the count. *)
let test_seqtree_footprint () =
  let rng = Rng.stream seed 55 in
  let table = Table.create ~key_len:8 () in
  let keys, tids = sorted_fixture rng table ~key_len:8 ~n:20 in
  let t =
    Seqtree.of_sorted ~key_len:8 ~capacity:32 ~levels:2 ~breathing:4 keys tids
      20
  in
  Alcotest.(check int) "tid slots" 24 (Seqtree.tid_slots t);
  let len = 8 + (((32 - 1) + 3 + 7) / 8 * 8) + (24 * 8) in
  Alcotest.(check int) "image bytes" len (Bytes.length (t :> Bytes.t));
  (* header word, [len] bytes, the padding word *)
  Alcotest.(check int) "reachable words" (1 + (len / 8) + 1)
    (Obj.reachable_words (Obj.repr t))

(* SeqTree operation counters are per domain; [Stats.total] and the
   [seqtree.*] metric probes sum every domain's, an exited one's too. *)
let test_stats_total () =
  let module Stats = Ei_blindi.Stats in
  let rng = Rng.stream seed 56 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys, tids = sorted_fixture rng table ~key_len:8 ~n:20 in
  let t =
    Seqtree.of_sorted ~key_len:8 ~capacity:32 ~levels:2 ~breathing:4 keys tids 20
  in
  let before = (Stats.total ()).Stats.searches in
  let mine = (Stats.current ()).Stats.searches in
  let d =
    Domain.spawn (fun () ->
        Array.iter (fun k -> ignore (Seqtree.find t ~load k)) keys;
        (Stats.current ()).Stats.searches)
  in
  Alcotest.(check int) "spawned domain's own count" 20 (Domain.join d);
  Alcotest.(check int) "this domain's count unchanged" mine
    (Stats.current ()).Stats.searches;
  Alcotest.(check int) "total" (before + 20) (Stats.total ()).Stats.searches;
  let json = Ei_obs.Metrics.dump_json () in
  let probe = Printf.sprintf "\"seqtree.searches\": %d" (before + 20) in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  if not (contains json probe) then
    Alcotest.failf "metrics export lacks %s" probe

let () =
  Alcotest.run "ei_blindi"
    [
      ("seqtree-grid", seqtree_grid @ seqtree_wide);
      ("subtrie-grid", subtrie_grid);
      ("stringtrie-grid", stringtrie_grid);
      ( "bulk",
        [
          Alcotest.test_case "of_sorted" `Quick test_of_sorted;
          Alcotest.test_case "split/merge" `Quick test_split_merge;
          Alcotest.test_case "subtrie split/merge" `Quick test_subtrie_split_merge;
          Alcotest.test_case "with_capacity" `Quick test_with_capacity;
          Alcotest.test_case "insert loads one key" `Quick
            test_insert_loads_once;
          Alcotest.test_case "round trip at capacity 300" `Quick
            test_round_trip_wide;
        ] );
      ( "scan",
        [ Alcotest.test_case "lower_bound + fold" `Quick test_lower_bound_scan ] );
      ( "memory",
        [
          Alcotest.test_case "breathing model" `Quick test_breathing_memory;
          Alcotest.test_case "seqtree heap words" `Quick test_seqtree_footprint;
        ] );
      ("stats", [ Alcotest.test_case "total across domains" `Quick test_stats_total ]);
    ]
