(* Unit tests for ei_storage: the row table (tuple ids, key loads, load
   counters), the incremental tracker, and sanity anchors for the memory
   model's formulas. *)

module Table = Ei_storage.Table
module Tracker = Ei_storage.Tracker
module Memmodel = Ei_storage.Memmodel

let test_table () =
  let t = Table.create ~initial_capacity:2 ~key_len:8 () in
  Alcotest.(check int) "empty" 0 (Table.length t);
  (* Appends return consecutive tids and grow past the initial capacity. *)
  let tids = List.init 100 (fun i -> Table.append t (Ei_util.Key.of_int i)) in
  Alcotest.(check (list int)) "tids consecutive" (List.init 100 Fun.id) tids;
  Alcotest.(check int) "length" 100 (Table.length t);
  Alcotest.(check int) "key_len" 8 (Table.key_len t);
  (* Loads return the stored key and are counted. *)
  Table.reset_loads t;
  let load = Table.loader t in
  for i = 0 to 99 do
    Alcotest.(check string) "load" (Ei_util.Key.of_int i) (load i)
  done;
  Alcotest.(check int) "loads counted" 100 (Table.loads t);
  Table.reset_loads t;
  Alcotest.(check int) "loads reset" 0 (Table.loads t);
  Alcotest.(check int) "data bytes" (100 * (8 + 24))
    (Table.data_bytes ~row_bytes:24 t)

let test_liveness () =
  let t = Table.create ~initial_capacity:4 ~key_len:8 () in
  let n = 10_000 in
  (* crosses several liveness chunks and many grows *)
  for i = 0 to n - 1 do
    let tid = Table.append t (Ei_util.Key.of_int i) in
    Alcotest.(check bool) "rows start dead" false (Table.is_live t tid)
  done;
  let live i = i mod 3 = 0 in
  for tid = 0 to n - 1 do
    if live tid then Table.mark_live t tid
  done;
  (* Growth after marking must not shed a single mark. *)
  for i = n to (2 * n) - 1 do
    ignore (Table.append t (Ei_util.Key.of_int i))
  done;
  for tid = 0 to n - 1 do
    Alcotest.(check bool) "mark survives growth" (live tid)
      (Table.is_live t tid)
  done;
  Table.mark_dead t 0;
  Alcotest.(check bool) "mark_dead" false (Table.is_live t 0);
  let folded =
    Table.fold_live t (fun tid key acc ->
        Alcotest.(check string) "fold key" (Ei_util.Key.of_int tid) key;
        acc + 1) 0
  in
  Alcotest.(check int) "fold_live count" ((n + 2) / 3 - 1) folded

(* The growth-stability race itself: one domain appends (growing the
   table from a tiny capacity), the other marks each row live as soon
   as its tid is published.  With a flat liveness buffer a grow blits
   and replaces it, losing any mark that lands in the old bytes — the
   chunked store must not lose one. *)
let test_liveness_grow_race () =
  let t = Table.create ~initial_capacity:2 ~key_len:8 () in
  let n = 30_000 in
  let published = Atomic.make 0 in
  let marker =
    Domain.spawn (fun () ->
        let next = ref 0 in
        while !next < n do
          let upto = Atomic.get published in
          while !next < upto do
            Table.mark_live t !next;
            incr next
          done;
          if !next < n then Domain.cpu_relax ()
        done)
  in
  for i = 0 to n - 1 do
    let tid = Table.append t (Ei_util.Key.of_int i) in
    Atomic.set published (tid + 1)
  done;
  Domain.join marker;
  let missing = ref 0 in
  for tid = 0 to n - 1 do
    if not (Table.is_live t tid) then incr missing
  done;
  Alcotest.(check int) "no mark lost to growth" 0 !missing

(* The flat key arena at two key widths: appends across several grows
   read back, out-of-range tids and wrong-length keys are rejected. *)
let test_arena ~key_len () =
  let key i = Printf.sprintf "%0*d" key_len i in
  let t = Table.create ~initial_capacity:1 ~key_len () in
  let n = 1_000 in
  (* from capacity 1: ten doublings *)
  for i = 0 to n - 1 do
    Alcotest.(check int) "tid" i (Table.append t (key i))
  done;
  for i = 0 to n - 1 do
    Alcotest.(check string) "key after grows" (key i) (Table.key t i)
  done;
  let rejects name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "tid = length" (fun () -> ignore (Table.key t n));
  rejects "negative tid" (fun () -> ignore (Table.key t (-1)));
  rejects "short key" (fun () -> ignore (Table.append t (String.make (key_len - 1) 'k')));
  rejects "long key" (fun () -> ignore (Table.append t (String.make (key_len + 1) 'k')));
  Alcotest.(check int) "rejected appends add no row" n (Table.length t)

(* WAL recovery restores rows out of order and with gaps: the restored
   rows read back and fold in tid order, gap rows stay dead. *)
let test_arena_restore ~key_len () =
  let key i = Printf.sprintf "%0*d" key_len i in
  let t = Table.create ~initial_capacity:2 ~key_len () in
  let restored = [ 40; 3; 17; 0; 300; 18 ] in
  List.iter (fun tid -> Table.restore_row t ~tid ~key:(key tid)) restored;
  Alcotest.(check int) "length covers the highest tid" 301 (Table.length t);
  List.iter
    (fun tid -> Alcotest.(check string) "restored key" (key tid) (Table.key t tid))
    restored;
  Alcotest.(check bool) "gap row dead" false (Table.is_live t 1);
  let folded = Table.fold_live t (fun tid k acc -> (tid, k) :: acc) [] in
  Alcotest.(check (list (pair int string)))
    "fold_live: restored rows in tid order"
    (List.map (fun tid -> (tid, key tid)) (List.sort compare restored))
    (List.rev folded);
  (* appends continue after the highest restored tid *)
  Alcotest.(check int) "next tid" 301 (Table.append t (key 301))

let test_tracker () =
  let tr = Tracker.create () in
  Tracker.add tr 100;
  Tracker.add tr 50;
  Alcotest.(check int) "bytes" 150 (Tracker.bytes tr);
  Tracker.sub tr 120;
  Alcotest.(check int) "after sub" 30 (Tracker.bytes tr);
  Alcotest.(check int) "high water" 150 (Tracker.high_water tr);
  Tracker.add tr 200;
  Alcotest.(check int) "new high water" 230 (Tracker.high_water tr);
  Tracker.reset tr;
  Alcotest.(check int) "reset" 0 (Tracker.bytes tr)

let test_memmodel_anchors () =
  (* Anchor values the paper's arithmetic relies on. *)
  (* A 16-slot STX leaf with 8-byte keys: 16*(8+8) data + header + links. *)
  Alcotest.(check int) "std leaf 16x8B" (16 + 16 + (16 * 16))
    (Memmodel.std_leaf_bytes ~capacity:16 ~key_len:8);
  (* SeqTree at ~1 B/key for <=32-byte keys: bits array is 1 byte/entry. *)
  Alcotest.(check int) "1B bit entries to 32B keys" 1
    (Memmodel.bits_entry_bytes ~key_len:32);
  Alcotest.(check int) "2B bit entries beyond" 2
    (Memmodel.bits_entry_bytes ~key_len:33);
  (* §5.4's arithmetic: for 32-byte keys tuple ids are ~90% of a SeqTree
     node (bits ~1 B/key vs 8 B/key of tids, header amortised away). *)
  let cap = 128 in
  let total =
    Memmodel.seqtree_bytes ~capacity:cap ~key_len:32 ~levels:2 ~tid_slots:cap
      ~breathing:false
  in
  let tid_fraction = float_of_int (cap * 8) /. float_of_int total in
  Alcotest.(check bool) "tids ~90% of compact node" true
    (tid_fraction > 0.85 && tid_fraction < 0.93);
  (* §4's requirement at 16-byte keys without breathing. *)
  Alcotest.(check bool) "compact(2n) < std(n), 16B" true
    (Memmodel.seqtree_bytes ~capacity:32 ~key_len:16 ~levels:2 ~tid_slots:32
       ~breathing:false
    < Memmodel.std_leaf_bytes ~capacity:16 ~key_len:16);
  (* Prefix leaf degenerates to a standard leaf plus one byte when keys
     share nothing. *)
  Alcotest.(check int) "prefix leaf, no sharing"
    (Memmodel.std_leaf_bytes ~capacity:16 ~key_len:16 + 1)
    (Memmodel.prefix_leaf_bytes ~capacity:16 ~key_len:16 ~prefix_len:0);
  (* The §5.1 per-key progression of the three blind-trie layouts. *)
  let per_key f = float_of_int (f ~capacity:128 ~key_len:8) /. 128.0 in
  let seq =
    float_of_int
      (Memmodel.seqtree_bytes ~capacity:128 ~key_len:8 ~levels:0 ~tid_slots:128
         ~breathing:false)
    /. 128.0
  in
  let sub = per_key Memmodel.subtrie_bytes in
  let str = per_key Memmodel.stringtrie_bytes in
  Alcotest.(check bool) "seqtrie < subtrie < stringtrie" true
    (seq < sub && sub < str);
  Alcotest.(check bool) "~1B/key steps" true
    (sub -. seq > 0.8 && sub -. seq < 1.2 && str -. sub > 0.8 && str -. sub < 1.4)

let () =
  Alcotest.run "ei_storage"
    [
      ( "storage",
        [
          Alcotest.test_case "table" `Quick test_table;
          Alcotest.test_case "row liveness across growth" `Quick test_liveness;
          Alcotest.test_case "liveness marks vs grow race" `Quick
            test_liveness_grow_race;
          Alcotest.test_case "key arena, 8-byte keys" `Quick (test_arena ~key_len:8);
          Alcotest.test_case "key arena, 16-byte keys" `Quick (test_arena ~key_len:16);
          Alcotest.test_case "arena restore with gaps, 8-byte keys" `Quick
            (test_arena_restore ~key_len:8);
          Alcotest.test_case "arena restore with gaps, 16-byte keys" `Quick
            (test_arena_restore ~key_len:16);
          Alcotest.test_case "tracker" `Quick test_tracker;
          Alcotest.test_case "memory-model anchors" `Quick test_memmodel_anchors;
        ] );
    ]
