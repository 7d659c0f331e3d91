(* Unit tests for ei_storage: the row table (tuple ids, key loads), the
   incremental tracker, and sanity anchors for the memory model's
   formulas. *)

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
  (* Loads return the stored key; a counting wrapper sees each one. *)
  let loads = ref 0 in
  let load tid =
    incr loads;
    Table.loader t tid
  in
  for i = 0 to 99 do
    Alcotest.(check string) "load" (Ei_util.Key.of_int i) (load i)
  done;
  Alcotest.(check int) "loads counted" 100 !loads;
  loads := 0;
  Alcotest.(check int) "loads reset" 0 !loads

(* The same race for keys: one domain appends from a tiny capacity while
   the other loads every published tid.  Growth appends chunks and
   never moves one, so no load may fail or read another row's bytes. *)
let test_key_grow_race () =
  let t = Table.create ~initial_capacity:2 ~key_len:8 () in
  let n = 100_000 in
  let published = Atomic.make 0 in
  let loader =
    Domain.spawn (fun () ->
        let next = ref 0 and bad = ref 0 in
        while !next < n do
          let upto = Atomic.get published in
          while !next < upto do
            if not (String.equal (Table.key t !next) (Ei_util.Key.of_int !next))
            then incr bad;
            incr next
          done;
          if !next < n then Domain.cpu_relax ()
        done;
        !bad)
  in
  for i = 0 to n - 1 do
    let tid = Table.append t (Ei_util.Key.of_int i) in
    Atomic.set published (tid + 1)
  done;
  Alcotest.(check int) "every published key reads back" 0 (Domain.join loader)

(* The chunked key store at two key widths: three chunks of appends,
   grown one chunk at a time from a tiny capacity, read back at every
   row (both ends of each chunk included); out-of-range tids and
   wrong-length keys are rejected. *)
let test_arena ~key_len () =
  let key i = Printf.sprintf "%0*d" key_len i in
  let t = Table.create ~initial_capacity:2 ~key_len () in
  let n = 3 * Table.chunk_rows in
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

(* WAL recovery restores rows out of order and with gaps: walked in
   tid order, exactly the restored rows carry their keys and every gap
   row reads as zero bytes. *)
let test_arena_restore ~key_len () =
  let key i = Printf.sprintf "%0*d" key_len i in
  let t = Table.create ~initial_capacity:2 ~key_len () in
  let restored = [ 40; 3; 17; 0; 300; 18; 9000 ] in
  List.iter (fun tid -> Table.restore_row t ~tid ~key:(key tid)) restored;
  Alcotest.(check int) "length covers the highest tid" 9001 (Table.length t);
  List.iter
    (fun tid -> Alcotest.(check string) "restored key" (key tid) (Table.key t tid))
    restored;
  let zero = String.make key_len '\000' in
  List.iter
    (fun tid ->
      Alcotest.(check string) "gap row reads zero bytes" zero (Table.key t tid))
    [ 1; 301; 8999 ];
  let rows =
    List.filter
      (fun tid -> not (String.equal (Table.key t tid) zero))
      (List.init (Table.length t) Fun.id)
  in
  Alcotest.(check (list int))
    "restored rows in tid order, all other rows zero"
    (List.sort compare restored) rows;
  (* appends continue after the highest restored tid *)
  Alcotest.(check int) "next tid" 9001 (Table.append t (key 9001))

let test_tracker () =
  let tr = Tracker.create () in
  Tracker.add tr 100;
  Tracker.add tr 50;
  Alcotest.(check int) "bytes" 150 (Tracker.bytes tr);
  Tracker.sub tr 120;
  Alcotest.(check int) "after sub" 30 (Tracker.bytes tr);
  Tracker.add tr 200;
  Alcotest.(check int) "after add" 230 (Tracker.bytes tr);
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

(* The memory model against the heap images it prices.  A leaf image
   is one [Bytes] block; the model additionally charges the node header
   and the two sibling words, which live in the owning tree node, while
   the image has its own 8-byte header.  That fixed difference is
   [node_overhead].  On top of it a SeqTree model charges a breathing
   node one indirection word, charges nothing for BlindiTrees of
   levels <= 3 (they "fit node padding"), and never pads BlindiBits and
   BlindiTree to a word as the image does (DESIGN §3). *)
let node_overhead = 16 + 16 - 8

let test_memmodel_images () =
  let pad b = (8 - (b mod 8)) mod 8 in
  List.iter
    (fun key_len ->
      List.iter
        (fun capacity ->
          let std = Ei_btree.Std_leaf.create ~key_len ~capacity () in
          let image = Bytes.length (std :> Bytes.t) in
          Alcotest.(check int) "std image = its layout"
            (Memmodel.std_leaf_image_bytes ~capacity ~key_len)
            image;
          Alcotest.(check int)
            (Printf.sprintf "std model - image, key %d cap %d" key_len capacity)
            (node_overhead - pad (capacity * key_len))
            (Ei_btree.Std_leaf.memory_bytes std - image);
          List.iter
            (fun levels ->
              List.iter
                (fun breathing ->
                  (* half full, so breathing leaves n + slack tid slots *)
                  let n = capacity / 2 in
                  let keys =
                    Array.init n (fun i ->
                        String.make (key_len - 8) '\000' ^ Ei_util.Key.of_int i)
                  in
                  let seq =
                    Ei_blindi.Seqtree.of_sorted ~key_len ~capacity ~levels
                      ~breathing keys (Array.init n Fun.id) n
                  in
                  let image = Bytes.length (seq :> Bytes.t) in
                  let tid_slots = Ei_blindi.Seqtree.tid_slots seq in
                  Alcotest.(check int) "tid slots"
                    (if breathing = 0 then capacity else n + breathing)
                    tid_slots;
                  Alcotest.(check int) "seqtree image = its layout"
                    (Memmodel.seqtree_image_bytes ~capacity ~key_len ~levels
                       ~tid_slots)
                    image;
                  let bits = (capacity - 1) * if key_len <= 32 then 1 else 2 in
                  let tree =
                    max 1 ((1 lsl levels) - 1) * if capacity < 255 then 1 else 2
                  in
                  Alcotest.(check int)
                    (Printf.sprintf "seqtree model - image, key %d cap %d lv %d br %d"
                       key_len capacity levels breathing)
                    (node_overhead
                    + (if breathing > 0 then 8 else 0)
                    - (if levels <= 3 then tree else 0)
                    - pad (bits + tree))
                    (Ei_blindi.Seqtree.memory_bytes seq - image))
                [ 0; 4 ])
            [ 0; 2; 3; 9 ])
        [ 16; 32; 64; 128; 300 ])
    [ 8; 16; 40 ]

let () =
  Alcotest.run "ei_storage"
    [
      ( "storage",
        [
          Alcotest.test_case "table" `Quick test_table;
          Alcotest.test_case "key loads vs grow race" `Quick test_key_grow_race;
          Alcotest.test_case "key arena, 8-byte keys" `Quick (test_arena ~key_len:8);
          Alcotest.test_case "key arena, 16-byte keys" `Quick (test_arena ~key_len:16);
          Alcotest.test_case "arena restore with gaps, 8-byte keys" `Quick
            (test_arena_restore ~key_len:8);
          Alcotest.test_case "arena restore with gaps, 16-byte keys" `Quick
            (test_arena_restore ~key_len:16);
          Alcotest.test_case "tracker" `Quick test_tracker;
          Alcotest.test_case "memory-model anchors" `Quick test_memmodel_anchors;
          Alcotest.test_case "memory model vs leaf images" `Quick
            test_memmodel_images;
        ] );
    ]
