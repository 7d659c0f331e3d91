(* Quickstart: build an elastic B+-tree over a small table, watch it
   shrink under memory pressure and expand back.

   Run with: dune exec examples/quickstart.exe *)

module Key = Ei_util.Key
module Table = Ei_storage.Table
module Elastic = Ei_core.Elastic_btree
module Elasticity = Ei_core.Elasticity

let () =
  (* The base table holds the rows; the index maps keys to row ids and,
     when compacted, loads keys back from the table. *)
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in

  (* An elastic B+-tree with a 768 KiB soft size bound: identical to a
     plain B+-tree until the bound approaches, then it converts leaves to
     the compact SeqTree representation. *)
  let config = Elasticity.default_config ~size_bound:(768 * 1024) in
  let index = Elastic.create ~key_len:8 ~load config () in

  (* Insert forty thousand keys in random order.  (The default
     elasticity policy piggybacks on leaf overflows, so inserts spread
     over the key space compact best; the paper notes policies for
     cold-leaf compaction as future work.) *)
  let n = 40_000 in
  let order = Array.init n (fun i -> i) in
  Ei_util.Rng.shuffle (Ei_util.Rng.create 1) order;
  Array.iter
    (fun i ->
      let key = Key.of_int (i * 7919) in
      let tid = Table.append table key in
      assert (Elastic.insert index key tid))
    order;
  Printf.printf "inserted %d keys; index uses %.1f KiB (%s state, %d compact leaves)\n"
    (Elastic.count index)
    (float_of_int (Elastic.memory_bytes index) /. 1024.0)
    (Ei_btree.Hysteresis.state_name (Elastic.state index))
    (Elastic.compact_leaves index);

  (* Point lookup. *)
  (match Elastic.find index (Key.of_int (12345 * 7919)) with
  | Some tid -> Printf.printf "found key 12345*7919 at row %d\n" tid
  | None -> failwith "lost a key!");

  (* Range scan: 5 keys from a start point.  Works across standard and
     compact leaves transparently. *)
  Printf.printf "5 keys from %d upwards:" (1000 * 7919);
  Elastic.fold_range index ~start:(Key.of_int (1000 * 7919)) ~n:5
    (fun () k _tid -> Printf.printf " %d" (Key.to_int k))
    ();
  print_newline ();

  (* Delete most of the data: the index expands back towards a plain
     B+-tree (searches decompact hot leaves). *)
  for i = 0 to n - 1 do
    if i mod 5 <> 0 then ignore (Elastic.remove index (Key.of_int (i * 7919)))
  done;
  let survivors = Elastic.count index in
  let probes = ref 0 in
  while Elastic.compact_leaves index > 0 && !probes < 1_000_000 do
    incr probes;
    ignore (Elastic.find index (Key.of_int ((!probes * 5 mod n) * 7919)))
  done;
  Printf.printf
    "after deleting 80%%: %d keys, %.1f KiB, %s state, %d compact leaves\n"
    survivors
    (float_of_int (Elastic.memory_bytes index) /. 1024.0)
    (Ei_btree.Hysteresis.state_name (Elastic.state index))
    (Elastic.compact_leaves index)
