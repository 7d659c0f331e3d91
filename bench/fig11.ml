(* Figure 11: breathing analysis (§5.4, §6.4).

   STX-SeqTree (tree levels = 2) with breathing parameter s in
   {off, 1, 2, 4, 8} across leaf capacities; leaf space normalised to
   breathing-off, plus search and insert throughput. *)

open Bench_util
module Table = Ei_storage.Table
module Rng = Ei_util.Rng
module Btree = Ei_btree.Btree
module Policy = Ei_btree.Policy

let slot_values = [ 16; 32; 64; 128 ]
let breathing_values = [ 0; 1; 2; 4; 8 ]

let bench ~keys ~load ~slots ~breathing =
  let policy = Policy.fixed ~levels:2 ~breathing (Policy.Spec_seq slots) in
  let tree = Btree.create ~key_len:8 ~load ~policy () in
  let n = Array.length keys in
  let ins =
    mops n (fun () ->
        Array.iter (fun (k, tid) -> ignore (Btree.insert tree k tid)) keys)
  in
  let rng = Rng.create 6 in
  let srch =
    mops n (fun () ->
        for _ = 1 to n do
          let k, _ = keys.(Rng.int rng n) in
          ignore (Btree.find tree k)
        done)
  in
  (ins, srch, Btree.memory_bytes tree)

let run () =
  header "Figure 11: breathing parameter (64-bit keys, tree levels = 2)";
  let n = scaled 60_000 in
  let rng = Rng.create 11 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys = unique_keys rng table n 8 in
  pf "N=%d inserts then %d searches per cell\n" n n;
  let results =
    List.map
      (fun slots ->
        ( slots,
          List.map
            (fun s ->
              let ((ins, srch, bytes) as r) = bench ~keys ~load ~slots ~breathing:s in
              let cell phase m =
                emit_mops ~name:"fig11"
                  ~params:
                    [
                      ("slots", string_of_int slots);
                      ("breathing", string_of_int s);
                      ("phase", phase);
                    ]
                  ~mops:m ~bytes
              in
              cell "insert" ins;
              cell "search" srch;
              r)
            breathing_values ))
      slot_values
  in
  let print_grid title get =
    subheader title;
    print_row ~w:10
      ("slots\\s"
      :: List.map (fun s -> if s = 0 then "off" else string_of_int s) breathing_values);
    List.iter
      (fun (slots, cells) ->
        print_row ~w:10 (string_of_int slots :: List.map get cells))
      results
  in
  subheader "11a: space normalised to breathing off";
  print_row ~w:10
    ("slots\\s"
    :: List.map (fun s -> if s = 0 then "off" else string_of_int s) breathing_values);
  List.iter
    (fun (slots, cells) ->
      let _, _, off_bytes = List.hd cells in
      print_row ~w:10
        (string_of_int slots
        :: List.map
             (fun (_, _, b) -> f2 (float_of_int b /. float_of_int off_bytes))
             cells))
    results;
  print_grid "11b: search throughput (Mops)" (fun (_, s, _) -> f3 s);
  print_grid "11c: insert throughput (Mops)" (fun (i, _, _) -> f3 i);
  pf
    "paper shapes: breathing saves ~20%% space at capacity >= 64; search\n\
     barely affected; insert ~10%% slower at s = 4 (reallocation cost)\n%!"
