(* Figure 9: SeqTree tree-levels analysis (§6.4).

   STX-SeqTree with varying leaf capacity (leafSlots) and BlindiTree
   levels, breathing disabled: insert N uniform 64-bit keys, then N
   uniform searches.  For a leaf capacity c, up to log2(c) - 1 levels are
   available. *)

open Bench_util
module Table = Ei_storage.Table
module Rng = Ei_util.Rng
module Key = Ei_util.Key
module Btree = Ei_btree.Btree
module Policy = Ei_btree.Policy

let slot_values = [ 32; 64; 128; 256; 512 ]

let max_levels slots =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  log2 slots - 1

let bench_one ~keys ~load ~slots ~levels =
  let policy = Policy.fixed ~levels ~breathing:0 (Policy.Spec_seq slots) in
  let tree = Btree.create ~key_len:8 ~load ~policy () in
  let n = Array.length keys in
  let ins =
    mops n (fun () ->
        Array.iter (fun (k, tid) -> ignore (Btree.insert tree k tid)) keys)
  in
  let rng = Rng.create 3 in
  let srch =
    mops n (fun () ->
        for _ = 1 to n do
          let k, _ = keys.(Rng.int rng n) in
          ignore (Btree.find tree k)
        done)
  in
  (ins, srch)

let run () =
  header "Figure 9: SeqTree tree levels vs throughput (64-bit keys)";
  let n = scaled 60_000 in
  let rng = Rng.create 9 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys = unique_keys rng table n 8 in
  pf "N=%d inserts then %d searches per cell; breathing off\n" n n;
  let all_levels = List.init 8 (fun i -> i) in
  let results =
    List.map
      (fun slots ->
        ( slots,
          List.map
            (fun lvl ->
              if lvl <= (max_levels slots : int) then begin
                let ((ins, srch) as r) = bench_one ~keys ~load ~slots ~levels:lvl in
                let cell phase m =
                  emit_mops ~name:"fig9"
                    ~params:
                      [
                        ("slots", string_of_int slots);
                        ("levels", string_of_int lvl);
                        ("phase", phase);
                      ]
                    ~mops:m ~bytes:0
                in
                cell "insert" ins;
                cell "search" srch;
                Some r
              end
              else None)
            all_levels ))
      slot_values
  in
  let print_grid title get =
    subheader title;
    print_row ~w:10 ("slots\\lvl" :: List.map string_of_int all_levels);
    List.iter
      (fun (slots, cells) ->
        print_row ~w:10
          (string_of_int slots
          :: List.map
               (function Some r -> f3 (get r) | None -> "-")
               cells))
      results
  in
  print_grid "insert throughput (Mops)" fst;
  print_grid "search throughput (Mops)" snd;
  pf
    "paper shapes: levels help more as leafSlots grows; insert peaks at\n\
     level 2-3 (tree maintenance costs grow with levels), search peaks at\n\
     higher levels (5-6) for large leaves\n%!"
