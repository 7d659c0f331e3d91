(* Figure 10: SeqTree vs SubTrie (§6.4).

   STX-SubTrie and STX-SeqTree (tree levels = 2, breathing disabled)
   across leaf capacities; space, search and insert results normalised
   to STX-SeqTree, as in the paper. *)

open Bench_util
module Table = Ei_storage.Table
module Rng = Ei_util.Rng
module Btree = Ei_btree.Btree
module Policy = Ei_btree.Policy

let slot_values = [ 32; 64; 128; 256; 512 ]

let bench ~keys ~load policy =
  let tree = Btree.create ~key_len:8 ~load ~policy () in
  let n = Array.length keys in
  let ins =
    mops n (fun () ->
        Array.iter (fun (k, tid) -> ignore (Btree.insert tree k tid)) keys)
  in
  let rng = Rng.create 4 in
  let srch =
    mops n (fun () ->
        for _ = 1 to n do
          let k, _ = keys.(Rng.int rng n) in
          ignore (Btree.find tree k)
        done)
  in
  (ins, srch, Btree.memory_bytes tree)

let run () =
  header "Figure 10: SubTrie vs SeqTree (normalised to SeqTree, 64-bit keys)";
  let n = scaled 60_000 in
  let rng = Rng.create 10 in
  let table = Table.create ~key_len:8 () in
  let load = Table.loader table in
  let keys = unique_keys rng table n 8 in
  pf "N=%d inserts then %d searches per configuration\n" n n;
  print_row ~w:13
    [ "slots"; "space"; "search"; "insert"; "seq MB"; "seq srch" ];
  List.iter
    (fun slots ->
      let seq_ins, seq_srch, seq_bytes =
        bench ~keys ~load (Policy.fixed ~levels:2 ~breathing:0 (Policy.Spec_seq slots))
      in
      let sub_ins, sub_srch, sub_bytes =
        bench ~keys ~load (Policy.fixed (Policy.Spec_sub slots))
      in
      List.iter
        (fun (policy, ins, srch, bytes) ->
          let cell phase m =
            emit_mops ~name:"fig10"
              ~params:
                [
                  ("policy", policy);
                  ("slots", string_of_int slots);
                  ("phase", phase);
                ]
              ~mops:m ~bytes
          in
          cell "insert" ins;
          cell "search" srch)
        [
          ("seqtree", seq_ins, seq_srch, seq_bytes);
          ("subtrie", sub_ins, sub_srch, sub_bytes);
        ];
      print_row ~w:13
        [
          string_of_int slots;
          f2 (float_of_int sub_bytes /. float_of_int seq_bytes);
          f2 (sub_srch /. seq_srch);
          f2 (sub_ins /. seq_ins);
          mb seq_bytes;
          f3 seq_srch;
        ])
    slot_values;
  pf
    "paper shapes: SubTrie space overhead grows with slots (up to ~1.2x at\n\
     512); SeqTree slightly faster at <=128 slots, SubTrie faster beyond\n%!"
