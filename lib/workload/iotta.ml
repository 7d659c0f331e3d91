(* Synthetic cloud object-store access log, standing in for the SNIA
   IOTTA trace of §6.3 (the public trace is not redistributable here).

   Each row mirrors the paper's schema: four 8-byte columns — request
   timestamp, request type, target object id, and size.  Timestamps are
   strictly increasing with jittered gaps (so the 16-byte composite index
   key (timestamp, object id) is unique and time-ordered), object ids are
   Zipf-distributed over a large population (hot objects), request types
   are categorical with a realistic skew, and sizes are drawn from a
   heavy-tailed distribution. *)

module Rng = Ei_util.Rng
module Zipf = Ei_util.Zipf
module Key = Ei_util.Key

type row = { ts : int; op : int; obj : int; size : int }

(* Weights of the REST operation types observed in object-store logs,
   by code: GET, PUT, HEAD, DELETE, LIST, COPY. *)
let op_weights = [| 55; 25; 10; 5; 3; 2 |]

let pick_op rng =
  let total = Array.fold_left ( + ) 0 op_weights in
  let r = Rng.int rng total in
  let rec go i acc =
    let acc = acc + op_weights.(i) in
    if r < acc then i else go (i + 1) acc
  in
  go 0 0

(* Heavy-tailed object size in bytes: most objects are small, a few are
   huge (log-uniform between 128 B and 1 GiB). *)
let pick_size rng =
  let exp = 7.0 +. (Rng.float rng *. 23.0) in
  int_of_float (Float.pow 2.0 exp)

let generate ?(seed = 2022) ~rows ~objects () =
  let rng = Rng.create seed in
  let zipf = Zipf.create ~scramble:true objects in
  let ts = ref 0 in
  Array.init rows (fun _ ->
      (* Strictly increasing timestamps with bursty gaps. *)
      ts := !ts + 1 + Rng.int rng 64;
      {
        ts = !ts;
        op = pick_op rng;
        obj = Zipf.next zipf rng;
        size = pick_size rng;
      })

(* The paper's index key: 16-byte (timestamp, object id) composite. *)
let key_of_row r = Key.of_int_pair r.ts r.obj

let row_bytes = 32 (* four 8-byte columns *)
