(* YCSB core workloads (Cooper et al. [7]), as used by the index
   evaluation framework of Wang et al. [31] in §6.2.

   Keys are 64-bit values obtained by a bijective hash of a sequence
   number (YCSB's key scrambling), so every key is unique and the load
   phase's key population is uniform over the key space.  The transaction
   phase picks keys uniformly, Zipf-distributed, or "latest"-distributed
   over the inserted population. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng
module Zipf = Ei_util.Zipf
module Table = Ei_storage.Table
module Index_ops = Ei_harness.Index_ops

type workload = A | B | C | D | E | F

let workload_name = function
  | A -> "A"
  | B -> "B"
  | C -> "C"
  | D -> "D"
  | E -> "E"
  | F -> "F"

let workload_of_name name =
  List.find_opt
    (fun w -> String.equal (workload_name w) (String.uppercase_ascii name))
    [ A; B; C; D; E; F ]

(* Operation mix per workload, in percent. *)
type mix = { read : int; update : int; insert : int; scan : int; rmw : int }

let mix_of = function
  | A -> { read = 50; update = 50; insert = 0; scan = 0; rmw = 0 }
  | B -> { read = 95; update = 5; insert = 0; scan = 0; rmw = 0 }
  | C -> { read = 100; update = 0; insert = 0; scan = 0; rmw = 0 }
  | D -> { read = 95; update = 0; insert = 5; scan = 0; rmw = 0 }
  | E -> { read = 0; update = 0; insert = 5; scan = 95; rmw = 0 }
  | F -> { read = 50; update = 0; insert = 0; scan = 0; rmw = 50 }

type distribution = Uniform | Zipfian | Latest

(* Bijective 64-bit mix (splitmix64 finaliser): sequence number -> key. *)
let key_of_seq seq =
  let z = Int64.of_int seq in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Key.of_int64 z

type t = {
  index : Index_ops.t;
  table : Table.t;
  rng : Rng.t;
  zipf : Zipf.t;
  mutable next_seq : int;  (* keys 0 .. next_seq-1 are inserted *)
  mutable tids : int array;  (* tid of sequence number i *)
}

let create ?(seed = 7) ~index ~table ~record_count () =
  {
    index;
    table;
    rng = Rng.create seed;
    zipf = Zipf.create ~scramble:true (max 1 record_count);
    next_seq = 0;
    tids = Array.make (max 1 record_count) 0;
  }

let insert_next t =
  let seq = t.next_seq in
  let key = key_of_seq seq in
  let tid = Table.append t.table key in
  if seq >= Array.length t.tids then begin
    let grown = Array.make (2 * Array.length t.tids) 0 in
    Array.blit t.tids 0 grown 0 (Array.length t.tids);
    t.tids <- grown
  end;
  t.tids.(seq) <- tid;
  t.next_seq <- seq + 1;
  if not (t.index.Index_ops.insert key tid) then Ei_util.Invariant.broken "ycsb: duplicate key"

(* Load phase: insert [n] records. *)
let load t n =
  for _ = 1 to n do
    insert_next t
  done

let pick_seq t dist =
  match dist with
  | Uniform -> Rng.int t.rng t.next_seq
  | Zipfian -> Zipf.next t.zipf t.rng mod t.next_seq
  | Latest -> Zipf.next_latest t.zipf t.rng ~max_item:(t.next_seq - 1)

(* Transaction phase: run [ops] operations of the given workload. *)
let run t ~workload ~dist ~ops =
  let mix = mix_of workload in
  let dist = if workload = D then Latest else dist in
  let r_read = mix.read in
  let r_update = r_read + mix.update in
  let r_insert = r_update + mix.insert in
  let r_scan = r_insert + mix.scan in
  let found = ref 0 in
  for _ = 1 to ops do
    let c = Rng.int t.rng 100 in
    if c < r_read then begin
      let seq = pick_seq t dist in
      match t.index.Index_ops.find (key_of_seq seq) with
      | Some _ -> incr found
      | None -> Ei_util.Invariant.broken "ycsb: read lost a key"
    end
    else if c < r_update then begin
      let seq = pick_seq t dist in
      if not (t.index.Index_ops.update (key_of_seq seq) t.tids.(seq)) then
        Ei_util.Invariant.broken "ycsb: update lost a key"
    end
    else if c < r_insert then insert_next t
    else if c < r_scan then begin
      let seq = pick_seq t dist in
      let len = 1 + Rng.int t.rng 100 in
      ignore (t.index.Index_ops.scan (key_of_seq seq) len)
    end
    else begin
      (* read-modify-write *)
      let seq = pick_seq t dist in
      (match t.index.Index_ops.find (key_of_seq seq) with
      | Some _ -> incr found
      | None -> Ei_util.Invariant.broken "ycsb: rmw lost a key");
      if not (t.index.Index_ops.update (key_of_seq seq) t.tids.(seq)) then
        Ei_util.Invariant.broken "ycsb: rmw update lost a key"
    end
  done;
  !found
