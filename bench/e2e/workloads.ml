(* Operation generators and result checkers of the three in-process
   workloads.  Each draws every operation from the run's seed; the
   program sees only the generated [Serve.op] batches.  [check] runs on
   every acknowledged batch and also advances the generator's model of
   the live key set. *)

module Serve = Ei_shard.Serve
module Table = Ei_storage.Table
module Ycsb = Ei_workload.Ycsb
module Rng = Ei_util.Rng
module Key = Ei_util.Key

type gen = {
  next : unit -> Serve.op array;
  check : Serve.op array -> Serve.outcome array -> unit;
  live : unit -> int;  (** keys the fleet must hold *)
  mutations : unit -> int;  (** inserts and removes applied after preload *)
}

type spec = {
  name : string;
  records : int;
  batch : int;
  durable : bool;  (** WAL + supervisor *)
  make : Fleet.t -> Rng.t -> records:int -> batch:int -> gen;
}

let expect_tid ~what seq = function
  | Serve.Applied tid when Int.equal tid seq -> ()
  | Serve.Applied tid -> Verdict.fail "%s of key #%d returned tid %d" what seq tid
  | Serve.Rejected | Serve.Timed_out -> ()

let expect_applied ~what = function
  | Serve.Applied 1 -> ()
  | Serve.Applied r -> Verdict.fail "%s returned %d, expected 1" what r
  | Serve.Rejected | Serve.Timed_out -> ()

(* read-dram: uniform point reads over a fleet far larger than the L2. *)
let read_dram_gen (_ : Fleet.t) rng ~records ~batch =
  let seqs = Array.make batch 0 in
  {
    next =
      (fun () ->
        Array.init batch (fun i ->
            let s = Rng.int rng records in
            seqs.(i) <- s;
            Serve.Find (Ycsb.key_of_seq s)));
    check =
      (fun _ outs -> Array.iteri (fun i o -> expect_tid ~what:"find" seqs.(i) o) outs);
    live = (fun () -> records);
    mutations = (fun () -> 0);
  }

(* Keys written after the preload cycle through a fixed pool of keys
   outside the preloaded range.  Their rows are appended once, when the
   generator is made, so the row table does not grow with the length of
   the run and the heap does not depend on how fast it went.  Removes
   take the oldest live pool key first, so the live pool keys form one
   cyclic range and the next key inserted is never live. *)
module Fresh = struct
  type t = {
    keys : string array;
    tids : int array;
    live : int Queue.t;  (* pool slots, oldest first *)
    mutable next : int;
  }

  let size = 1 lsl 16

  let create (f : Fleet.t) ~records =
    let keys = Array.init size (fun i -> Ycsb.key_of_seq (records + i)) in
    { keys; tids = Array.map (Table.append f.Fleet.table) keys; live = Queue.create (); next = 0 }

  let can_insert p = Queue.length p.live < size - 1
  let can_remove p = not (Queue.is_empty p.live)

  let insert p =
    let i = p.next in
    p.next <- (i + 1) mod size;
    Queue.push i p.live;
    (p.keys.(i), Serve.Insert (p.keys.(i), p.tids.(i)))

  let remove p =
    let i = Queue.pop p.live in
    (p.keys.(i), Serve.Remove p.keys.(i))

  let live_count p = Queue.length p.live
  let live_keys p = List.of_seq (Seq.map (fun i -> p.keys.(i)) (Queue.to_seq p.live))
end

(* scan-cached: short scans from uniform starts beside a trickle of
   writes that alternate between inserting a fresh key and removing the
   oldest live fresh key, so the live set (and with it the space the
   fixed global bound must cover) stays level however fast the run goes.
   A scan returns min(len, live keys >= start); preloaded keys are never
   removed, so a start with at least [len] preloaded keys above it must
   return exactly [len].  The rare start near the top of the key space is
   checked against the fresh keys too: a scan that continues into the
   next shard runs after the rest of its batch, so it may see any of the
   batch's writes — at least the fresh keys live before the batch and
   not removed by it, at most those plus the batch's inserts. *)
let scan_cached_gen (f : Fleet.t) rng ~records ~batch =
  let base = Array.init records Ycsb.key_of_seq in
  Array.sort Key.compare_fast base;
  let above k =
    (* preloaded keys >= k *)
    let lo = ref 0 and hi = ref records in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Key.compare_fast base.(mid) k < 0 then lo := mid + 1 else hi := mid
    done;
    records - !lo
  in
  let pool = Fresh.create f ~records in
  let inserted = ref [] and removed = ref [] (* this batch's writes *) in
  let insert_next = ref true in
  let count_ge k l =
    List.fold_left (fun n x -> if Key.compare_fast x k >= 0 then n + 1 else n) 0 l
  in
  let mem x l = List.exists (String.equal x) l in
  {
    next =
      (fun () ->
        inserted := [];
        removed := [];
        Array.init batch (fun _ ->
            if Rng.int rng 100 >= 5 then
              Serve.Scan (Ycsb.key_of_seq (Rng.int rng records), 1 + Rng.int rng 100)
            else begin
              insert_next := not !insert_next;
              if (!insert_next && Fresh.can_remove pool) || not (Fresh.can_insert pool)
              then begin
                let k, op = Fresh.remove pool in
                removed := k :: !removed;
                op
              end
              else begin
                let k, op = Fresh.insert pool in
                inserted := k :: !inserted;
                op
              end
            end));
    check =
      (fun ops outs ->
        let bounds = lazy
          (* fresh keys live before the batch, and those of them the
             batch did not remove *)
          (let prior =
             List.filter (fun x -> not (mem x !inserted)) (Fresh.live_keys pool @ !removed)
           in
           (prior, List.filter (fun x -> not (mem x !removed)) prior))
        in
        Array.iteri
          (fun i op ->
            match (op, outs.(i)) with
            | (Serve.Insert _ | Serve.Remove _), o -> expect_applied ~what:"write" o
            | Serve.Scan (k, len), Serve.Applied got ->
              let b = above k in
              if (b : int) >= len then
                Verdict.check (Int.equal got len) "scan of %d returned %d" len got
              else begin
                let prior, kept = Lazy.force bounds in
                let lo = Int.min len (b + count_ge k kept) in
                let hi = Int.min len (b + count_ge k prior + count_ge k !inserted) in
                Verdict.check
                  (got >= lo && got <= hi)
                  "scan of %d near the top returned %d, expected %d..%d" len got lo hi
              end
            | _ -> ())
          ops);
    live = (fun () -> records + Fresh.live_count pool);
    mutations = (fun () -> 0);
  }

(* churn-wal: Zipfian reads of preloaded keys, inserts of fresh keys and
   removes of the oldest live fresh key, so the live count stays level
   while the elastic leaves and the WAL see steady allocation
   pressure. *)
let churn_wal_gen (f : Fleet.t) rng ~records ~batch =
  let zipf = Ei_util.Zipf.create ~scramble:true records in
  let pool = Fresh.create f ~records in
  let seqs = Array.make batch 0 in
  let mutations = ref 0 in
  {
    next =
      (fun () ->
        Array.init batch (fun i ->
            match Rng.int rng 4 with
            | 0 | 1 ->
              let s = Ei_util.Zipf.next zipf rng in
              seqs.(i) <- s;
              Serve.Find (Ycsb.key_of_seq s)
            | r when (r = 3 && Fresh.can_remove pool) || not (Fresh.can_insert pool) ->
              snd (Fresh.remove pool)
            | _ -> snd (Fresh.insert pool)));
    check =
      (fun ops outs ->
        Array.iteri
          (fun i op ->
            match op with
            | Serve.Find _ -> expect_tid ~what:"find" seqs.(i) outs.(i)
            | Serve.Insert _ | Serve.Remove _ ->
              (match outs.(i) with Serve.Applied 1 -> incr mutations | _ -> ());
              expect_applied ~what:"write" outs.(i)
            | Serve.Update _ | Serve.Scan _ -> ())
          ops);
    live = (fun () -> records + Fresh.live_count pool);
    mutations = (fun () -> !mutations);
  }

let read_dram =
  { name = "read-dram"; records = 2_000_000; batch = 512; durable = false;
    make = read_dram_gen }

let scan_cached =
  { name = "scan-cached"; records = 100_000; batch = 64; durable = false;
    make = scan_cached_gen }

let churn_wal =
  { name = "churn-wal"; records = 200_000; batch = 512; durable = true;
    make = churn_wal_gen }
