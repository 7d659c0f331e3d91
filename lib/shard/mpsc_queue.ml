(* Bounded multi-producer single-consumer queue (Mutex + Condition).

   The per-shard request queue of the serving layer: clients push
   sub-batches, the shard's domain drains them in batches.  Producers
   block while the queue is full (backpressure instead of unbounded
   growth) and the consumer blocks while it is empty — blocking, not
   spinning, because shard domains share cores with their clients and a
   waiting party must get off the CPU.

   [close] is race-safe against producers blocked on a full queue: it
   broadcasts both conditions under the lock, and a woken producer
   re-checks [closed] before re-checking fullness, so a blocked [push]
   raises {!Closed} promptly instead of waiting for space that will
   never appear (the consumer may already be gone).

   Optional fault sites ([?fault_prefix]) make the queue a chaos
   surface: [<prefix>.refuse] makes a push fail as if the queue were
   closed, [<prefix>.delay] stalls it, [<prefix>.drop] loses the
   element after admission — message loss the caller's timeout
   machinery must absorb. *)

module Invariant = Ei_util.Invariant
module Fault = Ei_fault.Fault

exception Closed

type faults = {
  f_drop : Fault.site;
  f_delay : Fault.site;
  f_refuse : Fault.site;
}

(* Every mutable datum of the queue — ring slots included — is read and
   written under [lock] only, hence the type-level guard. *)
type 'a t = {
  buf : 'a option array;  (* ring; [None] marks a free slot *)
  capacity : int;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
  mutable closed : bool;
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  faults : faults option;
}
[@@ei.guarded_by "lock"]

let create ?fault_prefix ~capacity () =
  assert (capacity > 0);
  {
    buf = Array.make capacity None;
    capacity;
    head = 0;
    len = 0;
    closed = false;
    lock = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    faults =
      Option.map
        (fun p ->
          {
            f_drop = Fault.site (p ^ ".drop");
            f_delay = Fault.site (p ^ ".delay");
            f_refuse = Fault.site (p ^ ".refuse");
          })
        fault_prefix;
  }

(* [inject:false] bypasses the fault sites: the retry/recovery path of a
   supervisor must not re-draw the fault streams, or first-attempt
   schedules would stop being deterministic.

   Draw protocol: refuse first — a refused push draws nothing else,
   exactly like a real [Closed] retry path — then delay and drop
   together, {e before} admission.  Drawing drop up front keeps the
   per-site call counts a pure function of the fault streams alone:
   whether the queue happens to be closed (a recovery racing this push)
   must not add or skip a draw, or equal-seed runs would diverge on
   schedule.  A drop decided here and refused admission is
   indistinguishable from one applied after it. *)
let draw t =
  match t.faults with
  | Some f when Fault.enabled () ->
    if Fault.fire f.f_refuse then `Refuse
    else begin
      let delayed = Fault.fire f.f_delay in
      let dropped = Fault.fire f.f_drop in
      if delayed then Unix.sleepf 0.001;
      if dropped then `Drop else `Pass
    end
  | _ -> `Pass

let push ?(inject = true) t x =
  let drawn = if inject then draw t else `Pass in
  (match drawn with `Refuse -> raise Closed | `Drop | `Pass -> ());
  Mutex.lock t.lock;
  let rec admitted () =
    if t.closed then false
    else if t.len = t.capacity then begin
      Condition.wait t.not_full t.lock;
      admitted ()
    end
    else true
  in
  let ok = admitted () in
  let dropped = match drawn with `Drop -> true | `Refuse | `Pass -> false in
  if ok && not dropped then begin
    t.buf.((t.head + t.len) mod t.capacity) <- Some x;
    t.len <- t.len + 1;
    Condition.signal t.not_empty
  end;
  Mutex.unlock t.lock;
  if not ok then raise Closed

let pop_batch t ~max:m =
  assert (m > 0);
  Mutex.lock t.lock;
  let rec available () =
    if t.len > 0 then true
    else if t.closed then false
    else begin
      Condition.wait t.not_empty t.lock;
      available ()
    end
  in
  let out =
    (* Release the lock even if the ring invariant trips: a leaked lock
       turns a crash into a deadlock for every later producer. *)
    try
      if not (available ()) then []
      else begin
        let k = if t.len < m then t.len else m in
        let rec take i acc =
          if i = k then List.rev acc
          else begin
            let x =
              match t.buf.(t.head) with
              | Some x -> x
              | None ->
                Invariant.impossible "Mpsc_queue: empty slot inside ring"
            in
            t.buf.(t.head) <- None;
            t.head <- (t.head + 1) mod t.capacity;
            take (i + 1) (x :: acc)
          end
        in
        let xs = take 0 [] in
        t.len <- t.len - k;
        Condition.broadcast t.not_full;
        xs
      end
    with e ->
      Mutex.unlock t.lock;
      raise e
  in
  Mutex.unlock t.lock;
  out

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.lock

let length t =
  Mutex.lock t.lock;
  let n = t.len in
  Mutex.unlock t.lock;
  n
