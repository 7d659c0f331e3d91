module Table = Ei_storage.Table
module Registry = Ei_harness.Registry
module Olc = Ei_olc.Btree_olc
module Fault = Ei_fault.Fault

type t = { table : Table.t; router : Shard.t; serve : Serve.t }

let share ~global_bound ~shards = max 1 (global_bound / shards)

let stx_bound ~key_len ~records ~pct = records * (key_len + 8) * 27 * pct / 1600

let olc_elastic ~global_bound ~shards =
  Registry.Olc
    (Olc.Olc_elastic
       (Olc.default_elastic_config ~size_bound:(share ~global_bound ~shards)))

let part kind table =
  let key_len = Table.key_len table in
  let load =
    Olc.safe_loader ~key_len
      ~table_length:(fun () -> Table.length table)
      ~load:(Table.loader table)
  in
  fun i ->
    Registry.make
      ~name:(Printf.sprintf "%s/%d" (Registry.kind_name kind) i)
      ~key_len ~load kind

let start ~shards ~part ?(key_len = 8) ?coordinator ?timeout_s ?fault_prefix
    ?wal () =
  let table = Table.create ~key_len () in
  let router = Shard.create (Array.init shards (part table)) in
  let supervisor =
    Option.map
      (fun _ -> Serve.default_supervisor ~table ~rebuild:(part table))
      wal
  in
  let wal_restore =
    Option.map (fun _ ~tid ~key -> Table.restore_row table ~tid ~key) wal
  in
  let serve =
    Serve.start ?coordinator ?supervisor ?fault_prefix ?timeout_s ?wal
      ?wal_restore router
  in
  { table; router; serve }

let chunk = 512

(* Preemption point at every sub-batch boundary, where the stop flag is
   read, so the schedule explorer can interleave a stop request. *)
let yp_chunk = Fault.site "fleet.yield.chunk"

let run ?(stop = Atomic.make false) t ops =
  let n = Array.length ops in
  let shed = ref 0 in
  let i = ref 0 in
  while
    Fault.point yp_chunk;
    !i < n && not (Atomic.get stop)
  do
    let len = min chunk (n - !i) in
    Array.iter
      (function
        | Serve.Applied _ -> ()
        | Serve.Rejected | Serve.Timed_out -> incr shed)
      (Serve.exec t.serve (Array.sub ops !i len));
    i := !i + len
  done;
  !shed
