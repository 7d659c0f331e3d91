(* MCAS-like in-memory store: a partitioned architecture in which each
   partition's operations are handled by a single-threaded execution
   engine [29].  Each partition optionally carries an attached ADO
   plugin; clients address a partition and submit ADO work requests.

   This is the full-system substrate for §6.3: the end-to-end cost of an
   operation includes the request dispatch, which is why index-level
   slowdowns translate into only small end-to-end slowdowns (Fig 8). *)

type partition = { mutable ado : Ado.t option }
type t = { partitions : partition array; request_work : int }

(* Per-request engine work: MCAS is network-attached, so every operation
   pays request (de)serialisation and engine dispatch before reaching the
   index.  We model it with a fixed checksum loop over a request-sized
   buffer ([request_work] rounds; ~2 microseconds at the default).  This
   fixed cost is why §6.3 sees only 0.4-2.6% end-to-end degradation on
   point operations while 1000-key scans — which amortise it over the
   scan — still expose the index difference. *)
let request_buffer = Bytes.make 256 '\x5a'

let simulate_request_path rounds =
  let acc = ref 0 in
  for r = 0 to rounds - 1 do
    let i = (r * 13) land 255 in
    acc := (!acc * 31) + Char.code (Bytes.unsafe_get request_buffer i)
  done;
  ignore (Sys.opaque_identity !acc)

let create ?(partitions = 1) ?(request_work = 2048) () =
  assert (partitions >= 1);
  { partitions = Array.init partitions (fun _ -> { ado = None }); request_work }

let attach_ado t ~partition ado =
  let p = t.partitions.(partition) in
  assert (Option.is_none p.ado);
  p.ado <- Some ado

let invoke t ~partition work =
  simulate_request_path t.request_work;
  let p = t.partitions.(partition) in
  match p.ado with
  | Some ado -> ado.Ado.on_work work
  | None -> invalid_arg "Store.invoke: no ADO attached"

let ado_memory_bytes t ~partition =
  match t.partitions.(partition).ado with
  | Some ado -> ado.Ado.memory_bytes ()
  | None -> 0
