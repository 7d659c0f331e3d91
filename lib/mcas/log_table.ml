(* The indexed multi-column table ADO plugin of §6.3.

   Rows are stored column-wise in four integer columns (timestamp,
   request type, object id, size).  The table is indexed by the 16-byte
   composite key (timestamp, object id); the index is pluggable so the
   benchmark can compare STX, elastic B+-trees with different shrink
   bounds, STX-SeqTree128 and HOT inside the same full-system path.

   Indexes with indirect key storage reconstruct keys from the columns
   through the [load] closure — the key is derivable from the row, as
   the paper requires (§5). *)

module Iotta = Ei_workload.Iotta
module Index_ops = Ei_harness.Index_ops
module Registry = Ei_harness.Registry

type columns = {
  mutable ts : int array;
  mutable op : int array;
  mutable obj : int array;
  mutable size : int array;
  mutable n : int;
}

type t = { cols : columns; index : Index_ops.t }

let key_len = 16

let grow c =
  let cap = Array.length c.ts in
  let extend a =
    let b = Array.make (2 * cap) 0 in
    Array.blit a 0 b 0 c.n;
    b
  in
  c.ts <- extend c.ts;
  c.op <- extend c.op;
  c.obj <- extend c.obj;
  c.size <- extend c.size

(* Reconstruct the index key of a row from its columns: the indirect
   key access compact indexes pay for. *)
let load_key c tid = Ei_util.Key.of_int_pair c.ts.(tid) c.obj.(tid)

let row_at c tid =
  { Iotta.ts = c.ts.(tid); op = c.op.(tid); obj = c.obj.(tid); size = c.size.(tid) }

let create ?(initial_capacity = 1024) ~index_kind () =
  let cols =
    {
      ts = Array.make initial_capacity 0;
      op = Array.make initial_capacity 0;
      obj = Array.make initial_capacity 0;
      size = Array.make initial_capacity 0;
      n = 0;
    }
  in
  let index = Registry.make ~key_len ~load:(load_key cols) index_kind in
  { cols; index }

let ingest t (r : Iotta.row) =
  let c = t.cols in
  if c.n = Array.length c.ts then grow c;
  let tid = c.n in
  c.ts.(tid) <- r.Iotta.ts;
  c.op.(tid) <- r.Iotta.op;
  c.obj.(tid) <- r.Iotta.obj;
  c.size.(tid) <- r.Iotta.size;
  c.n <- tid + 1;
  if not (t.index.Index_ops.insert (Iotta.key_of_row r) tid) then
    invalid_arg "Log_table.ingest: duplicate key"

let lookup t key =
  match t.index.Index_ops.find key with
  | Some tid -> Some (row_at t.cols tid)
  | None -> None

let scan t ~start ~n = t.index.Index_ops.scan start n

(* Included-column monitoring query: the object id occupies bytes 8-15 of
   the index key, so the result is computed from scanned keys alone —
   no row accesses for key-storing indexes, one indirect load per key
   for compact/blind ones (§2). *)
let distinct_objects t ~start ~n =
  let seen = Ei_util.Strtbl.create 64 in
  ignore
    (t.index.Index_ops.scan_keys start n (fun key _ ->
         Ei_util.Strtbl.replace seen (String.sub key 8 8) ()));
  Ei_util.Strtbl.length seen

let index_memory_bytes t = t.index.Index_ops.memory_bytes ()
let data_bytes t = t.cols.n * Iotta.row_bytes
let index_name t = t.index.Index_ops.name
let index t = t.index

(* Status string of the underlying index (elastic state, if any). *)
let index_info t = t.index.Index_ops.info ()

(* Package the table as an ADO plugin. *)
let ado t =
  {
    Ado.name = Printf.sprintf "log-table(%s)" (index_name t);
    on_work =
      (fun work ->
        match work with
        | Ado.Ingest row ->
          ingest t row;
          Ado.Ack
        | Ado.Lookup key -> Ado.Found (lookup t key)
        | Ado.Scan (start, n) -> Ado.Scanned (scan t ~start ~n)
        | Ado.Distinct_objects (start, n) ->
          Ado.Distinct (distinct_objects t ~start ~n));
    memory_bytes = (fun () -> index_memory_bytes t);
  }
