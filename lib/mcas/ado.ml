(* Active Data Object (ADO) interface, modelled on MCAS [29, 30]: an ADO
   plugin extends the store with custom functionality invoked through
   work requests handled inside a partition's execution engine.

   Our plugin of interest is the indexed multi-column log table of §6.3;
   the work-request protocol below is its domain-specific API (load,
   point query, range scan). *)

module Iotta = Ei_workload.Iotta

type work =
  | Ingest of Iotta.row          (* append a log row and index it *)
  | Lookup of string             (* 16-byte (timestamp, object id) key *)
  | Scan of string * int         (* scan [n] keys from a start key *)
  | Distinct_objects of string * int
    (* monitoring query: distinct object ids among the next [n] log
       entries from a start key.  Covered by the index key alone (the
       object id is part of it) — the included-column query of §2. *)

type response =
  | Ack                          (* row ingested *)
  | Found of Iotta.row option    (* point-query result *)
  | Scanned of int               (* number of keys visited *)
  | Distinct of int              (* distinct object ids in the range *)

type t = {
  name : string;
  on_work : work -> response;
  memory_bytes : unit -> int;    (* memory used by the plugin's index *)
}
