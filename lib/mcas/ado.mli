(** Active Data Object (ADO) interface, modelled on MCAS: a plugin
    extends the store with custom functionality invoked through work
    requests handled inside a partition's execution engine.  The work
    protocol below is the domain-specific API of the indexed log table
    of §6.3. *)

type work =
  | Ingest of Ei_workload.Iotta.row  (** append a log row and index it *)
  | Lookup of string                 (** 16-byte (timestamp, object id) key *)
  | Scan of string * int             (** scan [n] keys from a start key *)
  | Distinct_objects of string * int
      (** monitoring query: distinct object ids among the next [n] log
          entries — covered by the index key alone (§2's included-column
          query) *)

type response =
  | Ack
  | Found of Ei_workload.Iotta.row option
  | Scanned of int
  | Distinct of int

type t = {
  name : string;
  on_work : work -> response;
  memory_bytes : unit -> int;  (** memory used by the plugin's index *)
}
