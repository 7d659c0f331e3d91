(** MCAS-like in-memory store: a partitioned architecture where each
    partition's operations are handled by a single-threaded execution
    engine.  Each partition optionally carries an attached {!Ado}
    plugin.

    Every operation pays a modelled request-processing cost (MCAS is
    network-attached), which is why index-level slowdowns translate to
    only small end-to-end slowdowns on point operations (§6.3) while
    large scans still expose them. *)

type t

val create : ?partitions:int -> ?request_work:int -> unit -> t
(** [request_work] scales the modelled per-request engine cost
    (checksum rounds; default 2048, ~2 microseconds). *)

val attach_ado : t -> partition:int -> Ado.t -> unit
(** Attach an ADO plugin to a partition (at most one per partition). *)

val invoke : t -> partition:int -> Ado.work -> Ado.response
(** Submit a work request to the partition's ADO. *)

val ado_memory_bytes : t -> partition:int -> int
