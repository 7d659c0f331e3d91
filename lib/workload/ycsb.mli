(** YCSB core workloads (A-F) over any index from the registry, as used
    by the §6.2 evaluation.

    Keys are 64-bit values produced by a bijective hash of a sequence
    number, so the load phase's population is uniform and keys are
    unique.  The transaction phase draws keys uniformly, Zipfian, or
    "latest"-skewed. *)

type workload = A | B | C | D | E | F

val workload_name : workload -> string

val workload_of_name : string -> workload option
(** The inverse of {!workload_name}, case-insensitive ("a" and "A" are
    both [Some A]). *)

type distribution = Uniform | Zipfian | Latest

val key_of_seq : int -> string
(** The bijective sequence-number to key mapping (8-byte keys). *)

type t

val create :
  ?seed:int ->
  index:Ei_harness.Index_ops.t ->
  table:Ei_storage.Table.t ->
  record_count:int ->
  unit ->
  t

val load : t -> int -> unit
(** Load phase: insert [n] fresh records.  Raises on key loss. *)

val run : t -> workload:workload -> dist:distribution -> ops:int -> int
(** Transaction phase: run [ops] operations; returns the number of reads
    served.  Raises if the index loses a key (consistency check). *)
