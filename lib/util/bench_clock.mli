(** Wall-clock timing helpers for the benchmark harness and examples. *)

val now : unit -> float
(** Current wall-clock time in seconds. *)

val now_ns : unit -> int
(** Monotonic time in integer nanoseconds ([CLOCK_MONOTONIC]; arbitrary
    origin, so only differences are meaningful).  Allocation-free.  The
    clock the observability layer timestamps with. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] and returns its result with elapsed seconds. *)

val mops : int -> float -> float
(** [mops count seconds] is throughput in million operations/second. *)

val mib : int -> float
(** Bytes to MiB. *)
