(* Monotonic nanosecond clock for every timing the benchmark takes.

   [Monotonic_clock.now] is bechamel's [@@noalloc] CLOCK_MONOTONIC stub
   returning an unboxed int64, so reading it allocates nothing and the
   conversion to an immediate int is free in native code. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let ns_of_s s = int_of_float (s *. 1e9)
