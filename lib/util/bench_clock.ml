(* Small timing helpers shared by the benchmark harness and examples.
   Wall-clock time is used so that multi-domain experiments measure real
   elapsed time. *)

let now () = Unix.gettimeofday ()

(* Integer nanoseconds from CLOCK_MONOTONIC: never steps backwards, has
   nanosecond resolution and allocates nothing.  The observability
   layer stores these in fixed-width ring slots.  The origin is
   arbitrary (boot time on Linux), so only differences are meaningful. *)
external now_ns : unit -> int = "ei_clock_monotonic_ns" [@@noalloc]

let time f =
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, t1 -. t0)

let mops count seconds =
  if seconds <= 0.0 then Float.infinity
  else float_of_int count /. seconds /. 1.0e6

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)
