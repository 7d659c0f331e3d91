(* Order statistics shared by the benchmark and the compare tool. *)

(* Growable int sample buffer (latencies in ns). *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Int.compare s;
    s
end

(* Nearest-rank quantile of an ascending int array (0 when empty). *)
let quantile_sorted (a : int array) q =
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(Int.min (n - 1) (Int.max 0 rank))

let sorted_floats xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_floats xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so the spreads this repository
   prints agree with the ones an outside script computes from the same
   values.  Needs at least two values. *)
let quartiles xs =
  let d = sorted_floats xs in
  let ld = Array.length d in
  if ld < 2 then (Float.nan, Float.nan)
  else begin
    let m = ld + 1 in
    let cut i =
      let j = Int.max 1 (Int.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (cut 1, cut 3)
  end

(* Interquartile range as a share of the median. *)
let rel_spread xs =
  let q1, q3 = quartiles xs in
  let med = median xs in
  if Float.equal med 0. then Float.nan else (q3 -. q1) /. Float.abs med
