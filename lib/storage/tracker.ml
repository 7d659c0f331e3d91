(* Incremental memory accounting.

   Indexes report node allocations and frees here so the elasticity
   algorithm can consult the current index size in O(1) on every
   operation.  Tests cross-check the tracked total against a
   recomputed-from-scratch sum over all live nodes. *)

type t = { mutable bytes : int }

let create () = { bytes = 0 }
let add t n = t.bytes <- t.bytes + n

let sub t n =
  t.bytes <- t.bytes - n;
  assert (t.bytes >= 0)

let bytes t = t.bytes
let reset t = t.bytes <- 0
