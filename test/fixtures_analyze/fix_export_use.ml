(* The production-side caller of the export fixtures. *)

module E = Fix_export

let a = E.via_alias

open Fix_export

let b = via_open

module type S = sig
  val f : int -> int
  val g : int
end

module Make (X : S) = struct
  let y = X.f X.g
end

module M = Make (Fix_export_arg)

module type P = sig
  val h : int
end

let packed = (module Fix_export_packed : P)
