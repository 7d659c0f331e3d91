(** Seeded FNV-1a hashing over key bytes.

    Unlike [Hashtbl.hash], which folds only a bounded prefix of its
    argument and whose output is unspecified across compiler versions,
    FNV-1a reads every byte and is fully specified — hash-based
    decisions (partition routing, bucket placement) stay deterministic
    and reproducible. *)

val hash : ?seed:int -> string -> int
(** [hash64] truncated to a non-negative OCaml [int]. *)
