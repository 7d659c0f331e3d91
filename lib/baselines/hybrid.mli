(** Hybrid index (Zhang et al.): the two-stage architecture §2 contrasts
    with elastic indexes — a small dynamic B+-tree in front of a compact
    read-only sorted array, merged wholesale when the dynamic stage
    outgrows [merge_ratio] of the static stage. *)

type t

type stats = {
  mutable merges : int;
  mutable merge_work : int;  (** entries rewritten by merges *)
}

val create : ?merge_ratio:float -> key_len:int -> load:(int -> string) -> unit -> t

val insert : t -> string -> int -> bool
val remove : t -> string -> bool
val update : t -> string -> int -> bool
(** Updating a static entry shadows it through the dynamic stage — the
    skew-assumption cost when updates hit old entries. *)

val find : t -> string -> int option

val fold_range : t -> start:string -> n:int -> ('a -> string -> int -> 'a) -> 'a -> 'a

val count : t -> int
val key_len : t -> int
val memory_bytes : t -> int
val stats : t -> stats

val check_invariants : t -> unit
