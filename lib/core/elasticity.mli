(** The B+-tree elasticity algorithm (§4 of the paper).

    The algorithm keeps the index size near a soft bound with the
    hysteresis of {!Ei_btree.Hysteresis}: {e shrinking} at 90 % of the
    bound, {e expanding} at 75 %, {e normal} once no compact leaves
    remain.

    Conversions piggyback on structure modifications: overflowing
    standard leaves convert to SeqTrees of twice the capacity instead of
    splitting (shrinking state); overflowing compact leaves double their
    capacity up to the cap; underflowing compact leaves walk back down
    the progression; and in the expanding state a search reaching a
    compact leaf randomly splits it.  The capacities, SeqTree shape and
    both conversion rules are {!Ei_btree.Hysteresis}'s. *)

type config = {
  size_bound : int;                 (** soft index size bound, bytes *)
  cold_sweep_period : int;
  (** operations between cold-compaction sweeps; 0 disables the
      access-aware policy variant (§4 design space) *)
  cold_sweep_batch : int;           (** leaves inspected per sweep *)
  fault_site : string;
  (** {!Ei_fault.Fault} site name for injected memory-pressure spikes
      (the live bound is halved when the site fires at a state-machine
      consultation); [""] (the default) disables the site *)
}

val default_config : size_bound:int -> config
(** No cold sweep (batch 8 once a period is set) and no fault site. *)

type t

val create : std_capacity:int -> config -> t
(** [std_capacity] is the standard-leaf capacity of the tree the policy
    will drive. *)

val state : t -> Ei_btree.Hysteresis.state
val transitions : t -> int
(** Number of state transitions so far. *)

val size_bound : t -> int
(** The current soft bound in bytes. *)

val set_size_bound : t -> int -> unit
(** Retune the soft bound on a live policy (the elastic memory
    coordinator's lever).  Takes effect at the next state-machine
    consultation; requires a positive bound. *)

val policy : t -> Ei_btree.Policy.t
(** The leaf policy implementing the algorithm, to plug into
    {!Ei_btree.Btree.create}. *)
