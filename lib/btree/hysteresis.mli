(** The §4 elasticity state machine, written once for every elastic
    index: one soft size bound with hysteresis, and the compact-leaf
    capacity progression.  Pure; {!step} does not allocate.  Owners keep
    their own state word, counters and trace names.

    For bounds 1 to 4 both thresholds round to the same byte count and
    the band is empty; no index's modelled size is that small. *)

type state = Normal | Shrinking | Expanding

val state_name : state -> string
val state_equal : state -> state -> bool

val code : state -> int
(** Trace payload: 0 normal, 1 shrinking, 2 expanding. *)

val shrink_at : int -> int
(** [int_of_float (0.9 * bound)]: shrink at this many bytes or more. *)

val expand_at : int -> int
(** [int_of_float (0.75 * bound)]: expand at this many bytes or fewer. *)

val step : state -> bound:int -> bytes:int -> compact:int -> state
(** Edges: normal → shrinking, shrinking → expanding, expanding →
    shrinking, and expanding → normal once [compact] (live compact
    leaves) is 0. *)

val double : max_capacity:int -> int -> int option
(** [Some (2c)] below the cap; [None] at it (the leaf splits). *)

val halve : floor:int -> int -> int option
(** [Some (c/2)] while that exceeds [floor] (the standard capacity);
    [None]: the leaf leaves the compact representation. *)

val min_count : int -> int
(** Capacity [2k] holds at least [k+1] keys. *)

val underflows : capacity:int -> count:int -> bool

val search_split_probability : float
(** 1/32: the chance that a search reaching a compact leaf while
    Expanding splits it (§4). *)

val lift : std:int -> initial:int -> max_capacity:int -> int * int
(** [(initial, max_capacity)], raised to [(2 std, max max_capacity
    (4 std))] when [initial <= std] (§4's [2n]). *)

val legal_capacity : std:int -> initial:int -> max_capacity:int -> int -> bool
(** [c] lies in [(std, max_capacity]] and {!double} or {!halve} (floor
    [std]) reach it from [initial]. *)
