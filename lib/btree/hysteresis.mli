(** The §4 elasticity rules, written once for every elastic index: one
    soft size bound with hysteresis, the compact-leaf capacity
    progression with §6.1's parameters, the shrink-overflow target and
    the search-split draw.  Pure but for {!search_splits}, which draws
    from the caller's generator; {!step} does not allocate.  Owners keep
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

val step : state -> bound:int -> bytes:int -> compact:int -> state
(** Edges: normal → shrinking at {!shrink_at}; shrinking → expanding
    at [int_of_float (0.75 * bound)] bytes or fewer; expanding →
    shrinking at {!shrink_at}, and expanding → normal once [compact]
    (live compact leaves) is 0. *)

val seq_levels : int
(** 2: BlindiTree levels of a compact leaf (§6.1). *)

val breathing : int
(** 4: breathing slack of a compact leaf (§6.1). *)

val lift : std:int -> int * int
(** [(initial, max)] capacities of a tree whose standard leaves hold
    [std] keys: [(32, 128)] (§6.1's first compact capacity and cap),
    raised to [(2 std, max 128 (4 std))] when [32 <= std] (§4's
    [2n]). *)

val double : max_capacity:int -> int -> int option
(** [Some (2c)] below the cap; [None] at it (the leaf splits). *)

val halve : floor:int -> int -> int option
(** [Some (c/2)] while that exceeds [floor] (the standard capacity);
    [None]: the leaf leaves the compact representation. *)

val min_count : int -> int
(** Capacity [2k] holds at least [k+1] keys. *)

val underflows : capacity:int -> count:int -> bool

val shrink_to : std:int -> state -> int option -> int option
(** [shrink_to ~std s leaf] is the compact capacity an overflowing leaf
    converts to instead of splitting (§4's shrink rule): only while
    Shrinking, a standard leaf ([leaf = None]) to the initial capacity
    of {!lift} and a compact leaf of capacity [c] ([Some c]) to
    {!double}[ c].  [None]: the leaf splits. *)

val search_split_probability : float
(** 1/32: the chance that a search reaching a compact leaf while
    Expanding splits it (§4). *)

val search_splits : state -> Ei_util.Rng.t -> bool
(** Whether a search that reached a compact leaf splits it: only while
    Expanding, where it draws once from [rng] and hits with
    {!search_split_probability}.  No draw in any other state. *)

val legal_capacity : std:int -> int -> bool
(** [c] lies in [(std, max]] and {!double} or {!halve} (floor [std])
    reach it from [initial], with [(initial, max)] from {!lift}. *)
