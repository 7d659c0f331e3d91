(** Deterministic splitmix64 pseudo-random number generator.

    Every workload generator in the repository draws from this generator,
    so experiments are reproducible given a seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val copy : t -> t
(** Independent copy with the same state. *)

val next_int : t -> int
(** Uniform non-negative int over [0, 2{^62}). *)

val int : t -> int -> int
(** [int t bound] is uniform over [0, bound). Requires [bound > 0]. *)

val float : t -> float
(** Uniform over [0, 1). *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val stream : int -> int -> t
(** [stream seed i] is the [i]-th independent generator derived from
    [seed] by splitmix64 stream splitting: deterministic in [(seed, i)]
    and decorrelated across [i], so parallel domains can each take their
    own stream of a single experiment seed. *)

val env_seed : default:int -> int
(** The experiment seed: the [EI_SEED] environment variable when set to
    an integer, [default] otherwise.  Every test and bench executable
    derives its seeds through this, so one CI-printed [EI_SEED=n]
    replays a failure in any executable. *)
