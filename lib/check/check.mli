(** Deep invariant sanitizer.

    Each validator recomputes a structural property from scratch and
    compares it against the structure's O(1) bookkeeping: B+-tree
    separator bounds, depth uniformity and leaf-chain consistency;
    SeqTree BlindiBits / BlindiTree correctness against keys loaded from
    the base table (§5); elastic compact-capacity legality against the
    {!Ei_core.Elasticity} configuration (§4); skip-list tower/level
    consistency; and tracked byte counts against per-node recomputation.

    Validators are read-only — {!run} never calls [find], which under an
    elastic policy in the expanding state may split a leaf.

    The paper's compact-leaf occupancy rule (capacity 2k holds >= k+1
    keys) is checked on elastic trees only (a fixed-policy SeqTree leaf
    half-splits by design, as STX's leaves do).  Elastic trees enforce
    it lazily, so transiently
    under-occupied leaves are reported as [Advisory] findings unless
    [~strict:true] upgrades them to [Error]s.  All other findings are
    hard errors. *)

type severity =
  | Error  (** a violated invariant: the structure is corrupt *)
  | Advisory  (** a lazily-enforced §4 bound currently exceeded *)

type finding = { validator : string; severity : severity; detail : string }

type report = {
  index : string;  (** the [Index_ops.name] or entry-point name *)
  ops_seen : int;  (** mutating ops when produced by a {!wrap} hook; 0 else *)
  findings : finding list;
}

val ok : report -> bool
(** No [Error]-severity findings ([Advisory] findings are allowed). *)

val errors : report -> finding list
(** The [Error]-severity findings. *)

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit

val run : ?strict:bool -> Ei_harness.Index_ops.t -> report
(** Generic closure-level checks (full-scan order and count agreement)
    plus the deep validator for the index's backend. *)

(** Structure-specific entry points (each returns its findings). *)

val check_seqtree :
  load:(int -> string) -> Ei_blindi.Seqtree.t -> finding list

val check_olc : ?strict:bool -> Ei_olc.Btree_olc.t -> finding list
(** BTreeOLC structure plus, for the elastic variant, the shared atomic
    size/state accounting against a recomputed walk.  Single-threaded:
    quiesce all mutator domains first. *)

val wrap :
  ?strict:bool ->
  every:int ->
  on_report:(report -> unit) ->
  Ei_harness.Index_ops.t ->
  Ei_harness.Index_ops.t
(** [wrap ~every ~on_report ix] is [ix] with its mutating operations
    (insert / update / remove) counted; every [every]-th mutation runs
    {!run} and hands the report (with [ops_seen] set) to [on_report].
    Property-test support. *)
