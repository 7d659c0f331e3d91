(** Per-domain operation counters for the blind-trie representations.

    These feed the §6.1 operation-cost breakdown benchmark: how much
    work elasticity adds (compact-leaf searches, sequential-scan and
    BlindiTree descent steps, key verifications against the base table,
    node conversions). *)

type t = {
  mutable searches : int;      (** compact-leaf searches *)
  mutable scan_steps : int;    (** SeqTrie sequential-scan steps *)
  mutable tree_steps : int;    (** BlindiTree descent steps *)
  mutable key_compares : int;  (** verification compares against loaded keys *)
  mutable inserts : int;
  mutable removes : int;
  mutable rebuilds : int;      (** BlindiTree rebuilds *)
}

val current : unit -> t
(** The calling domain's counter record (benchmarks snapshot and diff
    it).  Each domain counts only its own operations. *)

val total : unit -> t
(** A fresh record summing every domain's counters, those of exited
    domains included; the [seqtree.*] metric probes report it.  Counts
    other domains are still bumping may be slightly stale. *)

val reset : unit -> unit
(** Zero every counter of the calling domain. *)
