(** Leaf policies: the hook through which the elastic index framework
    (§3) customises the B+-tree.

    A policy decides what happens at the structure-modification points
    the elasticity algorithm piggybacks on — leaf overflow, underflow
    and merges — plus the expansion-state random split of compact leaves
    reached by searches (§4).  The plain STX B+-tree and the fully
    compacted STX-SeqTree / STX-SubTrie / prefix-compressed variants are
    degenerate policies of the same interface. *)

type leaf_spec =
  | Spec_std             (** standard leaf, internal key storage *)
  | Spec_seq of int      (** SeqTree with this capacity *)
  | Spec_sub of int      (** SubTrie with this capacity *)
  | Spec_pre             (** prefix-compressed leaf, standard capacity *)
  | Spec_str of int      (** String B-Trie with this capacity *)
  | Spec_bw              (** Bw-tree delta-chained leaf, standard capacity *)

(** What a policy may inspect when deciding. *)
type view = {
  bytes : int;           (** tracked index size under the memory model *)
  compact_leaves : int;  (** leaves currently in compact representation *)
  items : int;           (** keys stored in the index *)
}

type overflow_action =
  | Split of leaf_spec   (** split the leaf; both halves use this spec *)
  | Convert of leaf_spec (** rebuild the leaf in place with this spec *)

type underflow_action =
  | Rebalance            (** classic B+-tree borrow/merge with a sibling *)
  | Replace of leaf_spec (** rebuild the leaf in place (elastic shrink) *)

type t = {
  initial : leaf_spec;
  seq_levels : int;
  seq_breathing : int;
  on_overflow : view -> current:leaf_spec -> overflow_action;
  on_underflow : view -> current:leaf_spec -> count:int -> underflow_action;
  on_search_compact : view -> current:leaf_spec -> leaf_spec option;
  on_merge : view -> total:int -> left:leaf_spec -> right:leaf_spec -> leaf_spec;
  underflow_at : leaf_spec -> std_capacity:int -> count:int -> bool;
}

val fixed : ?levels:int -> ?breathing:int -> leaf_spec -> t
(** Every leaf has this spec; overflowing leaves split and nothing
    converts.  [fixed Spec_std] is the baseline STX B+-tree, [fixed
    (Spec_seq c)] STX-SeqTree, [fixed (Spec_sub c)] STX-SubTrie (§6.4),
    [fixed (Spec_str c)] STX-StringBTrie (§5.1), [fixed Spec_pre] the
    prefix-compressed B+-tree (§2) and [fixed Spec_bw] the Bw-tree
    baseline (§6.1).  [levels] and [breathing] (default
    {!Hysteresis.seq_levels} and {!Hysteresis.breathing}) shape SeqTree
    leaves only. *)

val spec_capacity : std_capacity:int -> leaf_spec -> int
val pp_spec : Format.formatter -> leaf_spec -> unit
