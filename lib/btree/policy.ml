(* Leaf policies: the hook through which the elastic index framework
   (§3) customises the B+-tree.

   A policy decides what happens at the structure-modification points the
   elasticity algorithm piggybacks on — leaf overflow, leaf underflow,
   leaf merges — plus the expansion-state random split of compact leaves
   reached by searches (§4).  The plain STX B+-tree and the
   fully-compacted STX-SeqTree/SubTrie variants are degenerate ({!fixed})
   policies of the same interface. *)

type leaf_spec =
  | Spec_std
  | Spec_seq of int  (* SeqTree with this capacity *)
  | Spec_sub of int  (* SubTrie with this capacity *)
  | Spec_pre         (* prefix-compressed leaf, standard capacity *)
  | Spec_str of int  (* String B-Trie with this capacity *)
  | Spec_bw          (* Bw-tree delta-chained leaf, standard capacity *)

(* What the policy may inspect when deciding. *)
type view = {
  bytes : int;           (* tracked index size under the memory model *)
  compact_leaves : int;  (* number of leaves in compact representation *)
  items : int;           (* keys stored in the index *)
}

type overflow_action =
  | Split of leaf_spec   (* split the leaf; both halves use this spec *)
  | Convert of leaf_spec (* rebuild the leaf in place with this spec
                            (std -> compact conversion, or compact grow) *)

type underflow_action =
  | Rebalance            (* classic B+-tree borrow/merge with a sibling *)
  | Replace of leaf_spec (* rebuild the leaf in place (elastic shrink) *)

type t = {
  initial : leaf_spec;  (* representation of a fresh (root) leaf *)
  seq_levels : int;     (* BlindiTree levels for SeqTree leaves *)
  seq_breathing : int;  (* breathing slack for SeqTree leaves *)
  on_overflow : view -> current:leaf_spec -> overflow_action;
  on_underflow : view -> current:leaf_spec -> count:int -> underflow_action;
  on_search_compact : view -> current:leaf_spec -> leaf_spec option;
  (* [Some spec]: split the compact leaf reached by this search into two
     leaves of [spec] (expansion state, §4). *)
  on_merge : view -> total:int -> left:leaf_spec -> right:leaf_spec -> leaf_spec;
  (* Representation for the result of merging two underflowed leaves. *)
  underflow_at : leaf_spec -> std_capacity:int -> count:int -> bool;
  (* Whether a leaf with this representation and occupancy is
     underflowed.  Standard B+-tree semantics use [count < capacity/2];
     the elastic policy uses the paper's [count < capacity/2 + 1] for
     compact leaves (§4). *)
}

(* Standard B+-tree underflow rule. *)
let std_underflow spec ~std_capacity ~count =
  let capacity =
    match spec with
    | Spec_std | Spec_pre | Spec_bw -> std_capacity
    | Spec_seq c | Spec_sub c | Spec_str c -> c
  in
  count < capacity / 2

(* A fixed-representation tree: every leaf has [spec], overflowing
   leaves split and nothing converts.  [Spec_std] is the baseline STX
   B+-tree; the compact specs are the paper's fully-compacted bounds on
   space savings and query overhead (STX-SeqTree, STX-SubTrie,
   STX-StringBTrie), [Spec_pre] the §2 key-truncation comparison point
   and [Spec_bw] the §6.1 Bw-tree baseline.  [levels] and [breathing]
   shape SeqTree leaves only. *)
let fixed ?(levels = Hysteresis.seq_levels) ?(breathing = Hysteresis.breathing)
    spec =
  {
    initial = spec;
    seq_levels = levels;
    seq_breathing = breathing;
    on_overflow = (fun _ ~current:_ -> Split spec);
    on_underflow = (fun _ ~current:_ ~count:_ -> Rebalance);
    on_search_compact = (fun _ ~current:_ -> None);
    on_merge = (fun _ ~total:_ ~left:_ ~right:_ -> spec);
    underflow_at = std_underflow;
  }

let spec_capacity ~std_capacity = function
  | Spec_std | Spec_pre | Spec_bw -> std_capacity
  | Spec_seq c | Spec_sub c | Spec_str c -> c

let pp_spec ppf = function
  | Spec_std -> Fmt.string ppf "std"
  | Spec_seq c -> Fmt.pf ppf "seq%d" c
  | Spec_sub c -> Fmt.pf ppf "sub%d" c
  | Spec_pre -> Fmt.string ppf "pre"
  | Spec_str c -> Fmt.pf ppf "str%d" c
  | Spec_bw -> Fmt.string ppf "bw"
