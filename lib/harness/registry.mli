(** Construct any of the evaluated indexes by kind: the index zoo of
    §6.  All indexes implement {!Index_ops.t}. *)

type kind =
  | Stx                                    (** STX-style B+-tree *)
  | Seqtree of int                         (** STX-SeqTree, leaf capacity *)
  | Subtrie of int                         (** STX-SubTrie, leaf capacity *)
  | Stringtrie of int                      (** STX-StringBTrie, leaf capacity *)
  | Elastic of Ei_core.Elasticity.config   (** the elastic B+-tree *)
  | Prefix                                 (** prefix-compressed B+-tree *)
  | Bwtree                                 (** Bw-tree-style delta chains *)
  | Hot                                    (** blind radix trie, indirect keys *)
  | Art                                    (** blind radix trie, stored keys *)
  | Skiplist
  | Hybrid of float                        (** two-stage hybrid index [33],
                                               with this merge ratio *)
  | Elastic_skiplist of int                (** the framework on a skip list,
                                               with this size bound *)
  | Olc of Ei_olc.Btree_olc.leaf_kind
      (** BTreeOLC (§6.2): standard, compact or elastic leaves.  For
          concurrent use with compact leaves pass
          {!Ei_olc.Btree_olc.safe_loader} as [load]. *)

val kind_name : kind -> string

val names : string list
(** The names {!kind_of_name} accepts, [<N>] a capacity of at least 32. *)

val kind_of_name : bound:int -> string -> (kind, string) result
(** The inverse of {!kind_name}.  What a name drops is fixed: elastic
    kinds take [bound] as their size bound and defaults otherwise,
    [olc-seqtree] is [{128; 2; 4}] and [hybrid] merges at 0.1. *)

val make :
  ?name:string ->
  key_len:int ->
  load:(int -> string) ->
  kind ->
  Index_ops.t
(** [make ~key_len ~load kind] builds an index.  [load tid] must return
    the indexed key of row [tid] (used by indirect-key indexes). *)
