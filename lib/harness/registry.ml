(* Construct any of the evaluated indexes by name — the index zoo of §6:
   STX, STX-SeqTree128, STX-SubTrie, the elastic B+-tree (with a
   configurable shrink bound), the HOT substitute, ART mode, and the
   skip list. *)

type kind =
  | Stx
  | Seqtree of int        (* STX-SeqTree with this leaf capacity *)
  | Subtrie of int        (* STX-SubTrie with this leaf capacity *)
  | Stringtrie of int     (* STX-StringBTrie with this leaf capacity *)
  | Elastic of Ei_core.Elasticity.config
  | Prefix  (* prefix-compressed B+-tree (key truncation) *)
  | Bwtree  (* Bw-tree-style delta-chained leaves *)
  | Hot
  | Art
  | Skiplist
  | Hybrid of float  (* two-stage hybrid index with this merge ratio *)
  | Elastic_skiplist of int  (* soft size bound, bytes *)
  | Olc of Ei_olc.Btree_olc.leaf_kind

let kind_name = function
  | Stx -> "stx"
  | Seqtree c -> Printf.sprintf "seqtree%d" c
  | Subtrie c -> Printf.sprintf "subtrie%d" c
  | Stringtrie c -> Printf.sprintf "stringtrie%d" c
  | Elastic _ -> "elastic"
  | Prefix -> "prefix"
  | Bwtree -> "bwtree"
  | Hot -> "hot"
  | Art -> "art"
  | Skiplist -> "skiplist"
  | Hybrid _ -> "hybrid"
  | Elastic_skiplist _ -> "elastic-skiplist"
  | Olc Ei_olc.Btree_olc.Olc_std -> "olc"
  | Olc (Ei_olc.Btree_olc.Olc_seqtree _) -> "olc-seqtree"
  | Olc (Ei_olc.Btree_olc.Olc_elastic _) -> "olc-elastic"

(* [kind_of_name] prints each candidate back: the fixed-name kinds, or
   the leaf-capacity families when the name's digits read >= 32. *)
let fixed ~bound =
  let module Olc = Ei_olc.Btree_olc in
  [
    Stx; Prefix; Bwtree; Hot; Art; Skiplist; Hybrid 0.1;
    Elastic (Ei_core.Elasticity.default_config ~size_bound:bound);
    Elastic_skiplist bound;
    Olc Olc.Olc_std;
    Olc (Olc.Olc_seqtree { capacity = 128; levels = 2; breathing = 4 });
    Olc (Olc.Olc_elastic (Olc.default_elastic_config ~size_bound:bound));
  ]

let sized c = [ Seqtree c; Subtrie c; Stringtrie c ]

let names =
  List.map kind_name (fixed ~bound:0)
  @ List.map (fun k -> Filename.chop_suffix (kind_name k) "32" ^ "<N>") (sized 32)

let kind_of_name ~bound name =
  let digits =
    String.of_seq (Seq.filter (String.contains "0123456789") (String.to_seq name))
  in
  let candidates =
    match int_of_string_opt digits with
    | Some c when c >= 32 -> sized c
    | Some _ | None -> fixed ~bound
  in
  match List.find_opt (fun k -> String.equal (kind_name k) name) candidates with
  | Some k -> Ok k
  | None ->
    Error
      (Printf.sprintf "unknown index %S (one of: %s; N >= 32)" name
         (String.concat " " names))

let make ?name ~key_len ~load kind =
  let name = match name with Some n -> n | None -> kind_name kind in
  let btree spec =
    Index_ops.of_btree name
      (Ei_btree.Btree.create ~key_len ~load ~policy:(Ei_btree.Policy.fixed spec)
         ())
  in
  match kind with
  | Stx -> btree Ei_btree.Policy.Spec_std
  | Seqtree capacity -> btree (Ei_btree.Policy.Spec_seq capacity)
  | Subtrie capacity -> btree (Ei_btree.Policy.Spec_sub capacity)
  | Stringtrie capacity -> btree (Ei_btree.Policy.Spec_str capacity)
  | Elastic config ->
    Index_ops.of_elastic name
      (Ei_core.Elastic_btree.create ~key_len ~load config ())
  | Prefix -> btree Ei_btree.Policy.Spec_pre
  | Bwtree -> btree Ei_btree.Policy.Spec_bw
  | Hot ->
    Index_ops.of_radix name
      (Ei_baselines.Radix.create ~store_keys:false ~key_len ~load ())
  | Art ->
    Index_ops.of_radix name
      (Ei_baselines.Radix.create ~store_keys:true ~key_len ~load ())
  | Skiplist -> Index_ops.of_skiplist name (Ei_baselines.Skiplist.create ~key_len ())
  | Hybrid merge_ratio ->
    Index_ops.of_hybrid name
      (Ei_baselines.Hybrid.create ~merge_ratio ~key_len ~load ())
  | Elastic_skiplist size_bound ->
    Index_ops.of_elastic_skiplist name
      (Ei_core.Elastic_skiplist.create ~key_len ~load ~size_bound ())
  | Olc kind ->
    (* Concurrent use with compact leaves needs a torn-read-proof loader:
       pass [Btree_olc.safe_loader] as [load]. *)
    Index_ops.of_olc name (Ei_olc.Btree_olc.create ~kind ~key_len ~load ())
