(* The elastic B+-tree: the paper's primary contribution (§3-§5).

   An elastic B+-tree behaves exactly like the underlying STX-style
   B+-tree while the index fits comfortably inside its soft size bound.
   Under memory pressure it incrementally converts leaves to the SeqTree
   compact representation (indirect key storage), trading some query
   efficiency for space, and it converts them back when pressure
   subsides.  See {!Elasticity} for the state machine. *)

module Btree = Ei_btree.Btree
module Hysteresis = Ei_btree.Hysteresis

(* Serial structure: one elastic tree is owned by one domain at a time
   ({!Ei_shard.Serve} gives each part its own domain and queue). *)
type t = {
  tree : Btree.t;
  elasticity : Elasticity.t;  (* the state machine and the live bound *)
  sweep_period : int;
  sweep_batch : int;
  mutable ops : int;  (* operation counter driving cold sweeps *)
}
[@@ei.single_domain]

let make ~leaf_capacity config build =
  let elasticity = Elasticity.create ~std_capacity:leaf_capacity config in
  {
    tree = build (Elasticity.policy elasticity);
    elasticity;
    sweep_period = config.Elasticity.cold_sweep_period;
    sweep_batch = config.Elasticity.cold_sweep_batch;
    ops = 0;
  }

let create ?(leaf_capacity = 16) ?(inner_capacity = 16) ~key_len ~load config () =
  make ~leaf_capacity config (fun policy ->
      Btree.create ~leaf_capacity ~inner_capacity ~key_len ~load ~policy ())

(* Access-aware policy variant: while shrinking and above the shrink
   threshold, periodically compact a batch of cold (untouched since the
   previous sweep) standard leaves, so pressure is relieved even when
   insertions never overflow them (e.g. append-only key patterns). *)
let maybe_cold_sweep t =
  let p = t.sweep_period in
  if p > 0 then begin
    t.ops <- t.ops + 1;
    if
      t.ops mod p = 0
      && Hysteresis.state_equal (Elasticity.state t.elasticity) Hysteresis.Shrinking
      && Btree.memory_bytes t.tree
         >= Hysteresis.shrink_at (Elasticity.size_bound t.elasticity)
    then
      let initial, _ = Hysteresis.lift ~std:(Btree.std_capacity t.tree) in
      ignore
        (Btree.compact_cold t.tree ~batch:t.sweep_batch
           ~spec:(Ei_btree.Policy.Spec_seq initial))
  end

(* Bulk-load from sorted entries; the elasticity machinery takes over
   for subsequent operations. *)
let of_sorted ?(leaf_capacity = 16) ?(inner_capacity = 16) ~key_len ~load config
    keys tids n =
  make ~leaf_capacity config (fun policy ->
      Btree.of_sorted ~leaf_capacity ~inner_capacity ~key_len ~load ~policy keys
        tids n)

let insert t key tid =
  maybe_cold_sweep t;
  Btree.insert t.tree key tid
let remove t key = Btree.remove t.tree key
let find t key = Btree.find t.tree key
let update t key tid = Btree.update t.tree key tid
let fold_range t ~start ~n f acc = Btree.fold_range t.tree ~start ~n f acc
let count t = Btree.count t.tree
let memory_bytes t = Btree.memory_bytes t.tree
let compact_leaves t = Btree.compact_leaves t.tree
let state t = Elasticity.state t.elasticity
let transitions t = Elasticity.transitions t.elasticity
let std_capacity t = Btree.std_capacity t.tree
let stats t = Btree.stats t.tree
let tree t = t.tree

let key_len t = Btree.key_len t.tree
let check_invariants t = Btree.check_invariants t.tree

(* The state machine holds the one live bound, which cold sweeps read
   too, so a retune or an injected slash moves both. *)
let set_size_bound t bound = Elasticity.set_size_bound t.elasticity bound
