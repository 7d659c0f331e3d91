(* The B+-tree elasticity algorithm (§4).

   The algorithm keeps the index size below a soft bound with the
   hysteresis of {!Ei_btree.Hysteresis}: shrinking at 90 % of the
   bound, expanding at 75 %, normal once no compact leaves remain.

   All conversions piggyback on structure-modification events:
   - shrinking: a standard-leaf overflow converts the leaf to a SeqTree
     of twice its capacity instead of splitting; a compact-leaf overflow
     doubles the compact capacity up to the cap, after which the leaf
     splits ({!Hysteresis.shrink_to});
   - any state: a compact-leaf underflow (capacity 2k holding fewer than
     k+1 keys) shrinks the leaf to capacity k, or back to a standard
     leaf when k is the standard capacity;
   - expanding: a search that ends at a compact leaf randomly splits it
     into two leaves of half capacity (standard leaves at the bottom of
     the progression), so hot read-only leaves also decompact. *)

module Policy = Ei_btree.Policy
module Hysteresis = Ei_btree.Hysteresis
module Metrics = Ei_obs.Metrics
module Trace = Ei_obs.Trace

(* --- Observability (shared across instances; per-domain sharded) ----- *)

let c_transitions = Metrics.counter "elastic.transitions"
let c_slashes = Metrics.counter "elastic.bound_slashes"
let c_conversions = Metrics.counter "elastic.conversions"
let c_search_splits = Metrics.counter "elastic.search_splits"

let ev_state =
  Trace.define ~cat:"elastic" ~arg0:"state" ~arg1:"bytes" "elastic.state"

let ev_slash =
  Trace.define ~cat:"elastic" ~arg0:"new_bound" ~arg1:"old_bound"
    "elastic.bound_slash"

(* Compact<->standard leaf conversions, with the capacities involved
   (0 = standard leaf). *)
let ev_convert =
  Trace.define ~cat:"elastic" ~arg0:"to_capacity" ~arg1:"from_capacity"
    "elastic.convert"

let ev_search_split =
  Trace.define ~cat:"elastic" ~arg0:"to_capacity" ~arg1:"from_capacity"
    "elastic.search_split"

type config = {
  size_bound : int;                 (* soft index size bound, bytes *)
  cold_sweep_period : int;          (* ops between cold-compaction sweeps;
                                       0 disables the access-aware policy *)
  cold_sweep_batch : int;           (* leaves inspected per sweep *)
  fault_site : string;              (* Ei_fault site name for injected
                                       bound slashes; "" disables *)
}

let default_config ~size_bound =
  { size_bound; cold_sweep_period = 0; cold_sweep_batch = 8; fault_site = "" }

(* The search-split stream's seed. *)
let seed = 0x5eed

(* Serial state machine: owned by the index that embeds it, which is
   itself single-domain (see {!Elastic_btree.t}). *)
type t = {
  mutable size_bound : int;
  (* mutable so a coordinator can retune it on a live index *)
  std_capacity : int;
  initial : int;       (* first compact capacity ({!Hysteresis.lift}) *)
  max_capacity : int;  (* compact capacity cap ({!Hysteresis.lift}) *)
  rng : Ei_util.Rng.t;
  mutable state : Hysteresis.state;
  mutable transitions : int;
  slash : Ei_fault.Fault.site option;
}
[@@ei.single_domain]

let create ~std_capacity (config : config) =
  assert (config.size_bound > 0);
  let initial, max_capacity = Hysteresis.lift ~std:std_capacity in
  {
    size_bound = config.size_bound;
    std_capacity;
    initial;
    max_capacity;
    rng = Ei_util.Rng.create seed;
    state = Normal;
    transitions = 0;
    slash =
      (if String.equal config.fault_site "" then None
       else Some (Ei_fault.Fault.site config.fault_site));
  }

let state t = t.state
let transitions t = t.transitions
let size_bound t = t.size_bound

(* Retune the soft bound on a live index.  The next [update] call sees
   the new thresholds, so the state machine reacts on the following
   structure-modification event — no eager reorganisation. *)
let set_size_bound t bound =
  assert (bound > 0);
  t.size_bound <- bound


(* State transition check, run whenever the policy is consulted.  The
   injected memory-pressure spike fires here — the same moments a real
   spike would be observed — halving the soft bound so the state
   machine must react (a later [set_size_bound] from a coordinator
   restores the configured split). *)
let update t (view : Policy.view) =
  (match t.slash with
  | Some site when Ei_fault.Fault.fire site ->
    let old_bound = t.size_bound in
    t.size_bound <- max 1 (old_bound / 2);
    Metrics.incr c_slashes;
    Trace.emit ev_slash t.size_bound old_bound
  | _ -> ());
  let s =
    Hysteresis.step t.state ~bound:t.size_bound ~bytes:view.bytes
      ~compact:view.compact_leaves
  in
  if not (Hysteresis.state_equal t.state s) then begin
    t.state <- s;
    t.transitions <- t.transitions + 1;
    Metrics.incr c_transitions;
    Trace.emit ev_state (Hysteresis.code s) view.bytes
  end

(* ------------------------------------------------------------------ *)
(* Policy construction.                                                *)

(* One step down the capacity progression: the next compact capacity,
   or a standard leaf at the floor. *)
let below t c =
  match Hysteresis.halve ~floor:t.std_capacity c with
  | Some k -> Policy.Spec_seq k
  | None -> Policy.Spec_std

(* A leaf's capacity in a conversion event (0 = standard leaf). *)
let traced_capacity = function Policy.Spec_seq k -> k | _ -> 0

(* Convert an overflowing leaf in place to compact capacity [d] (§4's
   shrink rule): saves leaf space and avoids the separator insertions a
   split would push into inner nodes. *)
let convert d ~from =
  Metrics.incr c_conversions;
  Trace.emit ev_convert d from;
  Policy.Convert (Policy.Spec_seq d)

let on_overflow t view ~current =
  update t view;
  let std = t.std_capacity in
  match current with
  | Policy.Spec_std -> (
    match Hysteresis.shrink_to ~std t.state None with
    | Some d -> convert d ~from:0
    | None -> Policy.Split Policy.Spec_std)
  | Policy.Spec_seq c -> (
    match Hysteresis.shrink_to ~std t.state (Some c) with
    | Some d -> convert d ~from:c
    | None when Hysteresis.state_equal t.state Hysteresis.Shrinking ->
      Policy.Split (Policy.Spec_seq c)
    | None ->
      (* Outside the shrinking state an overflowing compact leaf walks
         back down the capacity progression, so write-hot regions
         decompact even without searches (mirrors the expansion split
         rule of §4). *)
      Policy.Split (below t c))
  | (Policy.Spec_sub _ | Policy.Spec_pre | Policy.Spec_str _ | Policy.Spec_bw)
    as spec ->
    Policy.Split spec

let on_underflow t view ~current ~count:_ =
  update t view;
  match current with
  | Policy.Spec_std | Policy.Spec_sub _ | Policy.Spec_pre | Policy.Spec_str _
  | Policy.Spec_bw ->
    Policy.Rebalance
  | Policy.Spec_seq c ->
    let spec = below t c in
    Metrics.incr c_conversions;
    Trace.emit ev_convert (traced_capacity spec) c;
    Policy.Replace spec

let on_search_compact t view ~current =
  update t view;
  match current with
  | Policy.Spec_seq c when Hysteresis.search_splits t.state t.rng ->
    let spec = below t c in
    Metrics.incr c_search_splits;
    Trace.emit ev_search_split (traced_capacity spec) c;
    Some spec
  | _ -> None

let on_merge t view ~total ~left ~right =
  update t view;
  ignore left;
  ignore right;
  (* Piggyback on merges: while shrinking, merges produce compact leaves;
     otherwise the merged leaf reverts to standard whenever it fits, so
     removes drive expansion (§4).  A merge too large for a standard leaf
     must stay compact regardless of state. *)
  let shrinking = Hysteresis.state_equal t.state Hysteresis.Shrinking in
  if shrinking || total > t.std_capacity then begin
    let rec fit (c : int) =
      match Hysteresis.double ~max_capacity:t.max_capacity c with
      | Some d when c < total -> fit d
      | Some _ | None -> c
    in
    Policy.Spec_seq (fit t.initial)
  end
  else Policy.Spec_std

let underflow_at _t spec ~std_capacity ~count =
  match spec with
  | Policy.Spec_std | Policy.Spec_sub _ | Policy.Spec_pre | Policy.Spec_bw ->
    count < std_capacity / 2
  | Policy.Spec_str c -> count < c / 2
  | Policy.Spec_seq capacity -> Hysteresis.underflows ~capacity ~count

let policy t =
  {
    Policy.initial = Policy.Spec_std;
    seq_levels = Hysteresis.seq_levels;
    seq_breathing = Hysteresis.breathing;
    on_overflow = (fun view ~current -> on_overflow t view ~current);
    on_underflow = (fun view ~current ~count -> on_underflow t view ~current ~count);
    on_search_compact = (fun view ~current -> on_search_compact t view ~current);
    on_merge = (fun view ~total ~left ~right -> on_merge t view ~total ~left ~right);
    underflow_at = (fun spec ~std_capacity ~count -> underflow_at t spec ~std_capacity ~count);
  }
