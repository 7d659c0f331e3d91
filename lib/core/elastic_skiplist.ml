(* Elastic skip list: the elastic index framework (§3) applied to a
   second base index, demonstrating that the design is not specific to
   B+-trees.

   A standard skip list stores one key per node (internal key storage).
   Under memory pressure the elastic skip list converts *runs* of
   consecutive singleton nodes into a single segment node whose payload
   is a SeqTree — the same compact, indirect-key representation the
   elastic B+-tree uses — indexed by one tower instead of ~2n towers.
   When pressure subsides, underflowing segments dissolve back into
   singletons, and in the expanding state a search that lands in a
   segment may randomly dissolve it (mirroring §4's expansion rule).

   Node payloads:
   - [Single (key, tid)]: a classic skip-list entry, key stored inline;
   - [Segment seqtree]: 2n..max_capacity keys stored indirectly.

   The skip-list ordering key of a segment node is its minimum key,
   loaded from the table when needed (the indirect-access cost).  The
   same state machine as the elastic B+-tree drives conversions, fed by
   an incrementally tracked memory total under the explicit size model. *)

module Key = Ei_util.Key
module Rng = Ei_util.Rng
module Invariant = Ei_util.Invariant
module Seqtree = Ei_blindi.Seqtree
module Memmodel = Ei_storage.Memmodel
module Hysteresis = Ei_btree.Hysteresis
module Metrics = Ei_obs.Metrics
module Trace = Ei_obs.Trace

let max_level = 24

(* --- Observability (shared across instances) -------------------------- *)

let c_transitions = Metrics.counter "skiplist.transitions"
let c_conversions = Metrics.counter "skiplist.conversions"

let ev_state =
  Trace.define ~cat:"elastic" ~arg0:"state" ~arg1:"bytes" "skiplist.state"

(* Serial structure: a list and its nodes are owned by one domain at a
   time ({!Ei_shard.Serve} gives each part its own domain and queue). *)
type payload =
  | Single of { key : string; mutable tid : int }
  | Segment of Seqtree.t
[@@ei.single_domain]

type node = {
  mutable payload : payload;
  forward : node option array;
}
[@@ei.single_domain]

(* The standard capacity the segment progression sits on: singletons
   hold one key, but a fresh segment is §4's 2n over n = 16, so halving
   stops there ({!Hysteresis.lift} gives capacities 32..128). *)
let std_capacity = 16

(* The tower-height and search-split stream's seed. *)
let seed = 0xe1a5

type t = {
  key_len : int;
  mutable size_bound : int;
  (* mutable so a coordinator can retune it on a live list *)
  load : int -> string;
  rng : Rng.t;
  head : node;
  mutable level : int;
  mutable items : int;
  mutable bytes : int;
  mutable segments : int;
  mutable state : Hysteresis.state;
}
[@@ei.single_domain]

let create ~key_len ~load ~size_bound () =
  assert (size_bound > 0);
  {
    key_len;
    size_bound;
    load;
    rng = Rng.create seed;
    head =
      {
        payload = Single { key = ""; tid = -1 };
        forward = Array.make max_level None;
      };
    level = 1;
    items = 0;
    bytes = 0;
    segments = 0;
    state = Hysteresis.Normal;
  }

let count t = t.items

let key_len (t : t) = t.key_len
let memory_bytes t = t.bytes
let segments t = t.segments
let state t = t.state

let set_size_bound t bound =
  assert (bound > 0);
  t.size_bound <- bound
let load t = t.load

(* Walk the level-0 payloads in key order (sanitizer support). *)
let fold_payloads t f acc =
  let rec go acc = function
    | Some node ->
      let acc =
        match node.payload with
        | Single s -> f acc (`Single (s.key, s.tid))
        | Segment seg -> f acc (`Segment seg)
      in
      go acc node.forward.(0)
    | None -> acc
  in
  go acc t.head.forward.(0)

(* --- sizing ---------------------------------------------------------- *)

let node_bytes t node =
  let height = Array.length node.forward in
  match node.payload with
  | Single _ -> Memmodel.skiplist_node_bytes ~key_len:t.key_len ~height
  | Segment seg ->
    (* Tower pointers plus the compact payload. *)
    Memmodel.node_header + (height * Memmodel.word) + Seqtree.memory_bytes seg

let track_add t node = t.bytes <- t.bytes + node_bytes t node

let track_sub t node =
  t.bytes <- t.bytes - node_bytes t node;
  assert (t.bytes >= 0)

(* --- state machine ---------------------------------------------------- *)

let update_state t =
  let s =
    Hysteresis.step t.state ~bound:t.size_bound ~bytes:t.bytes
      ~compact:t.segments
  in
  if not (Hysteresis.state_equal t.state s) then begin
    t.state <- s;
    Metrics.incr c_transitions;
    Trace.emit ev_state (Hysteresis.code s) t.bytes
  end

(* --- ordering ---------------------------------------------------------- *)

(* Skip-list ordering key of a node: a singleton's inline key, or a
   segment's minimum key loaded from the table. *)
let min_key t node =
  match node.payload with
  | Single s -> s.key
  | Segment seg -> t.load (Seqtree.tid_at seg 0)

(* --- search ------------------------------------------------------------- *)

(* Fill [update] with, per level, the last node whose min-key is
   strictly below [key] (the classic skip-list search).  The entries
   strictly precede any node whose min-key is >= [key], so they are
   valid unlink predecessors for such a node. *)
let find_predecessors t key update =
  let x = ref t.head in
  for i = t.level - 1 downto 0 do
    let rec strict () =
      match !x.forward.(i) with
      | Some nxt when Key.compare (min_key t nxt) key < 0 ->
        x := nxt;
        strict ()
      | Some _ | None -> ()
    in
    strict ();
    update.(i) <- !x
  done;
  !x

(* Where [key] lives relative to the list:
   - [`At node]: a node whose min-key equals [key] (exact singleton, or
     a segment whose minimum is [key]);
   - [`In_segment node]: the strict level-0 predecessor is a segment, so
     [key] falls inside its range;
   - [`Gap]: between singletons (or at the very front). *)
let locate t key update =
  let pred = find_predecessors t key update in
  match pred.forward.(0) with
  | Some nxt when Key.equal (min_key t nxt) key -> `At nxt
  | Some _ | None ->
    if pred == t.head then `Gap
    else begin
      match pred.payload with
      | Segment _ -> `In_segment pred
      | Single _ -> `Gap
    end

let rec find t key =
  assert (String.length key = t.key_len);
  let update = Array.make max_level t.head in
  let target =
    match locate t key update with
    | `At node -> Some node
    | `In_segment node -> Some node
    | `Gap -> None
  in
  let result =
    match target with
    | None -> None
    | Some node -> (
      match node.payload with
      | Single s -> if Key.equal s.key key then Some s.tid else None
      | Segment seg -> Seqtree.find seg ~load:t.load key)
  in
  (* Expansion: a search that lands in a segment may dissolve it. *)
  (match target with
  | Some ({ payload = Segment _; _ } as node)
    when Hysteresis.search_splits t.state t.rng ->
    dissolve t node
  | Some _ | None -> ());
  result

(* --- structural edits ---------------------------------------------------- *)

(* Unlink [node], whose per-level predecessors are in [update]. *)
and unlink t update node =
  let h = Array.length node.forward in
  for i = 0 to h - 1 do
    match update.(i).forward.(i) with
    | Some n when n == node -> update.(i).forward.(i) <- node.forward.(i)
    | Some _ | None -> ()
  done;
  while t.level > 1 && Option.is_none t.head.forward.(t.level - 1) do
    t.level <- t.level - 1
  done;
  track_sub t node

(* Link a fresh node after the predecessors in [update]. *)
and link t update node =
  let h = Array.length node.forward in
  if h > t.level then begin
    for i = t.level to h - 1 do
      update.(i) <- t.head
    done;
    t.level <- h
  end;
  for i = 0 to h - 1 do
    node.forward.(i) <- update.(i).forward.(i);
    update.(i).forward.(i) <- Some node
  done;
  track_add t node

and random_height t =
  let rec go h = if h < max_level && Rng.bool t.rng then go (h + 1) else h in
  go 1

(* Dissolve a segment node back into singleton nodes (expansion).  The
   unlink predecessors are recomputed from the segment's minimum key. *)
and dissolve t node =
  match node.payload with
  | Single _ -> ()
  | Segment seg ->
    Metrics.incr c_conversions;
    let update = Array.make max_level t.head in
    ignore (find_predecessors t (min_key t node) update);
    unlink t update node;
    t.segments <- t.segments - 1;
    let n = Seqtree.count seg in
    (* Insert singletons back, highest key first so each link lands just
       after the recorded predecessors. *)
    for i = n - 1 downto 0 do
      let tid = Seqtree.tid_at seg i in
      let key = t.load tid in
      let s =
        {
          payload = Single { key; tid };
          forward = Array.make (random_height t) None;
        }
      in
      link t update s
    done;
    update_state t

(* Collect up to [limit] consecutive singleton nodes starting at [node]
   (inclusive); returns them in order. *)
let rec collect_singles node limit acc =
  if limit = 0 then List.rev acc
  else
    match node with
    | Some ({ payload = Single _; _ } as n) ->
      collect_singles n.forward.(0) (limit - 1) (n :: acc)
    | Some { payload = Segment _; _ } | None -> List.rev acc

(* Convert a run of singletons beginning at the successor chain of the
   insertion point into one compact segment (shrinking state).  The
   predecessors in [update] must precede the first node of the run. *)
let compact_run t update first =
  let capacity, _ = Hysteresis.lift ~std:std_capacity in
  let run = collect_singles (Some first) capacity [] in
  let n = List.length run in
  if n >= capacity / 2 then begin
    Metrics.incr c_conversions;
    let keys = Array.make n "" and tids = Array.make n 0 in
    List.iteri
      (fun i node ->
        match node.payload with
        | Single s ->
          keys.(i) <- s.key;
          tids.(i) <- s.tid
        | Segment _ ->
          Invariant.impossible "Elastic_skiplist: segment inside singleton run")
      run;
    (* Unlink the run back-to-front so [update] stays valid for each. *)
    List.iter (fun node -> unlink t update node) run;
    let seg =
      Seqtree.of_sorted ~key_len:t.key_len ~capacity ~levels:Hysteresis.seq_levels
        ~breathing:Hysteresis.breathing keys tids n
    in
    let node =
      { payload = Segment seg; forward = Array.make (random_height t) None }
    in
    link t update node;
    t.segments <- t.segments + 1
  end

(* --- insert ---------------------------------------------------------------- *)

(* Insert [key] into a non-full segment image; returns the image that
   holds it, a larger one when breathing growth (§5.4) was needed. *)
let seg_insert t seg key tid =
  match Seqtree.insert seg ~load:t.load key tid with
  | Seqtree.Inserted -> seg
  | Seqtree.Grown seg -> seg
  | Seqtree.Full | Seqtree.Duplicate ->
    Invariant.impossible "Elastic_skiplist: insert into non-full segment failed"

(* Insert [key] into segment node [node] (in place), growing it while
   shrinking or splitting it otherwise. *)
let insert_into_segment t node key tid =
  match node.payload with
  | Single _ -> Invariant.impossible "Elastic_skiplist.insert_into_segment: singleton node"
  | Segment seg when not (Seqtree.is_full seg) ->
    let before = node_bytes t node in
    node.payload <- Segment (seg_insert t seg key tid);
    t.bytes <- t.bytes + (node_bytes t node - before)
  | Segment seg -> (
    match
      Hysteresis.shrink_to ~std:std_capacity t.state
        (Some (Seqtree.capacity seg))
    with
    | Some capacity ->
      (* Grow the segment instead of splitting: the §4 shrink rule. *)
      let before = node_bytes t node in
      let grown =
        Seqtree.with_capacity seg ~capacity ~levels:Hysteresis.seq_levels
      in
      node.payload <- Segment (seg_insert t grown key tid);
      t.bytes <- t.bytes + (node_bytes t node - before);
      Metrics.incr c_conversions
    | None ->
      (* Split in half; the right half becomes a new node. *)
      let before = node_bytes t node in
      let c = Seqtree.capacity seg in
      let left, right = Seqtree.split seg ~left_capacity:c ~right_capacity:c in
      let right_first = t.load (Seqtree.tid_at right 0) in
      let left, right =
        if Key.compare key right_first < 0 then (seg_insert t left key tid, right)
        else (left, seg_insert t right key tid)
      in
      node.payload <- Segment left;
      t.bytes <- t.bytes + (node_bytes t node - before);
      let rnode =
        { payload = Segment right; forward = Array.make (random_height t) None }
      in
      let upd2 = Array.make max_level t.head in
      ignore (find_predecessors t right_first upd2);
      link t upd2 rnode;
      t.segments <- t.segments + 1)

let insert t key tid =
  assert (String.length key = t.key_len);
  update_state t;
  let update = Array.make max_level t.head in
  match locate t key update with
  | `At { payload = Single _; _ } -> false
  | `At ({ payload = Segment _; _ } as node) -> (
    (* key equals the segment minimum: present. *)
    ignore node;
    false)
  | `In_segment node -> (
    match node.payload with
    | Single _ -> Invariant.impossible "Elastic_skiplist: `In_segment points at singleton"
    | Segment seg ->
      if Option.is_some (Seqtree.find seg ~load:t.load key) then false
      else begin
        insert_into_segment t node key tid;
        t.items <- t.items + 1;
        update_state t;
        true
      end)
  | `Gap ->
    let node =
      {
        payload = Single { key; tid };
        forward = Array.make (random_height t) None;
      }
    in
    link t update node;
    (* Shrinking: compact the run of singletons starting at the new node
       (piggybacking on the insert, as §4 piggybacks on splits).  Only
       while the size still exceeds the shrink threshold, so the index
       stabilises just below it instead of over-compacting. *)
    if
      Hysteresis.state_equal t.state Hysteresis.Shrinking
      && t.bytes >= Hysteresis.shrink_at t.size_bound
    then
      compact_run t update node;
    t.items <- t.items + 1;
    update_state t;
    true

(* --- remove ------------------------------------------------------------------ *)

let remove_from_segment t update node key =
  match node.payload with
  | Single _ -> Invariant.impossible "Elastic_skiplist.remove_from_segment: singleton node"
  | Segment seg -> (
    let old_min = min_key t node in
    let before = node_bytes t node in
    match Seqtree.remove seg ~load:t.load key with
    | Seqtree.Not_present -> false
    | Seqtree.Removed ->
      t.items <- t.items - 1;
      t.bytes <- t.bytes + (node_bytes t node - before);
      (* Underflow: shrink the segment, drop it when emptied, or — when
         not shrinking — dissolve it back into singletons (§4's
         expansion-by-removal). *)
      let c = Seqtree.capacity seg in
      let n = Seqtree.count seg in
      if n = 0 then begin
        (* Predecessors of the old minimum still precede the node. *)
        let upd = if Key.equal old_min key then update else Array.make max_level t.head in
        if not (Key.equal old_min key) then
          ignore (find_predecessors t old_min upd);
        unlink t upd node;
        t.segments <- t.segments - 1
      end
      else if Hysteresis.underflows ~capacity:c ~count:n then begin
        (* A fresh segment is the progression's 2n: halving stops there. *)
        match Hysteresis.halve ~floor:std_capacity c with
        | Some capacity ->
          let before = node_bytes t node in
          node.payload <-
            Segment
              (Seqtree.with_capacity seg ~capacity ~levels:Hysteresis.seq_levels);
          t.bytes <- t.bytes + (node_bytes t node - before);
          Metrics.incr c_conversions
        | None ->
          if not (Hysteresis.state_equal t.state Hysteresis.Shrinking) then
            dissolve t node
      end;
      update_state t;
      true)

let remove t key =
  update_state t;
  let update = Array.make max_level t.head in
  match locate t key update with
  | `Gap -> false
  | `At ({ payload = Single s; _ } as node) ->
    assert (Key.equal s.key key);
    unlink t update node;
    t.items <- t.items - 1;
    update_state t;
    true
  | `At ({ payload = Segment _; _ } as node) | `In_segment node ->
    remove_from_segment t update node key

let update_value t key tid =
  let update = Array.make max_level t.head in
  match locate t key update with
  | `Gap -> false
  | `At { payload = Single s; _ } ->
    s.tid <- tid;
    true
  | `At ({ payload = Segment seg; _ }) | `In_segment { payload = Segment seg; _ }
    ->
    Seqtree.update seg ~load:t.load key tid
  | `In_segment { payload = Single _; _ } ->
    Invariant.impossible "Elastic_skiplist: `In_segment points at singleton node"

(* --- iteration ------------------------------------------------------------------ *)

let fold_range t ~start ~n f acc =
  let update = Array.make max_level t.head in
  let pred = find_predecessors t start update in
  let remaining = ref n and acc = ref acc in
  let emit key tid =
    if !remaining > 0 then begin
      acc := f !acc key tid;
      decr remaining
    end
  in
  let emit_node_from node ~from_key =
    match node.payload with
    | Single s ->
      if (not from_key) || Key.compare s.key start >= 0 then emit s.key s.tid
    | Segment seg ->
      let pos =
        if from_key then Seqtree.lower_bound seg ~load:t.load start else 0
      in
      Seqtree.fold_from seg pos
        (fun () tid -> if !remaining > 0 then emit (t.load tid) tid)
        ()
  in
  (* The strict predecessor may be a segment whose tail reaches start. *)
  if pred != t.head then emit_node_from pred ~from_key:true;
  let rec walk = function
    | Some node when !remaining > 0 ->
      emit_node_from node ~from_key:false;
      walk node.forward.(0)
    | Some _ | None -> ()
  in
  walk pred.forward.(0);
  !acc

(* --- invariants ------------------------------------------------------------------ *)

let check_invariants t =
  (* Global order, item count, segment count and tracked bytes. *)
  let items = ref 0 and segs = ref 0 and bytes = ref 0 in
  let prev = ref None in
  let rec walk = function
    | Some node ->
      bytes := !bytes + node_bytes t node;
      (match node.payload with
      | Single s ->
        incr items;
        (match !prev with
        | Some p -> assert (Key.compare p s.key < 0)
        | None -> ());
        prev := Some s.key
      | Segment seg ->
        incr segs;
        Seqtree.check_invariants seg ~load:t.load;
        assert (Seqtree.count seg > 0);
        items := !items + Seqtree.count seg;
        Seqtree.iter
          (fun tid ->
            let k = t.load tid in
            (match !prev with Some p -> assert (Key.compare p k < 0) | None -> ());
            prev := Some k)
          seg);
      walk node.forward.(0)
    | None -> ()
  in
  walk t.head.forward.(0);
  assert (!items = t.items);
  assert (!segs = t.segments);
  assert (!bytes = t.bytes);
  (* Upper chains are subsequences of level 0. *)
  for i = 1 to t.level - 1 do
    let rec chain = function
      | Some node ->
        assert (Array.length node.forward > i);
        chain node.forward.(i)
      | None -> ()
    in
    chain t.head.forward.(i)
  done
