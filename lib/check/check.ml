(* Deep invariant sanitizer (ei_check).

   Every validator recomputes a structural property from scratch and
   compares it against the structure's O(1) bookkeeping, so silent
   corruption — a leaf out of its separator bounds, a stale BlindiTree
   slot, a drifting byte tracker — surfaces as a [finding] instead of a
   wrong query answer three workloads later.

   Validators never mutate the structure they inspect: they run on the
   introspection snapshots the index libraries expose (B+-tree
   {!Ei_btree.Btree.introspect}, SeqTree slot accessors, skip-list
   fold_towers/fold_level) and on the read-only fold/iter surfaces.  In
   particular [run] never calls [find], because an elastic find in the
   expanding state may split a compact leaf.

   The paper's compact-leaf occupancy rule (capacity 2k holds >= k+1
   keys, §4) applies to elastic trees only — a fixed-policy SeqTree
   leaf half-splits by design — and they enforce it lazily:
   expansion-state search splits and shrink-state merges legitimately
   leave leaves below threshold until the next structure-modification
   event.  So that validator reports [Advisory] findings by default and
   only hard [Error]s under [~strict].  Everything else checked here is
   a hard invariant. *)

module Key = Ei_util.Key
module Invariant = Ei_util.Invariant
module Memmodel = Ei_storage.Memmodel
module Seqtree = Ei_blindi.Seqtree
module Std_leaf = Ei_btree.Std_leaf
module Btree = Ei_btree.Btree
module Leaf = Ei_btree.Leaf
module Policy = Ei_btree.Policy
module Hysteresis = Ei_btree.Hysteresis
module Elastic_btree = Ei_core.Elastic_btree
module Elasticity = Ei_core.Elasticity
module Elastic_skiplist = Ei_core.Elastic_skiplist
module Skiplist = Ei_baselines.Skiplist
module Radix = Ei_baselines.Radix
module Hybrid = Ei_baselines.Hybrid
module Btree_olc = Ei_olc.Btree_olc
module Index_ops = Ei_harness.Index_ops

type severity = Error | Advisory

type finding = { validator : string; severity : severity; detail : string }

type report = { index : string; ops_seen : int; findings : finding list }

let is_error f = match f.severity with Error -> true | Advisory -> false
let errors r = List.filter is_error r.findings
let ok r = match errors r with [] -> true | _ :: _ -> false

let pp_finding ppf f =
  Format.fprintf ppf "[%s] %s: %s"
    (match f.severity with Error -> "error" | Advisory -> "advisory")
    f.validator f.detail

let pp_report ppf r =
  match r.findings with
  | [] -> Format.fprintf ppf "%s: ok" r.index
  | fs ->
    Format.fprintf ppf "@[<v>%s: %d finding(s)%t@,%a@]" r.index (List.length fs)
      (fun ppf ->
        if r.ops_seen > 0 then Format.fprintf ppf " after %d ops" r.ops_seen)
      (Format.pp_print_list pp_finding)
      fs

(* ------------------------------------------------------------------ *)
(* Finding accumulation.                                               *)

type ctx = { mutable rev_findings : finding list }

let new_ctx () = { rev_findings = [] }
let findings ctx = List.rev ctx.rev_findings

let emit ctx validator severity fmt =
  Printf.ksprintf
    (fun detail ->
      ctx.rev_findings <- { validator; severity; detail } :: ctx.rev_findings)
    fmt

let fail ctx validator fmt = emit ctx validator Error fmt

(* Run an assert-based checker, converting aborts into findings. *)
let guard ctx validator f =
  try f () with
  | Assert_failure (file, line, _) ->
    fail ctx validator "assertion failed at %s:%d" file line
  | Invariant.Broken msg -> fail ctx validator "%s" msg

(* Short printable preview of a (binary) key for diagnostics. *)
let key_preview k =
  let n = min 8 (String.length k) in
  let b = Buffer.create (2 * n) in
  for i = 0 to n - 1 do
    Buffer.add_string b (Printf.sprintf "%02x" (Char.code k.[i]))
  done;
  if String.length k > n then Buffer.add_string b "..";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* SeqTree: BlindiBits / BlindiTree / breathing (§5).                  *)

(* The node is one image of exactly the length its layout prices. *)
let check_seqtree_image ctx ~what (seg : Seqtree.t) =
  let image = Bytes.length (seg :> Bytes.t) in
  let expect =
    Memmodel.seqtree_image_bytes ~capacity:(Seqtree.capacity seg)
      ~key_len:(Seqtree.key_len seg) ~levels:(Seqtree.levels seg)
      ~tid_slots:(Seqtree.tid_slots seg)
  in
  if image <> expect then
    fail ctx "seqtree" "%s: image holds %d bytes, its layout %d" what image
      expect

let check_seqtree_ctx ctx ~what ~load (seg : Seqtree.t) =
  let v = "seqtree" in
  let n = Seqtree.count seg in
  let cap = Seqtree.capacity seg in
  if n < 0 || n > cap then
    fail ctx v "%s: count %d outside [0, capacity %d]" what n cap;
  (* Breathing rule (§5.4): the tuple-id array holds occupancy plus
     slack, never exceeding capacity; without breathing it is fully
     allocated up front. *)
  let slots = Seqtree.tid_slots seg in
  let breathing = Seqtree.breathing seg in
  if breathing = 0 then begin
    if slots <> cap then
      fail ctx v "%s: breathing off but %d/%d tid slots allocated" what slots
        cap
  end
  else if slots < min cap (max 1 n) || slots > cap then
    fail ctx v "%s: %d tid slots for %d keys (capacity %d, slack %d)" what
      slots n cap breathing;
  check_seqtree_image ctx ~what seg;
  if n = 0 then ()
  else begin
    let keys = Array.init n (fun i -> load (Seqtree.tid_at seg i)) in
    (* Key order, and BlindiBits entry i = first differing bit between
       adjacent keys — the defining property of the representation. *)
    for i = 0 to n - 2 do
      if Key.compare keys.(i) keys.(i + 1) >= 0 then
        fail ctx v "%s: keys %d (%s) and %d (%s) out of order" what i
          (key_preview keys.(i))
          (i + 1)
          (key_preview keys.(i + 1))
      else begin
        let expect =
          match Key.first_diff_bit keys.(i) keys.(i + 1) with
          | Some d -> d
          | None -> -1 (* unreachable given the order check above *)
        in
        let got = Seqtree.bit_at seg i in
        if got <> expect then
          fail ctx v "%s: BlindiBits[%d] = %d, but keys differ first at bit %d"
            what i got expect
      end
    done;
    (* BlindiTree: slot p covers an in-order BlindiBits range; a live
       slot must hold an in-range index whose bit value is minimal over
       the range (the trie-root property the descent relies on), and its
       children split the range around it.  Slots over empty ranges hold
       the absent marker. *)
    let size = Seqtree.tree_slot_count seg in
    let bit i = Seqtree.bit_at seg i in
    let rec walk p lo hi =
      if p < size then begin
        let m = Seqtree.tree_slot seg p in
        if lo > hi then begin
          if m <> Seqtree.absent_slot then
            fail ctx v "%s: BlindiTree[%d] = %d but its range is empty" what p
              m
        end
        else if m = Seqtree.absent_slot then
          fail ctx v "%s: BlindiTree[%d] absent over range [%d, %d]" what p lo
            hi
        else if m < lo || m > hi then
          fail ctx v "%s: BlindiTree[%d] = %d outside range [%d, %d]" what p m
            lo hi
        else begin
          let minv = ref (bit lo) in
          for i = lo + 1 to hi do
            if bit i < !minv then minv := bit i
          done;
          if bit m <> !minv then
            fail ctx v
              "%s: BlindiTree[%d] -> bit %d, but range [%d, %d] minimum is %d"
              what (bit m) m lo hi !minv;
          walk ((2 * p) + 1) lo (m - 1);
          walk ((2 * p) + 2) (m + 1) hi
        end
      end
    in
    if n >= 2 then walk 0 0 (n - 2)
    else
      for p = 0 to size - 1 do
        if Seqtree.tree_slot seg p <> Seqtree.absent_slot then
          fail ctx v "%s: BlindiTree[%d] live with %d key(s)" what p n
      done
  end

(* A standard leaf is one image of exactly the length its layout
   prices. *)
let check_std_image ctx ~what (l : Std_leaf.t) =
  let image = Bytes.length (l :> Bytes.t) in
  let expect =
    Memmodel.std_leaf_image_bytes ~capacity:(Std_leaf.capacity l)
      ~key_len:(Std_leaf.key_len l)
  in
  if image <> expect then
    fail ctx "std-leaf" "%s: image holds %d bytes, its layout %d" what image
      expect

(* ------------------------------------------------------------------ *)
(* B+-tree (any policy).                                               *)

let check_btree_ctx ctx (tree : Btree.t) =
  let v = "btree" in
  let it = Btree.introspect tree in
  let nleaves = Array.length it.Btree.leaves in
  (* Depth uniformity. *)
  if nleaves > 0 then begin
    let d0 = it.Btree.leaf_depths.(0) in
    Array.iteri
      (fun i d ->
        if d <> d0 then
          fail ctx v "leaf %d at depth %d, leaf 0 at depth %d" i d d0)
      it.Btree.leaf_depths
  end;
  (* The [next] chain from the leftmost leaf visits exactly the in-order
     leaves. *)
  if Array.length it.Btree.chain <> nleaves then
    fail ctx v "leaf chain has %d leaves, tree walk found %d"
      (Array.length it.Btree.chain)
      nleaves
  else
    Array.iteri
      (fun i leaf ->
        if not (leaf == it.Btree.chain.(i)) then
          fail ctx v "leaf chain diverges from in-order walk at position %d" i)
      it.Btree.leaves;
  (* Inner nodes: fanout bounds and separator order. *)
  let inner_min = it.Btree.inner_capacity / 2 in
  Array.iteri
    (fun i n ->
      if n < 1 || n > it.Btree.inner_capacity then
        fail ctx v "inner %d: fanout %d outside [1, %d]" i n
          it.Btree.inner_capacity
      else if (not it.Btree.inner_is_root.(i)) && n < inner_min then
        fail ctx v "inner %d: non-root fanout %d below minimum %d" i n
          inner_min)
    it.Btree.inner_fanouts;
  Array.iteri
    (fun i seps ->
      Array.iteri
        (fun j s ->
          if String.length s <> it.Btree.key_len then
            fail ctx v "inner %d: separator %d has length %d, key_len %d" i j
              (String.length s) it.Btree.key_len;
          if j > 0 && Key.compare seps.(j - 1) s >= 0 then
            fail ctx v "inner %d: separators %d and %d out of order" i (j - 1)
              j)
        seps)
    it.Btree.inner_seps;
  (* Leaves: representation-internal invariants, separator bounds, key
     order across the whole tree. *)
  let load = it.Btree.load in
  let prev = ref None in
  let item_sum = ref 0 and compact_sum = ref 0 and leaf_bytes = ref 0 in
  Array.iteri
    (fun i leaf ->
      guard ctx v (fun () -> Leaf.check_invariants leaf ~load);
      let count = Leaf.count leaf in
      item_sum := !item_sum + count;
      if Leaf.is_compact leaf then incr compact_sum;
      leaf_bytes := !leaf_bytes + Leaf.memory_bytes leaf;
      if count < 1 && nleaves > 1 then fail ctx v "leaf %d empty" i;
      let lo, hi = it.Btree.leaf_bounds.(i) in
      Leaf.fold_from leaf ~load 0
        (fun () k _ ->
          (match lo with
          | Some l when Key.compare l k > 0 ->
            fail ctx v "leaf %d: key %s below separator bound" i
              (key_preview k)
          | Some _ | None -> ());
          (match hi with
          | Some h when Key.compare k h >= 0 ->
            fail ctx v "leaf %d: key %s at or above separator bound" i
              (key_preview k)
          | Some _ | None -> ());
          (match !prev with
          | Some p when Key.compare p k >= 0 ->
            fail ctx v "leaf %d: key %s breaks global order" i (key_preview k)
          | Some _ | None -> ());
          prev := Some k)
        ();
      match leaf.Leaf.repr with
      | Leaf.Seq seg ->
        check_seqtree_ctx ctx ~what:(Printf.sprintf "leaf %d" i) ~load seg
      | Leaf.Std l -> check_std_image ctx ~what:(Printf.sprintf "leaf %d" i) l
      | Leaf.Sub _ | Leaf.Pre _ | Leaf.Str _ | Leaf.Bw _ -> ())
    it.Btree.leaves;
  (* O(1) counters vs recomputation. *)
  if !item_sum <> it.Btree.items then
    fail ctx "counters" "item counter %d, leaves hold %d" it.Btree.items
      !item_sum;
  if !compact_sum <> it.Btree.compact_count then
    fail ctx "counters" "compact-leaf counter %d, found %d"
      it.Btree.compact_count !compact_sum;
  let inner_total =
    Array.length it.Btree.inner_fanouts * it.Btree.inner_node_bytes
  in
  if !leaf_bytes + inner_total <> it.Btree.tracked_bytes then
    fail ctx "tracker" "tracked %d bytes, recomputed %d (+%d inner)"
      it.Btree.tracked_bytes
      (!leaf_bytes + inner_total)
      inner_total

(* ------------------------------------------------------------------ *)
(* Elastic B+-tree: everything above, plus elasticity legality and     *)
(* compact occupancy (§4).                                             *)

(* A compact capacity [c] over standard capacity [std] must lie on §4's
   progression ({!Hysteresis.legal_capacity}). *)
let check_capacity ctx v ~what ~std c =
  if not (Hysteresis.legal_capacity ~std c) then begin
    let initial, max_capacity = Hysteresis.lift ~std in
    fail ctx v "%s: compact capacity %d unreachable from %d (std %d, max %d)"
      what c initial std max_capacity
  end

(* The occupancy rule is the elastic tree's alone: a fixed-policy
   SeqTree leaf half-splits by design, as STX's leaves do.  It is
   advisory unless [strict] (see the header comment). *)
let check_elastic_ctx ?(strict = false) ctx (tree : Elastic_btree.t) =
  check_btree_ctx ctx (Elastic_btree.tree tree);
  let std = Elastic_btree.std_capacity tree in
  ignore
    (Btree.fold_leaves (Elastic_btree.tree tree)
       (fun i spec count ->
         (match spec with
         | Policy.Spec_seq c ->
           check_capacity ctx "elasticity" ~what:(Printf.sprintf "leaf %d" i)
             ~std c;
           if Hysteresis.underflows ~capacity:c ~count then
             emit ctx "occupancy"
               (if strict then Error else Advisory)
               "leaf %d: compact capacity %d holds %d keys (< %d)" i c count
               (Hysteresis.min_count c)
         | Policy.Spec_std -> ()
         | Policy.Spec_sub _ | Policy.Spec_pre | Policy.Spec_str _
         | Policy.Spec_bw ->
           fail ctx "elasticity" "leaf %d: foreign representation %s" i
             (Format.asprintf "%a" Policy.pp_spec spec));
         i + 1)
       0)

(* ------------------------------------------------------------------ *)
(* Skip list: tower heights and per-level chains.                      *)

let check_skiplist_ctx ctx (sl : Skiplist.t) =
  let v = "skiplist" in
  guard ctx v (fun () -> Skiplist.check_invariants sl);
  let towers =
    List.rev
      (Skiplist.fold_towers sl (fun acc k _tid h -> (k, h) :: acc) [])
  in
  let rec order = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if Key.compare a b >= 0 then
        fail ctx v "keys %s and %s out of order" (key_preview a)
          (key_preview b);
      order rest
    | [ _ ] | [] -> ()
  in
  order towers;
  let max_h = List.fold_left (fun m (_, h) -> max m h) 0 towers in
  List.iter
    (fun (k, h) ->
      if h < 1 || h > Skiplist.max_level then
        fail ctx v "key %s: tower height %d outside [1, %d]" (key_preview k) h
          Skiplist.max_level)
    towers;
  (* The list level tracks the tallest live tower exactly: inserts raise
     it and removes shrink it while the top level is empty. *)
  let expected_level = max 1 max_h in
  if Skiplist.level sl <> expected_level then
    fail ctx v "list level %d, tallest tower %d" (Skiplist.level sl)
      expected_level;
  (* Level l links exactly the towers taller than l, in key order. *)
  for l = 0 to Skiplist.level sl - 1 do
    let chain =
      List.rev (Skiplist.fold_level sl l (fun acc k h -> (k, h) :: acc) [])
    in
    let expect = List.filter (fun (_, h) -> h > l) towers in
    if List.length chain <> List.length expect then
      fail ctx v "level %d links %d nodes, %d towers reach it" l
        (List.length chain) (List.length expect)
    else
      List.iter2
        (fun (ck, _) (ek, _) ->
          if not (String.equal ck ek) then
            fail ctx v "level %d: chain node %s is not tower %s" l
              (key_preview ck) (key_preview ek))
        chain expect
  done;
  (* Tracked node bytes vs per-tower recomputation. *)
  let bytes =
    List.fold_left
      (fun a (_, h) ->
        a
        + Memmodel.skiplist_node_bytes ~key_len:(Skiplist.key_len sl)
            ~height:h)
      0 towers
  in
  if bytes <> Skiplist.memory_bytes sl then
    fail ctx "tracker" "tracked %d bytes, recomputed %d"
      (Skiplist.memory_bytes sl) bytes

(* ------------------------------------------------------------------ *)
(* Elastic skip list: segments are SeqTrees with legal capacities.     *)

let check_elastic_skiplist_ctx ctx (esl : Elastic_skiplist.t) =
  let v = "elastic-skiplist" in
  guard ctx v (fun () -> Elastic_skiplist.check_invariants esl);
  let load = Elastic_skiplist.load esl in
  let seg_i = ref 0 in
  ignore
    (Elastic_skiplist.fold_payloads esl
       (fun (prev : string option) payload ->
         let first, last =
           match payload with
           | `Single (k, _) -> (k, k)
           | `Segment seg ->
             let what = Printf.sprintf "segment %d" !seg_i in
             incr seg_i;
             check_seqtree_ctx ctx ~what ~load seg;
             check_capacity ctx v ~what ~std:Elastic_skiplist.std_capacity
               (Seqtree.capacity seg);
             let n = Seqtree.count seg in
             if n = 0 then fail ctx v "%s: empty segment" what;
             ( load (Seqtree.tid_at seg 0),
               load (Seqtree.tid_at seg (max 0 (n - 1))) )
         in
         (match prev with
         | Some p when Key.compare p first >= 0 ->
           fail ctx v "payload starting at %s breaks key order"
             (key_preview first)
         | Some _ | None -> ());
         Some last)
       None)

(* ------------------------------------------------------------------ *)
(* BTreeOLC: structure, and for the elastic variant the shared atomic   *)
(* accounting vs a recomputed walk.  Single-threaded, like every other  *)
(* validator: quiesce the domains first.                                *)

let check_olc_ctx ?(strict = false) ctx (tree : Btree_olc.t) =
  let v = "olc" in
  guard ctx v (fun () -> Btree_olc.check_invariants tree);
  let elastic = Option.is_some (Btree_olc.elastic_state tree) in
  let _, compact_sum =
    Btree_olc.fold_leaves tree
      (fun (i, compacts) ~compact ~capacity ~count ~bytes:_ ->
        if elastic && compact then begin
          let what = Printf.sprintf "leaf %d" i in
          check_capacity ctx "elasticity" ~what
            ~std:(Btree_olc.leaf_capacity tree) capacity;
          if Hysteresis.underflows ~capacity ~count then
            emit ctx "occupancy"
              (if strict then Error else Advisory)
              "compact capacity %d holds %d keys (< %d)" capacity count
              (Hysteresis.min_count capacity)
        end;
        (i + 1, compacts + if compact then 1 else 0))
      (0, 0)
  in
  (* Every leaf payload is one tagged image of its layout's length. *)
  ignore
    (Btree_olc.fold_images tree
       (fun i img ->
         let what = Printf.sprintf "leaf %d" i in
         if Seqtree.is_image img then
           check_seqtree_image ctx ~what (Seqtree.of_image img)
         else if Std_leaf.is_image img then
           check_std_image ctx ~what (Std_leaf.of_image img)
         else fail ctx v "%s: payload carries no leaf kind tag" what;
         i + 1)
       0);
  (* The atomic tracker mirrors the full memory model (leaves plus inner
     nodes accounted at splits) and must equal a fresh walk, whatever
     the leaf kind. *)
  let tracked = Btree_olc.tracked_memory_bytes tree in
  let walked = Btree_olc.memory_bytes tree in
  if tracked <> walked then
    fail ctx "tracker" "tracked %d bytes, recomputed %d" tracked walked;
  if elastic then begin
    let tracked_compact = Btree_olc.elastic_compact_leaves tree in
    if tracked_compact <> compact_sum then
      fail ctx "counters" "compact-leaf counter %d, found %d" tracked_compact
        compact_sum
  end

(* ------------------------------------------------------------------ *)
(* Closure-level checks (any backend) and dispatch.                    *)

let check_generic_ctx ctx (ix : Index_ops.t) =
  let v = "generic" in
  let count = ix.Index_ops.count () in
  if count < 0 then fail ctx v "negative count %d" count;
  if ix.Index_ops.memory_bytes () < 0 then
    fail ctx v "negative memory_bytes %d" (ix.Index_ops.memory_bytes ());
  (* A full scan visits exactly [count] keys in strictly ascending
     order.  (Read-only: scans never trigger elastic conversions.)  The
     scan starts from the minimal well-formed key: compact leaves probe
     the start key bit-by-bit and reject lengths other than [key_len]. *)
  let zero_key = String.make ix.Index_ops.key_len '\000' in
  let seen = ref 0 and prev = ref None in
  guard ctx v (fun () ->
      let visited =
        ix.Index_ops.scan_keys zero_key (count + 1) (fun k _ ->
            incr seen;
            (match !prev with
            | Some p when Key.compare p k >= 0 ->
              fail ctx v "scan out of order at key %s" (key_preview k)
            | Some _ | None -> ());
            prev := Some k)
      in
      if visited <> count || !seen <> count then
        fail ctx v "count %d but full scan visited %d" count visited)

let rec check_backend_ctx ?strict ctx (ix : Index_ops.t) =
  match ix.Index_ops.backend with
  | Index_ops.B_btree t -> check_btree_ctx ctx t
  | Index_ops.B_elastic t -> check_elastic_ctx ?strict ctx t
  | Index_ops.B_skiplist t -> check_skiplist_ctx ctx t
  | Index_ops.B_elastic_skiplist t -> check_elastic_skiplist_ctx ctx t
  | Index_ops.B_radix t ->
    guard ctx "radix" (fun () -> Radix.check_invariants t)
  | Index_ops.B_hybrid t ->
    guard ctx "hybrid" (fun () -> Hybrid.check_invariants t)
  | Index_ops.B_olc t -> check_olc_ctx ?strict ctx t
  | Index_ops.B_composite parts ->
    (* A router: deep-validate every part, then reconcile the router's
       aggregate bookkeeping against the sum of its parts. *)
    Array.iter
      (fun part ->
        check_generic_ctx ctx part;
        check_backend_ctx ?strict ctx part)
      parts;
    let total_count =
      Array.fold_left (fun a p -> a + p.Index_ops.count ()) 0 parts
    in
    if total_count <> ix.Index_ops.count () then
      fail ctx "composite" "router count %d, parts sum to %d"
        (ix.Index_ops.count ()) total_count;
    let total_bytes =
      Array.fold_left (fun a p -> a + p.Index_ops.memory_bytes ()) 0 parts
    in
    if total_bytes <> ix.Index_ops.memory_bytes () then
      fail ctx "composite" "router %d bytes, parts sum to %d"
        (ix.Index_ops.memory_bytes ())
        total_bytes

let run ?strict (ix : Index_ops.t) =
  let ctx = new_ctx () in
  check_generic_ctx ctx ix;
  check_backend_ctx ?strict ctx ix;
  { index = ix.Index_ops.name; ops_seen = 0; findings = findings ctx }

(* Structure-specific entry points. *)

let in_ctx f =
  let ctx = new_ctx () in
  f ctx;
  findings ctx

let check_seqtree ~load seg =
  in_ctx (fun ctx -> check_seqtree_ctx ctx ~what:"seqtree" ~load seg)
let check_olc ?strict tree = in_ctx (fun ctx -> check_olc_ctx ?strict ctx tree)

(* ------------------------------------------------------------------ *)
(* Property-test hook: sanitize every N mutating operations.           *)

let wrap ?strict ~every ~on_report (ix : Index_ops.t) =
  assert (every > 0);
  let ops = ref 0 in
  let tick () =
    incr ops;
    if !ops mod every = 0 then
      on_report { (run ?strict ix) with ops_seen = !ops }
  in
  let after f x y =
    let r = f x y in
    tick ();
    r
  in
  let after1 f x =
    let r = f x in
    tick ();
    r
  in
  {
    ix with
    Index_ops.insert = after ix.Index_ops.insert;
    update = after ix.Index_ops.update;
    remove = after1 ix.Index_ops.remove;
  }
