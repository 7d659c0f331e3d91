(* Hybrid index (Zhang et al. [33]): the two-stage architecture §2
   contrasts with elastic indexes.

   Recently inserted data lives in a small *dynamic* stage (an STX-style
   B+-tree); the bulk lives in a *static* stage — a compact, read-only
   sorted array with no per-node overhead.  When the dynamic stage grows
   beyond [merge_ratio] of the static stage, a merge rebuilds the static
   stage entirely from both (the bulk rebuild cost §2 points out).
   Deletes of static entries are tombstones until the next merge;
   updates of static entries shadow them in the dynamic stage.

   §2's two criticisms are observable here: merges rewrite the whole
   static stage (coarse-grained, latency spikes), and efficiency rests
   on the skew assumption that updated entries are the recently inserted
   ones — an update stream against old entries makes the dynamic stage
   balloon with shadows and forces frequent full merges. *)

module Strtbl = Ei_util.Strtbl
module Key = Ei_util.Key
module Btree = Ei_btree.Btree
module Memmodel = Ei_storage.Memmodel

type stats = {
  mutable merges : int;
  mutable merge_work : int;  (* entries rewritten by merges *)
}

type t = {
  key_len : int;
  merge_ratio : float;
  load : int -> string;
  mutable dynamic : Btree.t;
  mutable static_keys : string array;
  mutable static_tids : int array;
  mutable static_n : int;
  tombstones : unit Strtbl.t;
  mutable shadows : int;  (* keys present in both stages (dynamic wins) *)
  stats : stats;
}

let create ?(merge_ratio = 0.1) ~key_len ~load () =
  {
    key_len;
    merge_ratio;
    load;
    dynamic = Btree.create ~key_len ~load ~policy:Ei_btree.Policy.(fixed Spec_std) ();
    static_keys = [||];
    static_tids = [||];
    static_n = 0;
    tombstones = Strtbl.create 64;
    shadows = 0;
    stats = { merges = 0; merge_work = 0 };
  }

let stats t = t.stats

let key_len (t : t) = t.key_len

let count t =
  Btree.count t.dynamic + t.static_n - Strtbl.length t.tombstones - t.shadows

let memory_bytes t =
  Btree.memory_bytes t.dynamic
  + Memmodel.node_header
  + (t.static_n * (t.key_len + Memmodel.word))
  + (Strtbl.length t.tombstones * (t.key_len + Memmodel.word))

(* Binary search in the static stage: position of the first key >= k. *)
let static_lower_bound t key =
  let lo = ref 0 and hi = ref t.static_n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Key.compare t.static_keys.(mid) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let static_find t key =
  let i = static_lower_bound t key in
  if i < t.static_n && Key.equal t.static_keys.(i) key then Some t.static_tids.(i)
  else None

let find t key =
  match Btree.find t.dynamic key with
  | Some tid -> Some tid
  | None ->
    if Strtbl.mem t.tombstones key then None else static_find t key

(* Rebuild the static stage from static minus tombstones plus dynamic.
   This is the full rebuild §2 contrasts with per-node conversion. *)
let merge t =
  t.stats.merges <- t.stats.merges + 1;
  let total = count t in
  let keys = Array.make (max 1 total) "" in
  let tids = Array.make (max 1 total) 0 in
  let out = ref 0 in
  let put k v =
    keys.(!out) <- k;
    tids.(!out) <- v;
    incr out
  in
  (* Merge the two sorted streams; dynamic shadows static. *)
  let si = ref 0 in
  let emit_static_below limit =
    let stop k =
      match limit with None -> false | Some l -> Key.compare k l >= 0
    in
    while
      !si < t.static_n
      && (not (stop t.static_keys.(!si)))
    do
      let k = t.static_keys.(!si) in
      if not (Strtbl.mem t.tombstones k) then put k t.static_tids.(!si);
      incr si
    done
  in
  Btree.iter t.dynamic (fun k v ->
      emit_static_below (Some k);
      (* Skip a shadowed static entry with the same key. *)
      if !si < t.static_n && Key.equal t.static_keys.(!si) k then incr si;
      put k v);
  emit_static_below None;
  assert (!out = total);
  t.static_keys <- Array.sub keys 0 !out;
  t.static_tids <- Array.sub tids 0 !out;
  t.static_n <- !out;
  t.stats.merge_work <- t.stats.merge_work + !out;
  Strtbl.reset t.tombstones;
  t.shadows <- 0;
  (* The dynamic stage starts over. *)
  t.dynamic <-
    Btree.create ~key_len:t.key_len ~load:t.load ~policy:Ei_btree.Policy.(fixed Spec_std) ()

let maybe_merge t =
  if
    Float.compare
      (float_of_int (Btree.count t.dynamic))
      (t.merge_ratio *. float_of_int (max 64 t.static_n))
    > 0
  then merge t

let insert t key tid =
  assert (String.length key = t.key_len);
  if Option.is_some (Btree.find t.dynamic key) then false
  else if (not (Strtbl.mem t.tombstones key)) && Option.is_some (static_find t key) then
    false
  else begin
    if Strtbl.mem t.tombstones key then begin
      (* A tombstoned static entry is resurrected through the dynamic
         stage, shadowing the stale static entry. *)
      Strtbl.remove t.tombstones key;
      t.shadows <- t.shadows + 1
    end;
    let inserted = Btree.insert t.dynamic key tid in
    assert inserted;
    maybe_merge t;
    true
  end

let remove t key =
  if Btree.remove t.dynamic key then begin
    (* The key may also have a stale static entry it was shadowing. *)
    if Option.is_some (static_find t key) then begin
      Strtbl.replace t.tombstones key ();
      t.shadows <- t.shadows - 1
    end;
    true
  end
  else if (not (Strtbl.mem t.tombstones key)) && Option.is_some (static_find t key)
  then begin
    Strtbl.replace t.tombstones key ();
    true
  end
  else false

let update t key tid =
  if Btree.update t.dynamic key tid then true
  else if (not (Strtbl.mem t.tombstones key)) && Option.is_some (static_find t key)
  then begin
    (* Static entries are immutable: shadow through the dynamic stage —
       the skew-assumption cost when updates hit old entries. *)
    ignore (Btree.insert t.dynamic key tid);
    t.shadows <- t.shadows + 1;
    maybe_merge t;
    true
  end
  else false

let fold_range t ~start ~n f acc =
  (* Collect up to [n] candidates from the dynamic stage, then merge with
     the static stage, honouring shadows and tombstones. *)
  let dyn =
    List.rev
      (Btree.fold_range t.dynamic ~start ~n (fun acc k v -> (k, v) :: acc) [])
  in
  let rec go dyn si (taken : int) acc =
    if taken >= n then acc
    else
      let static_entry =
        if si < t.static_n then
          let k = t.static_keys.(si) in
          if Strtbl.mem t.tombstones k then `Skip else `Entry (k, t.static_tids.(si))
        else `End
      in
      match (dyn, static_entry) with
      | _, `Skip -> go dyn (si + 1) taken acc
      | [], `End -> acc
      | (k, v) :: rest, `End -> go rest si (taken + 1) (f acc k v)
      | [], `Entry (k, v) -> go [] (si + 1) (taken + 1) (f acc k v)
      | (dk, dv) :: drest, `Entry (sk, sv) ->
        let c = Key.compare dk sk in
        if c < 0 then go drest si (taken + 1) (f acc dk dv)
        else if c = 0 then (* dynamic shadows static *)
          go drest (si + 1) (taken + 1) (f acc dk dv)
        else go dyn (si + 1) (taken + 1) (f acc sk sv)
  in
  go dyn (static_lower_bound t start) 0 acc

let check_invariants t =
  Btree.check_invariants t.dynamic;
  (* Recount shadows. *)
  let shadows = ref 0 in
  Btree.iter t.dynamic (fun k _ ->
      if Option.is_some (static_find t k) then begin
        incr shadows;
        assert (not (Strtbl.mem t.tombstones k))
      end);
  assert (!shadows = t.shadows);
  for i = 0 to t.static_n - 2 do
    assert (Key.compare t.static_keys.(i) t.static_keys.(i + 1) < 0)
  done;
  (* Tombstones refer to static entries only. *)
  Strtbl.iter
    (fun k () ->
      assert (Option.is_some (static_find t k)))
    t.tombstones
