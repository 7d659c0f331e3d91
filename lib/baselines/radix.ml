(* Adaptive-span blind radix trie over fixed-length keys.

   Inner nodes discriminate on one *byte* position; non-branching byte
   positions are skipped entirely (path compression without storing the
   skipped bytes), so the structure is a blind trie with byte-granularity
   spans — the design space of HOT [3] and ART [16]:

   - with [store_keys = false] the trie stores only tuple ids at the
     leaves and loads keys from the base table to verify searches and to
     produce scan output.  This is our HOT substitute: compact and fast
     for point operations, but paying an indirect access per scanned key
     (the behaviour §2 and §6.1 rely on);
   - with [store_keys = true] each leaf carries a copy of its key (ART's
     single-value leaves), removing verification loads at the price of
     key storage.

   Children within a node are kept sorted by byte value, so in-order
   traversal yields keys in ascending order (keys in a subtree agree on
   every skipped byte, hence on every byte before the node's position). *)

module Key = Ei_util.Key
module Invariant = Ei_util.Invariant
module Memmodel = Ei_storage.Memmodel

type node =
  | Empty
  | Leaf of { tid : int; key : string }  (* key = "" when not stored *)
  | Inner of inner

and inner = {
  pos : int;  (* discriminating byte index *)
  mutable n : int;
  mutable bytes : Bytes.t;     (* sorted child byte values *)
  mutable children : node array;
}

type t = {
  key_len : int;
  store_keys : bool;
  load : int -> string;
  mutable root : node;
  mutable items : int;
  mutable node_count : int;
}

let create ?(store_keys = false) ~key_len ~load () =
  { key_len; store_keys; load; root = Empty; items = 0; node_count = 0 }

let count t = t.items

let key_len (t : t) = t.key_len

let key_of_leaf t ~tid ~key = if t.store_keys then key else t.load tid

let mk_leaf t tid key = Leaf { tid; key = (if t.store_keys then key else "") }

(* Allocation tiers mirroring ART's Node4/16/48/256 for both the array
   growth policy and the memory model. *)
let tier n = if n <= 4 then 4 else if n <= 16 then 16 else if n <= 48 then 48 else 256

let node_bytes t nd =
  ignore t;
  Memmodel.hot_node_bytes ~entries:nd.n ~discriminating_bits:1

let leaf_bytes t =
  if t.store_keys then Memmodel.art_leaf_bytes ~key_len:t.key_len else 0

let rec subtree_bytes t = function
  | Empty -> 0
  | Leaf _ -> leaf_bytes t
  | Inner nd ->
    let s = ref (node_bytes t nd) in
    for i = 0 to nd.n - 1 do
      s := !s + subtree_bytes t nd.children.(i)
    done;
    !s

let memory_bytes t = subtree_bytes t t.root

(* ------------------------------------------------------------------ *)
(* Inner-node child management.                                        *)

let byte_at key pos = Char.code (String.unsafe_get key pos)

(* Exact child index for byte [b], or the position where it belongs. *)
let locate_child nd b =
  let lo = ref 0 and hi = ref nd.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Char.code (Bytes.get nd.bytes mid) < b then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if i < nd.n && Char.code (Bytes.get nd.bytes i) = b then `Exact i else `Insert_at i

let add_child nd i b child =
  if nd.n = Bytes.length nd.bytes then begin
    let cap = tier (nd.n + 1) in
    let bytes = Bytes.make cap '\000' in
    Bytes.blit nd.bytes 0 bytes 0 nd.n;
    let children = Array.make cap Empty in
    Array.blit nd.children 0 children 0 nd.n;
    nd.bytes <- bytes;
    nd.children <- children
  end;
  Bytes.blit nd.bytes i nd.bytes (i + 1) (nd.n - i);
  Array.blit nd.children i nd.children (i + 1) (nd.n - i);
  Bytes.set nd.bytes i (Char.chr b);
  nd.children.(i) <- child;
  nd.n <- nd.n + 1

let remove_child nd i =
  Bytes.blit nd.bytes (i + 1) nd.bytes i (nd.n - i - 1);
  Array.blit nd.children (i + 1) nd.children i (nd.n - i - 1);
  nd.n <- nd.n - 1;
  nd.children.(nd.n) <- Empty

let new_inner t pos =
  t.node_count <- t.node_count + 1;
  { pos; n = 0; bytes = Bytes.make 4 '\000'; children = Array.make 4 Empty }

(* ------------------------------------------------------------------ *)
(* Point lookup.                                                       *)

let find t key =
  assert (String.length key = t.key_len);
  let rec go = function
    | Empty -> None
    | Leaf { tid; key = stored } ->
      if Key.equal (key_of_leaf t ~tid ~key:stored) key then Some tid else None
    | Inner nd -> (
      match locate_child nd (byte_at key nd.pos) with
      | `Exact i -> go nd.children.(i)
      | `Insert_at _ -> None)
  in
  go t.root

(* In-place value update of an existing key; false if absent.  The new
   row must hold the same key bytes. *)
let update t key tid =
  let rec go parent_set = function
    | Empty -> false
    | Leaf { tid = old_tid; key = stored } ->
      if Key.equal (key_of_leaf t ~tid:old_tid ~key:stored) key then begin
        parent_set (mk_leaf t tid key);
        true
      end
      else false
    | Inner nd -> (
      match locate_child nd (byte_at key nd.pos) with
      | `Exact i -> go (fun child -> nd.children.(i) <- child) nd.children.(i)
      | `Insert_at _ -> false)
  in
  go (fun n -> t.root <- n) t.root

(* ------------------------------------------------------------------ *)
(* Insert.                                                             *)

(* Any leaf of a subtree (leftmost), used as the comparison candidate. *)
let rec leftmost_leaf = function
  | Empty -> None
  | Leaf { tid; key } -> Some (tid, key)
  | Inner nd -> leftmost_leaf nd.children.(0)

(* Candidate leaf for [key]: follow exact byte matches while possible,
   then any path.  The first differing byte between the candidate's key
   and [key] determines the insertion point. *)
let rec candidate t key = function
  | Empty -> None
  | Leaf { tid; key = stored } -> Some (tid, stored)
  | Inner nd -> (
    match locate_child nd (byte_at key nd.pos) with
    | `Exact i -> candidate t key nd.children.(i)
    | `Insert_at _ -> leftmost_leaf (Inner nd))

let insert t key tid =
  assert (String.length key = t.key_len);
  match candidate t key t.root with
  | None ->
    t.root <- mk_leaf t tid key;
    t.items <- 1;
    true
  | Some (ctid, cstored) -> (
    let ckey = key_of_leaf t ~tid:ctid ~key:cstored in
    match Key.first_diff_bit key ckey with
    | None -> false (* duplicate *)
    | Some db ->
      let d = db / 8 in
      (* Walk to the first node whose position is >= d; all node keys
         agree with [key] (and the candidate) on bytes before d. *)
      let rec place parent_set node =
        match node with
        | Empty -> Invariant.impossible "Radix.place: empty node on insert path"
        | Leaf _ -> splice parent_set node
        | Inner nd ->
          if nd.pos < d then begin
            match locate_child nd (byte_at key nd.pos) with
            | `Exact i ->
              place (fun child -> nd.children.(i) <- child) nd.children.(i)
            | `Insert_at _ ->
              Invariant.impossible "Radix.place: missing child below diff byte"
          end
          else if nd.pos = d then begin
            match locate_child nd (byte_at key d) with
            | `Exact _ ->
              (* An exact child here would contradict the diff byte d. *)
              Invariant.impossible "Radix.place: exact child at diff byte"
            | `Insert_at i -> add_child nd i (byte_at key d) (mk_leaf t tid key)
          end
          else splice parent_set node
      and splice parent_set node =
        (* Create a new inner discriminating at byte d above [node]. *)
        let nd = new_inner t d in
        let old_b = byte_at ckey d and new_b = byte_at key d in
        assert (old_b <> new_b);
        if old_b < new_b then begin
          add_child nd 0 old_b node;
          add_child nd 1 new_b (mk_leaf t tid key)
        end
        else begin
          add_child nd 0 new_b (mk_leaf t tid key);
          add_child nd 1 old_b node
        end;
        parent_set (Inner nd)
      in
      place (fun n -> t.root <- n) t.root;
      t.items <- t.items + 1;
      true)

(* ------------------------------------------------------------------ *)
(* Remove.                                                             *)

let remove t key =
  let rec go parent_set = function
    | Empty -> false
    | Leaf { tid; key = stored } ->
      if Key.equal (key_of_leaf t ~tid ~key:stored) key then begin
        parent_set Empty;
        true
      end
      else false
    | Inner nd -> (
      match locate_child nd (byte_at key nd.pos) with
      | `Insert_at _ -> false
      | `Exact i ->
        let removed =
          go
            (fun child ->
              match child with
              | Empty -> remove_child nd i
              | c -> nd.children.(i) <- c)
            nd.children.(i)
        in
        if removed && nd.n = 1 then begin
          (* Path-compress: a single-child node disappears. *)
          t.node_count <- t.node_count - 1;
          parent_set nd.children.(0)
        end;
        removed)
  in
  let removed = go (fun n -> t.root <- n) t.root in
  if removed then t.items <- t.items - 1;
  removed

(* ------------------------------------------------------------------ *)
(* Ordered iteration and range scans.                                  *)

let iter t f =
  let rec go = function
    | Empty -> ()
    | Leaf { tid; key } -> f (key_of_leaf t ~tid ~key) tid
    | Inner nd ->
      for i = 0 to nd.n - 1 do
        go nd.children.(i)
      done
  in
  go t.root

(* Fold over up to [n] entries with key >= [start], ascending.  The
   boundary is located with at most two key loads per level: the
   subtree's minimum determines whether the whole subtree lies before or
   after [start], or whether it splits at this node's byte. *)
let fold_range t ~start ~n f acc =
  let remaining = ref n and acc = ref acc in
  let emit key tid =
    if !remaining > 0 then begin
      acc := f !acc key tid;
      decr remaining
    end
  in
  let rec emit_all = function
    | Empty -> ()
    | Leaf { tid; key } -> if !remaining > 0 then emit (key_of_leaf t ~tid ~key) tid
    | Inner nd ->
      let i = ref 0 in
      while !remaining > 0 && !i < nd.n do
        emit_all nd.children.(!i);
        incr i
      done
  in
  (* Returns true if emission has started inside this subtree. *)
  let rec seek node =
    match node with
    | Empty -> false
    | Leaf { tid; key } ->
      let k = key_of_leaf t ~tid ~key in
      if Key.compare k start >= 0 then begin
        emit k tid;
        true
      end
      else false
    | Inner nd -> (
      match leftmost_leaf node with
      | None -> false
      | Some (ltid, lkey) -> (
        let m = key_of_leaf t ~tid:ltid ~key:lkey in
        match Key.first_diff_bit m start with
        | None ->
          (* start is exactly the subtree minimum *)
          emit_all node;
          true
        | Some db ->
          if Key.compare m start > 0 then begin
            (* whole subtree > start *)
            emit_all node;
            true
          end
          else begin
            let d = db / 8 in
            if d < nd.pos then false (* whole subtree < start *)
            else begin
              (* The subtree splits at this node's byte: children with a
                 smaller byte are entirely below [start], the exact-match
                 child (if any) contains the boundary, larger ones are
                 entirely above. *)
              let b = byte_at start nd.pos in
              let found0, i0 =
                match locate_child nd b with
                | `Exact i -> (seek nd.children.(i), i + 1)
                | `Insert_at i -> (false, i)
              in
              for i = i0 to nd.n - 1 do
                emit_all nd.children.(i)
              done;
              found0 || i0 < nd.n
            end
          end))
  in
  ignore (seek t.root);
  !acc

(* ------------------------------------------------------------------ *)
(* Invariants (test support).                                          *)

let check_invariants t =
  let items = ref 0 in
  let rec go node ~min_pos =
    match node with
    | Empty -> assert (t.items = 0)
    | Leaf { tid; key } ->
      incr items;
      if t.store_keys then assert (String.length key = t.key_len)
      else assert (String.equal key "");
      ignore tid
    | Inner nd ->
      assert (nd.n >= 2);
      assert (nd.pos >= min_pos && nd.pos < t.key_len);
      for i = 0 to nd.n - 2 do
        assert (Bytes.get nd.bytes i < Bytes.get nd.bytes (i + 1))
      done;
      for i = 0 to nd.n - 1 do
        (* Every key under child i has byte nd.pos equal to the label. *)
        (match leftmost_leaf nd.children.(i) with
        | Some (ltid, lkey) ->
          let k = key_of_leaf t ~tid:ltid ~key:lkey in
          assert (byte_at k nd.pos = Char.code (Bytes.get nd.bytes i))
        | None -> Invariant.broken "Radix: inner node with an empty child");
        go nd.children.(i) ~min_pos:(nd.pos + 1)
      done
  in
  go t.root ~min_pos:0;
  (match t.root with Empty -> assert (t.items = 0) | _ -> assert (!items = t.items));
  (* Global order. *)
  let prev = ref None in
  iter t (fun k _ ->
      (match !prev with Some p -> assert (Key.compare p k < 0) | None -> ());
      prev := Some k)
