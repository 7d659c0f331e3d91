(* Skip list with internal key storage (Pugh [25]) — one of the
   comparison baselines the paper evaluates.  Each node stores its key
   inline (like a B+-tree leaf entry) plus a tower of forward pointers,
   which is why the paper finds skip lists consume *more* memory than the
   STX B+-tree: every key pays a node header and an average of two
   pointers. *)

module Key = Ei_util.Key
module Memmodel = Ei_storage.Memmodel

let max_level = 24

type node = {
  key : string;
  mutable tid : int;
  forward : node option array;  (* length = tower height *)
}

type t = {
  key_len : int;
  rng : Ei_util.Rng.t;
  head : node;  (* sentinel with an empty key, never compared *)
  mutable level : int;
  mutable items : int;
  mutable node_bytes : int;
}

let create ?(seed = 42) ~key_len () =
  {
    key_len;
    rng = Ei_util.Rng.create seed;
    head = { key = ""; tid = -1; forward = Array.make max_level None };
    level = 1;
    items = 0;
    node_bytes = 0;
  }

let count t = t.items
let memory_bytes t = t.node_bytes
let level t = t.level
let key_len t = t.key_len

(* Introspection for the deep sanitizer ({!Ei_check}): walk the towers
   and per-level chains without exposing the node type. *)
let fold_towers t f acc =
  let rec go acc = function
    | Some nd -> go (f acc nd.key nd.tid (Array.length nd.forward)) nd.forward.(0)
    | None -> acc
  in
  go acc t.head.forward.(0)

let fold_level t lvl f acc =
  assert (lvl >= 0 && lvl < max_level);
  let rec go acc = function
    | Some nd ->
      go (f acc nd.key (Array.length nd.forward)) nd.forward.(lvl)
    | None -> acc
  in
  go acc t.head.forward.(lvl)

let random_height t =
  let rec go h = if h < max_level && Ei_util.Rng.bool t.rng then go (h + 1) else h in
  go 1

(* Fill [update] with the last node at each level whose key is < [key];
   returns the node after position 0, the candidate. *)
let find_predecessors t key update =
  let x = ref t.head in
  for i = t.level - 1 downto 0 do
    let rec advance () =
      match !x.forward.(i) with
      | Some nxt when Key.compare_fast nxt.key key < 0 ->
        x := nxt;
        advance ()
      | Some _ | None -> ()
    in
    advance ();
    update.(i) <- !x
  done;
  !x.forward.(0)

let find t key =
  let update = Array.make max_level t.head in
  match find_predecessors t key update with
  | Some nxt when Key.equal nxt.key key -> Some nxt.tid
  | Some _ | None -> None

(* In-place value update of an existing key; false if absent. *)
let update t key tid =
  let update_arr = Array.make max_level t.head in
  match find_predecessors t key update_arr with
  | Some nxt when Key.equal nxt.key key ->
    nxt.tid <- tid;
    true
  | Some _ | None -> false

let insert t key tid =
  assert (String.length key = t.key_len);
  let update = Array.make max_level t.head in
  match find_predecessors t key update with
  | Some nxt when Key.equal nxt.key key -> false
  | Some _ | None ->
    let h = random_height t in
    if h > t.level then begin
      for i = t.level to h - 1 do
        update.(i) <- t.head
      done;
      t.level <- h
    end;
    let node = { key; tid; forward = Array.make h None } in
    for i = 0 to h - 1 do
      node.forward.(i) <- update.(i).forward.(i);
      update.(i).forward.(i) <- Some node
    done;
    t.items <- t.items + 1;
    t.node_bytes <-
      t.node_bytes + Memmodel.skiplist_node_bytes ~key_len:t.key_len ~height:h;
    true

let remove t key =
  let update = Array.make max_level t.head in
  match find_predecessors t key update with
  | Some nxt when Key.equal nxt.key key ->
    let h = Array.length nxt.forward in
    for i = 0 to h - 1 do
      match update.(i).forward.(i) with
      | Some n when n == nxt -> update.(i).forward.(i) <- nxt.forward.(i)
      | Some _ | None -> ()
    done;
    (* Shrink the list level if upper levels emptied. *)
    while t.level > 1 && Option.is_none t.head.forward.(t.level - 1) do
      t.level <- t.level - 1
    done;
    t.items <- t.items - 1;
    t.node_bytes <-
      t.node_bytes - Memmodel.skiplist_node_bytes ~key_len:t.key_len ~height:h;
    true
  | Some _ | None -> false

let fold_range t ~start ~n f acc =
  let update = Array.make max_level t.head in
  let first = find_predecessors t start update in
  let rec go node remaining acc =
    match node with
    | Some nd when remaining > 0 ->
      go nd.forward.(0) (remaining - 1) (f acc nd.key nd.tid)
    | Some _ | None -> acc
  in
  go first n acc

let iter t f =
  let rec go = function
    | Some nd ->
      f nd.key nd.tid;
      go nd.forward.(0)
    | None -> ()
  in
  go t.head.forward.(0)

let check_invariants t =
  (* Level-0 keys strictly ascending and item count consistent. *)
  let n = ref 0 in
  let prev = ref None in
  iter t (fun k _ ->
      incr n;
      (match !prev with Some p -> assert (Key.compare p k < 0) | None -> ());
      prev := Some k);
  assert (!n = t.items);
  (* Every upper-level chain is a subsequence of level 0. *)
  for i = 1 to t.level - 1 do
    let rec walk = function
      | Some nd ->
        assert (Array.length nd.forward > i);
        walk nd.forward.(i)
      | None -> ()
    in
    walk t.head.forward.(i)
  done
