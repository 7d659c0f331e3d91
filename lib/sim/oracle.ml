(* The reference oracle: a pure sorted map behind the uniform
   {!Ei_harness.Index_ops} interface.

   The oracle is deliberately trivial — [Map.Make (String)] over the
   fixed-length big-endian keys, whose lexicographic order is exactly
   {!Ei_util.Key.compare} — so its behaviour is beyond suspicion.  The
   differential engine replays one tape through the oracle and through
   a real index and diffs the traces; anything the structures disagree
   with the map about is a bug in the structures.

   [backend] is [B_composite [||]]: no real structure behind it, and
   deep validators ({!Ei_check}) recurse into zero parts. *)

module Smap = Map.Make (String)
module Index_ops = Ei_harness.Index_ops

let create ?(name = "oracle") ~key_len () : Index_ops.t =
  let m = ref Smap.empty in
  let scan_from start n visit =
    Seq.fold_left
      (fun c (k, tid) ->
        visit k tid;
        c + 1)
      0
      (Seq.take (max 0 n) (Smap.to_seq_from start !m))
  in
  {
    Index_ops.name;
    backend = Index_ops.B_composite [||];
    key_len;
    insert =
      (fun k tid ->
        if Smap.mem k !m then false
        else begin
          m := Smap.add k tid !m;
          true
        end);
    remove =
      (fun k ->
        if Smap.mem k !m then begin
          m := Smap.remove k !m;
          true
        end
        else false);
    update =
      (fun k tid ->
        if Smap.mem k !m then begin
          m := Smap.add k tid !m;
          true
        end
        else false);
    find = (fun k -> Smap.find_opt k !m);
    multi_find = (fun keys -> Array.map (fun k -> Smap.find_opt k !m) keys);
    scan = (fun start n -> scan_from start n (fun _ _ -> ()));
    scan_keys = scan_from;
    memory_bytes = (fun () -> 0);
    (* The model spends no index bytes, so bound compliance is
       trivially satisfied — the real subject's side of the checkpoint
       is where the elastic check bites. *)
    count = (fun () -> Smap.cardinal !m);
    set_size_bound = Index_ops.no_size_bound;
    info = (fun () -> "oracle");
  }
