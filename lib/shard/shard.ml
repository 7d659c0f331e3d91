(* Range-partitioned shard router.

   Composes N {!Ei_harness.Index_ops.t} instances (any registry kind)
   behind one [Index_ops.t]: point operations route to the owning shard
   via {!Shard_map}, scans walk shards in ascending order (partitioning
   is monotone in key order, so the same start key is correct in every
   successive shard), and aggregates sum over the parts.

   The router itself adds no synchronisation: used directly it is a
   single-domain composition; {!Serve} puts each part behind its own
   domain and request queue for parallel traffic. *)

module Index_ops = Ei_harness.Index_ops

type t = {
  map : Shard_map.t;
  (* slot [i] is swapped only by shard [i]'s recovery, under that
     shard's [qlock] (see {!Serve.recover}) *)
  parts : Index_ops.t array [@ei.guarded_by "shards.(i).qlock"];
}

let create parts =
  assert (Array.length parts > 0);
  let key_len = parts.(0).Index_ops.key_len in
  Array.iter (fun p -> assert (p.Index_ops.key_len = key_len)) parts;
  { map = Shard_map.create ~key_len ~shards:(Array.length parts); parts }

let shard_count t = Array.length t.parts
let parts t = t.parts
let key_len t = Shard_map.key_len t.map
let shard_of_key t key = Shard_map.shard_of_key t.map key
let part_for t key = t.parts.(shard_of_key t key)

(* Cross-shard scan: drain the owning shard, then continue into the
   shards above it until [n] entries are visited or the fleet is
   exhausted. *)
let scan_parts t start n per_part =
  let total = ref 0 in
  let s = ref (shard_of_key t start) in
  while !s < Array.length t.parts && !total < n do
    total := !total + per_part t.parts.(!s) (n - !total);
    incr s
  done;
  !total

let memory_bytes t =
  Array.fold_left (fun a p -> a + p.Index_ops.memory_bytes ()) 0 t.parts

let count t = Array.fold_left (fun a p -> a + p.Index_ops.count ()) 0 t.parts

(* Even split of a global bound (the static fallback; {!Serve}'s
   coordinator replaces this with a demand-weighted split). *)
let set_size_bound t bound =
  let n = Array.length t.parts in
  let per = max 1 (bound / n) in
  Array.iter (fun p -> p.Index_ops.set_size_bound per) t.parts

let info t =
  let parts_info =
    Array.to_list t.parts
    |> List.filter_map (fun p ->
           match p.Index_ops.info () with "" -> None | s -> Some s)
  in
  match parts_info with
  | [] -> Printf.sprintf "%d shards" (Array.length t.parts)
  | l ->
    Printf.sprintf "%d shards [%s]" (Array.length t.parts)
      (String.concat " | " l)

let index_ops ?(name = "sharded") t =
  {
    Index_ops.name;
    backend = Index_ops.B_composite t.parts;
    key_len = key_len t;
    insert = (fun k tid -> (part_for t k).Index_ops.insert k tid);
    remove = (fun k -> (part_for t k).Index_ops.remove k);
    update = (fun k tid -> (part_for t k).Index_ops.update k tid);
    find = (fun k -> (part_for t k).Index_ops.find k);
    multi_find =
      (* Bucket the batch by owning shard so each part sees one grouped
         call (group descent only overlaps fetches within one tree);
         results scatter back to the caller's slots. *)
      (fun keys ->
        let nparts = Array.length t.parts in
        let out = Array.make (Array.length keys) None in
        let buckets = Array.make nparts [] in
        Array.iteri
          (fun i k ->
            let s = shard_of_key t k in
            buckets.(s) <- i :: buckets.(s))
          keys;
        Array.iteri
          (fun s rev ->
            match rev with
            | [] -> ()
            | rev ->
              let idxs = Array.of_list (List.rev rev) in
              let sub = Ei_util.Arr.map ~fill:"" (fun i -> keys.(i)) idxs in
              let r = t.parts.(s).Index_ops.multi_find sub in
              Array.iteri (fun j i -> out.(i) <- r.(j)) idxs)
          buckets;
        out);
    scan =
      (fun start n ->
        scan_parts t start n (fun p left -> p.Index_ops.scan start left));
    scan_keys =
      (fun start n visit ->
        scan_parts t start n (fun p left ->
            p.Index_ops.scan_keys start left visit));
    memory_bytes = (fun () -> memory_bytes t);
    count = (fun () -> count t);
    set_size_bound = set_size_bound t;
    info = (fun () -> info t);
  }
