(* Range-partitioned shard router.

   Holds N {!Ei_harness.Index_ops.t} instances (any registry kind) and
   maps each key to its owning part via {!Shard_map}.  The router adds
   no synchronisation; {!Serve} puts each part behind its own domain
   and request queue. *)

module Index_ops = Ei_harness.Index_ops

type t = {
  map : Shard_map.t;
  (* slot [i] is applied to only by shard [i]'s current domain and
     swapped only by that shard's recovery while no domain owns it (see
     {!Serve.recover}) *)
  parts : Index_ops.t array [@ei.guarded_by "owning shard domain"];
}

let create parts =
  assert (Array.length parts > 0);
  let key_len = parts.(0).Index_ops.key_len in
  Array.iter (fun p -> assert (p.Index_ops.key_len = key_len)) parts;
  { map = Shard_map.create ~shards:(Array.length parts); parts }

let shard_count t = Array.length t.parts
let parts t = t.parts
let shard_of_key t key = Shard_map.shard_of_key t.map key

let count t = Array.fold_left (fun a p -> a + p.Index_ops.count ()) 0 t.parts
