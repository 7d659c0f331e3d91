(* Per-domain operation counters for the blind-trie representations.

   These feed the §6.1 operation-cost breakdown benchmark: how much work
   elasticity adds (compact-leaf searches, key comparisons against the
   table, node conversions). *)

type t = {
  mutable searches : int;        (* compact-leaf searches *)
  mutable scan_steps : int;      (* SeqTrie sequential-scan steps *)
  mutable tree_steps : int;      (* BlindiTree descent steps *)
  mutable key_compares : int;    (* verification compares against loaded keys *)
  mutable inserts : int;
  mutable removes : int;
  mutable rebuilds : int;        (* BlindiTree rebuilds *)
}
[@@ei.single_domain]

let zero () =
  { searches = 0; scan_steps = 0; tree_steps = 0; key_compares = 0;
    inserts = 0; removes = 0; rebuilds = 0 }

(* One record per domain, so every shard domain bumps its own counters
   without racing the others.  Each record is also pushed onto
   [records] when its domain first counts, so {!total} can sum every
   domain's work, that of domains which have since exited included. *)
let lock = Mutex.create ()
let[@ei.guarded_by "lock"] records : t list ref = ref []

let with_records f =
  Mutex.lock lock;
  let r = try f records with e -> Mutex.unlock lock; raise e in
  Mutex.unlock lock;
  r

let register r = with_records (fun rs -> rs := r :: !rs)

let key =
  Domain.DLS.new_key (fun () ->
      let r = zero () in
      register r;
      r)

let current () = Domain.DLS.get key

(* Other domains' fields are read without synchronisation: a snapshot
   may miss their latest increments, never more. *)
let total () =
  List.fold_left
    (fun acc r ->
      acc.searches <- acc.searches + r.searches;
      acc.scan_steps <- acc.scan_steps + r.scan_steps;
      acc.tree_steps <- acc.tree_steps + r.tree_steps;
      acc.key_compares <- acc.key_compares + r.key_compares;
      acc.inserts <- acc.inserts + r.inserts;
      acc.removes <- acc.removes + r.removes;
      acc.rebuilds <- acc.rebuilds + r.rebuilds;
      acc)
    (zero ()) (with_records (fun rs -> !rs))

(* Folded into the ei_obs registry as probes, read at exposition time:
   each reports the total over every domain. *)
let () =
  let module Metrics = Ei_obs.Metrics in
  let probe name f = Metrics.register_probe name (fun () -> f (total ())) in
  probe "seqtree.searches" (fun s -> s.searches);
  probe "seqtree.scan_steps" (fun s -> s.scan_steps);
  probe "seqtree.tree_steps" (fun s -> s.tree_steps);
  probe "seqtree.key_compares" (fun s -> s.key_compares);
  probe "seqtree.inserts" (fun s -> s.inserts);
  probe "seqtree.removes" (fun s -> s.removes);
  probe "seqtree.rebuilds" (fun s -> s.rebuilds)

let reset () =
  let s = current () in
  s.searches <- 0;
  s.scan_steps <- 0;
  s.tree_steps <- 0;
  s.key_compares <- 0;
  s.inserts <- 0;
  s.removes <- 0;
  s.rebuilds <- 0
