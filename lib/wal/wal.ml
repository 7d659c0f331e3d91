(* Per-shard write-ahead log: group commit, fingerprinted checkpoints,
   crash recovery.

   One [writer] belongs to one shard domain (single-writer discipline —
   the same MPSC ownership Serve already enforces).  Mutations are
   buffered as CRC-framed records during a batch and made durable by
   one [commit] call at the batch boundary: a single [write] of all
   buffered frames followed by at most one [fsync] — the group-commit
   amortisation.  With [fsync_every = 1] (the default) an acknowledged
   op is framed *and* fsynced before its waiter is released; larger
   cadences trade that guarantee for throughput and are documented as
   relaxed durability.

   On-disk layout of one shard directory [<dir>/shard<i>/]:

     wal-<first_lsn>.seg   log segments, frames in LSN order
     ckpt-<seq>.dat        checkpoint data: Insert frames in key order
     ckpt-<seq>.json       manifest {lsn, count, fingerprint, bound}
     clean                 marker written by a clean [close]

   Checkpoints reuse the fingerprinted-snapshot idea from the ei_sim
   differential engine: the data file is walked in key order and the
   manifest records the same chained FNV-1a digest Index_ops.fingerprint
   computes, so a checkpoint is validated byte-for-byte (CRC per frame)
   *and* content-for-content (digest over decoded pairs) before a
   single entry touches the index.  At least [keep_checkpoints] (>= 2
   by default) manifests are retained so a corrupt newest checkpoint
   falls back to the previous one; log segments are pruned only past
   the oldest retained checkpoint's LSN.

   Recovery = newest valid checkpoint + ordered replay of every record
   with a larger LSN, truncating a torn tail (incomplete or
   CRC-mismatched final frame) of the last segment.  Recovery always
   opens a new segment file, so a fenced zombie writer holding an old
   descriptor cannot reach bytes the new writer owns; and a segment
   counts only below its successor's first LSN, so what the zombie
   still appends never enters a later recovery: the replay is an exact
   LSN prefix. *)

module Fault = Ei_fault.Fault
module Metrics = Ei_obs.Metrics
module Trace = Ei_obs.Trace
module Index_ops = Ei_harness.Index_ops
module J = Ei_util.Mini_json

exception Died of string

(* Distinct from [Fault.Injected]: an injected WAL fault is a *crash*
   of the owning domain, not a transient op failure the batch loop may
   absorb — Serve must let it escape so the supervisor rebuilds the
   shard from disk. *)

type config = {
  dir : string;
  fsync_every : int;
  checkpoint_every : int;
  segment_bytes : int;
  keep_checkpoints : int;
}

let default_config ~dir =
  let fsync_every =
    match Option.bind (Sys.getenv_opt "EI_WAL_FSYNC") int_of_string_opt with
    | Some n when n >= 0 -> n
    | Some _ | None -> 1
  in
  {
    dir;
    fsync_every;
    checkpoint_every = 256;
    segment_bytes = 4 * 1024 * 1024;
    keep_checkpoints = 2;
  }

(* --- Fault sites ------------------------------------------------------ *)

type faults = {
  f_torn : Fault.site;
  f_fsync : Fault.site;
  f_ckpt : Fault.site;
}

let faults ~prefix ~shard =
  {
    f_torn = Fault.site (Printf.sprintf "%s.wal.torn.shard%d" prefix shard);
    f_fsync = Fault.site (Printf.sprintf "%s.wal.fsync.shard%d" prefix shard);
    f_ckpt = Fault.site (Printf.sprintf "%s.wal.ckpt.shard%d" prefix shard);
  }

(* --- Metrics ---------------------------------------------------------- *)

let h_fsync = Metrics.histogram "wal.fsync_ns"
let h_commit_records = Metrics.histogram "wal.commit_records"
let h_replay = Metrics.histogram "wal.replay_ns"
let h_ckpt = Metrics.histogram "wal.checkpoint_ns"
let c_records = Metrics.counter "wal.records"
let c_fsyncs = Metrics.counter "wal.fsyncs"
let c_rotations = Metrics.counter "wal.rotations"
let c_checkpoints = Metrics.counter "wal.checkpoints"
let c_torn = Metrics.counter "wal.torn_truncations"
let c_fallbacks = Metrics.counter "wal.ckpt_fallbacks"
let c_replayed = Metrics.counter "wal.replayed"

(* Span events on the shard domain's track: a [commit] emitted under a
   request's ambient {!Ei_obs.Ctx} joins that request's flow, making
   group-commit stalls attributable per request in the Perfetto view. *)
let ev_commit = Trace.define ~span:true ~arg1:"records" ~cat:"wal" "wal.commit"
let ev_fsync = Trace.define ~span:true ~cat:"wal" "wal.fsync"
let ev_replay = Trace.define ~span:true ~arg1:"replayed" ~cat:"wal" "wal.replay"

(* --- Small file helpers ---------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_fully fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  | exception Unix.Unix_error _ -> ()
(* Directory fsync is a durability nicety for renames/creates; platforms
   that refuse to open a directory simply skip it. *)

let write_file_atomic path s =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_fully fd s;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

(* --- Shard-directory layout ------------------------------------------ *)

let shard_dir_in dir shard = Filename.concat dir (Printf.sprintf "shard%d" shard)
let shard_dir cfg shard = shard_dir_in cfg.dir shard
let seg_path sdir first_lsn = Filename.concat sdir (Printf.sprintf "wal-%016d.seg" first_lsn)
let ckpt_dat_path sdir seq = Filename.concat sdir (Printf.sprintf "ckpt-%06d.dat" seq)
let ckpt_json_path sdir seq = Filename.concat sdir (Printf.sprintf "ckpt-%06d.json" seq)
let clean_path sdir = Filename.concat sdir "clean"

let parse_named ~prefix ~suffix name =
  if
    String.length name > String.length prefix + String.length suffix
    && String.starts_with ~prefix name
    && String.ends_with ~suffix name
  then
    int_of_string_opt
      (String.sub name (String.length prefix)
         (String.length name - String.length prefix - String.length suffix))
  else None

let readdir_sorted dir =
  match Sys.readdir dir with
  | names ->
    Array.sort String.compare names;
    Array.to_list names
  | exception Sys_error _ -> []

(* [(number, path)] of every [<prefix><number><suffix>] in [sdir] *)
let list_named sdir ~prefix ~suffix =
  List.filter_map
    (fun name ->
      Option.map
        (fun n -> (n, Filename.concat sdir name))
        (parse_named ~prefix ~suffix name))
    (readdir_sorted sdir)

let list_segments sdir =
  List.sort compare (list_named sdir ~prefix:"wal-" ~suffix:".seg")

let list_ckpts sdir =
  List.sort
    (fun (a, _) (b, _) -> compare b a)
    (list_named sdir ~prefix:"ckpt-" ~suffix:".json")

let shards ~dir =
  List.filter_map (parse_named ~prefix:"shard" ~suffix:"")
    (List.filter
       (fun n -> Sys.is_directory (Filename.concat dir n))
       (readdir_sorted dir))
  |> List.sort compare

(* --- The writer ------------------------------------------------------- *)

type writer = {
  cfg : config;
  shard : int;
  sdir : string;
  faults : faults option;
  dead : bool Atomic.t;
      (* set by the owner on an injected crash, or by the supervisor
         ([fence]) before it reads the files — the only cross-domain
         field; everything below is owner-domain-only *)
  mutable fd : Unix.file_descr; [@ei.single_domain]
  mutable seg_first_lsn : int; [@ei.single_domain]
  mutable seg_len : int; [@ei.single_domain]
  mutable synced_len : int; [@ei.single_domain]
  mutable next_lsn : int; [@ei.single_domain]
  mutable written_lsn : int; [@ei.single_domain]
  mutable durable : int; [@ei.single_domain]
  buf : Buffer.t; [@ei.single_domain]
  mutable buffered : int; [@ei.single_domain]
  mutable unsynced_commits : int; [@ei.single_domain]
  mutable commits : int; [@ei.single_domain]
  mutable last_bound : int; [@ei.single_domain]
  mutable ckpt_seq : int; [@ei.single_domain]
  mutable closed : bool; [@ei.single_domain]
}

let durable_lsn w = w.durable
let last_lsn w = w.next_lsn - 1
let fence w = Atomic.set w.dead true

let dispose w =
  fence w;
  if not w.closed then begin
    w.closed <- true;
    try Unix.close w.fd with Unix.Unix_error _ -> ()
  end

let check_alive w =
  if w.closed then raise (Died "writer closed");
  if Atomic.get w.dead then raise (Died "writer fenced")

let take_lsn w =
  let l = w.next_lsn in
  w.next_lsn <- l + 1;
  l

let log_record w r =
  check_alive w;
  Frame.encode_into w.buf r;
  w.buffered <- w.buffered + 1

let log_insert w key tid = log_record w (Frame.Insert { lsn = take_lsn w; key; tid })
let log_remove w key = log_record w (Frame.Remove { lsn = take_lsn w; key })
let log_update w key tid = log_record w (Frame.Update { lsn = take_lsn w; key; tid })

let log_bound w bound =
  log_record w (Frame.Bound { lsn = take_lsn w; bound });
  w.last_bound <- bound

let flush_buf w =
  if w.buffered > 0 then begin
    let s = Buffer.contents w.buf in
    write_fully w.fd s;
    w.seg_len <- w.seg_len + String.length s;
    w.written_lsn <- w.next_lsn - 1;
    Metrics.add c_records w.buffered;
    Metrics.observe h_commit_records w.buffered;
    Buffer.clear w.buf;
    w.buffered <- 0
  end

let do_fsync w =
  let ts = Trace.start () in
  let t0 = Ei_util.Bench_clock.now_ns () in
  Unix.fsync w.fd;
  Metrics.observe h_fsync (Ei_util.Bench_clock.now_ns () - t0);
  Metrics.incr c_fsyncs;
  Trace.span ev_fsync ~start_ns:ts 0;
  w.synced_len <- w.seg_len;
  w.durable <- w.written_lsn;
  w.unsynced_commits <- 0

(* Crash hooks: each models one physical failure, marks the writer
   dead and raises [Died].  They double as the bodies of the injected
   fault sites and as deterministic levers for ei_sim schedules. *)

let crash_torn w =
  (* A torn write: the tail of the buffered batch never reaches the
     file — everything minus the last few bytes lands, tearing the
     final frame mid-payload.  With nothing buffered a bare partial
     header is appended instead, so the tail is torn either way. *)
  let s = if w.buffered > 0 then Buffer.contents w.buf else "\xff\xff\xff" in
  let cut = max 1 (String.length s - 3) in
  write_fully w.fd (String.sub s 0 cut);
  Buffer.clear w.buf;
  w.buffered <- 0;
  Atomic.set w.dead true;
  raise (Died "torn write")

let crash_unsynced w =
  (* A power-style crash before fsync: bytes written since the last
     sync lived only in the page cache and are lost — modeled by
     truncating the segment back to the synced prefix. *)
  Buffer.clear w.buf;
  w.buffered <- 0;
  (try Unix.ftruncate w.fd w.synced_len
   with Unix.Unix_error _ -> ());
  Atomic.set w.dead true;
  raise (Died "unsynced bytes lost")

let open_segment w ~first_lsn =
  w.fd <-
    Unix.openfile (seg_path w.sdir first_lsn)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644;
  w.seg_first_lsn <- first_lsn;
  w.seg_len <- 0;
  w.synced_len <- 0

let rotate w =
  if w.cfg.fsync_every > 0 then do_fsync w;
  Unix.close w.fd;
  open_segment w ~first_lsn:w.next_lsn;
  fsync_dir w.sdir;
  Metrics.incr c_rotations

(* --- Checkpoints ------------------------------------------------------ *)

let corrupt_one_byte path =
  match (Unix.stat path).Unix.st_size with
  | 0 -> ()
  | size ->
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let off = size / 2 in
        let b = Bytes.create 1 in
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        if Unix.read fd b 0 1 = 1 then begin
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
          ignore (Unix.lseek fd off Unix.SEEK_SET);
          ignore (Unix.write fd b 0 1)
        end)
  | exception Unix.Unix_error _ -> ()

let read_manifest path =
  match J.parse (read_file path) with
  | Error msg -> Error msg
  | Ok j -> (
    let field name =
      match Option.bind (J.member name j) J.as_int with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "manifest missing %s" name)
    in
    match (field "lsn", field "count", field "fingerprint", field "bound") with
    | Ok lsn, Ok count, Ok fp, Ok bound -> Ok (lsn, count, fp, bound)
    | (Error _ as e), _, _, _
    | _, (Error _ as e), _, _
    | _, _, (Error _ as e), _
    | _, _, _, (Error _ as e) ->
      e)
  | exception Sys_error msg -> Error msg

let prune w =
  let keep = max 1 w.cfg.keep_checkpoints in
  let ckpts = list_ckpts w.sdir in
  let kept = List.filteri (fun i _ -> i < keep) ckpts in
  let dropped = List.filteri (fun i _ -> i >= keep) ckpts in
  List.iter
    (fun (seq, json) ->
      (try Sys.remove (ckpt_dat_path w.sdir seq) with Sys_error _ -> ());
      try Sys.remove json with Sys_error _ -> ())
    dropped;
  (* Log segments whose every record the oldest retained checkpoint
     already covers are dead: segment [k] can go once segment [k+1]
     starts at or below that checkpoint's lsn + 1 (all of [k]'s lsns
     are below the successor's first).  The open segment never goes. *)
  match List.rev kept with
  | [] -> ()
  | (_, oldest_json) :: _ -> (
    match read_manifest oldest_json with
    | Error _ -> ()
    | Ok (covered, _, _, _) ->
      let rec drop = function
        | (l1, p1) :: ((l2, _) :: _ as rest)
          when l2 <= covered + 1 && l1 <> w.seg_first_lsn ->
          (try Sys.remove p1 with Sys_error _ -> ());
          drop rest
        | _ -> ()
      in
      drop (list_segments w.sdir))

(* The part may be wrapped with {!Index_ops.inject} (the chaos soak
   does): during replay a transient [Fault.Injected] from a point
   operation is retried until it lands — an acknowledged, durable
   record must never be shed — mirroring the supervisor's
   rebuild-from-table retry, yield point included so a permanently
   armed site cannot spin invisibly to the schedule explorer.
   Checkpoints need no such retry: their one walk makes no point
   operation. *)
let yp_replay = Fault.site "wal.yield.replay"

let rec absorb_injected f =
  match f () with
  | v -> v
  | exception Fault.Injected _ ->
    Fault.point yp_replay;
    absorb_injected f

(* One read-only [scan_keys] walk writes the snapshot: each entry's tid
   comes from the walk, so no [find] runs mid-walk (on an expanding
   elastic tree a [find] may split the leaf being walked). *)
let checkpoint w ~(part : Index_ops.t) =
  check_alive w;
  let t0 = Ei_util.Bench_clock.now_ns () in
  let seq = w.ckpt_seq + 1 in
  let dat = ckpt_dat_path w.sdir seq in
  let tmp = dat ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let count = ref 0 in
  let h = ref 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Buffer.create 65536 in
      let low = String.make part.Index_ops.key_len '\000' in
      ignore
        (part.Index_ops.scan_keys low max_int (fun k tid ->
             Frame.encode_into buf (Frame.Insert { lsn = 0; key = k; tid });
             h := Index_ops.fingerprint_entry !h k tid;
             incr count;
             if Buffer.length buf >= 65536 then begin
               write_fully fd (Buffer.contents buf);
               Buffer.clear buf
             end));
      write_fully fd (Buffer.contents buf);
      Unix.fsync fd);
  (match w.faults with
  | Some f -> if Fault.fire f.f_ckpt then corrupt_one_byte tmp
  | None -> ());
  Sys.rename tmp dat;
  (* manifest last: a checkpoint exists only once its manifest does *)
  write_file_atomic (ckpt_json_path w.sdir seq)
    (J.to_string
       (J.Obj
          [
            ("version", J.Int 1);
            ("shard", J.Int w.shard);
            ("seq", J.Int seq);
            ("lsn", J.Int w.written_lsn);
            ("count", J.Int !count);
            ("fingerprint", J.Int !h);
            ("bound", J.Int w.last_bound);
          ]));
  w.ckpt_seq <- seq;
  Metrics.incr c_checkpoints;
  Metrics.observe h_ckpt (Ei_util.Bench_clock.now_ns () - t0);
  prune w

(* Preemption points inside [commit] — before the write, between write
   and fsync, after the fsync — where the [wal-wedge] scenario parks a
   writer while the supervisor fences and recovers. *)
let yp_commit = Fault.site "wal.yield.commit"

let commit w ~part =
  let tc = Trace.start () in
  let recs = w.buffered in
  let run () =
    check_alive w;
    (* Both crash sites draw on *every* commit — applicable or not — so
       the per-site draw sequence is a pure function of the batch
       schedule and equal-seed replays stay byte-identical. *)
    let torn_fired, fsync_fired =
      match w.faults with
      | Some f -> (Fault.fire f.f_torn, Fault.fire f.f_fsync)
      | None -> (false, false)
    in
    if torn_fired then crash_torn w;
    Fault.point yp_commit;
    flush_buf w;
    w.commits <- w.commits + 1;
    w.unsynced_commits <- w.unsynced_commits + 1;
    if fsync_fired then crash_unsynced w;
    Fault.point yp_commit;
    if w.cfg.fsync_every > 0 && w.unsynced_commits >= w.cfg.fsync_every then
      do_fsync w;
    Fault.point yp_commit;
    (* The fence again, once the batch is durable: a writer fenced while
       this commit was in flight (a wedged domain the supervisor
       abandoned) must not report success, since recovery may have read
       the log before these bytes landed.  Success thus means fsynced
       before any fence, hence before any recovery read.  Rotation and
       checkpoint, which create files, are skipped with it. *)
    check_alive w;
    if w.seg_len >= w.cfg.segment_bytes then rotate w;
    if w.cfg.checkpoint_every > 0 && w.commits mod w.cfg.checkpoint_every = 0
    then checkpoint w ~part
  in
  (* The span closes on the crash paths too — a commit that died torn
     still shows up, attributed to the request it was acking. *)
  match run () with
  | () -> Trace.span ev_commit ~start_ns:tc recs
  | exception e ->
    Trace.span ev_commit ~start_ns:tc recs;
    raise e

let close w =
  if not w.closed then begin
    if not (Atomic.get w.dead) then begin
      (* Clean shutdown makes everything durable whatever the cadence,
         then leaves the marker recovery reports as a clean restart. *)
      flush_buf w;
      do_fsync w;
      write_file_atomic (clean_path w.sdir) (string_of_int w.written_lsn)
    end;
    w.closed <- true;
    try Unix.close w.fd with Unix.Unix_error _ -> ()
  end

(* --- Recovery --------------------------------------------------------- *)

type recovery = {
  r_ckpt_seq : int;
  r_ckpt_entries : int;
  r_ckpt_fallbacks : int;
  r_replayed : int;
  r_torn : int;
  r_last_lsn : int;
  r_bound : int;
  r_clean : bool;
}

(* Full validation before a single entry touches the index: every frame
   CRC-checked by the codec, the record shape checked (Insert-only,
   strictly ascending keys), and the chained FNV digest recomputed over
   the decoded pairs and compared to the manifest. *)
let validate_ckpt ~sdir seq =
  let json = ckpt_json_path sdir seq in
  let dat = ckpt_dat_path sdir seq in
  match read_manifest json with
  | Error msg -> Error (Printf.sprintf "manifest: %s" msg)
  | Ok (lsn, count, fp, bound) -> (
    match read_file dat with
    | exception Sys_error msg -> Error msg
    | s -> (
      match Frame.decode_all s with
      | _, Some (off, msg) ->
        Error (Printf.sprintf "data frame at %d: %s" off msg)
      | records, None ->
        let rec check h n prev entries = function
          | [] ->
            if n <> count then
              Error (Printf.sprintf "count %d, manifest says %d" n count)
            else if h <> fp then Error "fingerprint mismatch"
            else Ok (lsn, bound, List.rev entries)
          | Frame.Insert { key; tid; _ } :: rest ->
            if n > 0 && String.compare prev key >= 0 then
              Error "keys not strictly ascending"
            else
              check (Index_ops.fingerprint_entry h key tid) (n + 1) key
                ((key, tid) :: entries) rest
          | _ :: _ -> Error "non-insert record in checkpoint"
        in
        check 0 0 "" [] records))

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

let apply_record ~(part : Index_ops.t) ~restore r =
  match r with
  | Frame.Insert { key; tid; _ } ->
    restore ~tid ~key;
    absorb_injected (fun () ->
        if not (part.Index_ops.insert key tid) then
          ignore (part.Index_ops.update key tid))
  | Frame.Update { key; tid; _ } ->
    restore ~tid ~key;
    absorb_injected (fun () ->
        if not (part.Index_ops.update key tid) then
          ignore (part.Index_ops.insert key tid))
  | Frame.Remove { key; _ } ->
    absorb_injected (fun () -> ignore (part.Index_ops.remove key))
  | Frame.Bound { bound; _ } ->
    absorb_injected (fun () -> part.Index_ops.set_size_bound bound)

(* The one recoverability rule, read-only, for [recover] and [verify]:
   the newest checkpoint that validates (every reject is a fallback) goes
   to [on_ckpt], then an exact LSN prefix of the log above it to
   [on_record].  Every recovery opens a segment named by the next LSN,
   so a segment owns the LSNs below its successor's first; what lies past
   that a fenced writer appended unacknowledged.  A gap inside a
   segment's range raises [Died]; a torn tail of the newest segment is
   returned as [(path, offset)] for recovery to cut. *)
let walk ~sdir ~clean ~on_ckpt ~on_record =
  let rec pick fallbacks = function
    | [] -> (0, 0, 0, 0, fallbacks)
    | (seq, _) :: rest -> (
      match validate_ckpt ~sdir seq with
      | Ok (lsn, bound, entries) ->
        on_ckpt ~bound entries;
        (seq, List.length entries, lsn, bound, fallbacks)
      | Error _ -> pick (fallbacks + 1) rest)
  in
  let ckpt_seq, ckpt_entries, base_lsn, base_bound, fallbacks =
    pick 0 (list_ckpts sdir)
  in
  let last = ref base_lsn in
  let bound = ref base_bound in
  let replayed = ref 0 in
  let cut = ref None in
  let corrupt path fmt =
    Printf.ksprintf
      (fun msg -> raise (Died (Printf.sprintf "corrupt segment %s: %s" path msg)))
      fmt
  in
  let rec replay = function
    | [] -> ()
    | (_, path) :: rest ->
      let limit = match rest with (next, _) :: _ -> next | [] -> max_int in
      let records, err = Frame.decode_all (read_file path) in
      List.iter
        (fun r ->
          let l = Frame.lsn r in
          if l > !last && l < limit then begin
            if l <> !last + 1 then corrupt path "gap before LSN %d" l;
            on_record r;
            (match r with Frame.Bound { bound = b; _ } -> bound := b | _ -> ());
            last := l;
            incr replayed
          end)
        records;
      (match err with
      | None -> ()
      | Some (off, msg) ->
        if rest = [] then cut := Some (path, off)
        else if !last < limit - 1 then
          corrupt path "byte %d: %s before LSN %d" off msg (limit - 1));
      replay rest
  in
  replay (list_segments sdir);
  ( {
      r_ckpt_seq = ckpt_seq;
      r_ckpt_entries = ckpt_entries;
      r_ckpt_fallbacks = fallbacks;
      r_replayed = !replayed;
      r_torn = (if Option.is_none !cut then 0 else 1);
      r_last_lsn = !last;
      r_bound = !bound;
      r_clean = clean;
    },
    !cut )

let recover ?faults ?(restore = fun ~tid:_ ~key:_ -> ()) cfg ~shard
    ~(part : Index_ops.t) =
  let tr = Trace.start () in
  let t0 = Ei_util.Bench_clock.now_ns () in
  let sdir = shard_dir cfg shard in
  mkdir_p sdir;
  let clean = Sys.file_exists (clean_path sdir) in
  if clean then Sys.remove (clean_path sdir);
  (* sweep orphan temporaries a crash mid-checkpoint may have left *)
  List.iter
    (fun name ->
      if String.ends_with ~suffix:".tmp" name then
        try Sys.remove (Filename.concat sdir name) with Sys_error _ -> ())
    (readdir_sorted sdir);
  let r, cut =
    walk ~sdir ~clean
      ~on_ckpt:(fun ~bound entries ->
        if bound > 0 then
          absorb_injected (fun () -> part.Index_ops.set_size_bound bound);
        List.iter
          (fun (key, tid) ->
            restore ~tid ~key;
            absorb_injected (fun () -> ignore (part.Index_ops.insert key tid)))
          entries)
      ~on_record:(apply_record ~part ~restore)
  in
  Option.iter
    (fun (path, off) ->
      truncate_file path off;
      Metrics.incr c_torn)
    cut;
  Metrics.add c_fallbacks r.r_ckpt_fallbacks;
  Metrics.add c_replayed r.r_replayed;
  Metrics.observe h_replay (Ei_util.Bench_clock.now_ns () - t0);
  Trace.span ev_replay ~start_ns:tr r.r_replayed;
  let w =
    {
      cfg;
      shard;
      sdir;
      faults;
      dead = Atomic.make false;
      fd = Unix.stdin (* replaced by open_segment just below *);
      seg_first_lsn = 0;
      seg_len = 0;
      synced_len = 0;
      next_lsn = r.r_last_lsn + 1;
      written_lsn = r.r_last_lsn;
      durable = r.r_last_lsn;
      buf = Buffer.create 4096;
      buffered = 0;
      unsynced_commits = 0;
      commits = 0;
      last_bound = r.r_bound;
      ckpt_seq = (match list_ckpts sdir with (seq, _) :: _ -> seq | [] -> 0);
      closed = false;
    }
  in
  (* A file already named by the next LSN holds no replayed record: it
     is the empty segment a fenced writer opened and may still hold.
     Unlinking it sends that writer's late bytes to the orphan. *)
  (try Sys.remove (seg_path sdir w.next_lsn) with Sys_error _ -> ());
  open_segment w ~first_lsn:w.next_lsn;
  fsync_dir sdir;
  (w, r)

(* [walk] over [<dir>/shard<i>/] with no side effects. *)
let walk_dir ~dir ~shard =
  let sdir = shard_dir_in dir shard in
  let clean = Sys.file_exists (clean_path sdir) in
  match walk ~sdir ~clean ~on_ckpt:(fun ~bound:_ _ -> ()) ~on_record:ignore with
  | walked -> Ok walked
  | exception (Died msg | Sys_error msg) -> Error msg

let verify ~dir ~shard = Result.map fst (walk_dir ~dir ~shard)

(* --- Read-only inspection (ei wal) ------------------------------------ *)

type segment_info = {
  si_path : string;
  si_first_lsn : int;
  si_bytes : int;
  si_frames : int;
  si_last_lsn : int;
  si_torn : (int * string) option;
}

type ckpt_info = {
  ci_seq : int;
  ci_lsn : int;
  ci_count : int;
  ci_fingerprint : int;
  ci_bound : int;
  ci_error : string option;
}

let inspect_shard ~dir ~shard =
  let sdir = shard_dir_in dir shard in
  (* the torn mark is recovery's: only the tail its walk would cut *)
  let cut = match walk_dir ~dir ~shard with Ok (_, c) -> c | Error _ -> None in
  let segs =
    List.map
      (fun (first_lsn, path) ->
        let s = try read_file path with Sys_error _ -> "" in
        let records, err = Frame.decode_all s in
        {
          si_path = path;
          si_first_lsn = first_lsn;
          si_bytes = String.length s;
          si_frames = List.length records;
          si_last_lsn =
            List.fold_left (fun acc r -> max acc (Frame.lsn r)) 0 records;
          si_torn =
            (match (cut, err) with
            | Some (p, _), Some _ when String.equal p path -> err
            | _ -> None);
        })
      (list_segments sdir)
  in
  let ckpts =
    List.map
      (fun (seq, json) ->
        (* a validating checkpoint's manifest is its content, so the
           manifest's fields stand for it either way *)
        let lsn, count, fp, bound =
          match read_manifest json with Ok m -> m | Error _ -> (0, 0, 0, 0)
        in
        {
          ci_seq = seq;
          ci_lsn = lsn;
          ci_count = count;
          ci_fingerprint = fp;
          ci_bound = bound;
          ci_error = Result.fold ~ok:(fun _ -> None) ~error:Option.some
              (validate_ckpt ~sdir seq);
        })
      (list_ckpts sdir)
  in
  (segs, ckpts, Sys.file_exists (clean_path sdir))

let manifest ~dir ~shard =
  let sdir = shard_dir_in dir shard in
  List.find_map
    (fun (_, json) ->
      match J.parse (read_file json) with
      | Ok j -> Some j
      | Error _ -> None
      | exception Sys_error _ -> None)
    (list_ckpts sdir)

let truncate_torn ~dir ~shard =
  Result.map
    (function
      | _, None -> 0
      | _, Some (path, off) ->
        truncate_file path off;
        1)
    (walk_dir ~dir ~shard)

(* --- Test/chaos support ----------------------------------------------- *)

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> remove_tree (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let refuse_root name dir =
  if String.length dir = 0 || String.equal dir "/" then
    invalid_arg (name ^ ": refusing to clear this path")

let reset_dir dir =
  refuse_root "Wal.reset_dir" dir;
  remove_tree dir;
  mkdir_p dir

let remove_dir dir =
  refuse_root "Wal.remove_dir" dir;
  remove_tree dir
