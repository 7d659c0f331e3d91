(* WAL test suite.

   a. Frame codec: qcheck round-trips plus *adversarial* rejection —
      every single-bit flip and every truncation of a frame must
      decode to Error (never raise, never return a wrong record) —
      golden bytes for one record per tag, and the shared frame
      envelope's own adversaries (Codec_harness.envelope_cases).
   b. Writer/recovery units: clean close + recovery fidelity
      (contents, elastic bound, clean marker), rotation + checkpoint
      pruning, corrupt-newest-checkpoint fallback, and the two
      deterministic crash levers (torn batch tail, dropped page
      cache).  On each of these directories, and on a lone corrupt
      checkpoint and a CRC-valid LSN gap, the read-only [Wal.verify]
      must report exactly what [Wal.recover] returns or raises; the
      listing marks torn only the tail recovery cuts; and a checkpoint
      of an expanding elastic part is its walk alone (no [find]).
   c. Serve integration: a durable fleet stopped cleanly recovers
      byte-identical contents in a fresh process image (fresh Table,
      fresh parts); a crashing fleet under fault injection loses no
      acknowledged write across supervisor rebuild-from-disk; a failed
      WAL commit does not hang later batches that have no deadline,
      because a durable fleet always runs the supervisor; a request
      for a shard under rebuild waits for it only until its deadline,
      and no op is ever applied on the client's domain.
   d. A mini durable chaos soak: report clean, restart check clean,
      and two equal-seed runs agree on the (narrowed) schedule
      digest.
   e. The ei_sim WAL crash scenarios survive schedule exploration. *)

module Key = Ei_util.Key
module Table = Ei_storage.Table
module Registry = Ei_harness.Registry
module Index_ops = Ei_harness.Index_ops
module Frame = Ei_wal.Frame
module Wal = Ei_wal.Wal
module Fault = Ei_fault.Fault
module Serve = Ei_shard.Serve
module Shard = Ei_shard.Shard
module Fleet = Ei_shard.Fleet
module Chaos = Ei_chaos.Chaos
module Olc = Ei_olc.Btree_olc
module Sim = Ei_sim.Sim
module Sched = Ei_sim.Sched

(* [f] on a fresh WAL root for [name], removed afterwards. *)
let with_dir name f =
  let d = Filename.temp_dir ("ei-test-wal-" ^ name ^ "-") "" in
  Fun.protect ~finally:(fun () -> Wal.remove_dir d) (fun () -> f d)

let mk_part ?(bound = 1 lsl 20) table name =
  Registry.make ~name ~key_len:8 ~load:(Table.loader table)
    (Registry.Elastic (Ei_core.Elasticity.default_config ~size_bound:bound))

(* Log an insert of key [i * 7919] on a fresh row, and apply it. *)
let log_and_insert w (part : Index_ops.t) table i =
  let key = Key.of_int (i * 7919) in
  let tid = Table.append table key in
  Wal.log_insert w key tid;
  ignore (part.Index_ops.insert key tid)

(* [ix] counting its [find] calls into [finds]. *)
let counting_finds finds (ix : Index_ops.t) =
  {
    ix with
    Index_ops.find =
      (fun k ->
        Atomic.incr finds;
        ix.Index_ops.find k);
  }

(* --- a. frame codec --------------------------------------------------- *)

(* Domains compute their first CRC at the same moment, as shard
   domains' first WAL commits do.  A table built on first use raises
   [CamlinternalLazy.Undefined] in a domain that asks while another is
   building it.  The window is about a microsecond, so the rounds of
   spawns before the real one warm the domain pool until four domains
   leave the barrier together (on a two-core box this catches a lazy
   table in most runs).  Must run before anything else in this process
   computes a CRC.  Check value: CRC-32 of "123456789". *)
let test_crc_concurrent_first_use () =
  let domains = 4 in
  let round f =
    let ready = Atomic.make 0 in
    let worker () =
      Atomic.incr ready;
      while Atomic.get ready < domains do
        Domain.cpu_relax ()
      done;
      f ()
    in
    List.map Domain.join (List.init domains (fun _ -> Domain.spawn worker))
  in
  for _ = 1 to 32 do
    ignore (round (fun () -> Sys.opaque_identity (Array.make 300 0)))
  done;
  round (fun () -> List.init 3 (fun _ -> Ei_wal.Crc32.string "123456789"))
  |> List.iter (List.iter (Alcotest.(check int) "crc" 0xcbf43926))

let record_gen =
  QCheck.Gen.(
    let key = string_size ~gen:char (int_range 0 40) in
    let lsn = int_range 0 0x3FFF_FFFF in
    let tid = int_range 0 0xFFFFF in
    frequency
      [
        (3, map3 (fun lsn key tid -> Frame.Insert { lsn; key; tid }) lsn key tid);
        (2, map2 (fun lsn key -> Frame.Remove { lsn; key }) lsn key);
        (2, map3 (fun lsn key tid -> Frame.Update { lsn; key; tid }) lsn key tid);
        ( 1,
          map2
            (fun lsn bound -> Frame.Bound { lsn; bound })
            lsn (int_range 0 (1 lsl 30)) );
      ])

(* The record printer of the qcheck and adversarial cases (hex keys). *)
let describe = function
  | Frame.Insert { lsn; key; tid } ->
    Printf.sprintf "%d insert %s tid=%d" lsn (Key.to_hex key) tid
  | Frame.Remove { lsn; key } -> Printf.sprintf "%d remove %s" lsn (Key.to_hex key)
  | Frame.Update { lsn; key; tid } ->
    Printf.sprintf "%d update %s tid=%d" lsn (Key.to_hex key) tid
  | Frame.Bound { lsn; bound } -> Printf.sprintf "%d bound %d" lsn bound

(* One frame the way the writer makes it. *)
let encode r =
  let b = Buffer.create 48 in
  Frame.encode_into b r;
  Buffer.contents b

(* The first frame of [s], read the way recovery reads it. *)
let decode s =
  match Frame.decode_all s with
  | r :: _, _ -> Ok r
  | [], Some (_, msg) -> Error msg
  | [], None -> Error "no frame"

let record_arb = QCheck.make ~print:describe record_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"frame round-trips" ~count:500 record_arb (fun r ->
      Frame.decode_all (encode r) = ([ r ], None))

let prop_stream_roundtrip =
  QCheck.Test.make ~name:"frame stream round-trips" ~count:200
    QCheck.(make Gen.(list_size (int_bound 20) record_gen))
    (fun rs ->
      let b = Buffer.create 256 in
      List.iter (Frame.encode_into b) rs;
      let got, err = Frame.decode_all (Buffer.contents b) in
      got = rs && err = None)

(* Exhaustive adversarial sweeps over fixed vectors, via the property
   harness shared with the ei_net wire-codec suite (Codec_harness):
   deterministic, and CRC-32 guarantees detection of any single-bit
   error within a frame.  The WAL decoder works on a complete file
   image, so — unlike the incremental wire decoder — its only legal
   answer to damage is outright rejection. *)
let fixed_records =
  [
    Frame.Insert { lsn = 1; key = "k0000001"; tid = 7 };
    Frame.Remove { lsn = 2; key = String.make 8 '\xff' };
    Frame.Update { lsn = 77; key = "\x00\x01\x02\x03\x04\x05\x06\x07"; tid = 0 };
    Frame.Bound { lsn = 123456789; bound = 1 lsl 24 };
    Frame.Insert { lsn = 0; key = ""; tid = 0 };
  ]

let flip_bit = Codec_harness.flip_bit

let frame_verdict s =
  match decode s with
  | Ok _ -> Codec_harness.Accepted
  | Error _ -> Codec_harness.Rejected

let rejected = function
  | Codec_harness.Rejected -> true
  | Codec_harness.Accepted | Codec_harness.Incomplete -> false

let test_bit_flips () =
  Codec_harness.check_bit_flips ~what:"wal frame" ~describe
    ~encode ~verdict:frame_verdict ~allowed:rejected
    fixed_records

let test_truncations () =
  Codec_harness.check_truncations ~what:"wal frame" ~describe
    ~encode ~verdict:frame_verdict ~allowed:rejected
    fixed_records

let test_length_lies () =
  Codec_harness.check_length_lies ~what:"wal frame" ~describe
    ~encode ~verdict:frame_verdict ~allowed:rejected
    fixed_records

let prop_random_flip =
  Codec_harness.prop_random_flip ~name:"random single-bit flip rejected"
    ~arb:record_arb ~encode ~verdict:frame_verdict
    ~allowed:rejected

let test_torn_tail_decode () =
  let rs = fixed_records in
  let b = Buffer.create 256 in
  List.iter (Frame.encode_into b) rs;
  let whole = Buffer.contents b in
  let last = encode (List.nth rs (List.length rs - 1)) in
  let good = String.length whole - String.length last in
  (* cut anywhere inside the final frame: good prefix survives, and the
     reported truncation point is exactly where the last frame starts *)
  let cut = good + (String.length last / 2) in
  let got, err = Frame.decode_all (String.sub whole 0 cut) in
  Alcotest.(check int) "good prefix survives" (List.length rs - 1)
    (List.length got);
  match err with
  | Some (off, _) -> Alcotest.(check int) "torn offset" good off
  | None -> Alcotest.fail "torn tail went unreported"

(* The bytes the encoder wrote when the format was fixed, one record
   per tag: a format change fails here even where every round trip
   still passes, so a log written by an older build keeps recovering. *)
let test_golden_frames () =
  let key = Key.of_int 0x0102030405060708 in
  List.iter
    (fun (name, r) ->
      let frame = Codec_harness.golden name in
      Alcotest.(check string) name (Key.to_hex frame) (Key.to_hex (encode r));
      if Frame.decode_all frame <> ([ r ], None) then
        Alcotest.failf "%s does not decode back" name)
    [
      ("wal-insert", Frame.Insert { lsn = 7; key; tid = 42 });
      ("wal-remove", Frame.Remove { lsn = 8; key });
      ("wal-update", Frame.Update { lsn = 9; key; tid = 43 });
      ("wal-bound", Frame.Bound { lsn = 10; bound = 49152 });
    ]

(* --- b. writer / recovery units -------------------------------------- *)

(* Apply a deterministic mixed tape of [n] keys ([stride] apart) through
   a fresh writer on [cfg] and a live part, then close the writer;
   returns the writer's recovery record and the part. *)
let write_tape cfg ~name ~n ~stride =
  let table = Table.create ~key_len:8 () in
  let part = mk_part table name in
  let keys = Array.init n (fun i -> Key.of_int (i * stride)) in
  let tids = Array.map (Table.append table) keys in
  let w, r0 = Wal.recover cfg ~shard:0 ~part in
  for i = 0 to n - 1 do
    Wal.log_insert w keys.(i) tids.(i);
    ignore (part.Index_ops.insert keys.(i) tids.(i));
    if i mod 5 = 3 then begin
      Wal.log_remove w keys.(i - 2);
      ignore (part.Index_ops.remove keys.(i - 2))
    end;
    if i mod 16 = 15 then Wal.commit w ~part
  done;
  Wal.log_bound w 4096;
  part.Index_ops.set_size_bound 4096;
  Wal.commit w ~part;
  Wal.close w;
  (r0, part)

(* Recover a shard (default 0) into a fresh table and part, then close
   the writer; returns the recovery record and the part. *)
let recover_fresh ?(shard = 0) cfg ~name =
  let t = Table.create ~key_len:8 () in
  let p = mk_part t name in
  let w, r =
    Wal.recover cfg ~shard
      ~restore:(fun ~tid ~key -> Table.restore_row t ~tid ~key)
      ~part:p
  in
  Wal.close w;
  (r, p)

(* Every file of shard 0 under [dir], as (name, bytes), in name order. *)
let shard_files dir =
  let sdir = Filename.concat dir "shard0" in
  Sys.readdir sdir |> Array.to_list |> List.sort String.compare
  |> List.map (fun name ->
         (name, In_channel.with_open_bin (Filename.concat sdir name)
                  In_channel.input_all))

(* [Wal.verify] on shard 0 of [cfg.dir] writes nothing and reports what
   [Wal.recover] returns on a byte-copy of the directory.  Returns that
   recovery's record and part. *)
let verify_agrees cfg ~name =
  let dir = cfg.Wal.dir in
  let before = shard_files dir in
  let verdict = Wal.verify ~dir ~shard:0 in
  Alcotest.(check bool)
    "verify leaves every file byte-identical" true
    (shard_files dir = before);
  let copy = dir ^ "-copy" in
  Wal.reset_dir (Filename.concat copy "shard0");
  List.iter
    (fun (name, bytes) ->
      Out_channel.with_open_bin (Filename.concat copy ("shard0/" ^ name))
        (fun oc -> Out_channel.output_string oc bytes))
    before;
  let r, p = recover_fresh { cfg with Wal.dir = copy } ~name in
  Wal.remove_dir copy;
  Alcotest.(check bool) "verify reports recover's record" true (verdict = Ok r);
  (r, p)

let test_basic_recovery () =
  with_dir "basic" @@ fun dir ->
  let cfg = { (Wal.default_config ~dir) with Wal.fsync_every = 1 } in
  let r0, part = write_tape cfg ~name:"wal-basic" ~n:200 ~stride:7919 in
  Alcotest.(check int) "fresh dir: nothing replayed" 0 r0.Wal.r_replayed;
  let fp = Index_ops.fingerprint part in
  let count = part.Index_ops.count () in
  ignore (verify_agrees cfg ~name:"wal-basic-verify");
  let r, p2 = recover_fresh cfg ~name:"wal-basic-rec" in
  Alcotest.(check bool) "clean marker honoured" true r.Wal.r_clean;
  Alcotest.(check int) "contents recovered bit-for-bit" fp
    (Index_ops.fingerprint p2);
  Alcotest.(check int) "count recovered" count (p2.Index_ops.count ());
  Alcotest.(check int) "elastic bound recovered" 4096 r.Wal.r_bound

let test_checkpoint_fallback () =
  with_dir "ckpt" @@ fun dir ->
  let cfg =
    {
      (Wal.default_config ~dir) with
      Wal.fsync_every = 1;
      checkpoint_every = 8;
      segment_bytes = 512;
      keep_checkpoints = 2;
    }
  in
  let _, part = write_tape cfg ~name:"wal-ckpt" ~n:300 ~stride:104729 in
  let fp = Index_ops.fingerprint part in
  let segs, ckpts, clean = Wal.inspect_shard ~dir ~shard:0 in
  Alcotest.(check bool) "clean marker" true clean;
  Alcotest.(check bool) "rotation happened" true (List.length segs > 1);
  Alcotest.(check int) "retention pruned to keep_checkpoints" 2
    (List.length ckpts);
  List.iter
    (fun c ->
      Alcotest.(check bool) "checkpoint validates" true (c.Wal.ci_error = None))
    ckpts;
  ignore (verify_agrees cfg ~name:"wal-ckpt-verify");
  let r, p2 = recover_fresh cfg ~name:"wal-ckpt-rec" in
  Alcotest.(check bool) "recovery used a checkpoint" true
    (r.Wal.r_ckpt_entries > 0);
  Alcotest.(check int) "contents recovered" fp (Index_ops.fingerprint p2);
  (* flip one byte mid-payload of the newest checkpoint's data file:
     recovery must reject it and fall back to the older generation *)
  let sdir = Filename.concat dir "shard0" in
  let dats =
    Sys.readdir sdir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 4
           && String.sub f 0 5 = "ckpt-"
           && Filename.check_suffix f ".dat")
    |> List.sort String.compare |> List.rev
  in
  let newest = Filename.concat sdir (List.hd dats) in
  let bytes = In_channel.with_open_bin newest In_channel.input_all in
  let mid = String.length bytes / 2 in
  Out_channel.with_open_bin newest (fun oc ->
      Out_channel.output_string oc (flip_bit bytes (mid * 8)));
  ignore (verify_agrees cfg ~name:"wal-ckpt-fb-verify");
  let r3, p3 = recover_fresh cfg ~name:"wal-ckpt-fb" in
  Alcotest.(check bool) "corrupt newest skipped" true
    (r3.Wal.r_ckpt_fallbacks >= 1);
  Alcotest.(check int) "fallback still recovers contents" fp
    (Index_ops.fingerprint p3)

let test_crash_torn () =
  with_dir "torn" @@ fun dir ->
  let cfg = { (Wal.default_config ~dir) with Wal.fsync_every = 1 } in
  let table = Table.create ~key_len:8 () in
  let part = mk_part table "wal-torn-unit" in
  let keys = Array.init 23 (fun i -> Key.of_int i) in
  let tids = Array.map (Table.append table) keys in
  let w, _ = Wal.recover cfg ~shard:0 ~part in
  for i = 0 to 19 do
    Wal.log_insert w keys.(i) tids.(i);
    ignore (part.Index_ops.insert keys.(i) tids.(i))
  done;
  Wal.commit w ~part;
  for i = 20 to 22 do
    Wal.log_insert w keys.(i) tids.(i)
  done;
  (match Wal.crash_torn w with
  | _ -> Alcotest.fail "crash_torn returned"
  | exception Wal.Died _ -> ());
  (* recovery cuts the torn tail on a byte-copy; after truncate's cut
     it finds the same log and nothing left to cut *)
  let torn, _ = verify_agrees cfg ~name:"wal-torn-verify" in
  Alcotest.(check int) "torn tail truncated" 1 torn.Wal.r_torn;
  Alcotest.(check bool) "truncate cuts it" true
    (Wal.truncate_torn ~dir ~shard:0 = Ok 1);
  let r, p2 = recover_fresh cfg ~name:"wal-torn-rec" in
  Alcotest.(check bool) "truncate cut where recovery cuts" true
    (r = { torn with Wal.r_torn = 0 });
  Alcotest.(check bool) "no clean marker" false r.Wal.r_clean;
  (* 20 committed + 2 complete frames of the torn batch; the 23rd frame
     lost its last bytes *)
  Alcotest.(check int) "recovered to the torn horizon" 22 r.Wal.r_last_lsn;
  Alcotest.(check int) "durable prefix intact" 22 (p2.Index_ops.count ())

let test_crash_unsynced () =
  with_dir "unsynced" @@ fun dir ->
  let cfg = { (Wal.default_config ~dir) with Wal.fsync_every = 2 } in
  let table = Table.create ~key_len:8 () in
  let part = mk_part table "wal-unsync-unit" in
  let keys = Array.init 30 (fun i -> Key.of_int i) in
  let tids = Array.map (Table.append table) keys in
  let w, _ = Wal.recover cfg ~shard:0 ~part in
  for c = 0 to 2 do
    for i = c * 10 to (c * 10) + 9 do
      Wal.log_insert w keys.(i) tids.(i);
      ignore (part.Index_ops.insert keys.(i) tids.(i))
    done;
    Wal.commit w ~part
  done;
  (* fsync_every = 2: commits 1 and 3 were not synced — the page cache
     holds records 21..30 *)
  Alcotest.(check int) "durable horizon at the synced commit" 20
    (Wal.durable_lsn w);
  (match Wal.crash_unsynced w with
  | _ -> Alcotest.fail "crash_unsynced returned"
  | exception Wal.Died _ -> ());
  ignore (verify_agrees cfg ~name:"wal-unsync-verify");
  let r, p2 = recover_fresh cfg ~name:"wal-unsync-rec" in
  Alcotest.(check int) "recovered exactly the synced prefix" 20
    r.Wal.r_last_lsn;
  Alcotest.(check int) "unsynced records gone" 20 (p2.Index_ops.count ())

(* One segment from LSN 1 and a single checkpoint whose data file has
   one byte flipped: no checkpoint validates, yet nothing is lost —
   recovery counts the fallback and replays the whole log. *)
let test_lone_corrupt_checkpoint () =
  with_dir "lone-ckpt" @@ fun dir ->
  let cfg =
    { (Wal.default_config ~dir) with Wal.fsync_every = 1; checkpoint_every = 4 }
  in
  let table = Table.create ~key_len:8 () in
  let part = mk_part table "wal-lone" in
  let w, _ = Wal.recover cfg ~shard:0 ~part in
  for i = 0 to 63 do
    log_and_insert w part table i;
    if i mod 16 = 15 then Wal.commit w ~part
  done;
  Wal.close w;
  let dat = Filename.concat dir "shard0/ckpt-000001.dat" in
  let bytes = In_channel.with_open_bin dat In_channel.input_all in
  Out_channel.with_open_bin dat (fun oc ->
      Out_channel.output_string oc
        (flip_bit bytes (String.length bytes / 2 * 8)));
  let segs, ckpts, _ = Wal.inspect_shard ~dir ~shard:0 in
  Alcotest.(check int) "one segment" 1 (List.length segs);
  Alcotest.(check bool) "the only checkpoint is corrupt" true
    (List.map (fun c -> c.Wal.ci_error <> None) ckpts = [ true ]);
  let r, p = verify_agrees cfg ~name:"wal-lone-verify" in
  Alcotest.(check int) "fallback counted" 1 r.Wal.r_ckpt_fallbacks;
  Alcotest.(check int) "whole log replayed" 64 r.Wal.r_replayed;
  Alcotest.(check int) "contents recovered" (Index_ops.fingerprint part)
    (Index_ops.fingerprint p)

(* A CRC-valid segment holding LSNs 1, 2 and 4, then stray bytes:
   every frame decodes, but the log has a hole, so recovery refuses it,
   and verify and truncate refuse it with the same words and write
   nothing. *)
let test_valid_frames_lsn_gap () =
  with_dir "lsn-gap" @@ fun dir ->
  let sdir = Filename.concat dir "shard0" in
  Unix.mkdir sdir 0o755;
  Out_channel.with_open_bin
    (Filename.concat sdir "wal-0000000000000001.seg")
    (fun oc ->
      List.iter
        (fun lsn ->
          Out_channel.output_string oc
            (encode (Frame.Insert { lsn; key = Key.of_int lsn; tid = lsn })))
        [ 1; 2; 4 ];
      Out_channel.output_string oc "\x07\x00");
  let before = shard_files dir in
  match Wal.verify ~dir ~shard:0 with
  | Ok _ -> Alcotest.fail "verify accepted an LSN gap"
  | Error msg -> (
    Alcotest.(check bool) "truncate refuses with verify's error" true
      (Wal.truncate_torn ~dir ~shard:0 = Error msg);
    Alcotest.(check bool) "verify and truncate write nothing" true
      (shard_files dir = before);
    match recover_fresh (Wal.default_config ~dir) ~name:"wal-gap-rec" with
    | _ -> Alcotest.fail "recover accepted an LSN gap"
    | exception Wal.Died died ->
      Alcotest.(check string) "verify's error is recover's" died msg)

(* The listing marks a segment torn only where recovery's walk cuts:
   bytes past an interior segment's last frame hold no LSN recovery
   replays, so [inspect_shard], [verify] and [truncate_torn] all pass
   over them, while the newest segment's torn tail is marked at the
   offset truncation cuts. *)
let test_torn_mark_is_recoverys () =
  with_dir "torn-mark" @@ fun dir ->
  let cfg =
    { (Wal.default_config ~dir) with Wal.fsync_every = 1; segment_bytes = 512 }
  in
  let table = Table.create ~key_len:8 () in
  let part = mk_part table "wal-torn-mark" in
  let w, _ = Wal.recover cfg ~shard:0 ~part in
  for i = 0 to 63 do
    log_and_insert w part table i;
    if i mod 8 = 7 then Wal.commit w ~part
  done;
  Wal.close w;
  let segs, _, _ = Wal.inspect_shard ~dir ~shard:0 in
  (* the (segment, offset) pairs the listing marks torn *)
  let marks () =
    let segs, _, _ = Wal.inspect_shard ~dir ~shard:0 in
    List.filter_map
      (fun s -> Option.map (fun (off, _) -> (s.Wal.si_path, off)) s.Wal.si_torn)
      segs
  in
  let append (s : Wal.segment_info) =
    Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 s.Wal.si_path
      (fun oc -> Out_channel.output_string oc "abc")
  in
  let last = List.nth segs (List.length segs - 1) in
  Alcotest.(check bool) "rotation happened" true (List.length segs > 1);
  append (List.hd segs);
  Alcotest.(check (list (pair string int)))
    "interior stray bytes not marked torn" [] (marks ());
  Alcotest.(check bool) "verify finds the log recoverable" true
    (Result.is_ok (Wal.verify ~dir ~shard:0));
  Alcotest.(check bool) "truncate finds no torn tail" true
    (Wal.truncate_torn ~dir ~shard:0 = Ok 0);
  append last;
  Alcotest.(check (list (pair string int)))
    "the newest segment is marked at its end"
    [ (last.Wal.si_path, last.Wal.si_bytes) ]
    (marks ());
  Alcotest.(check bool) "truncate cuts the marked tail" true
    (Wal.truncate_torn ~dir ~shard:0 = Ok 1);
  Alcotest.(check int) "cut at the mark" last.Wal.si_bytes
    (Unix.stat last.Wal.si_path).Unix.st_size

(* A checkpoint taken just after the bound is raised, while the elastic
   part is expanding, where a [find] may split the compact leaf a walk
   is on (§4).  Checkpoints and fingerprints read the part through the
   walk alone, with no [find]: the snapshot validates, holds the part's
   count, and the shard stays recoverable; two fingerprints of the
   unchanged map agree and move no byte. *)
let test_checkpoint_while_expanding () =
  with_dir "expanding" @@ fun dir ->
  let cfg =
    { (Wal.default_config ~dir) with Wal.fsync_every = 1; checkpoint_every = 1 }
  in
  let table = Table.create ~key_len:8 () in
  let finds = Atomic.make 0 in
  let part =
    counting_finds finds (mk_part ~bound:600_000 table "wal-expanding")
  in
  let w, _ = Wal.recover cfg ~shard:0 ~part in
  for i = 0 to 49_999 do
    log_and_insert w part table i
  done;
  Wal.commit w ~part;
  Wal.log_bound w 100_000_000;
  part.Index_ops.set_size_bound 100_000_000;
  log_and_insert w part table 50_000;
  Wal.commit w ~part;
  Alcotest.(check int) "checkpoints make no find" 0 (Atomic.get finds);
  let mem = part.Index_ops.memory_bytes () in
  let fp = Index_ops.fingerprint part in
  Alcotest.(check int) "a second fingerprint agrees" fp
    (Index_ops.fingerprint part);
  Alcotest.(check int) "fingerprints move no byte" mem
    (part.Index_ops.memory_bytes ());
  Alcotest.(check int) "fingerprints make no find" 0 (Atomic.get finds);
  Wal.close w;
  let _, ckpts, _ = Wal.inspect_shard ~dir ~shard:0 in
  Alcotest.(check (list (option string))) "every checkpoint validates"
    (List.map (fun _ -> None) ckpts)
    (List.map (fun c -> c.Wal.ci_error) ckpts);
  Alcotest.(check int) "newest checkpoint holds the part's count"
    (part.Index_ops.count ()) (List.hd ckpts).Wal.ci_count;
  let _, p = verify_agrees cfg ~name:"wal-expanding-verify" in
  Alcotest.(check int) "contents recovered" fp (Index_ops.fingerprint p)

(* --- c. serve integration --------------------------------------------- *)

(* A durable fleet of 2 elastic shards whose parts are named [name/i]. *)
let wal_fleet ?timeout_s ?fault_prefix ~wal name =
  Fleet.start ~shards:2
    ~part:(fun table i -> mk_part table (Printf.sprintf "%s/%d" name i))
    ?timeout_s ?fault_prefix ~wal ()

let test_serve_restart () =
  with_dir "serve" @@ fun dir ->
  let wal = Wal.default_config ~dir in
  let n = 500 in
  let { Fleet.table; router; serve } = wal_fleet ~wal "serve-wal" in
  let keys = Array.init n (fun i -> Key.of_int (i * 31337)) in
  let tids = Array.map (Table.append table) keys in
  ignore
    (Serve.exec serve
       (Array.init n (fun i -> Serve.Insert (keys.(i), tids.(i)))));
  ignore
    (Serve.exec serve
       (Array.init (n / 5) (fun i -> Serve.Remove keys.(i * 5))));
  Serve.stop serve;
  let live = Shard.count router in
  (* a fresh process image: new Table, new empty parts, same directory *)
  let { Fleet.router = router2; serve = serve2; _ } =
    wal_fleet ~wal "serve-wal"
  in
  List.iter
    (fun (_, r) ->
      Alcotest.(check bool) "clean shutdown marker seen" true r.Wal.r_clean)
    (Serve.wal_recoveries serve2);
  Alcotest.(check int) "count survives restart" live (Shard.count router2);
  let outs =
    Serve.exec serve2 (Array.init n (fun i -> Serve.Find keys.(i)))
  in
  Array.iteri
    (fun i out ->
      let want = if i mod 5 = 0 then -1 else tids.(i) in
      match out with
      | Serve.Applied tid when tid = want -> ()
      | _ -> Alcotest.failf "key %d wrong after restart" i)
    outs;
  Serve.stop serve2

let rec wait_healthy serve =
  if not (Serve.healthy serve) then begin
    Unix.sleepf 0.001;
    wait_healthy serve
  end

let test_serve_crash_rebuild_from_disk () =
  with_dir "serve-crash" @@ fun dir ->
  let wal = { (Wal.default_config ~dir) with Wal.checkpoint_every = 16 } in
  let n = 400 in
  Fault.configure ~seed:11 [ ("serve.crash", 0.01) ];
  (* The supervisor comes with the WAL. *)
  let { Fleet.table; router; serve } =
    wal_fleet ~timeout_s:0.2 ~fault_prefix:"serve" ~wal "crash-wal"
  in
  let keys = Array.init n (fun i -> Key.of_int (i * 7919)) in
  let tids = Array.map (Table.append table) keys in
  for i = 0 to n - 1 do
    let acked = ref false in
    while not !acked do
      match (Serve.exec serve [| Serve.Insert (keys.(i), tids.(i)) |]).(0) with
      | Serve.Applied _ -> acked := true
      | Serve.Rejected -> ()
      | Serve.Timed_out -> wait_healthy serve
    done
  done;
  Fault.clear ();
  wait_healthy serve;
  let recoveries = Serve.recoveries serve in
  let lost = ref 0 in
  Array.iteri
    (fun i out ->
      match out with
      | Serve.Applied tid when tid = tids.(i) -> ()
      | _ -> incr lost)
    (Serve.exec serve (Array.init n (fun i -> Serve.Find keys.(i))));
  Serve.stop serve;
  Alcotest.(check int) "zero lost acknowledged writes" 0 !lost;
  Alcotest.(check bool) "crashes happened and rebuilt from disk" true
    (recoveries >= 1);
  Alcotest.(check int) "count reconciles" n (Shard.count router)

(* A request for a shard under rebuild waits for re-admission, but only
   until its deadline, and only the shard's own domain applies it.  One
   durable shard of 2000 keys; the injected crash kills its domain, and
   the supervisor's rebuild blocks 300 ms in the part constructor.  A
   [Find] with a 20 ms deadline sent during that rebuild comes back
   [Timed_out] well before the rebuild ends.  Every part counts the ops
   it applies on the test's own (client) domain: there must be none. *)
let test_rebuild_wait_bounded () =
  with_dir "serve-deadline" @@ fun dir ->
  let client = (Domain.self () :> int) in
  let on_client = Atomic.make 0 in
  let owned (ix : Index_ops.t) =
    let note () =
      if Int.equal (Domain.self () :> int) client then Atomic.incr on_client
    in
    {
      ix with
      Index_ops.insert = (fun k tid -> note (); ix.Index_ops.insert k tid);
      remove = (fun k -> note (); ix.Index_ops.remove k);
      update = (fun k tid -> note (); ix.Index_ops.update k tid);
      find = (fun k -> note (); ix.Index_ops.find k);
      multi_find = (fun ks -> note (); ix.Index_ops.multi_find ks);
      scan = (fun k n -> note (); ix.Index_ops.scan k n);
      scan_keys = (fun k n f -> note (); ix.Index_ops.scan_keys k n f);
    }
  in
  let armed = Atomic.make false and rebuilding = Atomic.make false in
  let part table i =
    if Atomic.get armed then begin
      Atomic.set rebuilding true;
      Unix.sleepf 0.3
    end;
    owned (mk_part table (Printf.sprintf "deadline/%d" i))
  in
  let { Fleet.table; serve; _ } =
    Fleet.start ~shards:1 ~part ~fault_prefix:"serve"
      ~wal:(Wal.default_config ~dir) ()
  in
  let keys = Array.init 2_000 (fun i -> Key.of_int (i * 7919)) in
  let tids = Array.map (Table.append table) keys in
  Array.iter
    (function
      | Serve.Applied 1 -> () | _ -> Alcotest.fail "insert not applied")
    (Serve.exec serve (Array.mapi (fun i k -> Serve.Insert (k, tids.(i))) keys));
  Atomic.set armed true;
  Fault.configure ~seed:1 [ ("serve.crash.shard0", 1.0) ];
  (match Serve.exec serve [| Serve.Find keys.(0) |] with
  | [| Serve.Timed_out |] -> ()
  | _ -> Alcotest.fail "the injected crash did not fail its op");
  Fault.clear ();
  while not (Atomic.get rebuilding) do
    Unix.sleepf 0.001
  done;
  let t0 = Ei_util.Bench_clock.now_ns () in
  let during = Serve.exec ~timeout_s:0.02 serve [| Serve.Find keys.(1) |] in
  let waited_s = float_of_int (Ei_util.Bench_clock.now_ns () - t0) *. 1e-9 in
  wait_healthy serve;
  let after = Serve.exec serve [| Serve.Find keys.(1) |] in
  Serve.stop serve;
  (match during with
  | [| Serve.Timed_out |] when Float.compare waited_s 0.1 < 0 -> ()
  | [| o |] ->
    Alcotest.failf "%s after %.1f ms; want Timed_out within 100 ms"
      (match o with
      | Serve.Applied r -> Printf.sprintf "Applied %d" r
      | Serve.Rejected -> "Rejected"
      | Serve.Timed_out -> "Timed_out")
      (waited_s *. 1e3)
  | _ -> Alcotest.fail "one op, one outcome");
  Alcotest.(check bool) "applied after re-admission" true
    (after = [| Serve.Applied tids.(1) |]);
  Alcotest.(check int) "ops applied on the client's domain" 0
    (Atomic.get on_client)

(* One failed fsync kills both shard domains mid-commit.  The fleet has
   no deadline, so a dead shard whose queue stayed open would block the
   next batch forever; the supervisor every durable fleet runs rebuilds
   both shards from disk instead.  A batch racing the rebuild may time
   out, so the later batches start once the fleet is healthy again. *)
let test_wal_fault_no_hang () =
  with_dir "serve-fsync" @@ fun dir ->
  let { Fleet.table; serve; _ } =
    wal_fleet ~fault_prefix:"serve" ~wal:(Wal.default_config ~dir) "fsync-wal"
  in
  let batches =
    Array.init 4 (fun b ->
        Array.init 64 (fun i ->
            let k = Key.of_int ((b * 64) + i) in
            Serve.Insert (k, Table.append table k)))
  in
  Fault.configure ~seed:5 [ ("serve.wal.fsync", 1.0) ];
  ignore (Serve.exec serve batches.(0));
  Fault.clear ();
  wait_healthy serve;
  for b = 1 to 3 do
    Array.iteri
      (fun i out ->
        match out with
        | Serve.Applied 1 -> ()
        | _ -> Alcotest.failf "batch %d op %d not applied" b i)
      (Serve.exec serve batches.(b))
  done;
  let recoveries = Serve.recoveries serve in
  Serve.stop serve;
  Alcotest.(check bool) "the failed commit was recovered" true
    (recoveries >= 1)

let test_wal_needs_supervisor () =
  with_dir "serve-bare" @@ fun dir ->
  let table = Table.create ~key_len:8 () in
  let router = Shard.create [| mk_part table "bare-wal/0" |] in
  match Serve.start ~wal:(Wal.default_config ~dir) router with
  | serve ->
    Serve.stop serve;
    Alcotest.fail "a WAL without a supervisor was accepted"
  | exception Invalid_argument _ -> ()

(* The mirror rule: the WAL is the only source a supervisor rebuilds
   from, so a supervisor without one is refused. *)
let test_supervisor_needs_wal () =
  let table = Table.create ~key_len:8 () in
  let rebuild i = mk_part table (Printf.sprintf "bare-sup/%d" i) in
  let router = Shard.create [| rebuild 0 |] in
  match
    Serve.start
      ~supervisor:(Serve.default_supervisor ~table ~rebuild)
      router
  with
  | serve ->
    Serve.stop serve;
    Alcotest.fail "a supervisor without a WAL was accepted"
  | exception Invalid_argument _ -> ()

(* A supervised shard applies a remove or an update with the index's own
   call alone: the WAL needs no lookup of the old tid. *)
let test_supervised_remove_one_lookup () =
  with_dir "serve-lookups" @@ fun dir ->
  let finds = Atomic.make 0 in
  let part table i =
    counting_finds finds (mk_part table (Printf.sprintf "lookups/%d" i))
  in
  let { Fleet.table; serve; _ } =
    Fleet.start ~shards:2 ~part ~wal:(Wal.default_config ~dir) ()
  in
  let n = 200 in
  let keys = Array.init n (fun i -> Key.of_int (i * 7919)) in
  let inserts =
    Array.map (fun k -> Serve.Insert (k, Table.append table k)) keys
  in
  Array.iter
    (function
      | Serve.Applied 1 -> () | _ -> Alcotest.fail "insert not applied")
    (Serve.exec serve inserts);
  Atomic.set finds 0;
  let ops =
    Array.mapi
      (fun i k ->
        if i mod 2 = 0 then Serve.Remove k
        else Serve.Update (k, Table.append table k))
      keys
  in
  let outs = Serve.exec serve ops in
  Serve.stop serve;
  Array.iter
    (function
      | Serve.Applied 1 -> ()
      | _ -> Alcotest.fail "remove / update not applied")
    outs;
  Alcotest.(check int) "index finds for removes and updates" 0
    (Atomic.get finds)

(* --- d. mini durable chaos soak --------------------------------------- *)

(* An explicit pass leaves each shard's split in its slot; the shard's
   next batch applies it and logs it inside that batch's commit, so a
   restart recovers exactly the split. *)
let test_bound_rides_commit () =
  with_dir "bound" @@ fun dir ->
  let wal = Wal.default_config ~dir in
  let { Fleet.table; router; serve } = wal_fleet ~wal "bound-wal" in
  let cfg = Serve.default_coordinator ~global_bound:100_000 in
  let want = Serve.split_bounds cfg ~sizes:(Serve.shard_sizes serve) in
  Serve.rebalance_with serve cfg;
  (* One insert per shard: the key's top bit picks the half of the
     range partition. *)
  let ops =
    Array.init 2 (fun s ->
        let k = Key.of_int64 (Int64.shift_left (Int64.of_int s) 63) in
        Alcotest.(check int) "routed" s (Shard.shard_of_key router k);
        Serve.Insert (k, Table.append table k))
  in
  Array.iter
    (function
      | Serve.Applied 1 -> () | _ -> Alcotest.fail "insert not applied")
    (Serve.exec serve ops);
  Serve.stop serve;
  Array.iteri
    (fun shard b ->
      let r, _ = recover_fresh ~shard wal ~name:"bound-wal-rec" in
      Alcotest.(check int)
        (Printf.sprintf "shard %d recovers its split" shard)
        b r.Wal.r_bound)
    want

let test_chaos_wal () =
  with_dir "chaos" @@ fun dir ->
  let config =
    {
      (Chaos.default_config ~seed:123) with
      Chaos.scale = 0.05;
      wal_dir = Some dir;
    }
  in
  let r1 = Chaos.run config in
  let r2 = Chaos.run config in
  Alcotest.(check bool) "first durable soak ok" true (Chaos.ok r1);
  Alcotest.(check bool) "second durable soak ok" true (Chaos.ok r2);
  Alcotest.(check bool) "restart check ran" true
    (r1.Chaos.restart_replayed > 0);
  Alcotest.(check string) "equal seeds agree on the pure schedule"
    (Chaos.schedule_digest r1) (Chaos.schedule_digest r2)

(* --- e. sim crash scenarios ------------------------------------------- *)

let test_sim_wal_scenarios () =
  List.iter
    (fun name ->
      match Sim.scenario name with
      | None -> Alcotest.fail ("missing scenario " ^ name)
      | Some mk -> (
        match Sched.explore ~seed:3 ~rounds:12 mk with
        | None -> ()
        | Some f ->
          Alcotest.failf "%s failed (round %d): %s" name f.Sched.round
            f.Sched.error))
    [ "wal-torn"; "wal-fsync"; "wal-wedge" ]

let () =
  let qt =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| Ei_util.Rng.env_seed ~default:0 |])
  in
  Alcotest.run "ei_wal"
    [
      ( "codec",
        [
          Alcotest.test_case "concurrent first CRC" `Quick
            test_crc_concurrent_first_use;
          qt prop_roundtrip;
          qt prop_stream_roundtrip;
          qt prop_random_flip;
          Alcotest.test_case "every single-bit flip rejected" `Quick
            test_bit_flips;
          Alcotest.test_case "every truncation rejected" `Quick
            test_truncations;
          Alcotest.test_case "length-field lies rejected" `Quick
            test_length_lies;
          Alcotest.test_case "torn tail localised" `Quick test_torn_tail_decode;
          Alcotest.test_case "golden frame bytes" `Quick test_golden_frames;
        ] );
      ("envelope", Codec_harness.envelope_cases);
      ( "recovery",
        [
          Alcotest.test_case "clean close round-trips" `Quick
            test_basic_recovery;
          Alcotest.test_case "rotation, checkpoints, corrupt fallback" `Quick
            test_checkpoint_fallback;
          Alcotest.test_case "torn batch tail" `Quick test_crash_torn;
          Alcotest.test_case "dropped page cache" `Quick test_crash_unsynced;
          Alcotest.test_case "lone corrupt checkpoint verifies" `Quick
            test_lone_corrupt_checkpoint;
          Alcotest.test_case "CRC-valid LSN gap fails verify" `Quick
            test_valid_frames_lsn_gap;
          Alcotest.test_case "only recovery's torn tail is marked" `Quick
            test_torn_mark_is_recoverys;
          Alcotest.test_case "checkpoint while expanding, with no find"
            `Quick test_checkpoint_while_expanding;
        ] );
      ( "serve",
        [
          Alcotest.test_case "restart from clean shutdown" `Quick
            test_serve_restart;
          Alcotest.test_case "supervisor rebuilds from disk" `Quick
            test_serve_crash_rebuild_from_disk;
          Alcotest.test_case "failed commit does not hang later batches"
            `Quick test_wal_fault_no_hang;
          Alcotest.test_case "a rebuilding shard waits within the deadline"
            `Quick test_rebuild_wait_bounded;
          Alcotest.test_case "a WAL needs a supervisor" `Quick
            test_wal_needs_supervisor;
          Alcotest.test_case "a supervisor needs a WAL" `Quick
            test_supervisor_needs_wal;
          Alcotest.test_case "a supervised remove is one lookup" `Quick
            test_supervised_remove_one_lookup;
          Alcotest.test_case "a rebalanced bound rides the next batch's commit"
            `Quick test_bound_rides_commit;
        ] );
      ( "chaos",
        [ Alcotest.test_case "durable soak + digest" `Quick test_chaos_wal ] );
      ( "sim",
        [
          Alcotest.test_case "wal crash scenarios explored" `Quick
            test_sim_wal_scenarios;
        ] );
    ]
