(* WAL test suite.

   a. Frame codec: qcheck round-trips plus *adversarial* rejection —
      every single-bit flip and every truncation of a frame must
      decode to Error (never raise, never return a wrong record).
   b. Writer/recovery units: clean close + recovery fidelity
      (contents, elastic bound, clean marker), rotation + checkpoint
      pruning, corrupt-newest-checkpoint fallback, and the two
      deterministic crash levers (torn batch tail, dropped page
      cache).
   c. Serve integration: a durable fleet stopped cleanly recovers
      byte-identical contents in a fresh process image (fresh Table,
      fresh parts); a crashing fleet under fault injection loses no
      acknowledged write across supervisor rebuild-from-disk.
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
module Chaos = Ei_chaos.Chaos
module Olc = Ei_olc.Btree_olc
module Sim = Ei_sim.Sim
module Sched = Ei_sim.Sched

let fresh_dir name =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ei-test-wal-%d-%s" (Unix.getpid ()) name)
  in
  Wal.reset_dir d;
  d

let mk_part ?(bound = 1 lsl 20) table name =
  Registry.make ~name ~key_len:8 ~load:(Table.loader table)
    (Registry.Elastic (Ei_core.Elasticity.default_config ~size_bound:bound))

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

let record_arb = QCheck.make ~print:Frame.describe record_gen

let prop_roundtrip =
  QCheck.Test.make ~name:"frame round-trips" ~count:500 record_arb (fun r ->
      let s = Frame.encode r in
      match Frame.decode s ~pos:0 with
      | Ok (r', n) -> r' = r && n = String.length s
      | Error _ -> false)

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
  match Frame.decode s ~pos:0 with
  | Ok _ -> Codec_harness.Accepted
  | Error _ -> Codec_harness.Rejected

let rejected = function
  | Codec_harness.Rejected -> true
  | Codec_harness.Accepted | Codec_harness.Incomplete -> false

let test_bit_flips () =
  Codec_harness.check_bit_flips ~what:"wal frame" ~describe:Frame.describe
    ~encode:Frame.encode ~verdict:frame_verdict ~allowed:rejected
    fixed_records

let test_truncations () =
  Codec_harness.check_truncations ~what:"wal frame" ~describe:Frame.describe
    ~encode:Frame.encode ~verdict:frame_verdict ~allowed:rejected
    fixed_records

let test_length_lies () =
  Codec_harness.check_length_lies ~what:"wal frame" ~describe:Frame.describe
    ~encode:Frame.encode ~verdict:frame_verdict ~allowed:rejected
    fixed_records

let prop_random_flip =
  Codec_harness.prop_random_flip ~name:"random single-bit flip rejected"
    ~arb:record_arb ~encode:Frame.encode ~verdict:frame_verdict
    ~allowed:rejected

let test_torn_tail_decode () =
  let rs = fixed_records in
  let b = Buffer.create 256 in
  List.iter (Frame.encode_into b) rs;
  let whole = Buffer.contents b in
  let last = Frame.encode (List.nth rs (List.length rs - 1)) in
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

(* --- b. writer / recovery units -------------------------------------- *)

(* Apply a deterministic mixed tape through a writer and a live part;
   returns (expected fingerprint, expected count) captured at close. *)
let run_tape w part table keys tids ~n =
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
  ignore table

let recover_fresh ?faults cfg ~name =
  let t = Table.create ~key_len:8 () in
  let p = mk_part t name in
  let w, r =
    Wal.recover ?faults cfg ~shard:0
      ~restore:(fun ~tid ~key -> Table.restore_row t ~tid ~key)
      ~part:p
  in
  (w, r, p)

let test_basic_recovery () =
  let dir = fresh_dir "basic" in
  let cfg = { (Wal.default_config ~dir) with Wal.fsync_every = 1 } in
  let table = Table.create ~key_len:8 () in
  let part = mk_part table "wal-basic" in
  let n = 200 in
  let keys = Array.init n (fun i -> Key.of_int (i * 7919)) in
  let tids = Array.map (Table.append table) keys in
  let w, r0 = Wal.recover cfg ~shard:0 ~part in
  Alcotest.(check int) "fresh dir: nothing replayed" 0 r0.Wal.r_replayed;
  run_tape w part table keys tids ~n;
  Wal.close w;
  let fp = Index_ops.fingerprint part in
  let count = part.Index_ops.count () in
  let w2, r, p2 = recover_fresh cfg ~name:"wal-basic-rec" in
  Wal.close w2;
  Alcotest.(check bool) "clean marker honoured" true r.Wal.r_clean;
  Alcotest.(check int) "contents recovered bit-for-bit" fp
    (Index_ops.fingerprint p2);
  Alcotest.(check int) "count recovered" count (p2.Index_ops.count ());
  Alcotest.(check int) "elastic bound recovered" 4096 r.Wal.r_bound

let test_checkpoint_fallback () =
  let dir = fresh_dir "ckpt" in
  let cfg =
    {
      (Wal.default_config ~dir) with
      Wal.fsync_every = 1;
      checkpoint_every = 8;
      segment_bytes = 512;
      keep_checkpoints = 2;
    }
  in
  let table = Table.create ~key_len:8 () in
  let part = mk_part table "wal-ckpt" in
  let n = 300 in
  let keys = Array.init n (fun i -> Key.of_int (i * 104729)) in
  let tids = Array.map (Table.append table) keys in
  let w, _ = Wal.recover cfg ~shard:0 ~part in
  run_tape w part table keys tids ~n;
  Wal.close w;
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
  let w2, r, p2 = recover_fresh cfg ~name:"wal-ckpt-rec" in
  Wal.close w2;
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
  let w3, r3, p3 = recover_fresh cfg ~name:"wal-ckpt-fb" in
  Wal.close w3;
  Alcotest.(check bool) "corrupt newest skipped" true
    (r3.Wal.r_ckpt_fallbacks >= 1);
  Alcotest.(check int) "fallback still recovers contents" fp
    (Index_ops.fingerprint p3)

let test_crash_torn () =
  let dir = fresh_dir "torn" in
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
  let w2, r, p2 = recover_fresh cfg ~name:"wal-torn-rec" in
  Wal.close w2;
  Alcotest.(check int) "torn tail truncated" 1 r.Wal.r_torn;
  Alcotest.(check bool) "no clean marker" false r.Wal.r_clean;
  (* 20 committed + 2 complete frames of the torn batch; the 23rd frame
     lost its last bytes *)
  Alcotest.(check int) "recovered to the torn horizon" 22 r.Wal.r_last_lsn;
  Alcotest.(check int) "durable prefix intact" 22 (p2.Index_ops.count ())

let test_crash_unsynced () =
  let dir = fresh_dir "unsynced" in
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
  let w2, r, p2 = recover_fresh cfg ~name:"wal-unsync-rec" in
  Wal.close w2;
  Alcotest.(check int) "recovered exactly the synced prefix" 20
    r.Wal.r_last_lsn;
  Alcotest.(check int) "unsynced records gone" 20 (p2.Index_ops.count ())

(* --- c. serve integration --------------------------------------------- *)

let test_serve_restart () =
  let dir = fresh_dir "serve" in
  let wal = Wal.default_config ~dir in
  let shards = 2 in
  let n = 500 in
  let mk_fleet () =
    let table = Table.create ~key_len:8 () in
    let parts =
      Array.init shards (fun i ->
          mk_part table (Printf.sprintf "serve-wal/%d" i))
    in
    (table, Shard.create parts)
  in
  let table, router = mk_fleet () in
  let keys = Array.init n (fun i -> Key.of_int (i * 31337)) in
  let tids = Array.map (Table.append table) keys in
  let serve =
    Serve.start ~wal
      ~wal_restore:(fun ~tid ~key -> Table.restore_row table ~tid ~key)
      router
  in
  ignore
    (Serve.exec serve
       (Array.init n (fun i -> Serve.Insert (keys.(i), tids.(i)))));
  ignore
    (Serve.exec serve
       (Array.init (n / 5) (fun i -> Serve.Remove keys.(i * 5))));
  Serve.stop serve;
  let live = Shard.count router in
  (* a fresh process image: new Table, new empty parts, same directory *)
  let table2, router2 = mk_fleet () in
  let serve2 =
    Serve.start ~wal
      ~wal_restore:(fun ~tid ~key -> Table.restore_row table2 ~tid ~key)
      router2
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
  let dir = fresh_dir "serve-crash" in
  let wal = { (Wal.default_config ~dir) with Wal.checkpoint_every = 16 } in
  let shards = 2 in
  let n = 400 in
  let table = Table.create ~initial_capacity:(4 * n) ~key_len:8 () in
  let mk i = mk_part table (Printf.sprintf "crash-wal/%d" i) in
  let router = Shard.create (Array.init shards mk) in
  Fault.configure ~seed:11 [ ("serve.crash", 0.01) ];
  let serve =
    Serve.start
      ~supervisor:(Serve.default_supervisor ~table ~rebuild:mk)
      ~fault_prefix:"serve" ~timeout_s:0.2 ~wal
      ~wal_restore:(fun ~tid ~key -> Table.restore_row table ~tid ~key)
      router
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

(* --- d. mini durable chaos soak --------------------------------------- *)

let test_chaos_wal () =
  let dir = fresh_dir "chaos" in
  let config =
    {
      (Chaos.default_config ~seed:123) with
      Chaos.scale = 0.05;
      plan = Chaos.default_wal_plan;
      wal_dir = Some dir;
    }
  in
  let r1 = Chaos.run config in
  let r2 = Chaos.run config in
  Alcotest.(check bool) "first durable soak ok" true (Chaos.ok r1);
  Alcotest.(check bool) "second durable soak ok" true (Chaos.ok r2);
  Alcotest.(check bool) "restart check ran" true r1.Chaos.wal;
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
    [ "wal-torn"; "wal-fsync" ]

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
        ] );
      ( "recovery",
        [
          Alcotest.test_case "clean close round-trips" `Quick
            test_basic_recovery;
          Alcotest.test_case "rotation, checkpoints, corrupt fallback" `Quick
            test_checkpoint_fallback;
          Alcotest.test_case "torn batch tail" `Quick test_crash_torn;
          Alcotest.test_case "dropped page cache" `Quick test_crash_unsynced;
        ] );
      ( "serve",
        [
          Alcotest.test_case "restart from clean shutdown" `Quick
            test_serve_restart;
          Alcotest.test_case "supervisor rebuilds from disk" `Quick
            test_serve_crash_rebuild_from_disk;
        ] );
      ( "chaos",
        [ Alcotest.test_case "durable soak + digest" `Quick test_chaos_wal ] );
      ( "sim",
        [
          Alcotest.test_case "wal crash scenarios explored" `Quick
            test_sim_wal_scenarios;
        ] );
    ]
