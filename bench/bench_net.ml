(* Wire-protocol serving benchmark: ei_net end to end over loopback
   unix sockets, 1-8 shard fleets, closed- and open-loop load.

   Clients are real separate PROCESSES, not domains: the load generator
   must not share a GC, a scheduler or a socket implementation with the
   server under test, or a server stall hides inside the generator's
   own pauses.  All children are forked up front — before the parent
   spawns any domain — each waits for its cell's socket to appear,
   drives its connection, and ships its latency samples back over a
   length-prefixed pipe.

   Closed loop (fixed pipelining window per client) measures peak
   sustainable throughput; open loop (fixed-rate schedule) measures the
   honest tail — queueing delay under a saturating arrival process is
   part of each sample, not hidden by the generator backing off. *)

module Client = Ei_net.Client
module Wire = Ei_net.Wire
module Server = Ei_net.Server
module Serve = Ei_shard.Serve
module Fleet = Ei_shard.Fleet
module Olc = Ei_olc.Btree_olc
module Registry = Ei_harness.Registry
module Key = Ei_util.Key

type mode = Closed | Open

let mode_name = function Closed -> "closed" | Open -> "open"

let clients = 4
let window = 64

(* Per-client request counts and open-loop arrival rate.  The open loop
   sends fewer requests: its cell runtime is count/rate by design. *)
let closed_count () = Bench_util.scaled 20_000
let open_count () = Bench_util.scaled 10_000
let open_rate = 25_000.0

let cells =
  [ 1; 2; 4; 8 ] |> List.concat_map (fun s -> [ (s, Closed); (s, Open) ])

let sock_path cell =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ei-bench-net-%d-%d.sock" (Unix.getpid ()) cell)

(* --- Child side -------------------------------------------------------- *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

(* Connect with retry: the parent starts this cell's server only after
   the earlier cells have finished. *)
let connect_patiently path =
  let deadline = Unix.gettimeofday () +. 300.0 in
  let rec go () =
    match Client.connect (Unix.ADDR_UNIX path) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if Float.compare (Unix.gettimeofday ()) deadline > 0 then
        failwith "bench_net: server socket never appeared"
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

(* The forked client body.  [Unix._exit] everywhere: a child must not
   run the parent's at_exit machinery (results flushing, obs dumps). *)
let child_main ~path ~mode ~count ~j ~wfd =
  match
    let c = connect_patiently path in
    let op i = Wire.Insert (Key.of_int ((j * count) + i)) in
    let stats =
      match mode with
      | Closed -> Client.run_closed c ~window ~count ~op
      | Open -> Client.run_open c ~rate:open_rate ~count ~op
    in
    Client.close c;
    let payload = Marshal.to_bytes stats [] in
    let hdr = Bytes.create 8 in
    Bytes.set_int64_le hdr 0 (Int64.of_int (Bytes.length payload));
    write_all wfd hdr 0 8;
    write_all wfd payload 0 (Bytes.length payload)
  with
  | () -> Unix._exit 0
  | exception Client.Protocol msg ->
    Printf.eprintf "bench_net client %d: protocol error: %s\n%!" j msg;
    Unix._exit 3
  | exception e ->
    Printf.eprintf "bench_net client %d: %s\n%!" j (Printexc.to_string e);
    Unix._exit 4

let rec read_exactly fd b pos len =
  if len > 0 then
    match Unix.read fd b pos len with
    | 0 -> failwith "bench_net: client pipe closed early"
    | n -> read_exactly fd b (pos + n) (len - n)

let read_stats rfd : Client.stats =
  let hdr = Bytes.create 8 in
  read_exactly rfd hdr 0 8;
  let len = Int64.to_int (Bytes.get_int64_le hdr 0) in
  let payload = Bytes.create len in
  read_exactly rfd payload 0 len;
  Marshal.from_bytes payload 0

(* --- Parent side ------------------------------------------------------- *)

let numbered = List.mapi (fun i c -> (c, i)) cells

let run_cell ~shards ~mode ~kids =
  let { Fleet.table; serve; _ } =
    Fleet.start ~shards ~part:(Fleet.part (Registry.Olc Olc.Olc_std)) ()
  in
  let server =
    Server.start ~serve ~table
      (Unix.ADDR_UNIX (sock_path (List.assoc (shards, mode) numbered)))
  in
  let per_client =
    List.map
      (fun (pid, rfd) ->
        let stats = read_stats rfd in
        Unix.close rfd;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, st ->
          let what =
            match st with
            | Unix.WEXITED c -> Printf.sprintf "exit %d" c
            | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
            | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
          in
          failwith (Printf.sprintf "bench_net: client died (%s)" what));
        stats)
      kids
  in
  Server.stop server;
  Serve.stop serve;
  Client.merge_stats per_client

let run () =
  Bench_util.header "net: wire-protocol serving (ei_net over unix sockets)";
  Printf.printf
    "%d client processes per cell; closed loop window %d, open loop %.0f \
     req/s per client\n"
    clients window open_rate;
  List.iter (fun (c, _) -> try Sys.remove (sock_path (List.assoc c numbered)) with Sys_error _ -> ()) numbered;
  (* Fork every cell's clients before any domain exists in this
     process: mixing fork with live domains is undefined.  Each child
     polls for its own cell's socket, so later cells' clients idle
     until the parent gets there. *)
  Stdlib.flush stdout;
  Stdlib.flush stderr;
  let kids =
    List.map
      (fun ((_shards, mode) as cell) ->
        let count =
          match mode with Closed -> closed_count () | Open -> open_count ()
        in
        let path = sock_path (List.assoc cell numbered) in
        ( cell,
          List.init clients (fun j ->
              let rfd, wfd = Unix.pipe ~cloexec:false () in
              match Unix.fork () with
              | 0 ->
                Unix.close rfd;
                child_main ~path ~mode ~count ~j ~wfd
              | pid ->
                Unix.close wfd;
                (pid, rfd)) ))
      cells
  in
  Bench_util.print_row ~w:11
    [ "shards"; "mode"; "mops"; "p50us"; "p99us"; "p999us"; "busy" ];
  List.iter
    (fun ((shards, mode), cell_kids) ->
      let s = run_cell ~shards ~mode ~kids:cell_kids in
      let mops =
        float_of_int s.Client.sent
        /. Float.max 1e-9 s.Client.elapsed_s /. 1e6
      in
      let q p = float_of_int (Client.quantile s.Client.lat_ns p) /. 1e3 in
      if s.Client.rejected > 0 || s.Client.timed_out > 0 then
        Printf.printf "!! %d rejected, %d timed out\n" s.Client.rejected
          s.Client.timed_out;
      Bench_util.print_row ~w:11
        [
          string_of_int shards;
          mode_name mode;
          Bench_util.f2 mops;
          Bench_util.f2 (q 0.5);
          Bench_util.f2 (q 0.99);
          Bench_util.f2 (q 0.999);
          string_of_int s.Client.busy;
        ];
      Bench_util.emit_mops_q
        ~quantiles:
          ( Client.quantile s.Client.lat_ns 0.5,
            Client.quantile s.Client.lat_ns 0.99,
            Client.quantile s.Client.lat_ns 0.999 )
        ~name:"net"
        ~params:
          [
            ("shards", string_of_int shards);
            ("mode", mode_name mode);
            ("clients", string_of_int clients);
            ("per_client", string_of_int (s.Client.sent / clients));
            ( (match mode with Closed -> "window" | Open -> "rate"),
              match mode with
              | Closed -> string_of_int window
              | Open -> Printf.sprintf "%.0f" open_rate );
          ]
        ~mops ~bytes:0 ())
    kids;
  List.iter
    (fun (c, _) ->
      try Sys.remove (sock_path (List.assoc c numbered))
      with Sys_error _ -> ())
    numbered
