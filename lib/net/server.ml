(* Wire-protocol network front end over the sharded serving layer.

   An accept loop on its own domain hands each connection to a handler
   domain running the pure {!Session} engine over the socket: read a
   chunk, feed the decoder, form a round of at most [window] pipelined
   requests, execute it as one {!Serve.exec} batch (positional
   outcomes preserve per-connection order), reply, flush.  Requests
   decoded beyond the window are answered [Busy] by the session —
   explicit backpressure instead of unbounded buffering — and surface
   as [net.shed].

   Outcome mapping (the net-facing contract of {!Serve.exec}): every
   request decoded from a surviving connection gets exactly one typed
   reply — [Applied] with the result, [Rejected] (transient fault,
   not applied, retryable), [Timed_out] (deadline passed or shard
   crashed mid-batch; may or may not have applied) or [Busy] (shed
   before submission).  Serve completes every waiter even when a
   shard domain dies — unacknowledged slots settle at the pending
   sentinel and surface as [Timed_out] — so a crash or quarantine
   never drops a reply or a connection; only a protocol violation
   (corrupt frame) tears a connection down.

   Row ids never cross the wire: inserts and updates append to the
   server's row table (single-writer, so appends serialise on
   [table_lock]) and [Find] returns the tid as an opaque handle. *)

module Serve = Ei_shard.Serve
module Table = Ei_storage.Table
module Metrics = Ei_obs.Metrics
module Trace = Ei_obs.Trace
module Ctx = Ei_obs.Ctx
module Clock = Ei_util.Bench_clock

type config = {
  window : int;
      (* per-connection pipelining window: batch cap and shed threshold *)
  read_chunk : int;  (* max bytes pulled off a socket per round *)
  exec_timeout_s : float option;
      (* Serve.exec deadline; expired slots reply Timed_out *)
  backlog : int;  (* listen(2) backlog *)
}

let default_config =
  { window = 256; read_chunk = 1 lsl 16; exec_timeout_s = Some 5.0; backlog = 64 }

(* --- Observability ---------------------------------------------------- *)

let c_accepted = Metrics.counter "net.accepted"
let c_requests = Metrics.counter "net.requests"
let c_shed = Metrics.counter "net.shed"
let c_protocol_errors = Metrics.counter "net.protocol_errors"
let g_connections = Metrics.gauge "net.connections"
let h_batch = Metrics.histogram "net.batch_ns"
let h_request = Metrics.histogram "net.request_ns"
let h_conn = Metrics.histogram "net.conn_ns"

let ev_request =
  Trace.define ~span:true ~cat:"net" ~arg1:"requests" "net.request"

let ev_conn = Trace.define ~span:true ~cat:"net" ~arg1:"conn" "net.conn"

(* --- Server ----------------------------------------------------------- *)

type t = {
  serve : Serve.t;
  table : Table.t;
  cfg : config;
  lsock : Unix.file_descr;
  bound : Unix.sockaddr;
  stop : bool Atomic.t;
  conn_seq : int Atomic.t;
  table_lock : Mutex.t;  (* Table.append is single-writer *)
  lock : Mutex.t;
  mutable conns : (int * Unix.file_descr) list [@ei.guarded_by "lock"];
  mutable handlers : unit Domain.t list [@ei.guarded_by "lock"];
  mutable acceptor : unit Domain.t option [@ei.guarded_by "lock"];
}

let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception e ->
    Mutex.unlock m;
    raise e

let addr t = t.bound

(* --- Per-connection handler ------------------------------------------- *)

let serve_op t (req : Wire.request) =
  match req.Wire.op with
  | Wire.Insert k ->
    Serve.Insert (k, with_lock t.table_lock (fun () -> Table.append t.table k))
  | Wire.Remove k -> Serve.Remove k
  | Wire.Update k ->
    (* A fresh row with the same key bytes is a valid update target:
       compact leaves load key bytes through the tid. *)
    Serve.Update (k, with_lock t.table_lock (fun () -> Table.append t.table k))
  | Wire.Find k -> Serve.Find k
  | Wire.Scan (k, n) -> Serve.Scan (k, n)

let status_of_outcome = function
  | Serve.Applied r -> Wire.Applied r
  | Serve.Rejected -> Wire.Rejected
  | Serve.Timed_out -> Wire.Timed_out

let write_all fd s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    i := !i + Unix.write_substring fd s !i (n - !i)
  done

let flush_out session fd =
  while Session.out_pending session > 0 do
    write_all fd (Session.out_take session ~max:(1 lsl 16))
  done

(* Run rounds until the queue is empty: take, exec, complete.  Each
   round is one [net.request] span rooting the causal flow — Serve.exec
   joins it as a child, so a client op renders as net.request →
   serve.request → serve.sub → … in the Perfetto view. *)
let run_rounds t session =
  let klen = Table.key_len t.table in
  let rec round () =
    let batch = Session.take session in
    let n = Array.length batch in
    if n > 0 then begin
      let m0 = if Metrics.enabled () then Clock.now_ns () else 0 in
      let t0 = Trace.start () in
      if t0 > 0 then Ctx.set (Ctx.mint ());
      (* Validate before touching the fleet: a key whose length does not
         match the row table can never be applied — and must not reach
         the single-writer append or the fixed-width key comparisons.
         Such slots answer [Rejected] in place; the rest run as one
         positional batch. *)
      let live = ref [] in
      Array.iteri
        (fun i (r : Wire.request) ->
          if String.length (Wire.op_key r.Wire.op) = klen then
            live := i :: !live)
        batch;
      let live = Array.of_list (List.rev !live) in
      let ops =
        Ei_util.Arr.map ~fill:(Serve.Find "")
          (fun i -> serve_op t batch.(i))
          live
      in
      let outcomes =
        Serve.exec ?timeout_s:t.cfg.exec_timeout_s t.serve ops
      in
      let statuses = Array.make n Wire.Rejected in
      Array.iteri
        (fun j i -> statuses.(i) <- status_of_outcome outcomes.(j))
        live;
      let shed_before = Session.shed_count session in
      Session.complete session statuses;
      Metrics.add c_requests n;
      Metrics.add c_shed (Session.shed_count session - shed_before);
      if m0 > 0 then begin
        let dt = Clock.now_ns () - m0 in
        Metrics.observe h_batch dt;
        (* Requests of one round share the batch's latency: they were
           decoded together and acknowledged together. *)
        for _ = 1 to n do
          Metrics.observe h_request dt
        done
      end;
      if t0 > 0 then begin
        Trace.span ev_request ~start_ns:t0 n;
        Ctx.clear ()
      end;
      round ()
    end
  in
  round ()

let handle t fd =
  let session = Session.create ~window:t.cfg.window () in
  let buf = Bytes.create t.cfg.read_chunk in
  let t_conn = Trace.start () in
  let t0 = Clock.now_ns () in
  Metrics.add_gauge g_connections 1;
  let rec loop () =
    if not (Atomic.get t.stop) then begin
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n > 0 then begin
        match Session.feed session (Bytes.sub_string buf 0 n) with
        | Ok () ->
          run_rounds t session;
          flush_out session fd;
          loop ()
        | Error _ ->
          (* Corrupt stream: reply nothing (no frame to address), count
             it, and tear the connection down. *)
          Metrics.incr c_protocol_errors
      end
      else begin
        (* EOF: drain what was fully received, then close. *)
        run_rounds t session;
        flush_out session fd
      end
    end
    else begin
      (* Stop requested: answer what is already decoded, then close —
         the graceful drain path. *)
      run_rounds t session;
      flush_out session fd
    end
  in
  (try loop ()
   with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
     (* Peer went away (or stop closed the fd under us): nothing left
        to drain to. *)
     ());
  Metrics.add_gauge g_connections (-1);
  Metrics.observe h_conn (Clock.now_ns () - t0);
  if t_conn > 0 then Trace.span ev_conn ~start_ns:t_conn 1

(* --- Accept loop and lifecycle --------------------------------------- *)

(* Deregistration and close happen under [lock], and {!stop} shuts
   connections down under the same lock, so a stop-side shutdown can
   never hit a descriptor number the kernel already recycled. *)
let unregister t id fd =
  with_lock t.lock (fun () ->
      t.conns <- List.filter (fun (i, _) -> i <> id) t.conns;
      try Unix.close fd with Unix.Unix_error (Unix.EBADF, _, _) -> ())

let accept_loop t =
  let rec loop () =
    match Unix.accept ~cloexec:true t.lsock with
    | fd, _peer ->
      Metrics.incr c_accepted;
      let id = Atomic.fetch_and_add t.conn_seq 1 in
      with_lock t.lock (fun () ->
          t.conns <- (id, fd) :: t.conns;
          t.handlers <-
            Domain.spawn (fun () ->
                handle t fd;
                unregister t id fd)
            :: t.handlers);
      loop ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> loop ()
    | exception Unix.Unix_error (_, _, _) when Atomic.get t.stop ->
      (* stop closed the listening socket. *)
      ()
  in
  loop ()

(* A peer that disappears mid-write must surface as EPIPE on the write,
   not as a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let start ?(config = default_config) ~serve ~table addr =
  ignore_sigpipe ();
  let dom = Unix.domain_of_sockaddr addr in
  (match addr with
  | Unix.ADDR_UNIX path when Sys.file_exists path -> Sys.remove path
  | _ -> ());
  let lsock = Unix.socket ~cloexec:true dom Unix.SOCK_STREAM 0 in
  (match dom with
  | Unix.PF_INET | Unix.PF_INET6 ->
    Unix.setsockopt lsock Unix.SO_REUSEADDR true
  | Unix.PF_UNIX -> ());
  (try
     Unix.bind lsock addr;
     Unix.listen lsock config.backlog
   with e ->
     Unix.close lsock;
     raise e);
  let t =
    {
      serve;
      table;
      cfg = config;
      lsock;
      bound = Unix.getsockname lsock;
      stop = Atomic.make false;
      conn_seq = Atomic.make 0;
      table_lock = Mutex.create ();
      lock = Mutex.create ();
      conns = [];
      handlers = [];
      acceptor = None;
    }
  in
  let acceptor = Domain.spawn (fun () -> accept_loop t) in
  with_lock t.lock (fun () -> t.acceptor <- Some acceptor);
  t

let stop t =
  if not (Atomic.exchange t.stop true) then begin
    (* Wake the acceptor with shutdown — closing the descriptor would
       NOT interrupt a blocked accept(2); shutdown makes it return —
       then wake every handler blocked in read: shutdown makes the
       pending read return 0, so each handler drains its decoded
       requests, flushes the replies and closes — no in-flight request
       loses its ack. *)
    (try Unix.shutdown t.lsock Unix.SHUTDOWN_RECEIVE
     with Unix.Unix_error ((Unix.EBADF | Unix.ENOTCONN | Unix.EINVAL), _, _)
     -> ());
    (match with_lock t.lock (fun () -> t.acceptor) with
    | Some d -> Domain.join d
    | None -> ());
    (try Unix.close t.lsock with Unix.Unix_error (Unix.EBADF, _, _) -> ());
    with_lock t.lock (fun () ->
        List.iter
          (fun (_, fd) ->
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error ((Unix.EBADF | Unix.ENOTCONN), _, _) -> ())
          t.conns);
    let handlers = with_lock t.lock (fun () -> t.handlers) in
    List.iter Domain.join handlers;
    (match t.bound with
    | Unix.ADDR_UNIX path when Sys.file_exists path -> Sys.remove path
    | _ -> ())
  end

let stats () =
  ( Metrics.counter_value c_requests,
    Metrics.counter_value c_shed,
    Metrics.counter_value c_protocol_errors )
