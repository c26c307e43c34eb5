(* Event-driven connection multiplexer: the one frame parser.

   One [Unix.select] loop owns either a listening socket and every client
   connection it accepts, or one fixed connection over a read and a
   write descriptor (stdin/stdout). Frames are parsed incrementally out
   of per-connection read buffers (a connection may deliver half a
   header, a megabyte of body, or six whole frames per readiness event —
   all are fine), and completed requests from *all* connections feed the
   one shared batched {!Scheduler}, so independent clients' concurrent
   requests coalesce into one domain-pool batch. Responses are routed
   back by (connection, request id): the scheduler returns each response
   paired with the request it answers, and the mux keeps its own
   submission-order queue of (connection, id) — any disagreement
   between the two is a hard internal error, never a frame written to
   the wrong client.

   The batch boundary is the event-loop round. A round reads each ready
   connection until the read would block, EOF, or the scheduler's
   bounded queue reaches capacity and auto-drains; then whatever
   requests arrived — across every connection — are flushed as one
   batch, unless every connection that sent one is mid-frame (still
   sending), in which case the batch carries over to the next round.
   Piped input therefore batches up to the queue capacity, and an
   interactive client is answered as soon as it pauses after a frame.
   FLUSH/STATS force a flush mid-round. *)

type req_hdr = {
  id : string;
  algo : Lsra.Allocator.algorithm;
  passes : Lsra.Passes.t list;
  deadline : float option;
}

type istate =
  | Idle  (* awaiting a header line *)
  | Body_len of { hdr : req_hdr; need : int }  (* length-prefixed body *)
  | Body_lines of { hdr : req_hdr; body : Buffer.t }  (* legacy END *)

type conn = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;
  owned : bool;  (* accepted here, so closed here *)
  mutable rbuf : Bytes.t;
  mutable rlen : int;  (* valid bytes in [rbuf] *)
  mutable rpos : int;  (* consumed prefix of [rbuf] *)
  mutable state : istate;
  (* Write queue as a [whead, wtail) window over [wbuf]: each select
     round writes straight out of the buffer at [whead] — no copy of the
     queued suffix per attempt (a Buffer here meant Buffer.contents
     copied the whole backlog every round: quadratic on a slow
     client). The window compacts to offset 0 on full drain, so a
     long-lived connection reuses the same backing bytes. *)
  mutable wbuf : Bytes.t;
  mutable whead : int;  (* start of the unwritten window *)
  mutable wtail : int;  (* end of the valid bytes *)
  mutable severity : int;
  mutable eof : bool;  (* read side done (EOF or reset) *)
  mutable dead : bool;  (* fully abandoned: nothing more is written *)
}

type t = {
  sched : Scheduler.t;
  lsock : Unix.file_descr option;
  max_clients : int;
  mutable conns : conn list;
  (* Submission order across all connections; must stay in lockstep
     with the scheduler's queue. *)
  pending : (conn * string) Queue.t;
  mutable quit : bool;
  mutable drained : bool;  (* a capacity auto-drain answered a batch *)
  mutable severity : int;
}

let make_conn ~owned rfd wfd =
  {
    rfd;
    wfd;
    owned;
    rbuf = Bytes.create 8192;
    rlen = 0;
    rpos = 0;
    state = Idle;
    wbuf = Bytes.create 1024;
    whead = 0;
    wtail = 0;
    severity = 0;
    eof = false;
    dead = false;
  }

(* Runs once per connection: when [reap] drops it, or at shutdown. *)
let close_conn t c =
  if c.owned then (try Unix.close c.rfd with Unix.Unix_error _ -> ());
  (* Per-connection severity, aggregated explicitly at close: one
     client's verifier reject or spot-check divergence raises the
     server's exit code without ever leaking into another connection's
     session. *)
  t.severity <- max t.severity c.severity

let mark_dead c =
  c.dead <- true;
  c.whead <- 0;
  c.wtail <- 0

let wq_len c = c.wtail - c.whead

let wq_add c s =
  let n = String.length s in
  if c.wtail + n > Bytes.length c.wbuf then begin
    (* Compact the drained prefix down first; grow only if the window
       still does not fit. *)
    if c.whead > 0 then begin
      Bytes.blit c.wbuf c.whead c.wbuf 0 (c.wtail - c.whead);
      c.wtail <- c.wtail - c.whead;
      c.whead <- 0
    end;
    if c.wtail + n > Bytes.length c.wbuf then begin
      let cap = ref (max 1024 (2 * Bytes.length c.wbuf)) in
      while c.wtail + n > !cap do
        cap := 2 * !cap
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit c.wbuf 0 bigger 0 c.wtail;
      c.wbuf <- bigger
    end
  end;
  Bytes.blit_string s 0 c.wbuf c.wtail n;
  c.wtail <- c.wtail + n

let queue_frame c line payload =
  if not c.dead then wq_add c (Protocol.render_frame line payload)

let try_write c =
  if (not c.dead) && wq_len c > 0 then begin
    match Unix.write c.wfd c.wbuf c.whead (wq_len c) with
    | n ->
      c.whead <- c.whead + n;
      if c.whead = c.wtail then begin
        c.whead <- 0;
        c.wtail <- 0
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> mark_dead c  (* EPIPE & friends *)
  end

(* Route (request, result) pairs back to their connections. The mux's
   pending queue and the scheduler's batch were filled in the same
   submission order, so the heads must agree — anything else means the
   pairing invariant broke, and failing loudly beats answering the
   wrong client. *)
let route t pairs =
  List.iter
    (fun ((req : Service.request), result) ->
      match Queue.take_opt t.pending with
      | None ->
        failwith "Mux: internal error: response without a pending request"
      | Some (c, rid) ->
        if not (String.equal rid req.Service.req_id) then
          failwith
            (Printf.sprintf
               "Mux: internal error: response for %S routed to slot %S"
               req.Service.req_id rid);
        (match result with
        | Ok (resp : Service.response) ->
          queue_frame c (Protocol.render_ok resp) (Some resp.Service.output)
        | Error e ->
          let code = Protocol.err_code_of_exn e in
          (* Bad input (code 1) is the client's problem; verifier
             rejects and spot-check divergences are ours. *)
          c.severity <- max c.severity (if code = 1 then 0 else code);
          queue_frame c
            (Protocol.render_err ~id:rid ~code
               (Protocol.err_message_of_exn e))
            None))
    pairs

let flush_batch t = route t (Scheduler.flush t.sched)

let submit_req t c (hdr : req_hdr) body =
  let req =
    Service.request ~algo:hdr.algo ~passes:hdr.passes ?deadline:hdr.deadline
      ~id:hdr.id body
  in
  Queue.push (c, hdr.id) t.pending;
  (* Capacity auto-drain may answer a whole batch right here; it also
     ends this connection's reads for the round. *)
  match Scheduler.submit t.sched req with
  | [] -> ()
  | pairs ->
    t.drained <- true;
    route t pairs

(* ------------------------------------------------------------------ *)
(* Incremental reading and parsing                                     *)

let ensure_read_capacity c =
  if c.rlen = Bytes.length c.rbuf || c.rpos = c.rlen then begin
    (* Slide the unconsumed suffix down before growing. *)
    if c.rpos > 0 then begin
      Bytes.blit c.rbuf c.rpos c.rbuf 0 (c.rlen - c.rpos);
      c.rlen <- c.rlen - c.rpos;
      c.rpos <- 0
    end;
    if c.rlen = Bytes.length c.rbuf then begin
      let bigger = Bytes.create (2 * Bytes.length c.rbuf) in
      Bytes.blit c.rbuf 0 bigger 0 c.rlen;
      c.rbuf <- bigger
    end
  end

(* One read into [c]'s buffer; [true] when bytes arrived. *)
let read_chunk c =
  ensure_read_capacity c;
  match Unix.read c.rfd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | 0 ->
    c.eof <- true;
    false
  | n ->
    c.rlen <- c.rlen + n;
    true
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> false
  | exception Unix.Unix_error _ ->
    c.eof <- true;  (* reset: same as EOF *)
    false

(* A zero-timeout probe, so a blocking descriptor (stdin is left in
   whatever mode the caller gave it) is only read when a read will not
   block. Regular files always probe ready. *)
let readable fd =
  match Unix.select [ fd ] [] [] 0. with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (EINTR, _, _) -> false

let find_nl c =
  let rec go i =
    if i >= c.rlen then None
    else if Bytes.get c.rbuf i = '\n' then Some i
    else go (i + 1)
  in
  go c.rpos

let take_line c nl =
  let s = Bytes.sub_string c.rbuf c.rpos (nl - c.rpos) in
  c.rpos <- nl + 1;
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

(* Answer a protocol violation or a frame cut short by a disconnect with
   one ERR, then discard the rest of the connection's input: stop
   reading, drain what we owe, then close. *)
let reject c id msg =
  queue_frame c (Protocol.render_err ~id ~code:1 msg) None;
  c.rpos <- c.rlen;
  c.state <- Idle;
  c.eof <- true

let rec parse_conn t c =
  if c.dead || t.quit then ()
  else
    match c.state with
    | Idle -> (
      match find_nl c with
      | None ->
        (* Incomplete header. At EOF the stub is unanswerable — the
           client vanished mid-frame; drop it and let the close path
           run. Other connections are unaffected. *)
        if c.eof then c.rpos <- c.rlen
      | Some nl -> (
        let line = take_line c nl in
        if line = "" then parse_conn t c
        else
          match Protocol.parse_header line with
          | Error msg ->
            queue_frame c (Protocol.render_err ~id:"-" ~code:1 msg) None;
            parse_conn t c
          | Ok (Protocol.H_req { id; algo; passes; deadline; body_len }) -> (
            let hdr = { id; algo; passes; deadline } in
            match body_len with
            | Some need when need > Protocol.max_body ->
              (* Answered with an ERR and dropped rather than letting a
                 single header commit the server to buffering gigabytes. *)
              reject c id
                (Printf.sprintf "len=%d exceeds the %d-byte frame cap" need
                   Protocol.max_body)
            | Some need ->
              c.state <- Body_len { hdr; need };
              parse_conn t c
            | None ->
              c.state <- Body_lines { hdr; body = Buffer.create 256 };
              parse_conn t c)
          | Ok Protocol.H_flush ->
            flush_batch t;
            parse_conn t c
          | Ok (Protocol.H_stats id) ->
            flush_batch t;
            queue_frame c
              (Protocol.render_stats ~id
                 (Service.counters (Scheduler.service t.sched)))
              None;
            parse_conn t c
          | Ok Protocol.H_quit -> t.quit <- true))
    | Body_len { hdr; need } ->
      if c.rlen - c.rpos >= need then begin
        let body = Bytes.sub_string c.rbuf c.rpos need in
        c.rpos <- c.rpos + need;
        c.state <- Idle;
        submit_req t c hdr body;
        parse_conn t c
      end
      else if c.eof then
        reject c hdr.id "end of input inside a REQ frame (len= body truncated)"
    | Body_lines { hdr; body } -> (
      match find_nl c with
      | None ->
        if c.eof then
          reject c hdr.id "end of input inside a REQ frame (missing END)"
      | Some nl ->
        let line = take_line c nl in
        if line = "END" then begin
          c.state <- Idle;
          submit_req t c hdr (Buffer.contents body);
          parse_conn t c
        end
        else begin
          Buffer.add_string body line;
          Buffer.add_char body '\n';
          parse_conn t c
        end)

(* One round's reading of a ready connection: read and parse until the
   read would block, EOF, QUIT, or a capacity auto-drain. Stopping at
   the drain keeps the answered batch from waiting behind the rest of a
   long input. *)
let read_conn t c =
  t.drained <- false;
  let rec go () =
    let got = read_chunk c in
    parse_conn t c;
    if got && not (c.eof || c.dead || t.quit || t.drained) && readable c.rfd
    then go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Accepting                                                           *)

(* EINTR is a retry, ECONNABORTED is a client that gave up while
   queued — neither may kill the accept loop (they used to). EAGAIN
   ends the sweep: the listening socket is non-blocking, so a readiness
   event is drained to empty every time. *)
let accept_clients t lsock =
  let rec go () =
    if (not t.quit) && List.length t.conns < t.max_clients then
      match Unix.accept lsock with
      | fd, _ ->
        Unix.set_nonblock fd;
        t.conns <- make_conn ~owned:true fd fd :: t.conns;
        go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error (ECONNABORTED, _, _) -> go ()
  in
  go ()

let reap t =
  let keep, drop =
    List.partition
      (fun c -> (not c.dead) && not (c.eof && wq_len c = 0))
      t.conns
  in
  List.iter (fun c -> close_conn t c) drop;
  t.conns <- keep

let drained_all t = List.for_all (fun c -> c.dead || wq_len c = 0) t.conns

(* A connection between frames has nothing of a next frame buffered, so
   it may be waiting for its answers; one mid-frame is still sending and
   will be read again. *)
let between_frames c =
  c.dead || c.eof
  || (c.rpos = c.rlen && match c.state with Idle -> true | _ -> false)

(* The round's batch waits while every connection that owns a request in
   it is mid-frame: a producer streaming large frames through a pipe
   (which holds less than one of them) then keeps batching up to the
   queue capacity instead of flushing each time the pipe runs dry. QUIT
   ends reading, so it always flushes. *)
let batch_due t =
  t.quit
  || Queue.fold (fun due (c, _) -> due || between_frames c) false t.pending

(* select(2) cannot watch a file descriptor numbered FD_SETSIZE or
   higher: once that many clients (plus the listener and stdio) are
   connected, further accepts would produce descriptors select silently
   cannot monitor — connections that hang forever, not a clean error.
   POSIX fixes FD_SETSIZE at 1024 on every platform this builds on, so
   reject impossible limits at startup rather than degrade at load. *)
let fd_setsize = 1024

type endpoint =
  | Listener of Unix.file_descr
  | Fds of { input : Unix.file_descr; output : Unix.file_descr }

let run ?(max_clients = 64) sched endpoint =
  if max_clients >= fd_setsize then
    invalid_arg
      (Printf.sprintf
         "Mux.run: max_clients %d is not serveable — select(2) cannot \
          watch more than FD_SETSIZE (%d) descriptors; use %d or fewer"
         max_clients fd_setsize (fd_setsize - 1));
  (* A client that hangs up right before we answer must surface as
     EPIPE on the write (handled per connection), not as a SIGPIPE that
     kills the whole server. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let lsock, conns =
    match endpoint with
    | Listener lsock ->
      Unix.set_nonblock lsock;
      (Some lsock, [])
    | Fds { input; output } -> (None, [ make_conn ~owned:false input output ])
  in
  let t =
    {
      sched;
      lsock;
      max_clients = max 1 max_clients;
      conns;
      pending = Queue.create ();
      quit = false;
      drained = false;
      severity = 0;
    }
  in
  let running = ref true in
  while !running do
    if (t.quit && drained_all t) || (Option.is_none t.lsock && t.conns = []) then
      running := false
    else begin
      let reads =
        if t.quit then []
        else
          (match t.lsock with
          | Some l when List.length t.conns < t.max_clients -> [ l ]
          | _ -> [])
          @ List.filter_map
              (fun c -> if c.dead || c.eof then None else Some c.rfd)
              t.conns
      in
      let writes =
        List.filter_map
          (fun c -> if (not c.dead) && wq_len c > 0 then Some c.wfd else None)
          t.conns
      in
      if reads = [] && writes = [] then
        (* All connections quiesced mid-shutdown or at the client cap
           with nothing to do: breathe instead of spinning. *)
        ignore (Unix.select [] [] [] 0.05)
      else begin
        match Unix.select reads writes [] (-1.) with
        | exception Unix.Unix_error (EINTR, _, _) -> ()
        | rs, ws, _ ->
          (match t.lsock with
          | Some l when List.memq l rs -> accept_clients t l
          | _ -> ());
          List.iter (fun c -> if List.memq c.rfd rs then read_conn t c) t.conns;
          (* Batch boundary: everything that arrived this round — from
             every connection — is one scheduler batch. *)
          if batch_due t then flush_batch t;
          List.iter
            (fun c -> if List.memq c.wfd ws || wq_len c > 0 then try_write c)
            t.conns;
          reap t
      end
    end
  done;
  List.iter (fun c -> close_conn t c) t.conns;
  t.conns <- [];
  t.severity
