(* The service component: the repository's own [lsra_tool serve] as a
   separate process, closed-loop socket clients in this process, and an
   in-process replay of the same request stream for the per-layer
   service spans.

   The server is started as
     lsra_tool serve --socket PATH --jobs 1 --spot-check 4 --store-dir DIR
   (alpha-like machine, second-chance binpacking, default passes,
   verifier on). One domain: on a two-CPU host, a two-domain server
   beside the client swung between ~130 and ~310 requests per second
   from run to run (stop-the-world minor collections wait for a
   descheduled domain), while one domain held steady. Server and client
   share the one CPU the run is pinned to. Every served body is
   compared with a direct [Allocator.pipeline] run on the same source;
   ERR frames, timeouts and mismatches are failed operations. *)

open Lsra_target
open Common
module P = Lsra_service.Protocol

let machine = Machine.alpha_like
let binpack = Lsra.Allocator.default_second_chance

(* What the server must answer for [text]: the direct pipeline run. *)
let reference text =
  let prog = Lsra_text.Ir_text.of_string text in
  ignore (Lsra.Allocator.pipeline binpack machine prog);
  P.frame_body (Lsra_text.Ir_text.to_string prog)

type server = { pid : int; sock : string; dir : string }

(* Servers started and not yet stopped: stopped at exit if the run dies
   first. *)
let live = ref []

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
    fd
  | exception e ->
    Unix.close fd;
    raise e

(* Start the server and wait until it accepts a connection. *)
let start ~tool ~dir =
  rm_rf dir;
  mkdir_p dir;
  let sock = Filename.concat dir "s.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process tool
      [|
        tool; "serve"; "--socket"; sock; "--jobs"; "1"; "--spot-check"; "4";
        "--store-dir"; Filename.concat dir "store";
      |]
      null null Unix.stderr
  in
  Unix.close null;
  let t_end = now () +. 30. in
  let rec wait () =
    match connect sock with
    | fd -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if now () > t_end || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
        failwith "lsra_tool serve did not start"
      else begin
        Unix.sleepf 0.001;
        wait ()
      end
  in
  let srv = { pid; sock; dir } in
  live := srv :: !live;
  wait ();
  srv

(* Ask the server to quit and reap it; kill it if it does not exit. *)
let stop srv =
  live := List.filter (fun s -> s != srv) !live;
  (match connect srv.sock with
  | fd ->
    let oc = Unix.out_channel_of_descr fd in
    (try
       output_string oc (P.render_frame "QUIT" None);
       flush oc
     with Sys_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ());
  let t_end = now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < t_end ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      Unix.kill srv.pid Sys.sigkill;
      ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  rm_rf srv.dir

let with_server ~tool ~dir f =
  let srv = start ~tool ~dir in
  Fun.protect ~finally:(fun () -> stop srv) (fun () -> f srv)

let () = at_exit (fun () -> List.iter stop !live)

(* ---- clients ---------------------------------------------------------- *)

type reply = {
  item : int;  (** index of the text sent *)
  sent : float;
  latency : float;  (** send until the full reply is read *)
  wall_us : int;  (** the server's own time, from the OK frame *)
  hit : bool;
  ok : bool;  (** the body matched the reference, where it was known *)
  body : string;  (** kept only when the reference was not known yet *)
}

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let open_conn sock =
  let fd = connect sock in
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

(* Read one reply; [Error] on an ERR frame, a malformed reply or a
   timeout. *)
let read_reply conn =
  let rec header () =
    match In_channel.input_line conn.ic with
    | None -> Error "server closed the connection"
    | Some "" -> header ()
    | Some line -> (
      match P.parse_reply line with
      | Ok (P.R_ok { hit; wall_us; body_len = Some len; _ }) ->
        Ok (hit, wall_us, really_input_string conn.ic len)
      | Ok (P.R_ok { body_len = None; _ }) -> Error "OK frame without len="
      | Ok (P.R_err { code; msg; _ }) -> Error (Printf.sprintf "ERR %d %s" code msg)
      | Ok (P.R_stats _) -> header ()
      | Error m -> Error ("bad reply: " ^ m))
  in
  try header ()
  with (Sys_error _ | Unix.Unix_error _ | End_of_file) as e ->
    Error ("timeout or I/O error: " ^ Printexc.to_string e)

(* A closed loop over [conns] connections from one domain: each
   connection has one request in flight at a time, and sends [next i]'s
   text as soon as its previous reply is read, until [next i] says stop
   or the connection fails. Checks each body against [expected] where it
   is known now; other bodies are kept for the caller to check.
   [on_reply n] runs after the [n]-th reply. With [calibrate], when a
   [Calib] sample is due, connections stop sending as their replies
   arrive; once none has a request in flight the sample is taken and
   they all resume, so no request is timed across a sample. *)
let closed_loop ?(on_reply = ignore) ?(calibrate = false) ~sock ~texts ~expected ~conns next =
  let cs = Array.init conns (fun _ -> open_conn sock) in
  let inflight = Array.make conns None in
  let parked = Array.make conns false in
  let replies = ref [] and failed = ref [] and k = ref 0 and n = ref 0 in
  let send i =
    match next i with
    | None -> ()
    | Some item -> (
      incr k;
      let frame = P.render_frame (Printf.sprintf "REQ %d" !k) (Some texts.(item)) in
      let sent = now () in
      match
        output_string cs.(i).oc frame;
        flush cs.(i).oc
      with
      | () -> inflight.(i) <- Some (item, sent)
      | exception (Sys_error _ | Unix.Unix_error _) -> failed := (item, "write failed") :: !failed)
  in
  Array.iteri (fun i _ -> send i) cs;
  let busy () = List.filter (fun i -> inflight.(i) <> None) (List.init conns Fun.id) in
  let read_ready () =
    let ready, _, _ = Unix.select (List.map (fun i -> cs.(i).fd) (busy ())) [] [] 30. in
    if ready = [] then
      List.iter
        (fun i ->
          Option.iter (fun (item, _) -> failed := (item, "timeout") :: !failed) inflight.(i);
          inflight.(i) <- None)
        (busy ())
    else
      List.iter
        (fun i ->
          match inflight.(i) with
          | Some (item, sent) when List.mem cs.(i).fd ready -> (
            inflight.(i) <- None;
            match read_reply cs.(i) with
            | Ok (hit, wall_us, body) ->
              let latency = now () -. sent in
              let ok, body =
                match expected.(item) with
                | Some e -> (String.equal e body, "")
                | None -> (true, body)
              in
              replies := { item; sent; latency; wall_us; hit; ok; body } :: !replies;
              incr n;
              on_reply !n;
              if calibrate && Calib.due () then parked.(i) <- true else send i
            | Error msg -> failed := (item, msg) :: !failed)
          | _ -> ())
        (busy ())
  in
  let resume () =
    Calib.sample ();
    Array.iteri
      (fun i p ->
        if p then begin
          parked.(i) <- false;
          send i
        end)
      parked
  in
  while busy () <> [] || Array.mem true parked do
    if busy () = [] then resume () else read_ready ()
  done;
  Array.iter (fun c -> Unix.close c.fd) cs;
  (List.rev !replies, List.rev !failed)

(* The server's STATS counters and its peak resident set. *)
let stats srv =
  let conn = open_conn srv.sock in
  output_string conn.oc (P.render_frame "STATS end" None);
  flush conn.oc;
  let fields =
    match In_channel.input_line conn.ic with
    | Some line -> (
      match P.parse_reply line with Ok (P.R_stats { fields; _ }) -> fields | _ -> [])
    | None -> []
  in
  Unix.close conn.fd;
  let field k = float_of_string (Option.value ~default:"nan" (List.assoc_opt k fields)) in
  (field, peak_rss_mb (string_of_int srv.pid))

(* Send every text in [order] once over one connection, in sequence:
   the warm-up of a hot set, and the whole stream of a small session. *)
let sequential ~sock ~texts ~expected order =
  let rest = ref order in
  closed_loop ~sock ~texts ~expected ~conns:1 (fun _ ->
      match !rest with
      | [] -> None
      | x :: tl ->
        rest := tl;
        Some x)

(* Count every reply checked in the client and every failed request;
   replies kept for a later check are counted by that check. *)
let count_failures (replies, failed) =
  List.iter
    (fun r ->
      if r.body = "" then
        check r.ok ~what:(Printf.sprintf "request for text %d" r.item)
          "served body differs from Allocator.pipeline")
    replies;
  List.iter
    (fun (item, msg) -> check false ~what:(Printf.sprintf "request for text %d" item) msg)
    failed;
  replies

(* ---- in-process replay --------------------------------------------- *)

(* Replays [order] (text indices, in send order) through an in-process
   [Service] configured like the server, timing each public call:
   frame rendering and parsing ([Protocol.render_frame],
   [parse_header], [parse_reply]), [Cachekey.digest_source],
   [Service.handle], [Store.append] (onto a scratch store, so the
   service's own journal is untouched) and [Scheduler.run_batch] over
   the replayed requests again in pairs, as two clients' requests share
   a batch. *)
let replay r ~dir ~texts order =
  rm_rf dir;
  mkdir_p dir;
  let svc =
    Lsra_service.Service.create
      {
        (Lsra_service.Service.default_config machine) with
        Lsra_service.Service.spot_check = 4;
        store_dir = Some (Filename.concat dir "store");
      }
  in
  let scratch = Lsra_service.Store.open_ ~dir:(Filename.concat dir "scratch") () in
  let passes = Lsra.Passes.default in
  List.iteri
    (fun id item ->
      let text = texts.(item) in
      let span name f = Span.record r ~name ~id f in
      let req_id = string_of_int id in
      let frame = span "service.frame" (fun () -> P.render_frame ("REQ " ^ req_id) (Some text)) in
      let line = String.sub frame 0 (String.index frame '\n') in
      ignore (span "service.frame" (fun () -> P.parse_header line));
      let key =
        span "service.key" (fun () ->
            Lsra_service.Cachekey.digest_source ~machine ~algo:binpack ~passes text)
      in
      let req = Lsra_service.Service.request ~id:req_id text in
      (* Hit or cold is known only afterwards: time the call here and
         file the span under the right name. *)
      let t0 = now () in
      let w0 = Gc.minor_words () in
      let resp = Lsra_service.Service.handle svc req in
      let words = Gc.minor_words () -. w0 in
      Span.add r
        ~name:(if resp.cached then "service.handle.hit" else "service.handle.cold")
        ~id ~t0 ~t1:(now ()) ~words;
      if not resp.cached then
        span "service.store_append" (fun () ->
            Lsra_service.Store.append scratch ~key ~algo:"binpack" ~output:resp.output);
      let out =
        span "service.frame" (fun () ->
            P.render_frame (P.render_ok resp) (Some resp.output))
      in
      let line = String.sub out 0 (String.index out '\n') in
      ignore (span "service.frame" (fun () -> P.parse_reply line)))
    order;
  let sched = Lsra_service.Scheduler.create ~jobs:1 svc in
  let rec pairs id = function
    | a :: b :: tl ->
      let reqs =
        List.map
          (fun (k, item) -> Lsra_service.Service.request ~id:(string_of_int k) texts.(item))
          [ (id, a); (id + 1, b) ]
      in
      let res = Span.record r ~name:"service.batch" ~id (fun () ->
          Lsra_service.Scheduler.run_batch sched reqs) in
      List.iter
        (fun (_, v) ->
          check (Result.is_ok v) ~what:"in-process replay" "Scheduler.run_batch slot failed")
        res;
      pairs (id + 2) tl
    | _ -> ()
  in
  pairs 0 order;
  Lsra_service.Store.close scratch;
  (match Lsra_service.Service.store svc with
  | Some s -> Lsra_service.Store.close s
  | None -> ());
  rm_rf dir
