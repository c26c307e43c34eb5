let write_frame oc line payload =
  output_string oc (Protocol.render_frame line payload);
  flush oc

(* [len]-prefixed bodies read exactly that many bytes, so the body may
   contain any line at all — including a literal [END]. The END-loop is
   kept only as the legacy fallback for headers without [len=]. *)
let read_body ?len ic =
  match len with
  | Some n when n > Protocol.max_body -> Error (Protocol.oversized_body n)
  | Some n -> (
    match really_input_string ic n with
    | body -> Ok body
    | exception End_of_file ->
      Error "end of input inside a REQ frame (len= body truncated)")
  | None ->
    let buf = Buffer.create 1024 in
    let rec go () =
      match In_channel.input_line ic with
      | None -> Error "end of input inside a REQ frame (missing END)"
      | Some "END" -> Ok (Buffer.contents buf)
      | Some line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        go ()
    in
    go ()

(* [saw_quit] lets callers distinguish "client hung up" from an explicit
   QUIT (shut the whole server down). *)
let serve_loop sched ic oc ~saw_quit =
  let severity = ref 0 in
  (* The scheduler returns every response paired with the request it
     answers (a mismatch raises — see {!Scheduler}), so frames are
     tagged from the pair, never from a parallel count. *)
  let emit pairs =
    List.iter
      (fun ((req : Service.request), result) ->
        match result with
        | Ok resp ->
          write_frame oc (Protocol.render_ok resp)
            (Some resp.Service.output)
        | Error e ->
          let code = Protocol.err_code_of_exn e in
          (* Bad input (code 1) is the client's problem; verifier rejects
             and spot-check divergences are ours, and decide the server's
             own result. *)
          severity := max !severity (if code = 1 then 0 else code);
          write_frame oc
            (Protocol.render_err ~id:req.Service.req_id ~code
               (Protocol.err_message_of_exn e))
            None)
      pairs
  in
  let flush_all () = emit (Scheduler.flush sched) in
  let rec loop () =
    match In_channel.input_line ic with
    | None -> flush_all ()
    | Some "" -> loop ()
    | Some line -> (
      match Protocol.parse_header line with
      | Error msg ->
        write_frame oc (Protocol.render_err ~id:"-" ~code:1 msg) None;
        loop ()
      | Ok Protocol.H_quit ->
        saw_quit := true;
        flush_all ()
      | Ok Protocol.H_flush ->
        flush_all ();
        loop ()
      | Ok (Protocol.H_stats id) ->
        flush_all ();
        write_frame oc
          (Protocol.render_stats ~id
             (Service.counters (Scheduler.service sched)))
          None;
        loop ()
      | Ok (Protocol.H_req { id; algo; passes; deadline; body_len }) -> (
        match read_body ?len:body_len ic with
        | Error msg ->
          write_frame oc (Protocol.render_err ~id ~code:1 msg) None;
          flush_all ()
        | Ok source ->
          let req = Service.request ~algo ~passes ?deadline ~id source in
          emit (Scheduler.submit sched req);
          loop ()))
  in
  loop ();
  !severity

let serve_channels sched ic oc =
  serve_loop sched ic oc ~saw_quit:(ref false)

let serve_stdio sched = serve_channels sched stdin stdout

let serve_socket ?max_clients sched path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64;
      Mux.run ?max_clients sched sock)
