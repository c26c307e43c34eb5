let serve_stdio sched =
  Mux.run sched (Mux.Fds { input = Unix.stdin; output = Unix.stdout })

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
      Mux.run ?max_clients sched (Mux.Listener sock))
