(** The serving loop: {!Protocol} frames over stdio or a Unix socket.

    Per-request failures never kill the server — they come back as [ERR]
    frames on the stream — but the loop remembers the worst thing it saw
    and reports it as its result, following the repository's exit-code
    contract: [0] when every request either succeeded or was merely bad
    input, [3] when the abstract verifier rejected at least one cold
    allocation, [4] when a spot-check found a divergence (the cached and
    freshly-allocated payloads differ — a correctness failure worth
    failing CI over). *)

(** Emit one complete frame through {!Protocol.render_frame} (responses
    are length-prefixed) and flush. *)
val write_frame : out_channel -> string -> string option -> unit

(** Read one request body. [?len] (from the header's [len=]) reads
    exactly that many bytes — the body may contain any line, including a
    literal [END]. Without [len] the legacy framing applies: lines up to
    the first [END] line. [Error] means the input ended inside the
    frame, or [len] exceeds {!Protocol.max_body} (nothing is read). *)
val read_body : ?len:int -> in_channel -> (string, string) result

(** Serve one blocking connection: read frames from the input channel
    until [QUIT] or end of input, writing response frames (flushed after
    every batch; each frame is tagged from the scheduler's
    request/response pairing). Returns the worst [ERR] severity seen (0,
    3 or 4 — code-1 errors are the client's problem, not the
    server's). *)
val serve_channels : Scheduler.t -> in_channel -> out_channel -> int

(** Serve stdin/stdout until EOF or [QUIT]. *)
val serve_stdio : Scheduler.t -> int

(** Bind a Unix-domain socket at [path] (replacing any stale socket
    file) and serve up to [max_clients] (default 64) concurrent
    connections through the {!Mux} event loop until a [QUIT] frame.
    Requests arriving concurrently on different connections coalesce
    into shared scheduler batches. The socket file is removed on the way
    out, including on exceptions. Returns the worst severity seen across
    every connection. *)
val serve_socket : ?max_clients:int -> Scheduler.t -> string -> int
