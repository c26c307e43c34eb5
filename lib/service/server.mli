(** The serving entry points: {!Protocol} frames over stdio or a Unix
    socket, both through the {!Mux} event loop.

    Per-request failures never kill the server — they come back as [ERR]
    frames on the stream — but the loop remembers the worst thing it saw
    and reports it as its result, following the repository's exit-code
    contract: [0] when every request either succeeded or was merely bad
    input, [3] when the abstract verifier rejected at least one cold
    allocation, [4] when a spot-check found a divergence (the cached and
    freshly-allocated payloads differ — a correctness failure worth
    failing CI over). *)

(** Serve stdin/stdout until [QUIT], end of input, or stdout closing
    (a closed reader ends the session with the severity so far, never a
    [SIGPIPE]). *)
val serve_stdio : Scheduler.t -> int

(** Bind a Unix-domain socket at [path] (replacing any stale socket
    file) and serve up to [max_clients] (default 64) concurrent
    connections until a [QUIT] frame. Requests arriving concurrently on
    different connections coalesce into shared scheduler batches. The
    socket file is removed on the way out, including on exceptions.
    Returns the worst severity seen across every connection. *)
val serve_socket : ?max_clients:int -> Scheduler.t -> string -> int
