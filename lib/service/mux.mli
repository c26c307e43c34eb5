(** [Unix.select]-based connection multiplexer: the server's one frame
    parser, for a Unix socket and for stdin/stdout alike.

    One event loop owns either a listening socket and up to
    [max_clients] concurrent connections, or one fixed connection over a
    read and a write descriptor. Frames are parsed incrementally out of
    per-connection read buffers (partial headers, partial bodies and
    many-frames-per-read all work), completed requests from {e every}
    connection feed the one shared batched {!Scheduler} — so independent
    clients' concurrent requests coalesce into a single domain-pool
    batch — and each response is routed back to the connection that
    asked, by (connection, request id).

    The batch boundary is the event-loop round: a round reads each ready
    connection until the read would block, EOF, or the scheduler's queue
    reaches capacity and auto-drains, then flushes everything that
    arrived as one batch — unless every connection that sent a request
    in it is mid-frame, in which case the batch carries over to the next
    round. A client that pauses after a frame is answered; a producer
    still streaming frames keeps filling the batch. FLUSH/STATS still
    force earlier flushes.

    Robustness properties:
    - [EINTR] on accept retries and [ECONNABORTED] skips the aborted
      client; neither kills the server.
    - A client disconnecting mid-frame poisons only its own connection;
      every other client is unaffected.
    - A write to a closed peer (EPIPE) ends that connection, never the
      process: [SIGPIPE] is ignored.
    - Severity (worst non-input [ERR] code) is tracked per connection
      and aggregated explicitly when the connection closes, so one
      client's verifier reject can't leak into another's session — but
      still decides the server's own exit. *)

(** POSIX [FD_SETSIZE] (1024): [select(2)] cannot watch a descriptor
    numbered this or higher, so [max_clients] must stay below it. *)
val fd_setsize : int

type endpoint =
  | Listener of Unix.file_descr
      (** An already-listening socket (switched to non-blocking): serve
          until a client sends [QUIT]. *)
  | Fds of { input : Unix.file_descr; output : Unix.file_descr }
      (** One fixed connection, read from [input] and answered on
          [output] (stdin/stdout for [lsra_tool serve]): serve until
          [QUIT], end of input, or a failed write. Neither descriptor's
          mode is changed, and neither is closed. *)

(** [run ?max_clients sched endpoint] serves [endpoint]; pending
    responses are drained before returning. Closes every accepted
    connection but {e not} the listener or the [Fds] descriptors.
    Returns the worst severity seen across all connections (0, 3 or 4).
    Raises [Failure] on a request/response pairing violation — an
    internal invariant.

    Raises [Invalid_argument] when [max_clients >= fd_setsize]: such a
    configuration would not fail cleanly under load — it would accept
    connections it can never service. The check runs at startup, before
    the first accept. *)
val run : ?max_clients:int -> Scheduler.t -> endpoint -> int
