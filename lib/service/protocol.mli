(** The newline-framed textual-IR wire protocol.

    Client → server frames:
    {v
    REQ <id> [algo=<name>] [passes=<spec>] [deadline-ms=<float>] len=<bytes>
    <exactly len bytes of textual IR>
    FLUSH
    STATS <id>
    QUIT
    v}
    A [REQ] header carrying [len=<bytes>] is followed by exactly that
    many body bytes — the body may therefore contain {e any} line,
    including a literal [END]. A [REQ] without [len=] falls back to the
    legacy line framing: the body is every line up to the first line
    equal to [END] (such a body can never itself contain an [END]
    line — prefer [len=]).

    [FLUSH] processes the pending batch and writes the responses in
    submission order; [STATS] flushes, then reports the service
    counters; [QUIT] (or end of input) flushes and shuts the server
    down. The bounded queue also flushes itself when full, and the
    server ({!Mux}) flushes whatever has arrived across {e all}
    connections at the end of every event-loop round.

    Server → client frames:
    {v
    OK <id> cache=hit|cold [downgraded-to=<short>] wall-us=<int> len=<bytes>
    <exactly len bytes: the allocated program, textual IR>
    ERR <id> <code> <message>
    STATS <id> requests=<n> hits=<n> misses=<n> evictions=<n> entries=<n> bytes=<n> downgrades=<n> spot-checks=<n> shards=<n> warm-loaded=<n>
    v}
    Response bodies are always length-prefixed (the payload is
    normalised to end with exactly one newline, covered by [len=]).
    [ERR] codes follow the repository's exit-code contract: 1 = bad
    input (parse/malformed/rejected), 3 = the abstract verifier rejected
    the allocation, 4 = a spot-check found a divergence. *)

type header =
  | H_req of {
      id : string;
      algo : Lsra.Allocator.algorithm;
      passes : Lsra.Passes.t list;
      deadline : float option;  (** seconds *)
      body_len : int option;
          (** [Some n]: the body is exactly [n] bytes. [None]: legacy
              [END]-terminated line framing. *)
    }
  | H_flush
  | H_stats of string
  | H_quit

(** Parse one header line (the line that opens a frame). *)
val parse_header : string -> (header, string) result

(** The largest [len=] a request may declare (64 MiB). A larger one is a
    protocol violation, not a request: the multiplexer answers it with
    an [ERR] and ends the session rather than buffer the body. *)
val max_body : int

(** The [OK] header line {e without} the [len=] field or trailing
    newline — {!render_frame} appends both when given the payload. *)
val render_ok : Service.response -> string

val render_err : id:string -> code:int -> string -> string
val render_stats : id:string -> Service.service_counters -> string

(** Normalise a payload for the wire: ensure it ends with exactly one
    newline (appending one if missing) so [len=] framing keeps the next
    header on a fresh line. *)
val frame_body : string -> string

(** [render_frame line payload] is the complete wire rendering of one
    frame: [line] with [ len=<bytes>] appended when [payload] is
    [Some _], the newline, and the (normalised) payload bytes. The
    multiplexer emits every response through this, over stdio and
    sockets alike; clients render their requests with it. *)
val render_frame : string -> string option -> string

(** Map an exception raised while serving a request to its [ERR] code:
    4 for {!Service.Spot_check_failed}, 3 for [Lsra.Verify.Mismatch],
    1 otherwise (parse errors, malformed programs, precheck rejects). *)
val err_code_of_exn : exn -> int

val err_message_of_exn : exn -> string

(** {2 Client side}

    Reply parsing for socket clients (the [bench service --clients]
    replay and the test suite). *)

type reply =
  | R_ok of {
      id : string;
      hit : bool;
      downgraded_to : string option;
      wall_us : int;
      body_len : int option;
          (** bytes of payload following the header; [None] only for
              pre-length-prefix servers *)
    }
  | R_err of { id : string; code : int; msg : string }
  | R_stats of { id : string; fields : (string * string) list }

(** Parse one server reply header line. *)
val parse_reply : string -> (reply, string) result
