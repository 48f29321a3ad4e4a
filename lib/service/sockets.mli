(** Deadline-aware, signal-safe socket plumbing shared by {!Client},
    {!Server} and the cluster router.

    Deadlines are absolute [Unix.gettimeofday] instants: one per-request
    budget threads unchanged through connect, write and read.  Every
    path retries [EINTR]; a peer closing mid-frame is a typed [Closed]
    error, never an exception or a SIGPIPE-killed process. *)

type error =
  | Refused of string  (** connect refused / socket absent *)
  | Timeout of string  (** deadline exceeded *)
  | Closed of string  (** peer EOF, reset, or torn frame *)
  | Transport of string  (** any other socket-level failure *)
  | Bad_reply of string  (** reply line that does not parse *)

val error_message : error -> string

val retriable : error -> bool
(** Whether a fresh attempt can plausibly succeed: everything but
    [Bad_reply] (for idempotent requests — which all solve requests are,
    being keyed by their canonical cache key). *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide (idempotent, safe where the signal does
    not exist) so writes to a dead peer surface as [EPIPE] → [Closed]. *)

val connect : ?deadline:float -> Protocol.addr -> (Unix.file_descr, error) result
(** Non-blocking connect bounded by [deadline]; the returned fd is left
    in non-blocking mode. *)

val write_all : ?deadline:float -> Unix.file_descr -> string -> (unit, error) result
(** Write the whole string, waiting for writability (bounded by
    [deadline]) on non-blocking fds, retrying [EINTR] on all. *)

val send_line : ?deadline:float -> Unix.file_descr -> string -> (unit, error) result
(** [write_all] of [line ^ "\n"]. *)

val recv_line : ?deadline:float -> Unix.file_descr -> Buffer.t -> (string, error) result
(** One newline-terminated line (without the newline); bytes past it
    stay in the caller-owned [pending] buffer for the next call.  EOF
    mid-line is a [Closed] torn-frame error. *)

val accept : Unix.file_descr -> (Unix.file_descr * Unix.sockaddr, error) result
(** [EINTR]-retrying accept. *)

(** {2 Serving}

    The one listen/accept/frame/drain loop behind both the query daemon
    and the cluster router: one thread per connection, NDJSON frames in
    order, a graceful drain on request. *)

type stop
(** A drain request shared by a running {!serve} and whoever stops it. *)

val stop_handle : unit -> stop

val request_stop : stop -> unit
(** Ask {!serve} to drain and return; idempotent, safe from signal
    handlers and other threads, and sticky: a stop requested before
    {!serve} starts makes it return as soon as it has bound. *)

val stopping : stop -> bool

type session = {
  handle : string -> string * [ `Continue | `Shutdown ];
      (** one request line in, one reply line out, plus whether to keep
          serving; [`Shutdown] stops the whole loop *)
  close : unit -> unit;  (** runs once when the connection ends *)
}
(** The per-connection state of a handler. *)

val serve :
  stop ->
  Protocol.addr ->
  max_frame:int ->
  connections:Obs.Metrics.Gauge.t ->
  log:Obs.Log.t ->
  listening:string * (string * string) list ->
  send:(Unix.file_descr -> string -> bool) ->
  on_frame_error:(Protocol.error -> unit) ->
  session:(unit -> session) ->
  unit
(** Binds [addr] (replacing a stale Unix-domain socket file), logs the
    [listening] event with its attributes, and gives every accepted
    connection a thread and a fresh [session ()].  [send] writes one
    reply line and says whether the connection is still usable.  An
    oversized frame and an unterminated line at EOF are answered with a
    typed error reply, after [on_frame_error] sees the error.

    SIGTERM and SIGINT request a stop while [serve] runs; their previous
    handlers are restored on return.  On a stop the loop stops
    accepting, logs [draining], lets every connection finish the request
    it is serving, and returns once none is left open.  [connections]
    always reads the number of connections open.  Raises
    [Unix.Unix_error] if the socket cannot be bound. *)
