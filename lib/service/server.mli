(** The persistent throughput-query daemon.

    The socket side is {!Sockets.serve}, the loop the cluster router
    shares: one listening socket (Unix-domain or TCP), one lightweight
    thread per connection, NDJSON request/reply in order per connection,
    open connections counted in the [service_connections_open] gauge.
    Solves are
    admitted against a bounded in-flight budget — past it the daemon
    answers a retriable [busy] error instead of queueing unboundedly —
    and answered from the LRU result cache or computed on the shared
    domain pool ({!Parallel.Pool.get}; batches fan their items out across
    it).  SIGTERM/SIGINT (and the [shutdown] command) start a graceful
    drain: stop accepting, let every in-flight request finish and its
    reply flush, exit the serve loop, dump the metrics.

    The request machinery is exposed separately from the socket loop
    ({!create} / {!respond}) so the protocol semantics are testable
    without a socket. *)

type config = {
  cache_capacity : int;  (** LRU entries (default 256) *)
  max_inflight : int;
      (** concurrent solve/batch requests admitted; 0 refuses all solves
          (useful in tests), default [4 * Parallel.Pool.size] *)
  max_frame : int;  (** request line byte limit (default 1 MiB) *)
  default_wall : float option;
      (** server-side wall budget applied to requests that carry none *)
  log : Format.formatter;
      (** structured-event (JSONL) log sink; use a null formatter to
          silence *)
  flight : string option;
      (** when set, arms the {!Obs.Recorder} flight recorder with this
          dump path: recent spans/events are dumped there atomically on
          exit, on a typed-error burst, and on an injected crash *)
}

val default_config : unit -> config

type entry = { rendered : string; quality : string; states : int }
(** A cached answer: the rendered [result] object replayed verbatim on a
    hit, plus what the metrics need without re-parsing it. *)

type t

val create : config -> t

val metrics : t -> Metrics.t
val cache : t -> entry Lru.t

val respond : t -> string -> string * [ `Continue | `Shutdown ]
(** [respond t line] is the reply to one request line, plus whether the
    daemon should keep serving.  Never raises on malformed input — every
    failure mode maps to a typed error reply. *)

val stats_json : t -> Json.t
(** What the [stats] command returns: metrics, cache counters, pool and
    admission state. *)

val request_stop : t -> unit
(** Ask a running {!serve} loop to drain and return; idempotent, safe
    from signal handlers and other threads. *)

val serve : t -> Protocol.addr -> unit
(** Binds, listens and serves until {!request_stop} (or SIGTERM/SIGINT,
    which it installs handlers for, or a [shutdown] request) fires; then
    drains in-flight connections, dumps metrics to [config.log] and
    returns.  Raises [Unix.Unix_error] if the socket cannot be bound.
    A pre-existing Unix-domain socket file at the path is replaced. *)
