(* The cluster front door.

   Speaks the same NDJSON protocol as a single daemon, so clients need
   not know they are talking to a fleet.  Solves are routed by their
   canonical cache key ([Engine.prepare]) through the consistent-hash
   ring, which concentrates each key on one worker's LRU; batches go
   round-robin.  Ping/stats/metrics/shutdown are answered locally.

   The request path is hardened end to end: every request gets an
   absolute deadline on arrival; transport failures walk down the key's
   preference list (solves are idempotent — deterministic rendering,
   canonical key — so re-sending to another worker after a torn reply is
   safe); a pass that finds no worker is retried on the Backoff policy
   with deterministic jitter until the deadline; per-worker circuit
   breakers shed a failing worker before it eats the whole budget; and
   when everything is down the client gets a typed, retriable
   [unavailable] reply instead of a hang. *)

module Protocol = Service.Protocol
module Json = Service.Json
module Sockets = Service.Sockets
module Client = Service.Client
module Engine = Service.Engine
module Metrics = Obs.Metrics

type config = {
  max_frame : int;  (** request line byte limit (default 1 MiB) *)
  request_deadline : float;  (** per-request budget, seconds *)
  retry : Supervise.Backoff.policy;
  breaker : Breaker.config;
  vnodes : int;  (** ring points per worker *)
  drain_grace : float;  (** SIGTERM→SIGKILL grace on fleet shutdown *)
  log : Format.formatter;
}

let default_config () =
  {
    max_frame = 1 lsl 20;
    request_deadline = 30.0;
    retry = Supervise.Backoff.default_retry;
    breaker = Breaker.default_config;
    vnodes = 64;
    drain_grace = 5.0;
    log = Format.err_formatter;
  }

type t = {
  config : config;
  sup : Supervisor.t;
  ring : Ring.t;
  breakers : Breaker.t array;
  registry : Metrics.registry;
  forwarded : Metrics.Counter.t array;
  transport_failures : Metrics.Counter.t array;
  retries : Metrics.Counter.t;
  shed : Metrics.Counter.t;
  latency : Metrics.Histogram.t;
  rr : int Atomic.t;
  stop : Sockets.stop;
  slog : Obs.Log.t;  (* structured events, routed through config.log *)
}

let latency_buckets =
  [| 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0; 2.5; 5.0 |]

let create config sup =
  let registry = Metrics.create_registry () in
  let n = Supervisor.size sup in
  let per_worker name help =
    Array.init n (fun i ->
        Metrics.Counter.create ~registry ~labels:[ ("worker", string_of_int i) ] ~help name)
  in
  let t =
    {
      config;
      sup;
      ring = Ring.create ~vnodes:config.vnodes n;
      breakers = Array.init n (fun _ -> Breaker.create ~config:config.breaker ());
      registry;
      forwarded = per_worker "cluster_forwarded_total" "requests answered by this worker";
      transport_failures =
        per_worker "cluster_transport_failures_total" "transport-level forward failures";
      retries =
        Metrics.Counter.create ~registry ~help:"request passes retried after backoff"
          "cluster_retries_total";
      shed =
        Metrics.Counter.create ~registry ~help:"requests answered unavailable"
          "cluster_shed_total";
      latency =
        Metrics.Histogram.create ~registry ~help:"routed request latency, seconds"
          ~buckets:latency_buckets "cluster_request_seconds";
      rr = Atomic.make 0;
      stop = Sockets.stop_handle ();
      slog =
        Obs.Log.create ~sink:(Obs.Log.formatter_sink config.log)
          ~comp:"router" ();
    }
  in
  Metrics.register_collector ~registry ~name:"cluster_fleet" (fun () ->
      let now = Unix.gettimeofday () in
      for i = 0 to n - 1 do
        let labels = [ ("worker", string_of_int i) ] in
        Metrics.Gauge.set
          (Metrics.Gauge.create ~registry ~labels ~help:"1 when the worker is up"
             "cluster_worker_up")
          (if Supervisor.alive sup i then 1.0 else 0.0);
        Metrics.Gauge.set
          (Metrics.Gauge.create ~registry ~labels ~help:"lifetime restarts"
             "cluster_worker_restarts")
          (float_of_int (Supervisor.restarts sup i));
        Metrics.Gauge.set
          (Metrics.Gauge.create ~registry ~labels ~help:"1 when the breaker is open"
             "cluster_breaker_open")
          (match Breaker.state t.breakers.(i) ~now with
          | Breaker.Open -> 1.0
          | Breaker.Closed | Breaker.Half_open -> 0.0)
      done);
  t

let metrics_registry t = t.registry

let record_cmd t cmd =
  Metrics.Counter.incr
    (Metrics.Counter.create ~registry:t.registry ~labels:[ ("cmd", cmd) ]
       ~help:"requests seen by the router" "cluster_requests_total")

let requests_total t cmd =
  Metrics.Counter.value
    (Metrics.Counter.create ~registry:t.registry ~labels:[ ("cmd", cmd) ]
       "cluster_requests_total")

(* ---- forwarding ---- *)

(* compares in place: this runs on every forwarded reply *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec matches_at i j = j = nn || (hay.[i + j] = needle.[j] && matches_at i (j + 1)) in
  let rec go i = i + nn <= nh && (matches_at i 0 || go (i + 1)) in
  go 0

(* A worker reply that is itself a retriable refusal (busy admission):
   the worker is healthy but shedding, so the router tries the next one.
   The substring test keeps JSON parsing off the fast path — [ok:true]
   replies almost never contain the literal. *)
let reply_is_retriable_refusal line =
  contains line "\"ok\":false"
  &&
  match Json.parse line with Ok j -> Client.reply_retriable j | Error _ -> false

(* One RPC to worker [w] over the per-connection cache.  A cached
   connection may be stale — the worker restarted since we last used
   it — so its failure earns one fresh reconnect before counting as a
   worker failure. *)
let worker_rpc t conns w line ~deadline =
  let fresh () =
    match Client.connect ~deadline (Supervisor.addr t.sup w) with
    | Error e -> Error e
    | Ok c -> (
        conns.(w) <- Some c;
        match Client.rpc_raw ~deadline c line with
        | Ok r -> Ok r
        | Error e ->
            Client.close c;
            conns.(w) <- None;
            Error e)
  in
  match conns.(w) with
  | None -> fresh ()
  | Some c -> (
      match Client.rpc_raw ~deadline c line with
      | Ok r -> Ok r
      | Error _ ->
          Client.close c;
          conns.(w) <- None;
          fresh ())

let route t conns ~id ~pref line =
  let deadline = Unix.gettimeofday () +. t.config.request_deadline in
  let shed reason =
    Metrics.Counter.incr t.shed;
    Obs.Log.warn t.slog ~attrs:[ ("reason", reason) ] "request_shed";
    Protocol.error_reply ~id (Protocol.Unavailable { reason })
  in
  let rec pass attempt last_reason =
    if Unix.gettimeofday () >= deadline then
      shed (Printf.sprintf "deadline exceeded (%s)" last_reason)
    else begin
      let reason = ref last_reason in
      (* one walk down the preference list; [busy] keeps the last
         shedding reply so it can be forwarded verbatim if every worker
         is alive but refusing *)
      let rec walk busy = function
        | [] -> `Exhausted busy
        | w :: rest ->
            if not (Supervisor.alive t.sup w) then begin
              reason := Printf.sprintf "worker %d %s" w
                  (Supervisor.state_to_string (Supervisor.state t.sup w));
              walk busy rest
            end
            else if not (Breaker.allow t.breakers.(w) ~now:(Unix.gettimeofday ())) then begin
              reason := Printf.sprintf "worker %d breaker open" w;
              walk busy rest
            end
            else begin
              match worker_rpc t conns w line ~deadline with
              | Ok reply ->
                  Breaker.success t.breakers.(w);
                  if reply_is_retriable_refusal reply then begin
                    reason := Printf.sprintf "worker %d busy" w;
                    walk (Some reply) rest
                  end
                  else begin
                    Metrics.Counter.incr t.forwarded.(w);
                    `Reply reply
                  end
              | Error e ->
                  Breaker.failure t.breakers.(w) ~now:(Unix.gettimeofday ());
                  Metrics.Counter.incr t.transport_failures.(w);
                  reason := Printf.sprintf "worker %d: %s" w (Client.error_message e);
                  walk busy rest
            end
      in
      match walk None pref with
      | `Reply reply -> reply
      | `Exhausted busy ->
          if Supervise.Backoff.exhausted t.config.retry ~attempt then
            match busy with Some reply -> reply | None -> shed !reason
          else begin
            Metrics.Counter.incr t.retries;
            (* the jitter seed hashes the whole line, so it is paid only
               when a retry is scheduled *)
            let seed = Ring.hash_string line land 0xffff in
            let wait = Supervise.Backoff.delay t.config.retry ~seed ~attempt in
            let slack = deadline -. Unix.gettimeofday () in
            if slack <= 0.0 then shed !reason
            else begin
              Thread.delay (Float.min wait slack);
              pass (attempt + 1) !reason
            end
          end
    end
  in
  pass 0 "no worker tried"

(* ---- shard-aware batch splitting ----

   A batch is not one routing decision: each item has its own canonical
   key and therefore its own ring owner.  Splitting the batch into
   per-owner sub-batches sends every item to the worker whose LRU either
   already holds it or should hold it next — the same placement the
   single-solve path uses — instead of warming a random worker's cache.
   Items are reassembled in their original order, so the reply is
   byte-identical to what one daemon would produce (item replies are
   re-rendered through [Json], whose rendering is stable on its own
   output). *)

let error_part e =
  Printf.sprintf "{\"ok\":false,\"error\":%s}" (Json.render (Protocol.error_json e))

(* every item of a failed sub-forward inherits the forward's error
   object, so the client sees the same typed, retriable refusal it would
   see for a single solve *)
let failed_forward_part reply_line =
  match Json.parse reply_line with
  | Ok json -> (
      match Json.member "error" json with
      | Some e -> Printf.sprintf "{\"ok\":false,\"error\":%s}" (Json.render e)
      | None -> error_part (Protocol.Internal "sub-batch forward produced no error object"))
  | Error _ -> error_part (Protocol.Internal "sub-batch forward produced an unparsable reply")

let route_batch t conns ~id ?trace items =
  let n = List.length items in
  let parts = Array.make n "" in
  (* group decodable items by ring owner, remembering original slots *)
  let groups = Hashtbl.create 8 in
  List.iteri
    (fun i item ->
      match item with
      | Error e -> parts.(i) <- error_part e
      | Ok q -> (
          match Engine.prepare q with
          | Error msg -> parts.(i) <- error_part (Protocol.Bad_request msg)
          | Ok prepared ->
              let key = prepared.Engine.key in
              let owner = Ring.lookup t.ring key in
              let tail = try Hashtbl.find groups owner with Not_found -> [] in
              Hashtbl.replace groups owner ((i, q, key) :: tail)))
    items;
  Hashtbl.iter
    (fun _owner rev_group ->
      let group = List.rev rev_group in
      let sub_line =
        Json.render
          (Json.Obj
             ([
                ("v", Json.Int Protocol.version);
                ("cmd", Json.String "batch");
              ]
             (* each sub-batch is a child of the incoming trace: same
                trace id, its own span id *)
             @ (match trace with
               | Some tr ->
                   [ Protocol.obs_field ~trace:tr ~span:(Obs.Trace.fresh_id ()) ]
               | None -> [])
             @ [
                 ( "requests",
                   Json.List (List.map (fun (_, q, _) -> Protocol.query_json q) group) );
               ]))
      in
      (* the owner's full fallback order: first key's preference list
         starts at the shared owner by construction *)
      let _, _, first_key = List.hd group in
      let pref = Ring.preference t.ring first_key in
      let reply = route t conns ~id:None ~pref sub_line in
      let sub_results =
        match Json.parse reply with
        | Ok json when Client.reply_ok json -> (
            match Option.bind (Client.reply_result json) (Json.member "results") with
            | Some (Json.List rs) when List.length rs = List.length group -> Some rs
            | _ -> None)
        | Ok _ -> (
            (* typed refusal from the worker or the shed path *)
            List.iter (fun (i, _, _) -> parts.(i) <- failed_forward_part reply) group;
            None)
        | Error _ ->
            List.iter
              (fun (i, _, _) ->
                parts.(i) <- error_part (Protocol.Internal "unparsable sub-batch reply"))
              group;
            None
      in
      match sub_results with
      | Some rs ->
          List.iter2 (fun (i, _, _) r -> parts.(i) <- Json.render r) group rs
      | None -> (
          (* count mismatch on an ok reply: per-item internal errors *)
          match Json.parse reply with
          | Ok json when Client.reply_ok json ->
              List.iter
                (fun (i, _, _) ->
                  if parts.(i) = "" then
                    parts.(i) <- error_part (Protocol.Internal "sub-batch result count mismatch"))
                group
          | _ -> ()))
    groups;
  let result =
    Printf.sprintf "{\"count\":%d,\"results\":[%s]}" n
      (String.concat "," (Array.to_list parts))
  in
  Protocol.ok_reply ~id ~result ()

(* ---- the protocol surface ---- *)

let stats_json t =
  let now = Unix.gettimeofday () in
  let n = Supervisor.size t.sup in
  Json.Obj
    [
      ("role", Json.String "router");
      ( "workers",
        Json.List
          (List.init n (fun i ->
               Json.Obj
                 [
                   ("index", Json.Int i);
                   ("addr", Json.String (Protocol.addr_to_string (Supervisor.addr t.sup i)));
                   ("state", Json.String (Supervisor.state_to_string (Supervisor.state t.sup i)));
                   ( "breaker",
                     Json.String (Breaker.state_to_string (Breaker.state t.breakers.(i) ~now)) );
                   ("restarts", Json.Int (Supervisor.restarts t.sup i));
                   ("forwarded", Json.Int (Metrics.Counter.value t.forwarded.(i)));
                   ( "transport_failures",
                     Json.Int (Metrics.Counter.value t.transport_failures.(i)) );
                 ])) );
      ("retries", Json.Int (Metrics.Counter.value t.retries));
      ("shed", Json.Int (Metrics.Counter.value t.shed));
      ("routed", Json.Int (Metrics.Histogram.count t.latency));
    ]

(* ---- fleet metrics federation ----

   The router answers [metrics fleet:true] by scraping every Up worker's
   own exposition over the wire (the same [metrics] command a client
   would send) and merging the texts under a [worker="i"] label after its
   own registries.  Down or unresponsive workers become comment lines,
   so a partial fleet still yields a well-formed exposition. *)

let fleet_metrics t conns =
  let head =
    Metrics.to_prometheus t.registry ^ Metrics.to_prometheus Metrics.default
  in
  let deadline =
    Unix.gettimeofday () +. Float.min 2.0 t.config.request_deadline
  in
  let n = Supervisor.size t.sup in
  let sections = ref [] in
  let skipped = Buffer.create 64 in
  let skip w why =
    Buffer.add_string skipped (Printf.sprintf "# worker %d skipped: %s\n" w why)
  in
  for w = 0 to n - 1 do
    if not (Supervisor.alive t.sup w) then
      skip w (Supervisor.state_to_string (Supervisor.state t.sup w))
    else
      match worker_rpc t conns w "{\"v\":1,\"cmd\":\"metrics\"}" ~deadline with
      | Error e -> skip w (Client.error_message e)
      | Ok reply -> (
          match Json.parse reply with
          | Ok json when Client.reply_ok json -> (
              match
                Option.bind (Client.reply_result json) (fun r ->
                    Option.bind (Json.member "text" r) Json.to_string_opt)
              with
              | Some text -> sections := (string_of_int w, text) :: !sections
              | None -> skip w "reply carried no text field")
          | Ok _ -> skip w "worker refused the scrape"
          | Error _ -> skip w "unparsable reply")
  done;
  Obs.Exposition.merge ~head ~label:"worker" (List.rev !sections)
  ^ Buffer.contents skipped

let respond t conns line =
  let err id e = (Protocol.error_reply ~id e, `Continue) in
  match Json.parse line with
  | Error msg ->
      record_cmd t "invalid";
      err None (Protocol.Parse_error msg)
  | Ok json -> (
      match Protocol.parse_request json with
      | Error (id, e) ->
          record_cmd t "invalid";
          err id e
      | Ok (id, request) -> (
          (* Trace-context propagation: when tracing is on, adopt the
             client's envelope or mint a fresh one and splice it into the
             forwarded bytes; when tracing is off the line is forwarded
             verbatim, untouched. *)
          let traced line =
            if not (Obs.Trace.enabled ()) then (line, None)
            else
              match Protocol.obs_context json with
              | Some (trace, _) -> (line, Some trace)
              | None ->
                  let trace = Obs.Trace.fresh_id () in
                  ( Protocol.with_obs line ~trace ~span:(Obs.Trace.fresh_id ()),
                    Some trace )
          in
          let route_traced ~name ~pref line =
            let line, trace = traced line in
            let run () = route t conns ~id ~pref line in
            match trace with
            | None -> run ()
            | Some tr ->
                Obs.Trace.span name (fun () ->
                    Obs.Trace.add_attr "trace_id" tr;
                    run ())
          in
          match request with
          | Protocol.Ping ->
              record_cmd t "ping";
              let result =
                Json.render
                  (Json.Obj
                     [
                       ("pong", Json.Bool true);
                       ("version", Json.Int Protocol.version);
                       ("role", Json.String "router");
                       ("workers", Json.Int (Supervisor.size t.sup));
                     ])
              in
              (Protocol.ok_reply ~id ~result (), `Continue)
          | Protocol.Stats ->
              record_cmd t "stats";
              (Protocol.ok_reply ~id ~result:(Json.render (stats_json t)) (), `Continue)
          | Protocol.Metrics { fleet } ->
              record_cmd t "metrics";
              let text =
                if fleet then fleet_metrics t conns
                else Metrics.to_prometheus t.registry
              in
              let result =
                Json.render
                  (Json.Obj
                     [ ("format", Json.String "prometheus-text"); ("text", Json.String text) ])
              in
              (Protocol.ok_reply ~id ~result (), `Continue)
          | Protocol.Shutdown ->
              record_cmd t "shutdown";
              let result = Json.render (Json.Obj [ ("stopping", Json.Bool true) ]) in
              (Protocol.ok_reply ~id ~result (), `Shutdown)
          | Protocol.Solve q -> (
              record_cmd t "solve";
              match Engine.prepare q with
              | Error msg -> err id (Protocol.Bad_request msg)
              | Ok prepared ->
                  let pref = Ring.preference t.ring prepared.Engine.key in
                  let t0 = Unix.gettimeofday () in
                  let reply = route_traced ~name:"router:solve" ~pref line in
                  Metrics.Histogram.observe t.latency (Unix.gettimeofday () -. t0);
                  (reply, `Continue))
          | Protocol.Solve_multi q -> (
              record_cmd t "solve_multi";
              match Engine.prepare_multi q with
              | Error msg -> err id (Protocol.Bad_request msg)
              | Ok prepared ->
                  let pref = Ring.preference t.ring prepared.Engine.m_key in
                  let t0 = Unix.gettimeofday () in
                  let reply = route_traced ~name:"router:solve_multi" ~pref line in
                  Metrics.Histogram.observe t.latency (Unix.gettimeofday () -. t0);
                  (reply, `Continue))
          | Protocol.Admit q -> (
              record_cmd t "admit";
              match Engine.prepare_multi q with
              | Error msg -> err id (Protocol.Bad_request msg)
              | Ok prepared ->
                  let pref = Ring.preference t.ring prepared.Engine.m_key in
                  let t0 = Unix.gettimeofday () in
                  let reply = route_traced ~name:"router:admit" ~pref line in
                  Metrics.Histogram.observe t.latency (Unix.gettimeofday () -. t0);
                  (reply, `Continue))
          | Protocol.Batch items ->
              record_cmd t "batch";
              let trace =
                if not (Obs.Trace.enabled ()) then None
                else
                  match Protocol.obs_context json with
                  | Some (tr, _) -> Some tr
                  | None -> Some (Obs.Trace.fresh_id ())
              in
              let t0 = Unix.gettimeofday () in
              let reply =
                match trace with
                | None -> route_batch t conns ~id items
                | Some tr ->
                    Obs.Trace.span "router:batch" (fun () ->
                        Obs.Trace.add_attr "trace_id" tr;
                        route_batch t conns ~id ~trace:tr items)
              in
              Metrics.Histogram.observe t.latency (Unix.gettimeofday () -. t0);
              (reply, `Continue)))

(* ---- the socket loop ---- *)

let request_stop t = Sockets.request_stop t.stop

let serve t addr =
  Sockets.serve t.stop addr ~max_frame:t.config.max_frame
    ~connections:
      (Metrics.Gauge.create ~registry:t.registry ~help:"Open client connections"
         "cluster_connections_open")
    ~log:t.slog
    ~listening:
      ( "router_listening",
        [
          ("addr", Protocol.addr_to_string addr);
          ("workers", string_of_int (Supervisor.size t.sup));
        ] )
    ~send:(fun fd line -> Result.is_ok (Sockets.send_line fd line))
    ~on_frame_error:ignore
    ~session:(fun () ->
      let conns = Array.make (Supervisor.size t.sup) None in
      {
        Sockets.handle = respond t conns;
        close = (fun () -> Array.iter (Option.iter Client.close) conns);
      });
  Obs.Log.info t.slog "fleet_stopping";
  Supervisor.shutdown ~grace:t.config.drain_grace t.sup
