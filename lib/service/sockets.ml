(* Deadline-aware, signal-safe socket plumbing shared by the client, the
   daemon and the cluster router.

   Every path retries [EINTR]; a peer closing mid-frame surfaces as a
   typed [Closed] error instead of an exception (or, without the
   process-wide SIGPIPE ignore, a killed thread).  Deadlines are
   absolute [Unix.gettimeofday] instants so one request budget threads
   through connect, write and read without re-arithmetic. *)

type error =
  | Refused of string  (* connect refused / socket absent *)
  | Timeout of string  (* deadline exceeded *)
  | Closed of string  (* peer EOF, reset, or torn frame *)
  | Transport of string  (* any other socket-level failure *)
  | Bad_reply of string  (* reply line that does not parse *)

let error_message = function
  | Refused msg -> "connection refused: " ^ msg
  | Timeout msg -> "deadline exceeded: " ^ msg
  | Closed msg -> "connection closed: " ^ msg
  | Transport msg -> "transport failure: " ^ msg
  | Bad_reply msg -> "bad reply: " ^ msg

(* a broken transport can heal on a fresh attempt; a reply that does not
   parse will not parse twice *)
let retriable = function
  | Refused _ | Timeout _ | Closed _ | Transport _ -> true
  | Bad_reply _ -> false

(* SIGPIPE would kill the whole process when a peer closes mid-reply;
   ignoring it turns the write into an [EPIPE] we map to [Closed].
   Idempotent and cheap, so every entry point just calls it. *)
let sigpipe_ignored = ref false

let ignore_sigpipe () =
  if not !sigpipe_ignored then begin
    (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
     with Invalid_argument _ | Sys_error _ -> ());
    sigpipe_ignored := true
  end

let closing_error err msg =
  match err with
  | Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN | Unix.EBADF ->
      Closed (msg ^ ": " ^ Unix.error_message err)
  | _ -> Transport (msg ^ ": " ^ Unix.error_message err)

(* select on one fd, honouring the deadline; [EINTR] restarts with the
   remaining time *)
let rec wait_fd ~for_read fd deadline =
  let timeout =
    match deadline with
    | None -> -1.0
    | Some d ->
        let left = d -. Unix.gettimeofday () in
        if left <= 0.0 then 0.0 else left
  in
  let expired = match deadline with Some _ when timeout = 0.0 -> true | _ -> false in
  if expired then Error (Timeout "socket not ready before the deadline")
  else
    let r, w = if for_read then ([ fd ], []) else ([], [ fd ]) in
    match Unix.select r w [] timeout with
    | [], [], [] -> Error (Timeout "socket not ready before the deadline")
    | _ -> Ok ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_fd ~for_read fd deadline

(* ---- connect ---- *)

let socket_domain = function Protocol.Unix_domain _ -> Unix.PF_UNIX | Protocol.Tcp _ -> Unix.PF_INET

let connect ?deadline addr =
  ignore_sigpipe ();
  let sockaddr =
    try Ok (Protocol.sockaddr_of addr)
    with Failure msg -> Error (Refused msg)
  in
  match sockaddr with
  | Error _ as e -> e
  | Ok sockaddr -> (
      let fd = Unix.socket (socket_domain addr) Unix.SOCK_STREAM 0 in
      let fail e =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error e
      in
      Unix.set_nonblock fd;
      let rec attempt () =
        match Unix.connect fd sockaddr with
        | () -> Ok fd
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> attempt ()
        | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
          -> (
            (* non-blocking connect: writability signals the verdict *)
            match wait_fd ~for_read:false fd deadline with
            | Error e -> fail e
            | Ok () -> (
                match Unix.getsockopt_error fd with
                | None -> Ok fd
                | Some (Unix.ECONNREFUSED | Unix.ENOENT) ->
                    fail (Refused (Protocol.addr_to_string addr))
                | Some err -> fail (closing_error err "connect")))
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
            fail (Refused (Protocol.addr_to_string addr))
        | exception Unix.Unix_error (err, _, _) -> fail (closing_error err "connect")
      in
      attempt ())

(* ---- writes ---- *)

(* Works on blocking and non-blocking fds alike: [EAGAIN] waits for
   writability (bounded by the deadline), [EINTR] retries, [EPIPE]
   becomes [Closed]. *)
let write_all ?deadline fd s =
  let len = String.length s in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
          match wait_fd ~for_read:false fd deadline with
          | Ok () -> go off
          | Error _ as e -> e)
      | exception Unix.Unix_error (err, _, _) -> Error (closing_error err "write")
  in
  go 0

let send_line ?deadline fd line = write_all ?deadline fd (line ^ "\n")

(* ---- line reads ---- *)

(* [pending] buffers bytes already read past the previous newline, so
   pipelined replies survive across calls. *)
let recv_line ?deadline fd pending =
  let take_line () =
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
        Buffer.clear pending;
        Buffer.add_substring pending s (i + 1) (String.length s - i - 1);
        Some (String.sub s 0 i)
  in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match take_line () with
    | Some line -> Ok line
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
            if Buffer.length pending > 0 then
              Error
                (Closed
                   (Printf.sprintf "torn frame: peer closed after %d byte(s) of an unterminated reply"
                      (Buffer.length pending)))
            else Error (Closed "peer closed the connection")
        | n ->
            Buffer.add_subbytes pending chunk 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
            match wait_fd ~for_read:true fd deadline with
            | Ok () -> go ()
            | Error _ as e -> e)
        | exception Unix.Unix_error (err, _, _) -> Error (closing_error err "read"))
  in
  go ()

(* ---- accept ---- *)

let rec accept fd =
  match Unix.accept fd with
  | conn -> Ok conn
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept fd
  | exception Unix.Unix_error (err, _, _) -> Error (closing_error err "accept")

(* ---- the serve loop shared by the daemon and the router ---- *)

(* The self-pipe's write end exists only while [serve] runs; [serve]
   publishes it before re-checking the flag, so a stop requested at any
   moment either sees the pipe or is seen by [serve]. *)
type stop = { flag : bool Atomic.t; wake : Unix.file_descr option Atomic.t }

let stop_handle () = { flag = Atomic.make false; wake = Atomic.make None }
let stopping s = Atomic.get s.flag

let poke wr = try ignore (Unix.write_substring wr "x" 0 1) with Unix.Unix_error _ -> ()

let request_stop s = if not (Atomic.exchange s.flag true) then Option.iter poke (Atomic.get s.wake)

type session = { handle : string -> string * [ `Continue | `Shutdown ]; close : unit -> unit }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Wait until [fd] has data or the stop pipe fires; the stop byte is never
   consumed, so one write wakes every waiter, now and later. *)
let rec wait_readable fd stop_rd =
  match Unix.select [ fd; stop_rd ] [] [] (-1.0) with
  | readable, _, _ -> List.mem fd readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd stop_rd

let serve_connection s stop_rd ~max_frame ~send ~on_frame_error session fd =
  let chunk = Bytes.create 4096 in
  let frames = Frames.create ~max_frame in
  let alive = ref true in
  let refuse e =
    on_frame_error e;
    send fd (Protocol.error_reply ~id:None e)
  in
  let on_event = function
    | Frames.Oversized ->
        if not (refuse (Protocol.Oversized_frame { limit = max_frame })) then alive := false
    | Frames.Line line ->
        (if String.trim line <> "" then begin
           let reply, k = session.handle line in
           if not (send fd reply) then alive := false;
           if k = `Shutdown then begin
             request_stop s;
             alive := false
           end
         end);
        (* a drain lets the request that is already being served finish,
           then closes the connection instead of reading the next frame *)
        if stopping s then alive := false
  in
  while !alive do
    if not (wait_readable fd stop_rd) then alive := false
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 ->
          (* EOF: an unterminated tail is a truncated frame — answer it
             (best effort; the peer may be gone) and close *)
          if Frames.pending frames then
            ignore (refuse (Protocol.Parse_error "truncated line: no newline before end of stream"));
          alive := false
      | n -> Frames.feed frames chunk n on_event
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> alive := false
  done

let serve s addr ~max_frame ~connections ~log ~listening ~send ~on_frame_error ~session =
  ignore_sigpipe ();
  let stop_rd, stop_wr = Unix.pipe () in
  Atomic.set s.wake (Some stop_wr);
  if stopping s then poke stop_wr;
  let on_signal = Sys.Signal_handle (fun _ -> request_stop s) in
  let old_term = Sys.signal Sys.sigterm on_signal in
  let old_int = Sys.signal Sys.sigint on_signal in
  let listen_fd = Unix.socket (socket_domain addr) Unix.SOCK_STREAM 0 in
  let cleanup_path () =
    match addr with
    | Protocol.Unix_domain path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Protocol.Tcp _ -> ()
  in
  let finally () =
    close_quietly listen_fd;
    cleanup_path ();
    Atomic.set s.wake None;
    close_quietly stop_rd;
    close_quietly stop_wr;
    ignore (Sys.signal Sys.sigterm old_term);
    ignore (Sys.signal Sys.sigint old_int)
  in
  Fun.protect ~finally @@ fun () ->
  (match addr with Protocol.Tcp _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true | _ -> ());
  cleanup_path ();
  Unix.bind listen_fd (Protocol.sockaddr_of addr);
  Unix.listen listen_fd 64;
  (let event, attrs = listening in
   Obs.Log.info log ~attrs event);
  (* live connections: a count, not a list of threads, so a long-lived
     listener holds nothing per finished connection *)
  let live_mutex = Mutex.create () and idle = Condition.create () and live = ref 0 in
  let track delta =
    Mutex.protect live_mutex @@ fun () ->
    live := !live + delta;
    Obs.Metrics.Gauge.set connections (float_of_int !live);
    if !live = 0 then Condition.broadcast idle
  in
  let connection fd =
    Fun.protect ~finally:(fun () ->
        close_quietly fd;
        track (-1))
    @@ fun () ->
    let conn = session () in
    Fun.protect ~finally:conn.close (fun () ->
        serve_connection s stop_rd ~max_frame ~send ~on_frame_error conn fd)
  in
  while (not (stopping s)) && wait_readable listen_fd stop_rd do
    match accept listen_fd with
    | Ok (fd, _) ->
        track 1;
        ignore (Thread.create connection fd)
    | Error _ -> ()
  done;
  Mutex.protect live_mutex @@ fun () ->
  Obs.Log.info log ~attrs:[ ("connections", string_of_int !live) ] "draining";
  while !live > 0 do
    Condition.wait idle live_mutex
  done
