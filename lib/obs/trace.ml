type event = {
  ev_name : string;
  ev_ph : char;
  ev_ts_ns : int;
  ev_tid : int;
  ev_args : (string * string) list;
}

let dummy_event = { ev_name = ""; ev_ph = 'i'; ev_ts_ns = 0; ev_tid = 0; ev_args = [] }

(* One buffer per (domain, systhread). The owner appends without locking:
   it writes the slot, then publishes with an atomic store of the length
   (release); readers load the length first (acquire), so every slot below
   it is safely initialised. Growing the array and exporting both take the
   per-buffer mutex so the array swap cannot tear a concurrent copy. *)
type buffer = {
  tid : int; (* serial used as the Chrome tid *)
  mutable events : event array;
  len : int Atomic.t;
  grow : Mutex.t;
  mutable open_attrs : (string * string) list ref list;
      (* attribute cells of the currently open spans, innermost first;
         owner-thread only *)
}

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on

let epoch_ns = Clock.now_ns ()

let buffers : buffer list ref = ref []
let buffer_of : (int * int, buffer) Hashtbl.t = Hashtbl.create 16
let buffers_mutex = Mutex.create ()
let next_tid = Atomic.make 1

(* Thread.id distinguishes the service's per-connection systhreads, which
   all share domain 0. On a fresh worker domain the threads runtime may not
   be initialised yet; fall back to 0 (the domain's only thread). *)
let thread_id () = try Thread.id (Thread.self ()) with _ -> 0

type cached = No_buffer | Cached of int * buffer

let dls_key : cached ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref No_buffer)

let make_buffer key =
  Mutex.lock buffers_mutex;
  let buf =
    match Hashtbl.find_opt buffer_of key with
    | Some b -> b
    | None ->
        let b =
          {
            tid = Atomic.fetch_and_add next_tid 1;
            events = Array.make 256 dummy_event;
            len = Atomic.make 0;
            grow = Mutex.create ();
            open_attrs = [];
          }
        in
        Hashtbl.add buffer_of key b;
        buffers := b :: !buffers;
        b
  in
  Mutex.unlock buffers_mutex;
  buf

let my_buffer () =
  let cache = Domain.DLS.get dls_key in
  let thr = thread_id () in
  match !cache with
  | Cached (t, b) when t = thr -> b
  | _ ->
      let b = make_buffer ((Domain.self () :> int), thr) in
      cache := Cached (thr, b);
      b

let record buf ev =
  let n = Atomic.get buf.len in
  let cap = Array.length buf.events in
  if n = cap then begin
    Mutex.lock buf.grow;
    let bigger = Array.make (2 * cap) dummy_event in
    Array.blit buf.events 0 bigger 0 cap;
    buf.events <- bigger;
    Mutex.unlock buf.grow
  end;
  buf.events.(n) <- ev;
  Atomic.set buf.len (n + 1)

let now_rel () = Clock.now_ns () - epoch_ns

(* Slow path kept out of [span] so the disabled branch stays a tail call
   to [f] after one atomic load — no closure, no allocation. *)
let span_on name f =
  let buf = my_buffer () in
  let ts0 = now_rel () in
  record buf
    { ev_name = name; ev_ph = 'B'; ev_ts_ns = ts0; ev_tid = buf.tid; ev_args = [] };
  let attrs = ref [] in
  buf.open_attrs <- attrs :: buf.open_attrs;
  Fun.protect
    ~finally:(fun () ->
      (match buf.open_attrs with [] -> () | _ :: tl -> buf.open_attrs <- tl);
      let ts1 = now_rel () in
      record buf
        {
          ev_name = name;
          ev_ph = 'E';
          ev_ts_ns = ts1;
          ev_tid = buf.tid;
          ev_args = List.rev !attrs;
        };
      if Recorder.enabled () then Recorder.note_span name ~dur_ns:(ts1 - ts0))
    f

(* When the flight recorder is on but tracing is off, spans still leave a
   completion note in the recorder ring (name + duration); when both are
   off this is exactly [f ()] after two atomic loads. *)
let span_noted name f =
  let t0 = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () -> Recorder.note_span name ~dur_ns:(Clock.now_ns () - t0))
    f

let span name f =
  if Atomic.get on then span_on name f
  else if Recorder.enabled () then span_noted name f
  else f ()

let add_attr k v =
  if Atomic.get on then
    let buf = my_buffer () in
    match buf.open_attrs with [] -> () | attrs :: _ -> attrs := (k, v) :: !attrs

let instant ?(args = []) name =
  if Atomic.get on then
    let buf = my_buffer () in
    record buf
      { ev_name = name; ev_ph = 'i'; ev_ts_ns = now_rel (); ev_tid = buf.tid; ev_args = args }

let snapshot_buffers () =
  Mutex.lock buffers_mutex;
  let bufs = List.rev !buffers in
  Mutex.unlock buffers_mutex;
  bufs

let events () =
  snapshot_buffers ()
  |> List.concat_map (fun b ->
         Mutex.lock b.grow;
         let n = Atomic.get b.len in
         let out = List.init n (fun i -> b.events.(i)) in
         Mutex.unlock b.grow;
         out)

let clear () =
  List.iter (fun b -> Atomic.set b.len 0) (snapshot_buffers ())

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)

let to_chrome_json ?(pid = 1) ?process_name () =
  let evs = events () in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_char buf ',' in
  Buffer.add_string buf "{\"traceEvents\":[";
  (match process_name with
  | None -> ()
  | Some name ->
      sep ();
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid (Log.json_escape name)));
  List.iter
    (fun ev ->
      sep ();
      (* ts is in microseconds; keep sub-µs precision as decimals. The
         monotonic clock is system-wide, so exporting absolute timestamps
         ([epoch_ns] + relative) lets traces from concurrently-running
         processes merge onto one timeline. *)
      let abs_ns = epoch_ns + ev.ev_ts_ns in
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"%c\",\"ts\":%d.%03d,\"pid\":%d,\"tid\":%d"
           (Log.json_escape ev.ev_name) ev.ev_ph (abs_ns / 1000)
           (abs_ns mod 1000) pid ev.ev_tid);
      (match ev.ev_args with
      | [] -> ()
      | args ->
          Buffer.add_string buf ",\"args\":{";
          List.iteri
            (fun j (k, v) ->
              if j > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf
                (Printf.sprintf "\"%s\":\"%s\"" (Log.json_escape k) (Log.json_escape v)))
            args;
          Buffer.add_char buf '}');
      (match ev.ev_ph with
      | 'i' -> Buffer.add_string buf ",\"s\":\"t\"}"
      | _ -> Buffer.add_char buf '}'))
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let write_chrome ?pid ?process_name path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_chrome_json ?pid ?process_name ()))

(* ------------------------------------------------------------------ *)
(* Cross-process merge                                                 *)

let chrome_prefix = "{\"traceEvents\":["
let chrome_suffix_key = "],\"displayTimeUnit\""

(* Extract the event-array body of a document produced by
   [to_chrome_json]; [None] for anything that does not match. *)
let chrome_body doc =
  let doc = String.trim doc in
  let pl = String.length chrome_prefix in
  let kl = String.length chrome_suffix_key in
  if String.length doc >= pl + kl && String.sub doc 0 pl = chrome_prefix then begin
    let rec find i =
      if i < pl then None
      else if String.sub doc i kl = chrome_suffix_key then Some i
      else find (i - 1)
    in
    match find (String.length doc - kl) with
    | Some i -> Some (String.sub doc pl (i - pl))
    | None -> None
  end
  else None

let merge_chrome docs =
  let parts =
    List.filter_map chrome_body docs
    |> List.filter (fun s -> String.trim s <> "")
  in
  chrome_prefix ^ String.concat "," parts ^ "],\"displayTimeUnit\":\"ms\"}"

(* ------------------------------------------------------------------ *)
(* Trace ids                                                           *)

let id_counter = Atomic.make 0

let splitmix64 seed =
  let z = Int64.add seed 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let fresh_id () =
  let seed =
    Int64.logxor
      (Int64.of_int (Clock.now_ns ()))
      (Int64.mul (Int64.of_int (Unix.getpid ())) 0x100000001B3L)
  in
  let z =
    splitmix64 (Int64.add seed (Int64.of_int (Atomic.fetch_and_add id_counter 1)))
  in
  Printf.sprintf "%016Lx" z
