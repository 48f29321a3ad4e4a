(* The repository benchmark.  Usage (from the root of a source checkout,
   through run.sh, which builds this and the CLI first):

     perfbench/run.sh --workload repro|statespace|query_hot|query_zipf
                      --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics of one workload for S
   seconds; --trace 1 measures the whole per-layer table (every workload's
   layers, each on its own inputs).  Every output is checked; the last
   stdout line is the JSON result, and any failed check makes the exit
   code non-zero.  README.md explains the workloads and the metrics. *)

let nproc = Domain.recommended_domain_count ()

(* Every solver pool the benchmark runs, in this process and in the
   servers it spawns, has one domain.  On a 2-vCPU shared host a second
   domain doubled the CPU of the statespace solves and spread it by 17%
   from run to run, through the stop-the-world synchronisation of every
   minor collection; one domain gives the same outputs. *)
let domains = 1
(* sockets live here, one directory per benchmark process *)
let run_dir = Printf.sprintf ".perfbench-run/%d" (Unix.getpid ())
let cli = "_build/default/bin/streaming_cli.exe"
let now = Unix.gettimeofday
(* user + system CPU seconds of this process, every domain included *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let us_since t0 = float_of_int (Obs.Clock.now_ns () - t0) /. 1e3

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* wall and CPU seconds of this process *)
let timed_cpu f =
  let c0 = cpu_self () in
  let r, dt = timed f in
  (r, dt, cpu_self () -. c0)

(* per-call timing in microseconds, for the µs-scale codec layers *)
let timed_us f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, us_since t0)

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* ---------------------------------------------------------------- *)
(* results and correctness accounting                                *)

let metrics : (string * float) list ref = ref []
let set name v = metrics := (name, v) :: List.remove_assoc name !metrics
let attempted = ref 0
let failed = ref 0

let fail_op fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      prerr_endline ("perfbench: FAILED " ^ msg))
    fmt

let say fmt = Printf.printf (fmt ^^ "\n%!")

let rel_err a b = Float.abs (a -. b) /. Float.max 1e-300 (Float.abs b)

let report_reconciliation what (r : Kit.reconciliation) =
  say "reconcile %-46s parts %12.4f  total %12.4f  residual %+12.4f (%+.1f%%, tolerance %.0f%%) %s" what
    r.Kit.parts r.total r.residual (100.0 *. r.residual_frac) (100.0 *. r.tolerance)
    (if r.within then "ok" else "OUTSIDE TOLERANCE")

let report_percentile what ~n p =
  say "%s: %d samples, %d beyond p%g%s" what n (Kit.beyond ~n p) (100.0 *. p)
    (if Kit.reportable ~n p then "" else " (fewer than 10: the percentile is the tail of too few samples)")

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* ---------------------------------------------------------------- *)
(* /proc                                                             *)

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let vmhwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some text ->
      String.split_on_char '\n' text
      |> List.find_map (fun l ->
             if String.starts_with ~prefix:"VmHWM:" l then
               String.sub l 6 (String.length l - 6)
               |> String.split_on_char ' '
               |> List.find_map (fun w -> int_of_string_opt (String.trim w))
             else None)
      |> Option.value ~default:0

(* the fields of /proc/<pid>/stat after "pid (comm) "; comm may hold spaces *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> []
  | Some stat -> (
      match String.rindex_opt stat ')' with
      | None -> []
      | Some i -> String.split_on_char ' ' (String.sub stat (i + 2) (String.length stat - i - 2)))

(* CPU seconds of the live threads of a process, to the nanosecond: the
   first field of each thread's schedstat (a kernel with paravirtual steal
   accounting leaves stolen time out of it).  A thread that has exited
   takes its time with it, so read this while the threads that did the
   work are still alive. *)
let cpu_of_pid pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0.0
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
          | Some line -> (
              match String.split_on_char ' ' line with
              | ns :: _ -> acc +. (Option.value ~default:0.0 (float_of_string_opt ns) /. 1e9)
              | [] -> acc)
          | None -> acc)
        0.0 tids

let children_of ppid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some pid -> (
             match stat_fields pid with
             | _state :: p :: _ when int_of_string_opt p = Some ppid -> Some pid
             | _ -> None))

(* ---------------------------------------------------------------- *)
(* child processes: a single daemon or a router + 2 workers fleet    *)

type server = { pid : int; addr : Service.Protocol.addr; mutable workers : int list }

let servers : server list ref = ref []
let sock_counter = ref 0

let wait_exit pid ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> if now () > deadline then false else (Unix.sleepf 0.01; go ())
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let kill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()

let stop_server s =
  servers := List.filter (fun x -> x.pid <> s.pid) !servers;
  (* a worker the router restarted is not in [s.workers] *)
  let workers = List.sort_uniq compare (s.workers @ children_of s.pid) in
  (match Service.Client.connect ~deadline:(now () +. 2.0) s.addr with
  | Ok c ->
      ignore (Service.Client.shutdown ~deadline:(now () +. 2.0) c);
      Service.Client.close c
  | Error _ -> ());
  if not (wait_exit s.pid ~timeout:15.0) then begin
    kill s.pid;
    ignore (wait_exit s.pid ~timeout:5.0)
  end;
  (* the router reaps its workers on drain; anything left is a straggler *)
  List.iter (fun w -> if Sys.file_exists (Printf.sprintf "/proc/%d" w) then kill w) workers;
  match s.addr with
  | Service.Protocol.Unix_domain p -> ( try Sys.remove p with Sys_error _ -> ())
  | _ -> ()

let start_server kind =
  incr sock_counter;
  let name = match kind with `Fleet -> "f" | `Daemon -> "d" in
  let path = Printf.sprintf "%s/%s%d.sock" run_dir name !sock_counter in
  let argv =
    match kind with
    | `Fleet -> [| cli; "cluster"; "-w"; "2"; "--socket"; "unix:" ^ path; "--socket-dir"; run_dir; "--quiet" |]
    | `Daemon -> [| cli; "serve"; "--socket"; "unix:" ^ path; "--quiet" |]
  in
  let env =
    Array.append
      [| Printf.sprintf "PAR_DOMAINS=%d" domains |]
      (Array.of_list (List.filter (fun v -> not (String.starts_with ~prefix:"PAR_DOMAINS=" v)) (Array.to_list (Unix.environment ()))))
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process_env cli argv env devnull devnull Unix.stderr in
  Unix.close devnull;
  let s = { pid; addr = Service.Protocol.Unix_domain path; workers = [] } in
  servers := s :: !servers;
  let deadline = now () +. 30.0 in
  (* the router binds only once every worker answers pings, so a ping
     reply means the whole fleet is up *)
  let rec ready () =
    let retry () =
      if now () > deadline then None
      else if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then None
      else (Unix.sleepf 0.005; ready ())
    in
    match Service.Client.connect ~deadline:(now () +. 1.0) s.addr with
    | Error _ -> retry ()
    | Ok c -> (
        match Service.Client.ping ~deadline:(now () +. 5.0) c with
        | Ok j when Service.Client.reply_ok j -> Some c
        | _ ->
            Service.Client.close c;
            retry ())
  in
  match ready () with
  | Some c ->
      s.workers <- children_of pid;
      (s, c)
  | None ->
      stop_server s;
      failwith (Printf.sprintf "%s did not come up on %s" cli path)

let cleanup () =
  List.iter (fun s -> try stop_server s with _ -> ()) !servers;
  (try Array.iter (fun f -> Sys.remove (Filename.concat run_dir f)) (Sys.readdir run_dir) with Sys_error _ -> ());
  (try Sys.rmdir run_dir with Sys_error _ -> ());
  try Sys.rmdir (Filename.dirname run_dir) with Sys_error _ -> ()

(* ---------------------------------------------------------------- *)
(* repro                                                             *)

(* md5 of the 157-line quick reproduction; byte-identical at every pool
   size, so any change to it is a change of the paper's numbers *)
let repro_golden = "57807a3fafaa014bd8e9b38a05ef544a"

let check_repro what out =
  incr attempted;
  let d = Digest.to_hex (Digest.string out) in
  if d <> repro_golden then fail_op "%s output digest %s, expected %s" what d repro_golden

let repro_pass () =
  Young.Pattern.clear_caches ();
  Gc.full_major ();
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  let (), dt, cpu = timed_cpu (fun () -> Experiments.Registry.run_all ~quick:true ppf) in
  Format.pp_print_flush ppf ();
  check_repro "repro" (Buffer.contents buf);
  (dt, cpu)

(* user + system CPU seconds of this process's reaped children *)
let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* set-up of the in-process workloads: the CPU seconds of starting the
   program, which loads it and initialises every module, and running its
   cheapest command (forty times; the median is reported) *)
let startup_setup () =
  let once () =
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let c0 = cpu_children () in
    let pid = Unix.create_process cli [| cli; "list" |] devnull devnull Unix.stderr in
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> fail_op "%s list failed" cli);
    Unix.close devnull;
    cpu_children () -. c0
  in
  Kit.median (Array.init 40 (fun _ -> once ()))

(* peak RSS of this process since the last [reset_peak_rss], in MB *)
let peak_rss_self () = float_of_int (vmhwm_kb (Unix.getpid ())) /. 1024.0

let reset_peak_rss () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

type pass = { wall : float; cpu : float; rss : float }

(* one unit of in-process work: [f] returns its (wall, CPU) seconds, and
   the peak RSS it reached is read after it *)
let pass f =
  Gc.compact ();
  reset_peak_rss ();
  let wall, cpu = f () in
  { wall; cpu; rss = peak_rss_self () }

let report_batch ~setup passes =
  let field f = Array.of_list (List.rev_map f passes) in
  let show f fmt = String.concat ", " (Array.to_list (Array.map (Printf.sprintf fmt) (field f))) in
  say "passes: %d; wall %s s; CPU %s s; peak RSS %s MB" (List.length passes)
    (show (fun p -> p.wall) "%.3f") (show (fun p -> p.cpu) "%.3f") (show (fun p -> p.rss) "%.1f");
  set "setup_s" setup;
  (* the mean, not the median: a fast host fits a second pass into the
     run, and the lower of two would bias those runs further down *)
  set "cpu_ms_per_op" (1e3 *. Kit.mean (field (fun p -> p.cpu)));
  set "peak_rss_mb" (Array.fold_left Float.min infinity (field (fun p -> p.rss)))

let run_repro ~seconds =
  Parallel.Pool.set_domains domains;
  let setup = startup_setup () in
  let t_end = now () +. seconds in
  let rec loop acc = if acc <> [] && now () >= t_end then acc else loop (pass repro_pass :: acc) in
  report_batch ~setup (loop [])

(* ---------------------------------------------------------------- *)
(* statespace                                                        *)

type pattern = {
  p_name : string;
  u : int;
  v : int;
  phases : int;
  rate : sender:int -> receiver:int -> float;
  expect : float;  (** reference throughput, 1e-9 relative *)
}

let cap = 2_000_000

let het_rates =
  (* fixed pattern seed: the stored reference below belongs to these rates *)
  let g = Prng.create ~seed:7_08 in
  Array.init 7 (fun _ -> Array.init 8 (fun _ -> Prng.uniform g 0.5 2.0))

let patterns =
  [
    (* Theorem 4: u*v*lambda/(u+v-1) = 90/18 *)
    { p_name = "hom9x10"; u = 9; v = 10; phases = 1; rate = (fun ~sender:_ ~receiver:_ -> 1.0); expect = 5.0 };
    {
      p_name = "het7x8";
      u = 7;
      v = 8;
      phases = 2;
      rate = (fun ~sender ~receiver -> het_rates.(sender).(receiver));
      expect = 4.7355191073807772;
    };
  ]

let check_pattern p what value =
  incr attempted;
  if not (rel_err value p.expect <= 1e-9) then
    fail_op "%s %s throughput %.17g, expected %.17g" p.p_name what value p.expect

let supervised pool p =
  Young.Pattern.clear_caches ();
  let r, dt, cpu =
    timed_cpu (fun () ->
        Young.Pattern.supervised_inner_throughput ~cap ~pool ~phases:p.phases ~u:p.u ~v:p.v ~rate:p.rate ())
  in
  (* the shape cache holds the whole state space: drop it before the next solve *)
  Young.Pattern.clear_caches ();
  Gc.full_major ();
  check_pattern p "supervised" r.Young.Pattern.throughput;
  (r, dt, cpu)

let run_statespace ~seconds =
  Parallel.Pool.set_domains domains;
  let setup = startup_setup () in
  let pool = Parallel.Pool.get () in
  let t_end = now () +. seconds in
  let both () =
    let solves = List.map (fun p -> let _, dt, cpu = supervised pool p in (dt, cpu)) patterns in
    let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 solves in
    (sum fst, sum snd)
  in
  let rec loop passes = if passes <> [] && now () >= t_end then passes else loop (pass both :: passes) in
  report_batch ~setup (loop [])

(* ---------------------------------------------------------------- *)
(* query inputs                                                      *)

type keyspace = {
  lines : string array;  (** the request line of each key *)
  queries : Service.Engine.query array;
  next : int -> Prng.t -> int;  (** connection -> its generator -> next key *)
  warm : int list;  (** keys requested during set-up *)
}

let instance g ~stages ~procs =
  Workload.Gen.random_mapping g
    { Workload.Gen.n_stages = stages; n_procs = procs; comp_range = (5., 15.); comm_range = (5., 15.); max_rows = 720 }
  |> Streaming.Instance_io.to_string

(* The instance catalogues are drawn from this fixed seed; the workload
   seed draws the request streams over them.  Drawn from the workload
   seed, the catalogue decided the fleet's memory: whether one of the 16
   hot instances had a large pattern moved peak RSS from 34 to 52 MB. *)
let catalogue_seed = 2010

let keyspace workload =
  let g = Prng.stream ~seed:catalogue_seed 0 in
  (* alternate the two Table 1 sizes *)
  let sized i = if i mod 2 = 0 then instance g ~stages:3 ~procs:7 else instance g ~stages:5 ~procs:14 in
  let pairs, next, warm =
    match workload with
    | "query_hot" ->
        let pairs = Array.init 16 (fun i -> (sized i, Service.Engine.Exponential)) in
        (pairs, (fun _ g -> Prng.int g 16), List.init 16 Fun.id)
    | _ ->
        let n = 4096 in
        let laws = [| Service.Engine.Deterministic; Exponential; Erlang 2 |] in
        let per_size = (n + 5) / 6 in
        let texts = Array.init 2 (fun size -> Array.init per_size (fun i -> sized ((2 * i) + size))) in
        let shuffled () =
          let a = Array.init per_size Fun.id in
          for i = per_size - 1 downto 1 do
            let j = Prng.int g (i + 1) in
            let t = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- t
          done;
          a
        in
        (* Key k is the Zipf rank k.  Every six consecutive ranks hold both
           sizes under all three laws; which instances they are is drawn,
           one shuffled order per (law, size). *)
        let order = Array.init 6 (fun _ -> shuffled ()) in
        let pairs =
          Array.init n (fun k ->
              let law = k mod 3 and size = k / 3 mod 2 in
              (texts.(size).(order.((2 * law) + size).(k / 6)), laws.(law)))
        in
        let z = Kit.zipf ~n ~s:1.0 in
        (pairs, (fun _ g -> Kit.zipf_draw z g), List.init 64 Fun.id)
  in
  let queries =
    Array.map
      (fun (text, law) ->
        {
          Service.Engine.instance = text;
          model = Streaming.Model.Overlap;
          law;
          cap = Service.Engine.default_cap;
          wall = None;
          sweeps = None;
          states = None;
          simulate = false;
        })
      pairs
  in
  let lines =
    Array.map
      (fun (text, law) ->
        Service.Json.render
          (Service.Client.solve_request ~model:Streaming.Model.Overlap ~law ~instance:text ()))
      pairs
  in
  { lines; queries; next; warm }

(* connection [c]'s request stream *)
let stream ks ~seed c = let g = Prng.stream ~seed (c + 1) in fun () -> ks.next c g

(* ---------------------------------------------------------------- *)
(* query replies and their checks                                    *)

let result_marker = "\"result\":"

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

(* the [result] object of an ok reply, spliced verbatim by the daemon *)
let reply_result line =
  if not (String.starts_with ~prefix:"{\"v\":1," line && find_sub line "\"ok\":true" <> None) then None
  else
    match find_sub line result_marker with
    | None -> None
    | Some i ->
        let start = i + String.length result_marker in
        Some (String.sub line start (String.length line - start - 1))

let is_cached line = find_sub line "\"cached\":true" <> None

(* every distinct key answers with one byte string, whoever answers it *)
type seen = { mutex : Mutex.t; results : (int, string) Hashtbl.t }

let new_seen () = { mutex = Mutex.create (); results = Hashtbl.create 4096 }

let check_reply seen what k line =
  incr attempted;
  match reply_result line with
  | None ->
      let short = if String.length line > 160 then String.sub line 0 160 else line in
      fail_op "%s key %d: not ok: %s" what k short;
      None
  | Some r ->
      Mutex.lock seen.mutex;
      (match Hashtbl.find_opt seen.results k with
      | None -> Hashtbl.add seen.results k r
      | Some r0 -> if r0 <> r then fail_op "%s key %d: reply differs from an earlier reply" what k);
      Mutex.unlock seen.mutex;
      Some r

let reference ks k =
  let q = ks.queries.(k) in
  match Service.Engine.prepare q with
  | Error m -> Error m
  | Ok p -> (
      match Service.Engine.solve p q with
      | Ok o -> Ok (Service.Json.render (Service.Engine.outcome_json o))
      | Error e -> Error (Supervise.Error.to_string e))

(* every key the fleet answered must equal the in-process solve *)
let check_references ks seen =
  let keys = Hashtbl.fold (fun k r acc -> (k, r) :: acc) seen.results [] |> Array.of_list in
  let refs = Parallel.Pool.map (Parallel.Pool.get ()) (fun (k, _) -> reference ks k) keys in
  Array.iteri
    (fun i (k, r) ->
      match refs.(i) with
      | Ok r' when r' = r -> ()
      | Ok r' -> fail_op "key %d: fleet answered %s, in-process solve gives %s" k r r'
      | Error m -> fail_op "key %d: in-process solve failed: %s" k m)
    keys

let rpc c line =
  match Service.Client.rpc_raw ~deadline:(now () +. 60.0) c line with
  | Ok reply -> reply
  | Error e -> Printf.sprintf "{\"transport_error\":%S}" (Service.Client.error_message e)

(* ---------------------------------------------------------------- *)
(* query end to end                                                   *)

let fleet_cpu s = List.fold_left (fun acc p -> acc +. cpu_of_pid p) 0.0 (s.pid :: s.workers)

(* spawn a fleet and request the warm-up keys; returns the fleet and the
   CPU seconds its processes spent getting there, read before the
   warm-up connection (and the threads serving it) closes *)
let fleet_setup ks seen =
  let s, c = start_server `Fleet in
  List.iter (fun k -> ignore (check_reply seen "warm-up" k (rpc c ks.lines.(k)))) ks.warm;
  let cpu = fleet_cpu s in
  Service.Client.close c;
  (s, cpu)

let fleet_rss s = float_of_int (List.fold_left (fun acc p -> acc + vmhwm_kb p) 0 (s.pid :: s.workers)) /. 1024.0

(* closed loop: each connection sends its next request once the previous
   reply is in, until [t_end] or [count] requests.  Returns the latency
   in ms of every ok reply.  Meanwhile [tick n] is called with the number
   of ok replies so far every [window] seconds and at [t_end], while
   both connections are still open. *)
let closed_loop ?(window = infinity) ?(tick = ignore) ks seen s ~seed ~t_end ~count =
  let results = Array.make 2 [] in
  let ok = Atomic.make 0 and stop = Atomic.make false and finished = Atomic.make 0 in
  let client c =
    (match Service.Client.connect s.addr with
    | Error e -> fail_op "connect: %s" (Service.Client.error_message e)
    | Ok conn ->
        let next = stream ks ~seed c in
        let replies = ref [] and sent = ref 0 in
        while (not (Atomic.get stop)) && !sent < count do
          let k = next () in
          let t0 = Obs.Clock.now_ns () in
          let reply = rpc conn ks.lines.(k) in
          let dt = us_since t0 /. 1e3 in
          incr sent;
          if check_reply seen "query" k reply <> None then begin
            replies := dt :: !replies;
            Atomic.incr ok
          end
        done;
        Service.Client.close conn;
        results.(c) <- !replies);
    Atomic.incr finished
  in
  let threads = List.init 2 (fun c -> Thread.create client c) in
  let rec wait next =
    if Atomic.get finished < 2 then begin
      let t = now () in
      if t >= Float.min next t_end then begin
        tick (Atomic.get ok);
        if t < t_end then wait (next +. window)
      end
      else begin
        Unix.sleepf (Float.min 0.01 (Float.min next t_end -. t));
        wait next
      end
    end
  in
  wait (now () +. window);
  Atomic.set stop true;
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

(* fleets set up per run; the median set-up is [setup_s] *)
let fleets = 5

(* requests per connection the measured fleet serves before its window *)
let warm_prefix = 200

(* fleet CPU per reply is taken per window of this many seconds, and the
   median over the windows is reported, so a burst of host noise spoils
   one window rather than the run *)
let cpu_window = 1.0

(* The query workloads report the CPU the fleet (router and workers)
   spends per ok reply.  On a shared host the wall-clock rate and
   latencies of three servers and a client on [nproc] cores measure the
   scheduler as much as the program, so they are printed but are not
   metrics. *)
let run_query workload ~seed ~seconds =
  let ks = keyspace workload in
  let seen = new_seen () in
  (* Each fleet's peak RSS is read right after its warm-up, whose keys
     are fixed, and the lowest reading is reported: the reading depends
     neither on the seed's stream nor on how far the window got.  The
     last fleet goes on to the measured window. *)
  let set_ups =
    List.init fleets (fun i ->
        let s, t = fleet_setup ks seen in
        let rss = fleet_rss s in
        if i < fleets - 1 then stop_server s;
        (s, t, rss))
  in
  let s, _, _ = List.nth set_ups (fleets - 1) in
  let rss = List.map (fun (_, _, r) -> r) set_ups in
  say "peak RSS of each fleet after warm-up: %s MB" (String.concat ", " (List.map (Printf.sprintf "%.1f") rss));
  say "set-up of each fleet: %s s" (String.concat ", " (List.map (fun (_, t, _) -> Printf.sprintf "%.3f" t) set_ups));
  ignore (closed_loop ks seen s ~seed ~t_end:(now () +. 60.0) ~count:warm_prefix);
  (* the connections' threads are alive at every tick *)
  let per_reply = ref [] and cpu = ref 0.0 in
  let last = ref (fleet_cpu s, 0) in
  let tick n =
    let c = fleet_cpu s and c0, n0 = !last in
    if n > n0 then per_reply := (1e3 *. (c -. c0) /. float_of_int (n - n0)) :: !per_reply;
    cpu := !cpu +. (c -. c0);
    last := (c, n)
  in
  let t0 = now () in
  let replies = closed_loop ~window:cpu_window ~tick ks seen s ~seed ~t_end:(t0 +. seconds) ~count:max_int in
  let wall = now () -. t0 in
  (* the CPU of a worker that died went with it *)
  if List.sort compare (children_of s.pid) <> List.sort compare s.workers then
    fail_op "a worker was restarted during the window";
  stop_server s;
  check_references ks seen;
  let n = List.length replies in
  if n = 0 || !per_reply = [] then fail_op "no successful replies in the window"
  else begin
    let lat = sorted replies in
    say "window: %d ok replies in %.2f s (%.1f/s), latency p50 %.3f ms p99 %.3f ms; fleet CPU %.2f s" n wall
      (float_of_int n /. wall) (Kit.nearest_rank lat 0.5) (Kit.nearest_rank lat 0.99) !cpu;
    say "fleet CPU per reply, per %gs window: %s ms" cpu_window
      (String.concat ", " (List.rev_map (Printf.sprintf "%.3f") !per_reply));
    say "distinct keys answered: %d" (Hashtbl.length seen.results);
    set "setup_s" (Kit.median (Array.of_list (List.map (fun (_, t, _) -> t) set_ups)));
    set "cpu_ms_per_op" (Kit.median (Array.of_list !per_reply));
    set "peak_rss_mb" (List.fold_left Float.min infinity rss)
  end

(* ---------------------------------------------------------------- *)
(* traced run: the per-layer table                                    *)

let layers_repro () =
  Parallel.Pool.set_domains domains;
  let pass, _ = repro_pass () in
  let cs = Young.Pattern.cache_stats () in
  set "young.pattern.hits" (float_of_int cs.Young.Pattern.hits);
  set "young.pattern.misses" (float_of_int cs.Young.Pattern.misses);
  (* each entry alone, on the same pool; together they print run_all's output *)
  let out = Buffer.create 65536 in
  let alone =
    List.map
      (fun e ->
        Young.Pattern.clear_caches ();
        let buf = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer buf in
        let (), dt = timed (fun () -> e.Experiments.Registry.run ~quick:true ppf) in
        Format.fprintf ppf "@\n";
        Format.pp_print_flush ppf ();
        Buffer.add_buffer out buf;
        set ("experiments." ^ e.Experiments.Registry.id ^ "_s") dt;
        dt)
      Experiments.Registry.all
  in
  check_repro "entries run alone" (Buffer.contents out);
  report_reconciliation "repro: sum of entries alone vs run_all" (Kit.reconcile ~tolerance:0.35 ~total:pass alone)

let layers_statespace () =
  Parallel.Pool.set_domains domains;
  let pool = Parallel.Pool.get () in
  List.iter
    (fun p ->
      let key s = s ^ "." ^ p.p_name in
      let _, whole, _ = supervised pool p in
      set (key "young.pattern.supervised_s") whole;
      (* the steps of Young.Pattern.supervised_inner_throughput, one call
         into each module at a time *)
      let base = Young.Pattern.build ~u:p.u ~v:p.v ~time:(fun ~sender:_ ~receiver:_ -> 1.0) in
      let teg, expansion =
        if p.phases = 1 then (base, None)
        else
          let e = Petrinet.Expand.erlang ~phases:(fun _ -> p.phases) base in
          (Petrinet.Expand.teg e, Some e)
      in
      let graph, explore =
        timed (fun () ->
            match if p.phases = 1 then Young.Pattern.young_graph ~cap ~u:p.u ~v:p.v () else None with
            | Some g -> g
            | None -> Petrinet.Marking.explore_graph ~cap ~pool teg)
      in
      let s, structure = timed (fun () -> Markov.Tpn_markov.structure_of_graph teg graph) in
      let n = p.u * p.v in
      let base_rates =
        Array.init n (fun k ->
            let sd, r = Young.Pattern.transition_of ~u:p.u ~v:p.v k in
            p.rate ~sender:sd ~receiver:r)
      in
      let rates, outputs =
        match expansion with
        | None -> ((fun id -> base_rates.(id)), List.init n Fun.id)
        | Some e ->
            ( (fun id -> Petrinet.Expand.phase_rates e ~original_rate:(fun k -> base_rates.(k)) id),
              List.init n (fun k -> Petrinet.Expand.last e k) )
      in
      let d = Young.Pattern.invariant_shift ~u:p.u ~v:p.v base_rates in
      let chain, orbit, solve =
        if d < n then begin
          let place_perm, trans_perm = Young.Pattern.rotation_perms ~u:p.u ~v:p.v ~phases:p.phases ~shift:d in
          let (_, classes), orbit =
            timed (fun () ->
                let state_perm = Markov.Tpn_markov.state_permutation s ~place_perm in
                Markov.Tpn_markov.orbit_partition s ~state_perm)
          in
          let (chain, _, _), lumped =
            timed (fun () -> Markov.Tpn_markov.analyse_with_lumped s ~rates ~place_perm ~trans_perm)
          in
          set (key "markov.tpn_markov.lump_classes") (float_of_int classes);
          set (key "markov.tpn_markov.orbit_s") orbit;
          (* analyse_with_lumped starts by recomputing the orbit partition *)
          (chain, orbit, lumped -. orbit)
        end
        else
          let (chain, _), solve = timed (fun () -> Markov.Tpn_markov.analyse_with_supervised s ~rates) in
          (chain, 0.0, solve)
      in
      check_pattern p "layered" (Markov.Tpn_markov.throughput_of chain outputs);
      set (key "petrinet.marking.states") (float_of_int (Markov.Tpn_markov.structure_states s));
      set (key "petrinet.marking.edges") (float_of_int (Markov.Tpn_markov.structure_edges s));
      set (key "petrinet.marking.explore_s") explore;
      set (key "markov.tpn_markov.structure_s") structure;
      set (key "markov.tpn_markov.solve_s") solve;
      Gc.full_major ();
      report_reconciliation
        (Printf.sprintf "%s: explore+structure+orbit+solve vs supervised" p.p_name)
        (Kit.reconcile ~tolerance:0.15 ~total:whole [ explore; structure; orbit; solve ]))
    patterns

(* the fleet's federated Prometheus scrape, as (name, labels, value) samples *)
let scrape c =
  let req = Service.Json.render (Service.Json.Obj [ ("v", Service.Json.Int 1); ("cmd", Service.Json.String "metrics"); ("fleet", Service.Json.Bool true) ]) in
  let text =
    match Result.to_option (Service.Json.parse (rpc c req)) with
    | Some j -> (
        match Option.bind (Service.Json.member "result" j) (Service.Json.member "text") with
        | Some (Service.Json.String t) -> t
        | _ -> "")
    | None -> ""
  in
  if text = "" then fail_op "fleet metrics scrape failed";
  List.filter_map Obs.Exposition.parse_line (String.split_on_char '\n' text)

(* sum of every sample of [name] whose labels satisfy [pred] *)
let sum_of samples ?(pred = fun _ -> true) name =
  List.fold_left (fun acc (n, ls, v) -> if n = name && pred ls then acc +. v else acc) 0.0 samples

let ratio a b = if b > 0.0 then a /. b else 0.0

let layers_query workload ~seed =
  let q s = s ^ "." ^ workload in
  let ks = keyspace workload in
  let seen = new_seen () in
  let next = stream ks ~seed 0 in
  let replay_n = 400 in
  let measured = Array.init replay_n (fun _ -> next ()) in
  let replay = Array.append (Array.of_list ks.warm) measured in
  let n_warm = List.length ks.warm in
  (* the same pool as the daemons' *)
  Parallel.Pool.set_domains domains;
  let d, dc = start_server `Daemon in
  let f, fc = start_server `Fleet in
  let ring = Cluster.Ring.create ~vnodes:64 2 in
  (* the respond path piece by piece, against a private LRU *)
  let pieces lru k =
    let line = ks.lines.(k) in
    let json, t_json = timed_us (fun () -> Result.get_ok (Service.Json.parse line)) in
    let req, t_req = timed_us (fun () -> Service.Protocol.parse_request json) in
    let query = match req with Ok (_, Service.Protocol.Solve q) -> q | _ -> failwith "not a solve" in
    let p, t_prep = timed_us (fun () -> Result.get_ok (Service.Engine.prepare query)) in
    let found, t_find = timed_us (fun () -> Service.Lru.find lru p.Service.Engine.key) in
    let rendered, cached, t_solve, t_render_result =
      match found with
      | Some r -> (r, true, 0.0, 0.0)
      | None ->
          let o, t_solve = timed_us (fun () -> Service.Engine.solve p query) in
          let o = match o with Ok o -> o | Error e -> failwith (Supervise.Error.to_string e) in
          let r, t_r = timed_us (fun () -> Service.Json.render (Service.Engine.outcome_json o)) in
          Service.Lru.add lru p.Service.Engine.key r;
          (r, false, t_solve, t_r)
    in
    let reply, t_reply = timed_us (fun () -> Service.Protocol.ok_reply ~id:None ~cached ~result:rendered ()) in
    ignore (check_reply seen "in-process pieces" k reply);
    [| t_json; t_req; t_prep; t_find; t_render_result +. t_reply; t_solve |]
  in
  (* what the router does before it forwards: parse, canonical key, ring walk *)
  let route k =
    match Result.map Service.Protocol.parse_request (Service.Json.parse ks.lines.(k)) with
    | Ok (Ok (_, Service.Protocol.Solve query)) ->
        Result.map (fun p -> Cluster.Ring.preference ring p.Service.Engine.key) (Service.Engine.prepare query)
        |> ignore
    | _ -> ()
  in
  let remote c what k =
    let reply, t = timed_us (fun () -> rpc c ks.lines.(k)) in
    ignore (check_reply seen what k reply);
    (t, is_cached reply)
  in
  (* Every request goes through all five paths back to back, in an order
     that rotates per request and per round, so host noise and warm CPU
     caches fall on every path alike.  Each round starts from a fresh
     in-process LRU, server and pattern memo. *)
  let round r =
    Young.Pattern.clear_caches ();
    let lru = Service.Lru.create ~capacity:256 in
    let srv = Service.Server.create { (Service.Server.default_config ()) with log = null_ppf } in
    let n = Array.length replay in
    let comp = Array.make n [||] and respond = Array.make n 0.0 and routed = Array.make n 0.0 in
    let daemon = Array.make n (0.0, false) and router = Array.make n (0.0, false) in
    let solves = ref [] in
    Array.iteri
      (fun i k ->
        let step = ref 0 and pieces_at = ref 0 and respond_at = ref 0 in
        let in_process =
          [|
            (fun () ->
              pieces_at := !step;
              comp.(i) <- pieces lru k);
            (fun () ->
              respond_at := !step;
              let (reply, _), t = timed_us (fun () -> Service.Server.respond srv ks.lines.(k)) in
              ignore (check_reply seen "in-process respond" k reply);
              respond.(i) <- t);
          |]
        in
        (* pieces and respond share the pattern memo: each goes first
           half of the time *)
        let first = i mod 2 in
        let ops =
          [|
            in_process.(first);
            in_process.(1 - first);
            (fun () -> daemon.(i) <- remote dc "daemon" k);
            (fun () -> router.(i) <- remote fc "router" k);
            (fun () -> routed.(i) <- snd (timed_us (fun () -> route k)));
          |]
        in
        let m = Array.length ops in
        for j = 0 to m - 1 do
          step := j;
          ops.((i + r + j) mod m) ()
        done;
        (* a miss the pieces solved before respond met the pattern memo
           in its natural state *)
        if !pieces_at < !respond_at && comp.(i).(5) > 0.0 then solves := (comp.(i).(5) /. 1e3) :: !solves)
      replay;
    let sub a = Array.sub a n_warm replay_n in
    (srv, sub comp, sub respond, sub daemon, sub router, sub routed, !solves)
  in
  let rounds = Array.init 3 round in
  let idx = List.init replay_n Fun.id in
  let mean_over l f = Kit.mean (Array.of_list (List.map f l)) in
  (* one mean per round, the median over rounds *)
  let over_rounds f = Kit.median (Array.map f rounds) in
  let col j = over_rounds (fun (_, comp, _, _, _, _, _) -> mean_over idx (fun i -> comp.(i).(j))) in
  set (q "service.json.parse_us") (col 0);
  set (q "service.protocol.parse_request_us") (col 1);
  set (q "service.engine.prepare_us") (col 2);
  set (q "service.lru.find_us") (col 3);
  set (q "service.json.render_us") (col 4);
  let solves = sorted (Array.to_list rounds |> List.concat_map (fun (_, _, _, _, _, _, s) -> s)) in
  let ns = Array.length solves in
  set (q "service.engine.solve_ms") (if ns = 0 then 0.0 else Kit.nearest_rank solves 0.5);
  set (q "service.engine.solve_p99_ms") (if ns = 0 then 0.0 else Kit.nearest_rank solves 0.99);
  report_percentile (workload ^ " in-process solves on LRU misses") ~n:ns 0.99;
  let respond_us = over_rounds (fun (_, _, respond, _, _, _, _) -> mean_over idx (fun i -> respond.(i))) in
  set (q "service.server.respond_us") respond_us;
  report_reconciliation
    (workload ^ ": respond pieces vs Server.respond")
    (Kit.reconcile ~tolerance:0.25 ~total:respond_us (List.map col [ 0; 1; 2; 3; 4; 5 ]));
  (* the two halves of prepare: the instance parser and the canonical rendering *)
  let io =
    Array.init 3 (fun _ ->
        Array.map
          (fun k ->
            let m, t_parse = timed_us (fun () -> Result.get_ok (Streaming.Instance_io.parse ks.queries.(k).instance)) in
            let _, t_render = timed_us (fun () -> Streaming.Instance_io.to_string m) in
            (t_parse, t_render))
          measured)
  in
  set (q "streaming.instance_io.parse_us") (Kit.median (Array.map (fun r -> Kit.mean (Array.map fst r)) io));
  set (q "streaming.instance_io.render_us") (Kit.median (Array.map (fun r -> Kit.mean (Array.map snd r)) io));
  (* transport: a ping's round trip to the daemon minus its in-process
     respond, alternating *)
  let ping = Service.Json.render (Service.Json.Obj [ ("v", Service.Json.Int 1); ("cmd", Service.Json.String "ping") ]) in
  let transport =
    over_rounds (fun (srv, _, _, _, _, _, _) ->
        let pairs =
          Array.init 300 (fun _ ->
              let _, tr = timed_us (fun () -> rpc dc ping) in
              let _, tl = timed_us (fun () -> Service.Server.respond srv ping) in
              tr -. tl)
        in
        Kit.mean pairs)
  in
  set (q "service.sockets.transport_us") transport;
  (* RPC means over the requests the daemon (and the router) answered
     from cache; the in-process LRUs saw the same sequence *)
  let hits daemon = List.filter (fun i -> snd daemon.(i)) idx in
  let both daemon router = List.filter (fun i -> snd router.(i)) (hits daemon) in
  let daemon_rpc = over_rounds (fun (_, _, _, d, _, _, _) -> mean_over (hits d) (fun i -> fst d.(i))) in
  let respond_hits = over_rounds (fun (_, _, rs, d, _, _, _) -> mean_over (hits d) (fun i -> rs.(i))) in
  set (q "service.sockets.daemon_rpc_us") daemon_rpc;
  report_reconciliation
    (Printf.sprintf "%s: respond+transport vs daemon RPC" workload)
    (Kit.reconcile ~tolerance:0.5 ~total:daemon_rpc [ respond_hits; transport ]);
  let router_rpc = over_rounds (fun (_, _, _, d, rt, _, _) -> mean_over (both d rt) (fun i -> fst rt.(i))) in
  let hop =
    over_rounds (fun (_, _, _, d, rt, _, _) -> mean_over (both d rt) (fun i -> fst rt.(i) -. fst d.(i)))
  in
  set (q "cluster.router.router_rpc_us") router_rpc;
  set (q "cluster.router.hop_us") hop;
  let route_us = over_rounds (fun (_, _, _, _, _, routed, _) -> Kit.mean routed) in
  set (q "cluster.router.route_us") route_us;
  report_reconciliation
    (Printf.sprintf "%s: route+transport vs router hop" workload)
    (Kit.reconcile ~tolerance:0.5 ~total:hop [ route_us; transport ]);
  Service.Client.close dc;
  stop_server d;
  (* the fleet's own counters after a stretch of the workload's closed loop *)
  let _ = closed_loop ks seen f ~seed ~t_end:(now () +. 60.0) ~count:1000 in
  let samples = scrape fc in
  Service.Client.close fc;
  stop_server f;
  check_references ks seen;
  let hits = sum_of samples "service_cache_hits" and misses = sum_of samples "service_cache_misses" in
  set (q "service.lru.hit_ratio") (ratio hits (hits +. misses));
  set (q "service.lru.evictions") (sum_of samples "service_cache_evictions");
  let phits = sum_of samples "young_pattern_cache_hits" and pmisses = sum_of samples "young_pattern_cache_misses" in
  set (q "young.pattern.hit_ratio") (ratio phits (phits +. pmisses));
  set (q "young.pattern.results") (sum_of samples "young_pattern_cache_results");
  let fwd w = sum_of samples ~pred:(fun ls -> List.assoc_opt "worker" ls = Some w) "cluster_forwarded_total" in
  let f0 = fwd "0" and f1 = fwd "1" in
  set (q "cluster.router.max_worker_share") (ratio (Float.max f0 f1) (f0 +. f1));
  set (q "cluster.router.retries") (sum_of samples "cluster_retries_total");
  set (q "service.server.busy")
    (sum_of samples ~pred:(fun ls -> List.assoc_opt "kind" ls = Some "busy") "service_errors_total")

(* ---------------------------------------------------------------- *)
(* main                                                               *)

let usage () =
  prerr_endline
    "usage: perfbench/run.sh --workload repro|statespace|query_hot|query_zipf --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest when List.mem_assoc w Kit.workloads -> workload := Some w; go rest
    | "--seed" :: s :: rest when int_of_string_opt s <> None -> seed := int_of_string_opt s; go rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun x -> x > 0.0) (float_of_string_opt s) ->
        seconds := float_of_string_opt s;
        go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t -> (w, s, secs, t)
  | _ -> usage ()

let commit () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
      let head = trim head in
      if String.starts_with ~prefix:"ref: " head then
        let r = String.sub head 5 (String.length head - 5) in
        match read_file (Filename.concat ".git" r) with
        | Some h -> trim h
        | None -> "unknown"
      else head

let () =
  let workload, seed, seconds, trace = parse_args () in
  if not (Sys.file_exists cli) then (prerr_endline ("perfbench: " ^ cli ^ " is not built"); exit 2);
  List.iter
    (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
    [ Filename.dirname run_dir; run_dir ];
  at_exit cleanup;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  Service.Sockets.ignore_sigpipe ();
  let tm = Unix.gmtime (Unix.time ()) in
  say "# perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d commit=%s date=%04d-%02d-%02dT%02d:%02d:%02dZ ocaml=%s"
    workload seed seconds (Bool.to_int trace) nproc (commit ()) (tm.Unix.tm_year + 1900) (tm.tm_mon + 1) tm.tm_mday
    tm.tm_hour tm.tm_min tm.tm_sec Sys.ocaml_version;
  (match
     if trace then begin
       (* statespace last: its two-gigabyte heap would slow every
          allocating layer measured after it *)
       List.iter (fun w -> layers_query w ~seed) Kit.query_workloads;
       layers_repro ();
       layers_statespace ()
     end
     else
       match workload with
       | "repro" -> run_repro ~seconds
       | "statespace" -> run_statespace ~seconds
       | w -> run_query w ~seed ~seconds
   with
  | () -> ()
  | exception e -> fail_op "%s" (Printexc.to_string e));
  let expected = if trace then Kit.per_layer else Kit.end_to_end in
  let out =
    List.filter_map
      (fun (m : Kit.metric) ->
        match List.assoc_opt m.name !metrics with
        | Some v when Float.is_finite v ->
            say "metric %-48s %16.6f %s" m.name v m.unit_;
            Some (m.name, Service.Json.Obj [ ("value", Service.Json.Float v); ("unit", Service.Json.String m.unit_) ])
        | _ ->
            fail_op "metric %s was not measured" m.name;
            None)
      expected
  in
  let result =
    Service.Json.Obj
      [
        ("correct", Service.Json.Bool (!failed = 0));
        ("attempted", Service.Json.Int (max 1 (max !attempted !failed)));
        ("failed", Service.Json.Int !failed);
        ("metrics", Service.Json.Obj out);
      ]
  in
  print_endline (Service.Json.render result);
  exit (if !failed = 0 then 0 else 1)
