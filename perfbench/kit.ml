type better = Lower | Higher
type metric = { name : string; unit_ : string; better : better; bound : float option }

let workloads =
  [
    ( "repro",
      "quick paper reproduction on a one-domain pool: the only load on the DES, Teg_sim and \
       critical-cycle layers" );
    ( "statespace",
      "cold 437k- and 479k-state pattern solves on one domain: exploration, lumping and the \
       Gauss-Seidel rung, with and without rotation symmetry" );
    ( "query_hot",
      "router + 2 one-domain workers, 2 closed-loop clients on 16 Table-1-sized instances: \
       every reply an LRU hit, so codec, prepare and sockets do all the work" );
    ( "query_zipf",
      "same fleet, Zipf(1.0) over 4096 (instance, law) keys against 256-entry LRUs: misses, \
       evictions and the solver on the query path" );
  ]

let e2e name unit_ better bound = { name; unit_; better; bound = Some bound }
let layer name unit_ better = { name; unit_; better; bound = None }

let end_to_end =
  [
    e2e "setup_s" "s" Lower 0.25;
    e2e "cpu_ms_per_op" "ms" Lower 0.24;
    e2e "peak_rss_mb" "MB" Lower 0.1;
  ]

let registry_ids =
  [ "table1"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "fig17"; "thm8";
    "ablation"; "heuristics"; "erlang" ]

let patterns = [ "hom9x10"; "het7x8" ]
let query_workloads = [ "query_hot"; "query_zipf" ]

let per_layer =
  let repro =
    List.map (fun id -> layer ("experiments." ^ id ^ "_s") "s" Lower) registry_ids
    @ [ layer "young.pattern.hits" "count" Higher; layer "young.pattern.misses" "count" Lower ]
  in
  let statespace =
    List.concat_map
      (fun p ->
        [
          layer ("petrinet.marking.explore_s." ^ p) "s" Lower;
          layer ("markov.tpn_markov.structure_s." ^ p) "s" Lower;
        ]
        @ (if p = "hom9x10" then [ layer ("markov.tpn_markov.orbit_s." ^ p) "s" Lower ] else [])
        @ [
            layer ("markov.tpn_markov.solve_s." ^ p) "s" Lower;
            layer ("young.pattern.supervised_s." ^ p) "s" Lower;
            layer ("petrinet.marking.states." ^ p) "count" Lower;
            layer ("petrinet.marking.edges." ^ p) "count" Lower;
          ]
        @
        if p = "hom9x10" then [ layer ("markov.tpn_markov.lump_classes." ^ p) "count" Lower ]
        else [])
      patterns
  in
  let query q =
    List.map
      (fun (name, unit_, better) -> layer (name ^ "." ^ q) unit_ better)
      [
        ("service.json.parse_us", "us", Lower);
        ("service.protocol.parse_request_us", "us", Lower);
        ("streaming.instance_io.parse_us", "us", Lower);
        ("streaming.instance_io.render_us", "us", Lower);
        ("service.engine.prepare_us", "us", Lower);
        ("service.json.render_us", "us", Lower);
        ("service.lru.find_us", "us", Lower);
        ("service.server.respond_us", "us", Lower);
        ("service.sockets.transport_us", "us", Lower);
        ("service.sockets.daemon_rpc_us", "us", Lower);
        ("cluster.router.route_us", "us", Lower);
        ("cluster.router.hop_us", "us", Lower);
        ("cluster.router.router_rpc_us", "us", Lower);
        ("service.engine.solve_ms", "ms", Lower);
        ("service.engine.solve_p99_ms", "ms", Lower);
        ("service.lru.hit_ratio", "ratio", Higher);
        ("service.lru.evictions", "count", Lower);
        ("young.pattern.hit_ratio", "ratio", Higher);
        ("young.pattern.results", "count", Lower);
        ("cluster.router.max_worker_share", "ratio", Lower);
        ("cluster.router.retries", "count", Lower);
        ("service.server.busy", "count", Lower);
      ]
  in
  repro @ statespace @ List.concat_map query query_workloads

(* ---- Zipf ---- *)

type zipf = { cdf : float array }

let zipf ~n ~s =
  if n < 1 || s < 0.0 then invalid_arg "Kit.zipf: need n >= 1 and s >= 0";
  let w = Array.init n (fun k -> Float.pow (float_of_int (k + 1)) (-.s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  (* rounding must not leave a sliver above the last rank *)
  cdf.(n - 1) <- 1.0;
  { cdf }

let zipf_mass z k = if k = 0 then z.cdf.(0) else z.cdf.(k) -. z.cdf.(k - 1)

let zipf_draw z g =
  let u = Prng.float g in
  (* smallest k with u < cdf.(k) *)
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < z.cdf.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* ---- order statistics ---- *)

let rank_index ~n p = max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)
let nearest_rank sorted p = sorted.(min (Array.length sorted - 1) (rank_index ~n:(Array.length sorted) p))
let beyond ~n p = n - 1 - min (n - 1) (rank_index ~n p)
let reportable ~n p = beyond ~n p >= 10

let median xs =
  let s = Array.copy xs in
  Array.sort compare s;
  nearest_rank s 0.5

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* ---- layer sums ---- *)

type reconciliation = {
  parts : float;
  total : float;
  residual : float;
  residual_frac : float;
  tolerance : float;
  within : bool;
}

let reconcile ~tolerance ~total parts =
  let parts = List.fold_left ( +. ) 0.0 parts in
  let residual = total -. parts in
  let residual_frac = residual /. total in
  { parts; total; residual; residual_frac; tolerance; within = Float.abs residual_frac <= tolerance }

(* ---- BENCHMARK.json ---- *)

let all_chars ok s = String.for_all ok s

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && all_chars (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && all_chars
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true | _ -> false)
       s

let check_benchmark_json text =
  let module J = Service.Json in
  let ( let* ) = Result.bind in
  let list k j = match J.member k j with Some (J.List l) -> Ok l | _ -> Error (k ^ " is not a list") in
  let str k j = match Option.bind (J.member k j) J.to_string_opt with Some s -> Ok s | None -> Error ("missing string " ^ k) in
  let keys j = match j with J.Obj kv -> List.map fst kv | _ -> [] in
  let exactly ks j what =
    if List.sort compare (keys j) = List.sort compare ks then Ok ()
    else Error (what ^ " must have exactly the keys " ^ String.concat "," ks)
  in
  let* j = J.parse text in
  let* () = exactly [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ] j "BENCHMARK.json" in
  let* secs = Option.to_result ~none:"run_seconds is not an integer" (Option.bind (J.member "run_seconds" j) J.to_int_opt) in
  let* () = if secs >= 1 && secs <= 60 then Ok () else Error "run_seconds out of 1..60" in
  let* ws = list "workloads" j in
  let* wnames =
    List.fold_left
      (fun acc w ->
        let* acc = acc in
        let* () = exactly [ "name"; "why" ] w "a workload" in
        let* n = str "name" w in
        let* why = str "why" w in
        if String.length why > 200 || String.contains why '\n' then Error ("why of " ^ n ^ " too long")
        else Ok (n :: acc))
      (Ok []) ws
  in
  let* () =
    if List.rev wnames = List.map fst workloads then Ok () else Error "workloads differ from the catalogue"
  in
  let metrics k expected ~with_bound ~max =
    let* ms = list k j in
    let* () = if List.length ms >= 1 && List.length ms <= max then Ok () else Error (k ^ ": wrong count") in
    let* got =
      List.fold_left
        (fun acc m ->
          let* acc = acc in
          let* () =
            exactly (if with_bound then [ "name"; "unit"; "better"; "bound" ] else [ "name"; "unit"; "better" ]) m k
          in
          let* name = str "name" m in
          let* unit_ = str "unit" m in
          let* better = str "better" m in
          let* better =
            match better with "lower" -> Ok Lower | "higher" -> Ok Higher | b -> Error ("better " ^ b)
          in
          let* bound =
            if not with_bound then Ok None
            else
              match Option.bind (J.member "bound" m) J.to_float_opt with
              | Some b when b > 0.0 && b <= 0.25 -> Ok (Some b)
              | _ -> Error ("bound of " ^ name ^ " not in (0, 0.25]")
          in
          if not (valid_name name) then Error ("bad metric name " ^ name)
          else if not (valid_unit unit_) then Error ("bad unit " ^ unit_)
          else Ok ({ name; unit_; better; bound } :: acc))
        (Ok []) ms
    in
    if List.rev got = expected then Ok () else Error (k ^ " differs from the catalogue")
  in
  let* () = metrics "end_to_end" end_to_end ~with_bound:true ~max:16 in
  let* () = metrics "per_layer" per_layer ~with_bound:false ~max:128 in
  let names = List.map (fun m -> m.name) (end_to_end @ per_layer) @ List.map fst workloads in
  let* () =
    if List.length (List.sort_uniq compare names) = List.length names then Ok () else Error "duplicate names"
  in
  let bounds = List.filter_map (fun m -> m.bound) end_to_end in
  match List.find_opt (fun m -> m.name = "setup_s") end_to_end with
  | Some { unit_ = "s"; better = Lower; bound = Some b; _ } when List.for_all (fun x -> x <= b) bounds -> Ok ()
  | _ -> Error "setup_s must be in s, lower is better, with the largest bound"
