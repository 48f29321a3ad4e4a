open Streaming

let check_float tol = Alcotest.(check (float tol))

let random_mapping seed =
  let g = Prng.create ~seed in
  Workload.Gen.random_mapping g
    {
      Workload.Gen.n_stages = 2 + Prng.int g 4;
      n_procs = 6 + Prng.int g 8;
      comp_range = (5.0, 15.0);
      comm_range = (5.0, 15.0);
      max_rows = 60;
    }

(* §7.4 fidelity: with deterministic times, the event-graph recurrence and
   the operational discrete-event simulation compute the same greedy
   schedule, so per-data-set completion times must agree exactly. *)
let qcheck_des_equals_eg_sim_deterministic =
  QCheck.Test.make ~name:"DES completions = event-graph completions (deterministic)" ~count:25
    QCheck.(pair small_int (oneofl Model.all))
    (fun (seed, model) ->
      let mapping = random_mapping (seed + 1) in
      let data_sets = 4 * Mapping.rows mapping in
      let des =
        Des.Pipeline_sim.completions mapping model
          ~timing:(Des.Pipeline_sim.Independent (Laws.deterministic mapping))
          ~seed:0 ~data_sets
      in
      let egs =
        Teg_sim.completions mapping model ~laws:(Laws.deterministic mapping) ~seed:0 ~data_sets
      in
      (* both series are truncated at their common-activity horizon, which
         may differ slightly (egs rounds data_sets up to whole rounds);
         compare the common prefix *)
      let k = min (Array.length des) (Array.length egs) in
      k > data_sets / 2
      && Array.for_all2
           (fun a b -> abs_float (a -. b) < 1e-9 *. (1.0 +. abs_float a))
           (Array.sub des 0 k) (Array.sub egs 0 k))

(* -- engine -- *)

(* a precedence graph from (task, after) pairs, each dependents list
   newest first *)
let engine_graph ~n_tasks edges =
  let predecessors = Array.make n_tasks 0 and dependents = Array.make n_tasks [] in
  List.iter
    (fun (task, after) ->
      predecessors.(task) <- predecessors.(task) + 1;
      dependents.(after) <- task :: dependents.(after))
    edges;
  {
    Des.Engine.n_tasks;
    predecessors = Array.get predecessors;
    iter_dependents = (fun task f -> List.iter f dependents.(task));
  }

let no_release _ = 0.0

let test_des_engine_cycle_detection () =
  let e = engine_graph ~n_tasks:2 [ (0, 1); (1, 0) ] in
  Alcotest.check_raises "cycle"
    (Failure "Engine.run: dependency cycle, some tasks never became ready") (fun () ->
      ignore (Des.Engine.run e ~earliest:no_release ~duration:(fun _ -> 1.0)))

let test_des_engine_chain () =
  let e = engine_graph ~n_tasks:3 [ (1, 0); (2, 1) ] in
  let completion =
    Des.Engine.run e ~earliest:no_release ~duration:(fun i -> float_of_int (i + 1))
  in
  check_float 1e-12 "t0" 1.0 completion.(0);
  check_float 1e-12 "t1" 3.0 completion.(1);
  check_float 1e-12 "t2" 6.0 completion.(2)

let test_des_engine_diamond () =
  let e = engine_graph ~n_tasks:4 [ (1, 0); (2, 0); (3, 1); (3, 2) ] in
  let durations = [| 1.0; 5.0; 2.0; 1.0 |] in
  let completion = Des.Engine.run e ~earliest:no_release ~duration:(fun i -> durations.(i)) in
  check_float 1e-12 "join waits for the slow branch" 7.0 completion.(3)

(* -- the list-based engine and pipeline graph that [Engine.run] and
   [Pipeline_sim.graph] replaced, kept as the reference they must match
   bit for bit -- *)

module Reference = struct
  module Heap = struct
    (* binary min-heap on (time, task id) *)
    type t = { mutable data : (float * int) array; mutable size : int }

    let create () = { data = Array.make 64 (0.0, 0); size = 0 }
    let is_empty h = h.size = 0

    let push h x =
      if h.size = Array.length h.data then begin
        let bigger = Array.make (2 * h.size) (0.0, 0) in
        Array.blit h.data 0 bigger 0 h.size;
        h.data <- bigger
      end;
      h.data.(h.size) <- x;
      h.size <- h.size + 1;
      let i = ref (h.size - 1) in
      while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
        let parent = (!i - 1) / 2 in
        let tmp = h.data.(parent) in
        h.data.(parent) <- h.data.(!i);
        h.data.(!i) <- tmp;
        i := parent
      done

    let pop h =
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
      done;
      top
  end

  type t = { n : int; dependents : int list array; pending : int array; earliest : float array }

  let create ~n_tasks =
    {
      n = n_tasks;
      dependents = Array.make n_tasks [];
      pending = Array.make n_tasks 0;
      earliest = Array.make n_tasks 0.0;
    }

  let add_dep t ~task ~after =
    t.dependents.(after) <- task :: t.dependents.(after);
    t.pending.(task) <- t.pending.(task) + 1

  let run t ~duration =
    let pending = Array.copy t.pending in
    let ready_at = Array.copy t.earliest in
    let completion = Array.make t.n nan in
    let heap = Heap.create () in
    let start task time = Heap.push heap (time +. duration task, task) in
    for task = 0 to t.n - 1 do
      if pending.(task) = 0 then start task ready_at.(task)
    done;
    while not (Heap.is_empty heap) do
      let time, task = Heap.pop heap in
      completion.(task) <- time;
      List.iter
        (fun next ->
          if time > ready_at.(next) then ready_at.(next) <- time;
          pending.(next) <- pending.(next) - 1;
          if pending.(next) = 0 then start next ready_at.(next))
        t.dependents.(task)
    done;
    completion

  (* the pipeline graph, every edge stored *)
  let pipeline ?release mapping model ~data_sets =
    let n = Mapping.n_stages mapping in
    let cols = (2 * n) - 1 in
    let replication = Mapping.replication mapping in
    let op ~data_set ~col = (data_set * cols) + col in
    let engine = create ~n_tasks:(data_sets * cols) in
    (match release with
    | None -> ()
    | Some release ->
        for ds = 0 to data_sets - 1 do
          engine.earliest.(op ~data_set:ds ~col:0) <- release ds
        done);
    for ds = 0 to data_sets - 1 do
      for col = 1 to cols - 1 do
        add_dep engine ~task:(op ~data_set:ds ~col) ~after:(op ~data_set:ds ~col:(col - 1))
      done;
      for stage = 0 to n - 1 do
        let prev = ds - replication.(stage) in
        if prev >= 0 then
          match model with
          | Model.Overlap ->
              add_dep engine
                ~task:(op ~data_set:ds ~col:(2 * stage))
                ~after:(op ~data_set:prev ~col:(2 * stage));
              if stage < n - 1 then
                add_dep engine
                  ~task:(op ~data_set:ds ~col:((2 * stage) + 1))
                  ~after:(op ~data_set:prev ~col:((2 * stage) + 1));
              if stage > 0 then
                add_dep engine
                  ~task:(op ~data_set:ds ~col:((2 * stage) - 1))
                  ~after:(op ~data_set:prev ~col:((2 * stage) - 1))
          | Model.Strict ->
              let first_col = if stage > 0 then (2 * stage) - 1 else 2 * stage in
              let last_col = if stage < n - 1 then (2 * stage) + 1 else 2 * stage in
              add_dep engine
                ~task:(op ~data_set:ds ~col:first_col)
                ~after:(op ~data_set:prev ~col:last_col)
      done
    done;
    engine

  (* completion of each data set's last operation, durations drawn as
     [Pipeline_sim] draws them *)
  let raw_completions ?release mapping model ~timing ~seed ~data_sets =
    let n = Mapping.n_stages mapping in
    let cols = (2 * n) - 1 in
    let proc_of ~data_set ~stage = Mapping.proc_at mapping ~stage ~row:data_set in
    let engine = pipeline ?release mapping model ~data_sets in
    let g = Prng.create ~seed in
    let duration =
      match timing with
      | Des.Pipeline_sim.Independent laws ->
          fun id ->
            let ds = id / cols and col = id mod cols in
            let stage = col / 2 in
            if col mod 2 = 0 then
              Dist.sample (laws (Resource.Compute (proc_of ~data_set:ds ~stage))) g
            else
              let src = proc_of ~data_set:ds ~stage
              and dst = proc_of ~data_set:ds ~stage:(stage + 1) in
              Dist.sample (laws (Resource.Transfer (src, dst))) g
      | Des.Pipeline_sim.Associated { work; files } ->
          let work_sizes =
            Array.init data_sets (fun _ -> Array.init n (fun i -> Dist.sample (work i) g))
          in
          let file_sizes =
            Array.init data_sets (fun _ ->
                Array.init (max 0 (n - 1)) (fun i -> Dist.sample (files i) g))
          in
          fun id ->
            let ds = id / cols and col = id mod cols in
            let stage = col / 2 in
            let platform = Mapping.platform mapping in
            if col mod 2 = 0 then
              work_sizes.(ds).(stage) /. Platform.speed platform (proc_of ~data_set:ds ~stage)
            else
              let src = proc_of ~data_set:ds ~stage
              and dst = proc_of ~data_set:ds ~stage:(stage + 1) in
              file_sizes.(ds).(stage) /. Platform.bandwidth platform ~src ~dst
      | Des.Pipeline_sim.Scaled law ->
          let factors = Array.init data_sets (fun _ -> Dist.sample law g) in
          fun id ->
            let ds = id / cols and col = id mod cols in
            let stage = col / 2 in
            let nominal =
              if col mod 2 = 0 then
                Mapping.comp_time mapping ~stage ~proc:(proc_of ~data_set:ds ~stage)
              else
                Mapping.comm_time mapping ~file:stage ~src:(proc_of ~data_set:ds ~stage)
                  ~dst:(proc_of ~data_set:ds ~stage:(stage + 1))
            in
            factors.(ds) *. nominal
    in
    let completion = run engine ~duration in
    Array.init data_sets (fun ds -> completion.((ds * cols) + cols - 1))
end

(* 1 to 5 stages whose replication factors include 1 and often repeat the
   previous stage's (adjacent stages with equal factors duplicate an edge
   under Overlap); small integer sizes, speeds and bandwidths, so many
   operations end at the same instant and the start order decides ties *)
let tie_heavy_mapping seed =
  let g = Prng.create ~seed in
  let n = 1 + Prng.int g 5 in
  let replication = Array.make n 1 in
  for i = 0 to n - 1 do
    replication.(i) <-
      (if i > 0 && Prng.float g < 0.4 then replication.(i - 1) else 1 + Prng.int g 4)
  done;
  let small () = float_of_int (1 + Prng.int g 3) in
  let app = Application.create ~work:(Array.init n (fun _ -> small ())) ~files:(Array.init (n - 1) (fun _ -> small ())) in
  let n_procs = Array.fold_left ( + ) 0 replication in
  let speeds = Array.init n_procs (fun _ -> float_of_int (1 + Prng.int g 2)) in
  let platform =
    Platform.of_link_function ~n:n_procs ~speeds ~bw:(fun a b -> float_of_int (1 + ((a + b) mod 2)))
  in
  let next = ref 0 in
  let teams =
    Array.map (fun r -> Array.init r (fun _ -> let p = !next in incr next; p)) replication
  in
  Mapping.create ~app ~platform ~teams

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* an arbitrary release schedule: none, all at 0, or spaced by 1..3 *)
let release_of choice =
  match choice mod 3 with
  | 0 -> None
  | 1 -> Some (fun _ -> 0.0)
  | k -> Some (fun ds -> float_of_int (k * ds))

let qcheck_implicit_graph_matches_reference =
  QCheck.Test.make ~name:"implicit graph = list-based engine, start order included" ~count:300
    QCheck.(triple small_int (oneofl Model.all) (pair (int_range 1 40) small_int))
    (fun (seed, model, (data_sets, choice)) ->
      let mapping = tie_heavy_mapping seed in
      let release = release_of choice in
      (* durations 1..3 drawn in call order: equal call orders give equal
         durations to equal tasks *)
      let recording () =
        let g = Prng.create ~seed:(seed + 1) and calls = ref [] in
        ( calls,
          fun id ->
            calls := id :: !calls;
            float_of_int (1 + Prng.int g 3) )
      in
      let ref_calls, ref_duration = recording () in
      let expected =
        Reference.run (Reference.pipeline ?release mapping model ~data_sets) ~duration:ref_duration
      in
      let calls, duration = recording () in
      let earliest =
        let cols = (2 * Mapping.n_stages mapping) - 1 in
        match release with
        | None -> no_release
        | Some r -> fun id -> if id mod cols = 0 then r (id / cols) else 0.0
      in
      let got =
        Des.Engine.run (Des.Pipeline_sim.graph mapping model ~data_sets) ~earliest ~duration
      in
      !calls = !ref_calls && bits_equal got expected)

let qcheck_pipeline_sim_matches_reference =
  QCheck.Test.make ~name:"Pipeline_sim = list-based reference, every timing" ~count:150
    QCheck.(triple small_int (oneofl Model.all) (pair (int_range 1 40) small_int))
    (fun (seed, model, (data_sets, choice)) ->
      let mapping = tie_heavy_mapping seed in
      let app = Mapping.app mapping in
      let release = match release_of choice with None -> fun _ -> 0.0 | Some r -> r in
      let timings =
        [
          Des.Pipeline_sim.Independent (Laws.deterministic mapping);
          Des.Pipeline_sim.Independent (Laws.exponential mapping);
          Des.Pipeline_sim.Associated
            {
              work = (fun i -> Dist.with_mean (Dist.Uniform (0.5, 1.5)) (Application.work app i));
              files = (fun i -> Dist.with_mean (Dist.Uniform (0.5, 1.5)) (Application.file_size app i));
            };
          Des.Pipeline_sim.Scaled (Dist.Uniform (0.5, 1.5));
        ]
      in
      List.for_all
        (fun timing ->
          let sim = Des.Pipeline_sim.latencies ~release mapping model ~timing ~seed ~data_sets in
          let reference =
            Array.mapi
              (fun ds c -> c -. release ds)
              (Reference.raw_completions ~release mapping model ~timing ~seed ~data_sets)
          in
          let completions ?release () =
            Des.Pipeline_sim.completions ?release mapping model ~timing ~seed ~data_sets
          in
          bits_equal sim reference
          && bits_equal (completions ()) (completions ~release:(fun _ -> 0.0) ()))
        timings)

let test_same_seed_reproducible () =
  let mapping = random_mapping 7 in
  let run () =
    Des.Pipeline_sim.throughput mapping Model.Overlap
      ~timing:(Des.Pipeline_sim.Independent (Laws.exponential mapping))
      ~seed:123 ~data_sets:2000
  in
  check_float 0.0 "bitwise reproducible" (run ()) (run ())

let test_different_seeds_differ () =
  let mapping = random_mapping 7 in
  let run seed =
    Des.Pipeline_sim.throughput mapping Model.Overlap
      ~timing:(Des.Pipeline_sim.Independent (Laws.exponential mapping))
      ~seed ~data_sets:2000
  in
  Alcotest.(check bool) "seeds matter" true (run 1 <> run 2)

let test_deterministic_dist_equals_deterministic_theory () =
  (* DES with Deterministic laws reproduces the critical-cycle value *)
  List.iter
    (fun model ->
      let mapping = Workload.Scenarios.example_a in
      let theory = Deterministic.throughput mapping model in
      let sim =
        Des.Pipeline_sim.throughput mapping model
          ~timing:(Des.Pipeline_sim.Independent (Laws.deterministic mapping))
          ~seed:0 ~data_sets:6000
      in
      check_float (1e-6 *. theory) (Model.to_string model) theory sim)
    Model.all

let test_exponential_des_vs_eg_sim () =
  let mapping = Workload.Scenarios.example_a in
  let des =
    Des.Pipeline_sim.throughput mapping Model.Overlap
      ~timing:(Des.Pipeline_sim.Independent (Laws.exponential mapping))
      ~seed:21 ~data_sets:60_000
  in
  let egs =
    Teg_sim.throughput mapping Model.Overlap ~laws:(Laws.exponential mapping) ~seed:22
      ~data_sets:60_000
  in
  Alcotest.(check bool)
    (Printf.sprintf "des %.5f vs egsim %.5f" des egs)
    true
    (abs_float (des -. egs) /. des < 0.02)

let test_associated_deterministic_sizes () =
  (* associated mode with constant sizes equals the deterministic case *)
  let mapping = Workload.Scenarios.example_a in
  let app = Mapping.app mapping in
  let timing =
    Des.Pipeline_sim.Associated
      {
        work = (fun i -> Dist.Deterministic (Application.work app i));
        files = (fun i -> Dist.Deterministic (Application.file_size app i));
      }
  in
  let theory = Deterministic.throughput mapping Model.Overlap in
  let sim = Des.Pipeline_sim.throughput mapping Model.Overlap ~timing ~seed:0 ~data_sets:6000 in
  check_float (1e-6 *. theory) "associated constant = deterministic" theory sim

let test_associated_random_sizes_run () =
  (* Theorem 8: with associated N.B.U.E. sizes the throughput still sits
     below the deterministic bound *)
  let mapping = Workload.Scenarios.example_a in
  let app = Mapping.app mapping in
  let timing =
    Des.Pipeline_sim.Associated
      {
        work = (fun i -> Dist.with_mean (Dist.Uniform (0.5, 1.5)) (Application.work app i));
        files = (fun i -> Dist.with_mean (Dist.Uniform (0.5, 1.5)) (Application.file_size app i));
      }
  in
  let det = Deterministic.throughput mapping Model.Overlap in
  let sim = Des.Pipeline_sim.throughput mapping Model.Overlap ~timing ~seed:5 ~data_sets:40_000 in
  Alcotest.(check bool)
    (Printf.sprintf "associated %.5f <= det %.5f" sim det)
    true
    (sim <= det *. 1.005)

let test_throughput_estimator_on_exact_series () =
  let mapping = Workload.Scenarios.example_a in
  let completions =
    Teg_sim.completions mapping Model.Overlap ~laws:(Laws.deterministic mapping) ~seed:0
      ~data_sets:3000
  in
  Alcotest.(check bool) "sorted" true
    (Array.for_all2 ( <= ) (Array.sub completions 0 (Array.length completions - 1))
       (Array.sub completions 1 (Array.length completions - 1)))


(* -- release dates and latency -- *)

let test_release_slows_throughput () =
  (* admitting below capacity: the output rate equals the admission rate *)
  let mapping = Workload.Scenarios.example_a in
  let capacity = Deterministic.throughput mapping Model.Overlap in
  let rate = 0.5 *. capacity in
  let release n = float_of_int n /. rate in
  let rho =
    Des.Pipeline_sim.throughput ~release mapping Model.Overlap
      ~timing:(Des.Pipeline_sim.Independent (Laws.deterministic mapping))
      ~seed:0 ~data_sets:5_000
  in
  check_float (1e-6 *. rate) "output = admission" rate rho

let test_latency_isolated () =
  (* releases far apart: each data set crosses an empty pipeline, so its
     latency is the sum of the operation times along its path *)
  let mapping = Workload.Scenarios.example_a in
  let huge_gap n = 1e7 *. float_of_int n in
  let lats =
    Des.Pipeline_sim.latencies ~release:huge_gap mapping Model.Overlap
      ~timing:(Des.Pipeline_sim.Independent (Laws.deterministic mapping))
      ~seed:0 ~data_sets:(2 * Mapping.rows mapping)
  in
  let app = Mapping.app mapping in
  let n = Application.n_stages app in
  Array.iteri
    (fun ds lat ->
      let rec path stage acc =
        if stage = n then acc
        else
          let p = Mapping.proc_at mapping ~stage ~row:ds in
          let acc = acc +. Mapping.comp_time mapping ~stage ~proc:p in
          if stage = n - 1 then acc
          else
            let q = Mapping.proc_at mapping ~stage:(stage + 1) ~row:ds in
            path (stage + 1) (acc +. Mapping.comm_time mapping ~file:stage ~src:p ~dst:q)
      in
      check_float 1e-6 (Printf.sprintf "data set %d" ds) (path 0 0.0) lat)
    lats

let test_latency_increases_with_load () =
  let mapping = Workload.Scenarios.example_a in
  let capacity = Expo.overlap_throughput mapping in
  let mean_latency f =
    let release n = float_of_int n /. (f *. capacity) in
    let lats =
      Des.Pipeline_sim.latencies ~release mapping Model.Overlap
        ~timing:(Des.Pipeline_sim.Independent (Laws.exponential mapping))
        ~seed:5 ~data_sets:8_000
    in
    Stats.Summary.mean (Stats.Summary.of_list (Array.to_list lats))
  in
  let l30 = mean_latency 0.3 and l80 = mean_latency 0.8 and l99 = mean_latency 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %.0f < %.0f < %.0f" l30 l80 l99)
    true
    (l30 < l80 && l80 < l99)


let test_decoupled_rows_strict () =
  (* under Strict the rows of this mapping are also decoupled chains; the
     per-weak-component analysis must match both simulators *)
  let app = Application.create ~work:[| 6.0; 6.0 |] ~files:[| 0.01 |] in
  let speeds = [| 2.0; 1.0; 0.5; 2.0; 1.0; 0.5 |] in
  let platform = Platform.fully_connected ~speeds ~bw:100.0 in
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0; 1; 2 |]; [| 3; 4; 5 |] |] in
  let theory = Deterministic.throughput mapping Model.Strict in
  let egs =
    Teg_sim.throughput mapping Model.Strict ~laws:(Laws.deterministic mapping) ~seed:1
      ~data_sets:30_000
  in
  let des =
    Des.Pipeline_sim.throughput mapping Model.Strict
      ~timing:(Des.Pipeline_sim.Independent (Laws.deterministic mapping))
      ~seed:1 ~data_sets:30_000
  in
  check_float (1e-6 *. theory) "eg_sim matches per-component theory" theory egs;
  check_float (1e-6 *. theory) "DES matches per-component theory" theory des

let test_decoupled_rows_estimator () =
  (* regression: with every team of size m the rows are fully decoupled
     chains of different speeds; the throughput is the SUM of the row
     rates, which the estimator only sees if it stops measuring when the
     fastest row runs out of simulated data sets *)
  let app = Application.create ~work:[| 6.0; 6.0 |] ~files:[| 0.01 |] in
  let speeds = [| 2.0; 1.0; 0.5; 2.0; 1.0; 0.5 |] in
  let platform = Platform.fully_connected ~speeds ~bw:100.0 in
  let mapping = Mapping.create ~app ~platform ~teams:[| [| 0; 1; 2 |]; [| 3; 4; 5 |] |] in
  (* rows: (2,2), (1,1), (0.5,0.5) -> rates 1/3 + 1/6 + 1/12 = 7/12 *)
  let expected = 7.0 /. 12.0 in
  check_float (1e-6 *. expected) "decomposition" expected
    (Deterministic.overlap_throughput_decomposed mapping);
  let egs =
    Teg_sim.throughput mapping Model.Overlap ~laws:(Laws.deterministic mapping) ~seed:1
      ~data_sets:30_000
  in
  check_float (1e-6 *. expected) "eg_sim" expected egs;
  let des =
    Des.Pipeline_sim.throughput mapping Model.Overlap
      ~timing:(Des.Pipeline_sim.Independent (Laws.deterministic mapping))
      ~seed:1 ~data_sets:30_000
  in
  check_float (1e-6 *. expected) "DES" expected des

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "cycle detection" `Quick test_des_engine_cycle_detection;
          Alcotest.test_case "chain" `Quick test_des_engine_chain;
          Alcotest.test_case "diamond" `Quick test_des_engine_diamond;
          QCheck_alcotest.to_alcotest qcheck_implicit_graph_matches_reference;
          QCheck_alcotest.to_alcotest qcheck_pipeline_sim_matches_reference;
        ] );
      ( "fidelity",
        [
          QCheck_alcotest.to_alcotest qcheck_des_equals_eg_sim_deterministic;
          Alcotest.test_case "deterministic laws" `Slow test_deterministic_dist_equals_deterministic_theory;
          Alcotest.test_case "exponential des vs egsim" `Slow test_exponential_des_vs_eg_sim;
        ] );
      ( "modes",
        [
          Alcotest.test_case "reproducible" `Quick test_same_seed_reproducible;
          Alcotest.test_case "seed sensitivity" `Quick test_different_seeds_differ;
          Alcotest.test_case "associated constant" `Slow test_associated_deterministic_sizes;
          Alcotest.test_case "associated random" `Slow test_associated_random_sizes_run;
          Alcotest.test_case "completions sorted" `Quick test_throughput_estimator_on_exact_series;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "decoupled rows estimator" `Quick test_decoupled_rows_estimator;
          Alcotest.test_case "decoupled rows strict" `Quick test_decoupled_rows_strict;
        ] );
      ( "latency",
        [
          Alcotest.test_case "admission-limited throughput" `Quick test_release_slows_throughput;
          Alcotest.test_case "isolated latency" `Quick test_latency_isolated;
          Alcotest.test_case "monotone in load" `Slow test_latency_increases_with_load;
        ] );
    ]
