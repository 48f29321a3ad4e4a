open Streaming

type timing =
  | Independent of Laws.t
  | Associated of { work : int -> Dist.t; files : int -> Dist.t }
  | Scaled of Dist.t

(* Task [data_set * cols + col] is data set [data_set]'s operation in
   column [col] of its path: column 2i computes stage i, column 2i+1
   carries file i (the send of stage i and the receive of stage i+1).
   Its edges follow by arithmetic from the replication factors, so none
   is stored.  A resource serves data sets in order, and a row of stage i
   sees every [r_i]-th one, so an operation waits for the same resource's
   operation [r_i] data sets earlier.

   The order of a task's dependents fixes the start order of tasks
   released at the same instant, hence which generator draw each gets, so
   it is pinned (test_sim checks it against a list-based reference):
   resource dependents first, the path successor last.  A file column
   releases stage s+1's receive before stage s's send unless
   r_(s+1) < r_s; with equal factors the two are one task, visited twice
   because it counts both edges. *)
let graph mapping model ~data_sets =
  let n = Mapping.n_stages mapping in
  let cols = (2 * n) - 1 in
  let r = Mapping.replication mapping in
  (* Strict: the processor is a single server, so its first operation on
     a data set (the receive, or stage 0's compute) waits for its last one
     on its previous data set (the send, or the last stage's compute) *)
  let first_col stage = if stage > 0 then (2 * stage) - 1 else 0 in
  let predecessors id =
    let ds = id / cols and col = id mod cols in
    let path = if col > 0 then 1 else 0 in
    let behind stage = if ds >= r.(stage) then 1 else 0 in
    match model with
    | Model.Overlap ->
        (* compute unit, or one-port out (stage col/2) and in (stage col/2+1) *)
        if col mod 2 = 0 then path + behind (col / 2)
        else path + behind (col / 2) + behind ((col / 2) + 1)
    | Model.Strict ->
        if col = 0 then behind 0 else if col mod 2 = 1 then path + behind ((col + 1) / 2) else path
  in
  let iter_dependents id f =
    let ds = id / cols and col = id mod cols in
    let ahead stage col =
      let later = ds + r.(stage) in
      if later < data_sets then f ((later * cols) + col)
    in
    (match model with
    | Model.Overlap ->
        if col mod 2 = 0 then ahead (col / 2) col
        else begin
          let s = col / 2 in
          if r.(s + 1) >= r.(s) then begin
            ahead (s + 1) col;
            ahead s col
          end
          else begin
            ahead s col;
            ahead (s + 1) col
          end
        end
    | Model.Strict ->
        if col mod 2 = 1 then ahead (col / 2) (first_col (col / 2))
        else if col = cols - 1 then ahead (n - 1) (first_col (n - 1)));
    if col + 1 < cols then f (id + 1)
  in
  { Engine.n_tasks = data_sets * cols; predecessors; iter_dependents }

let raw_completions ?release mapping model ~timing ~seed ~data_sets =
  if data_sets < 1 then invalid_arg "Pipeline_sim.completions: need at least one data set";
  Obs.Trace.span "des:pipeline_sim" @@ fun () ->
  Obs.Trace.add_attr "data_sets" (string_of_int data_sets);
  let n = Mapping.n_stages mapping in
  let cols = (2 * n) - 1 in
  let proc_of ~data_set ~stage = Mapping.proc_at mapping ~stage ~row:data_set in
  let op ~data_set ~col = (data_set * cols) + col in
  let earliest =
    match release with
    | None -> fun _ -> 0.0
    | Some release ->
        let dates = Array.init data_sets release in
        fun id -> if id mod cols = 0 then dates.(id / cols) else 0.0
  in
  let g = Prng.create ~seed in
  let duration =
    match timing with
    | Independent laws ->
        fun id ->
          let ds = id / cols and col = id mod cols in
          if col mod 2 = 0 then
            let stage = col / 2 in
            Dist.sample (laws (Resource.Compute (proc_of ~data_set:ds ~stage))) g
          else
            let stage = col / 2 in
            let src = proc_of ~data_set:ds ~stage and dst = proc_of ~data_set:ds ~stage:(stage + 1) in
            Dist.sample (laws (Resource.Transfer (src, dst))) g
    | Associated { work; files } ->
        (* one size draw per (data set, stage) and per (data set, file),
           shared by every resource that touches it *)
        let work_sizes =
          Array.init data_sets (fun _ -> Array.init n (fun i -> Dist.sample (work i) g))
        in
        let file_sizes =
          Array.init data_sets (fun _ -> Array.init (max 0 (n - 1)) (fun i -> Dist.sample (files i) g))
        in
        fun id ->
          let ds = id / cols and col = id mod cols in
          let stage = col / 2 in
          if col mod 2 = 0 then
            let p = proc_of ~data_set:ds ~stage in
            work_sizes.(ds).(stage) /. Platform.speed (Mapping.platform mapping) p
          else
            let src = proc_of ~data_set:ds ~stage and dst = proc_of ~data_set:ds ~stage:(stage + 1) in
            file_sizes.(ds).(stage)
            /. Platform.bandwidth (Mapping.platform mapping) ~src ~dst
    | Scaled law ->
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
  let completion = Engine.run (graph mapping model ~data_sets) ~earliest ~duration in
  Array.init data_sets (fun ds -> completion.(op ~data_set:ds ~col:(cols - 1)))

let completions ?release mapping model ~timing ~seed ~data_sets =
  let result = raw_completions ?release mapping model ~timing ~seed ~data_sets in
  (* truncate at the earliest per-row final completion: each round-robin
     row receives a fixed share of the data sets, so beyond the fastest
     row's horizon the merged stream under-counts the system rate when
     rows are decoupled *)
  let m = Mapping.rows mapping in
  let horizon = ref infinity in
  for row = 0 to min m data_sets - 1 do
    let last = row + ((data_sets - 1 - row) / m * m) in
    if result.(last) < !horizon then horizon := result.(last)
  done;
  let kept = Array.of_list (List.filter (fun c -> c <= !horizon) (Array.to_list result)) in
  Array.sort compare kept;
  kept

let latencies ~release mapping model ~timing ~seed ~data_sets =
  let result = raw_completions ~release mapping model ~timing ~seed ~data_sets in
  Array.mapi (fun ds c -> c -. release ds) result

let throughput ?warmup_fraction ?release mapping model ~timing ~seed ~data_sets =
  let series = completions ?release mapping model ~timing ~seed ~data_sets in
  Stats.Series.throughput_of_completions ?warmup_fraction series

let replicated_throughputs ?pool ?warmup_fraction ?release mapping model ~timing ~seeds ~data_sets
    =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.get () in
  Parallel.Pool.map_list pool
    (fun seed -> throughput ?warmup_fraction ?release mapping model ~timing ~seed ~data_sets)
    seeds
