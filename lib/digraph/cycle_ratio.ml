exception Unbounded = Howard.Unbounded

type result = Howard.result = { ratio : float; cycle : Digraph.edge list }

(* Longest-path Bellman-Ford from an implicit super source (all distances
   start at 0).  Returns a cycle whose reweighted cost exceeds [eps], if
   any.  [lambda] reweights each edge to [weight - lambda * tokens].

   Early exit: no simple path can accumulate more than the sum of the
   positive edge costs, so crossing that threshold proves a positive cycle
   without waiting for the n-th pass.  If the predecessor graph does not
   yet expose the cycle (which the theory rules out, but floating point
   does not), we fall back to the plain O(V.E) run. *)
let rec positive_cycle ?(early = true) graph ~lambda ~eps =
  let n = Digraph.n_nodes graph in
  let dist = Array.make n 0.0 in
  let pred = Array.make n None in
  let all_edges = Digraph.edges graph in
  let cost e = e.Digraph.weight -. (lambda *. float_of_int e.Digraph.tokens) in
  let threshold =
    if early then 1.0 +. List.fold_left (fun acc e -> acc +. max 0.0 (cost e)) 0.0 all_edges
    else infinity
  in
  let overflow = ref None in
  let changed = ref true in
  let passes = ref 0 in
  while !overflow = None && !changed && !passes < n do
    changed := false;
    incr passes;
    List.iter
      (fun e ->
        let candidate = dist.(e.Digraph.src) +. cost e in
        if candidate > dist.(e.Digraph.dst) +. eps then begin
          dist.(e.Digraph.dst) <- candidate;
          pred.(e.Digraph.dst) <- Some e;
          if candidate > threshold && !overflow = None then overflow := Some e.Digraph.dst;
          changed := true
        end)
      all_edges
  done;
  if !overflow = None && not !changed then None
  else begin
    let start = ref !overflow in
    List.iter
      (fun e ->
        if !start = None && dist.(e.Digraph.src) +. cost e > dist.(e.Digraph.dst) +. eps then
          start := Some e.Digraph.dst)
      all_edges;
    match !start with
    | None -> None
    | Some v0 -> (
        (* walk the predecessor chain until a vertex repeats: that vertex
           anchors a cycle of the predecessor graph *)
        let visited = Array.make n false in
        let rec find_repeat u steps =
          if visited.(u) then Some u
          else if steps > n then None
          else begin
            visited.(u) <- true;
            match pred.(u) with None -> None | Some e -> find_repeat e.Digraph.src (steps + 1)
          end
        in
        match find_repeat v0 0 with
        | Some anchor ->
            let rec collect u acc =
              match pred.(u) with
              | None -> acc
              | Some e ->
                  if e.Digraph.src = anchor then e :: acc else collect e.Digraph.src (e :: acc)
            in
            Some (collect anchor [])
        | None ->
            if early then positive_cycle ~early:false graph ~lambda ~eps
            else None)
  end

let cycle_ratio_of edges =
  let weight = List.fold_left (fun acc e -> acc +. e.Digraph.weight) 0.0 edges in
  let tokens = List.fold_left (fun acc e -> acc + e.Digraph.tokens) 0 edges in
  if tokens = 0 then raise Unbounded;
  weight /. float_of_int tokens

(* Some cycle of the graph, the oracle's witness when the max ratio is 0. *)
let any_cycle graph =
  let n = Digraph.n_nodes graph in
  let state = Array.make n 0 in
  (* 0 unvisited, 1 on stack, 2 done *)
  let found = ref None in
  let rec visit path v =
    if !found = None then begin
      state.(v) <- 1;
      List.iter
        (fun e ->
          if !found = None then
            let w = e.Digraph.dst in
            if state.(w) = 1 then begin
              let rec unwind acc = function
                | [] -> acc
                | e' :: rest ->
                    if e'.Digraph.src = w then e' :: acc else unwind (e' :: acc) rest
              in
              found := Some (unwind [] (e :: path))
            end
            else if state.(w) = 0 then visit (e :: path) w)
        (Digraph.out_edges graph v);
      state.(v) <- 2
    end
  in
  let v = ref 0 in
  while !found = None && !v < n do
    if state.(!v) = 0 then visit [] !v;
    incr v
  done;
  !found

let tolerance graph =
  let scale =
    List.fold_left (fun acc e -> max acc (abs_float e.Digraph.weight)) 1.0 (Digraph.edges graph)
  in
  (scale, 1e-9 *. scale)

(* Snap to the exact ratio of the witness cycle, then keep improving while
   a strictly better cycle exists: no positive cycle at the returned ratio
   certifies it as the maximum, up to [eps]. *)
let rec improve graph ~eps cycle =
  let r = cycle_ratio_of cycle in
  match positive_cycle graph ~lambda:r ~eps with
  | None -> { ratio = r; cycle }
  | Some better ->
      if cycle_ratio_of better > r then improve graph ~eps better else { ratio = r; cycle }

let max_cycle_ratio graph =
  match Howard.max_cycle_ratio graph with
  | None -> None
  | Some { cycle; _ } ->
      let _, eps = tolerance graph in
      Some (improve graph ~eps cycle)

let lawler_max_cycle_ratio graph =
  if not (Digraph.zero_token_acyclic graph) then raise Unbounded;
  let scale, eps = tolerance graph in
  match positive_cycle graph ~lambda:0.0 ~eps with
  | None -> (
      match any_cycle graph with
      | None -> None
      | Some cycle -> Some { ratio = 0.0; cycle })
  | Some first_cycle ->
      let hi =
        1.0
        +. List.fold_left
             (fun acc e -> acc +. max 0.0 e.Digraph.weight)
             0.0 (Digraph.edges graph)
      in
      (* Invariant: a positive cycle exists at [lo], none at [hi]. *)
      let rec search lo hi witness iterations =
        if iterations = 0 || hi -. lo <= 1e-12 *. scale then (lo, witness)
        else
          let mid = 0.5 *. (lo +. hi) in
          match positive_cycle graph ~lambda:mid ~eps with
          | Some cycle -> search mid hi cycle (iterations - 1)
          | None -> search lo mid witness (iterations - 1)
      in
      let _, witness = search 0.0 hi first_cycle 200 in
      Some (improve graph ~eps witness)

let karp_max_cycle_mean graph =
  let n = Digraph.n_nodes graph in
  if n = 0 then None
  else begin
    let d = Array.make_matrix (n + 1) n neg_infinity in
    for v = 0 to n - 1 do
      d.(0).(v) <- 0.0
    done;
    let all_edges = Digraph.edges graph in
    for k = 1 to n do
      List.iter
        (fun e ->
          let src = e.Digraph.src and dst = e.Digraph.dst in
          if d.(k - 1).(src) > neg_infinity then begin
            let candidate = d.(k - 1).(src) +. e.Digraph.weight in
            if candidate > d.(k).(dst) then d.(k).(dst) <- candidate
          end)
        all_edges
    done;
    let best = ref neg_infinity in
    for v = 0 to n - 1 do
      if d.(n).(v) > neg_infinity then begin
        let worst = ref infinity in
        for k = 0 to n - 1 do
          if d.(k).(v) > neg_infinity then begin
            let mean = (d.(n).(v) -. d.(k).(v)) /. float_of_int (n - k) in
            if mean < !worst then worst := mean
          end
        done;
        if !worst > !best then best := !worst
      end
    done;
    if !best = neg_infinity then None else Some !best
  end
