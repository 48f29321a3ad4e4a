(* Policy iteration (Howard) for the maximum cycle ratio, run per strongly
   connected component.  After the zero-token-acyclicity pre-check, every
   cycle carries at least one token, so all ratios are finite. *)

exception Unbounded

type result = { ratio : float; cycle : Digraph.edge list }

let max_cycle_ratio graph =
  if not (Digraph.zero_token_acyclic graph) then raise Unbounded;
  let n = Digraph.n_nodes graph in
  let scale =
    List.fold_left (fun acc e -> max acc (abs_float e.Digraph.weight)) 1.0 (Digraph.edges graph)
  in
  let tol = 1e-10 *. scale in
  let sccs = Digraph.sccs graph in
  let component_of = Array.make n (-1) in
  List.iteri (fun c nodes -> List.iter (fun u -> component_of.(u) <- c) nodes) sccs;
  (* index of each node within its own component *)
  let local = Array.make n (-1) in
  let best = ref None in
  let record r = match !best with Some b when b.ratio >= r.ratio -> () | _ -> best := Some r in
  let solve_component nodes =
    match nodes with
    | [] -> ()
    | [ u ] when not (List.exists (fun e -> e.Digraph.dst = u) (Digraph.out_edges graph u)) ->
        () (* trivial SCC without self loop: no cycle *)
    | _ ->
        let members = Array.of_list nodes in
        Array.iteri (fun i u -> local.(u) <- i) members;
        let k = Array.length members in
        let out_edges =
          Array.map
            (fun u ->
              List.filter
                (fun e -> component_of.(e.Digraph.dst) = component_of.(u))
                (Digraph.out_edges graph u)
              |> Array.of_list)
            members
        in
        (* policy: index of the chosen edge in out_edges.(i) *)
        let policy = Array.make k 0 in
        let lambda = Array.make k neg_infinity in
        let value = Array.make k 0.0 in
        let chosen i = out_edges.(i).(policy.(i)) in
        let succ i = local.((chosen i).Digraph.dst) in
        let edge_cost lam e =
          e.Digraph.weight -. (lam *. float_of_int e.Digraph.tokens)
        in
        (* the node the last evaluation entered its best policy cycle at;
           the cycle's ratio is summed from there *)
        let best_root = ref (-1) in
        let evaluate () =
          (* find the cycles of the functional policy graph, set lambda and
             propagate values backward *)
          best_root := -1;
          let state = Array.make k 0 in
          (* 0 unseen, 1 on path, 2 done *)
          let settled = Array.make k false in
          let rec walk path i =
            if state.(i) = 1 then begin
              (* found a new cycle: unwind [path] back to i *)
              let rec cycle acc = function
                | [] -> acc
                | j :: rest -> if j = i then i :: acc else cycle (j :: acc) rest
              in
              let cycle_nodes = cycle [] path in
              let weight = ref 0.0 and tokens = ref 0 in
              List.iter
                (fun j ->
                  let e = chosen j in
                  weight := !weight +. e.Digraph.weight;
                  tokens := !tokens + e.Digraph.tokens)
                cycle_nodes;
              let lam = !weight /. float_of_int !tokens in
              if !best_root < 0 || lam > lambda.(!best_root) then best_root := i;
              (* values around the cycle: root gets 0, then propagate
                 backward along the cycle order *)
              let arr = Array.of_list cycle_nodes in
              let len = Array.length arr in
              value.(arr.(0)) <- 0.0;
              lambda.(arr.(0)) <- lam;
              settled.(arr.(0)) <- true;
              for idx = len - 1 downto 1 do
                let j = arr.(idx) in
                value.(j) <- edge_cost lam (chosen j) +. value.(arr.((idx + 1) mod len));
                lambda.(j) <- lam;
                settled.(j) <- true
              done
            end
            else if state.(i) = 0 then begin
              state.(i) <- 1;
              walk (i :: path) (succ i);
              state.(i) <- 2;
              if not settled.(i) then begin
                let j = succ i in
                lambda.(i) <- lambda.(j);
                value.(i) <- edge_cost lambda.(j) (chosen i) +. value.(j);
                settled.(i) <- true
              end
            end
          in
          for i = 0 to k - 1 do
            if state.(i) = 0 then walk [] i
          done
        in
        let improve () =
          let changed = ref false in
          for i = 0 to k - 1 do
            Array.iteri
              (fun ei e ->
                if ei <> policy.(i) then begin
                  let j = local.(e.Digraph.dst) in
                  let better_ratio = lambda.(j) > lambda.(i) +. tol in
                  let equal_ratio = abs_float (lambda.(j) -. lambda.(i)) <= tol in
                  let better_value =
                    equal_ratio && edge_cost lambda.(i) e +. value.(j) > value.(i) +. tol
                  in
                  if better_ratio || better_value then begin
                    policy.(i) <- ei;
                    changed := true
                  end
                end)
              out_edges.(i)
          done;
          !changed
        in
        let rec iterate budget =
          evaluate ();
          if budget > 0 && improve () then iterate (budget - 1)
        in
        iterate (4 * k * k);
        (* the policy is the one the last evaluation saw: read the best
           cycle's edges off it, from the node its ratio was summed from *)
        let root = !best_root in
        let rec collect i acc =
          let e = chosen i in
          let j = local.(e.Digraph.dst) in
          if j = root then List.rev (e :: acc) else collect j (e :: acc)
        in
        record { ratio = lambda.(root); cycle = collect root [] }
  in
  List.iter solve_component sccs;
  !best
