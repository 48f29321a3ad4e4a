open Graphs

let check_float tol = Alcotest.(check (float tol))

let add g src dst weight tokens = Digraph.add_edge g ~src ~dst ~weight ~tokens ()

let test_topo_dag () =
  let g = Digraph.create 4 in
  add g 0 1 0.0 0;
  add g 1 2 0.0 0;
  add g 0 3 0.0 0;
  add g 3 2 0.0 0;
  match Digraph.topological_order g with
  | None -> Alcotest.fail "expected a topological order"
  | Some order ->
      let pos = Array.make 4 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      Alcotest.(check bool) "0 before 1" true (pos.(0) < pos.(1));
      Alcotest.(check bool) "1 before 2" true (pos.(1) < pos.(2));
      Alcotest.(check bool) "3 before 2" true (pos.(3) < pos.(2))

let test_topo_cycle () =
  let g = Digraph.create 2 in
  add g 0 1 0.0 0;
  add g 1 0 0.0 0;
  Alcotest.(check bool) "cycle has no topo order" true (Digraph.topological_order g = None)

let test_zero_token_acyclic () =
  let g = Digraph.create 2 in
  add g 0 1 0.0 0;
  add g 1 0 0.0 1;
  Alcotest.(check bool) "token breaks the cycle" true (Digraph.zero_token_acyclic g);
  let g2 = Digraph.create 2 in
  add g2 0 1 0.0 0;
  add g2 1 0 0.0 0;
  Alcotest.(check bool) "tokenless cycle detected" false (Digraph.zero_token_acyclic g2)

let test_sccs_known () =
  let g = Digraph.create 5 in
  add g 0 1 0.0 0;
  add g 1 2 0.0 0;
  add g 2 0 0.0 0;
  add g 2 3 0.0 0;
  add g 3 4 0.0 0;
  let sccs = List.map (List.sort compare) (Digraph.sccs g) in
  let sorted = List.sort compare sccs in
  Alcotest.(check (list (list int))) "components" [ [ 0; 1; 2 ]; [ 3 ]; [ 4 ] ] sorted

let qcheck_sccs_partition =
  QCheck.Test.make ~name:"SCCs partition the nodes" ~count:200
    QCheck.(pair (int_range 1 20) small_int)
    (fun (n, seed) ->
      let g = Digraph.create n in
      let rng = Prng.create ~seed:(seed + 3) in
      for _ = 1 to 3 * n do
        add g (Prng.int rng n) (Prng.int rng n) 0.0 0
      done;
      let all = List.concat (Digraph.sccs g) in
      List.length all = n && List.sort compare all = List.init n Fun.id)

let test_reachable () =
  let g = Digraph.create 4 in
  add g 0 1 0.0 0;
  add g 1 2 0.0 0;
  let r = Digraph.reachable g 0 in
  Alcotest.(check bool) "0 reaches 2" true r.(2);
  Alcotest.(check bool) "0 does not reach 3" false r.(3)

(* -- cycle ratios -- *)

let test_self_loop_ratio () =
  let g = Digraph.create 1 in
  add g 0 0 5.0 1;
  match Cycle_ratio.max_cycle_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some { Cycle_ratio.ratio; cycle } ->
      check_float 1e-9 "ratio" 5.0 ratio;
      Alcotest.(check int) "cycle length" 1 (List.length cycle)

let test_two_cycles_max () =
  let g = Digraph.create 4 in
  (* cycle A: 0->1->0 with total weight 6, 1 token -> ratio 6 *)
  add g 0 1 2.0 0;
  add g 1 0 4.0 1;
  (* cycle B: 2->3->2 with total weight 10, 2 tokens -> ratio 5 *)
  add g 2 3 5.0 1;
  add g 3 2 5.0 1;
  match Cycle_ratio.max_cycle_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some { Cycle_ratio.ratio; _ } -> check_float 1e-9 "max ratio" 6.0 ratio

let test_tokens_divide_ratio () =
  let g = Digraph.create 2 in
  add g 0 1 3.0 1;
  add g 1 0 3.0 1;
  match Cycle_ratio.max_cycle_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some { Cycle_ratio.ratio; _ } -> check_float 1e-9 "ratio 6/2" 3.0 ratio

let test_unbounded () =
  let g = Digraph.create 2 in
  add g 0 1 1.0 0;
  add g 1 0 1.0 0;
  Alcotest.check_raises "zero-token cycle" Cycle_ratio.Unbounded (fun () ->
      ignore (Cycle_ratio.max_cycle_ratio g))

let test_acyclic_none () =
  let g = Digraph.create 3 in
  add g 0 1 1.0 0;
  add g 1 2 1.0 1;
  Alcotest.(check bool) "acyclic" true (Cycle_ratio.max_cycle_ratio g = None)

let test_witness_consistency () =
  let g = Digraph.create 3 in
  add g 0 1 1.0 1;
  add g 1 2 2.0 0;
  add g 2 0 3.5 1;
  match Cycle_ratio.max_cycle_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some { Cycle_ratio.ratio; cycle } ->
      let weight = List.fold_left (fun acc e -> acc +. e.Digraph.weight) 0.0 cycle in
      let tokens = List.fold_left (fun acc e -> acc + e.Digraph.tokens) 0 cycle in
      check_float 1e-9 "witness ratio matches" ratio (weight /. float_of_int tokens);
      check_float 1e-9 "ratio value" 3.25 ratio

let random_unit_token_graph rng n =
  let g = Digraph.create n in
  (* guarantee at least one cycle *)
  for v = 0 to n - 1 do
    add g v ((v + 1) mod n) (Prng.uniform rng 0.0 10.0) 1
  done;
  for _ = 1 to 2 * n do
    add g (Prng.int rng n) (Prng.int rng n) (Prng.uniform rng 0.0 10.0) 1
  done;
  g

let qcheck_karp_matches_lawler =
  QCheck.Test.make ~name:"Karp cycle mean = Lawler ratio on unit-token graphs" ~count:150
    QCheck.(pair (int_range 2 12) small_int)
    (fun (n, seed) ->
      let rng = Prng.create ~seed:(seed + 31) in
      let g = random_unit_token_graph rng n in
      match
        ( Cycle_ratio.max_cycle_ratio g,
          Cycle_ratio.lawler_max_cycle_ratio g,
          Cycle_ratio.karp_max_cycle_mean g )
      with
      | Some production, Some oracle, Some mean ->
          abs_float (production.Cycle_ratio.ratio -. mean) < 1e-6
          && abs_float (oracle.Cycle_ratio.ratio -. mean) < 1e-6
      | _ -> false)

let qcheck_ratio_scale_invariance =
  QCheck.Test.make ~name:"scaling weights scales the ratio" ~count:100
    QCheck.(pair (int_range 2 10) small_int)
    (fun (n, seed) ->
      let rng = Prng.create ~seed:(seed + 47) in
      let g = random_unit_token_graph rng n in
      let factor = 3.0 in
      let g2 = Digraph.create n in
      List.iter
        (fun e ->
          Digraph.add_edge g2 ~src:e.Digraph.src ~dst:e.Digraph.dst
            ~weight:(factor *. e.Digraph.weight) ~tokens:e.Digraph.tokens ())
        (Digraph.edges g);
      match (Cycle_ratio.max_cycle_ratio g, Cycle_ratio.max_cycle_ratio g2) with
      | Some a, Some b -> abs_float ((factor *. a.Cycle_ratio.ratio) -. b.Cycle_ratio.ratio) < 1e-6
      | _ -> false)

(* -- Howard policy iteration: the production search, checked against the
   Lawler bisection oracle -- *)

let howard_check = Alcotest.(check (float 1e-6))

let test_howard_self_loop () =
  let g = Digraph.create 1 in
  add g 0 0 5.0 1;
  match Howard.max_cycle_ratio g with
  | None -> Alcotest.fail "expected a cycle"
  | Some r -> howard_check "self loop" 5.0 r.Howard.ratio

let test_howard_acyclic () =
  let g = Digraph.create 2 in
  add g 0 1 3.0 1;
  Alcotest.(check bool) "acyclic" true (Howard.max_cycle_ratio g = None)

let test_howard_unbounded () =
  let g = Digraph.create 2 in
  add g 0 1 1.0 0;
  add g 1 0 1.0 0;
  Alcotest.check_raises "zero-token cycle" Cycle_ratio.Unbounded (fun () ->
      ignore (Howard.max_cycle_ratio g))

let test_howard_two_components () =
  let g = Digraph.create 4 in
  add g 0 1 2.0 1;
  add g 1 0 2.0 1;
  add g 2 3 9.0 1;
  add g 3 2 1.0 1;
  match Howard.max_cycle_ratio g with
  | None -> Alcotest.fail "expected cycles"
  | Some r -> howard_check "max over components" 5.0 r.Howard.ratio

(* a tokened backbone cycle plus random chords; [None] when a chord
   closes a zero-token cycle *)
let random_token_graph rng n =
  let g = Digraph.create n in
  for v = 0 to n - 1 do
    add g v ((v + 1) mod n) (Prng.uniform rng 0.0 10.0) 1
  done;
  for _ = 1 to 3 * n do
    add g (Prng.int rng n) (Prng.int rng n) (Prng.uniform rng 0.0 10.0) (Prng.int rng 3)
  done;
  if Digraph.zero_token_acyclic g then Some g else None

let qcheck_howard_matches_lawler =
  QCheck.Test.make ~name:"Howard = Lawler on random token graphs" ~count:200
    QCheck.(pair (int_range 2 14) small_int)
    (fun (n, seed) ->
      match random_token_graph (Prng.create ~seed:(seed + 77)) n with
      | None -> QCheck.assume_fail ()
      | Some g -> (
          match (Cycle_ratio.max_cycle_ratio g, Cycle_ratio.lawler_max_cycle_ratio g) with
          | Some h, Some { Cycle_ratio.ratio; _ } ->
              abs_float (h.Cycle_ratio.ratio -. ratio) < 1e-6 *. (1.0 +. ratio)
          | None, None -> true
          | _ -> false))

(* the witness is a cycle of the graph, and the ratio is its own *)
let qcheck_witness_is_a_closed_walk =
  QCheck.Test.make ~name:"critical cycle is a closed walk with the exact ratio" ~count:200
    QCheck.(pair (int_range 1 14) small_int)
    (fun (n, seed) ->
      match random_token_graph (Prng.create ~seed:(seed + 5)) n with
      | None -> QCheck.assume_fail ()
      | Some g -> (
          match Cycle_ratio.max_cycle_ratio g with
          | None -> false
          | Some { Cycle_ratio.ratio; cycle } ->
              let edges = Digraph.edges g in
              let rec chained = function
                | a :: (b :: _ as rest) -> a.Digraph.dst = b.Digraph.src && chained rest
                | _ -> true
              in
              cycle <> []
              && List.for_all (fun e -> List.mem e edges) cycle
              && chained cycle
              && (List.nth cycle (List.length cycle - 1)).Digraph.dst = (List.hd cycle).Digraph.src
              && Int64.equal
                   (Int64.bits_of_float (Cycle_ratio.cycle_ratio_of cycle))
                   (Int64.bits_of_float ratio)))

let tpn_graph mapping model =
  Petrinet.Teg.to_digraph (Streaming.Tpn.teg (Streaming.Tpn.build mapping model))

let qcheck_howard_on_tpns =
  QCheck.Test.make ~name:"Howard agrees with Lawler on mapping TPNs" ~count:20 QCheck.small_int
    (fun seed ->
      let rng = Prng.create ~seed:(seed + 3000) in
      let mapping =
        Workload.Gen.random_mapping rng
          {
            Workload.Gen.n_stages = 2 + Prng.int rng 3;
            n_procs = 6 + Prng.int rng 5;
            comp_range = (5.0, 15.0);
            comm_range = (5.0, 15.0);
            max_rows = 40;
          }
      in
      List.for_all
        (fun model ->
          let g = tpn_graph mapping model in
          match (Cycle_ratio.max_cycle_ratio g, Cycle_ratio.lawler_max_cycle_ratio g) with
          | Some h, Some { Cycle_ratio.ratio; _ } ->
              abs_float (h.Cycle_ratio.ratio -. ratio) < 1e-6 *. ratio
          | _ -> false)
        Streaming.Model.all)

(* the sizes the Table 1 reproduction solves: its six configurations (up
   to 20 stages), at most 60 rows, both models *)
let qcheck_table1_sizes =
  let sets = Array.of_list Workload.Gen.table1_sets in
  QCheck.Test.make ~name:"production = Lawler oracle at Table 1 sizes" ~count:12
    QCheck.(pair (int_bound (Array.length sets - 1)) small_int)
    (fun (set, seed) ->
      let _, params = sets.(set) in
      let mapping =
        Workload.Gen.random_mapping
          (Prng.create ~seed:(seed + 1010))
          { params with Workload.Gen.max_rows = 60 }
      in
      List.for_all
        (fun model ->
          let g = tpn_graph mapping model in
          match (Cycle_ratio.max_cycle_ratio g, Cycle_ratio.lawler_max_cycle_ratio g) with
          | Some h, Some { Cycle_ratio.ratio; _ } ->
              abs_float (h.Cycle_ratio.ratio -. ratio) <= 1e-9 *. ratio
          | _ -> false)
        Streaming.Model.all)

let () =
  Alcotest.run "graphs"
    [
      ( "structure",
        [
          Alcotest.test_case "topological order" `Quick test_topo_dag;
          Alcotest.test_case "topo detects cycles" `Quick test_topo_cycle;
          Alcotest.test_case "zero-token acyclicity" `Quick test_zero_token_acyclic;
          Alcotest.test_case "sccs known" `Quick test_sccs_known;
          Alcotest.test_case "reachable" `Quick test_reachable;
          QCheck_alcotest.to_alcotest qcheck_sccs_partition;
        ] );
      ( "cycle ratio",
        [
          Alcotest.test_case "self loop" `Quick test_self_loop_ratio;
          Alcotest.test_case "max of two cycles" `Quick test_two_cycles_max;
          Alcotest.test_case "tokens divide" `Quick test_tokens_divide_ratio;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "acyclic" `Quick test_acyclic_none;
          Alcotest.test_case "witness consistency" `Quick test_witness_consistency;
          QCheck_alcotest.to_alcotest qcheck_karp_matches_lawler;
          QCheck_alcotest.to_alcotest qcheck_ratio_scale_invariance;
          QCheck_alcotest.to_alcotest qcheck_witness_is_a_closed_walk;
          QCheck_alcotest.to_alcotest qcheck_table1_sizes;
        ] );
      ( "howard",
        [
          Alcotest.test_case "self loop" `Quick test_howard_self_loop;
          Alcotest.test_case "acyclic" `Quick test_howard_acyclic;
          Alcotest.test_case "unbounded" `Quick test_howard_unbounded;
          Alcotest.test_case "two components" `Quick test_howard_two_components;
          QCheck_alcotest.to_alcotest qcheck_howard_matches_lawler;
          QCheck_alcotest.to_alcotest qcheck_howard_on_tpns;
        ] );
    ]
