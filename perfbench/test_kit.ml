(* Tests of the benchmark's own pieces: the Zipf sampler, nearest-rank
   percentiles, layer-sum arithmetic and BENCHMARK.json itself. *)

let close ?(eps = 1e-12) a b = Float.abs (a -. b) <= eps

let draws ~seed z n =
  let g = Prng.create ~seed in
  List.init n (fun _ -> Kit.zipf_draw z g)

let zipf_same_seed () =
  let z = Kit.zipf ~n:4096 ~s:1.0 in
  Alcotest.(check (list int)) "same seed, same stream" (draws ~seed:11 z 2000) (draws ~seed:11 z 2000);
  Alcotest.(check bool) "another seed, another stream" true (draws ~seed:11 z 2000 <> draws ~seed:12 z 2000)

let zipf_masses () =
  let n = 4096 in
  let z = Kit.zipf ~n ~s:1.0 in
  let total = List.fold_left (fun acc k -> acc +. Kit.zipf_mass z k) 0.0 (List.init n Fun.id) in
  Alcotest.(check bool) "masses sum to one" true (close ~eps:1e-9 total 1.0);
  let h = List.fold_left (fun acc k -> acc +. (1.0 /. float_of_int (k + 1))) 0.0 (List.init n Fun.id) in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d has mass 1/((k+1) H_n)" k)
        true
        (close ~eps:1e-12 (Kit.zipf_mass z k) (1.0 /. (float_of_int (k + 1) *. h))))
    [ 0; 1; 9; 255; 4095 ];
  (* empirical frequencies of the head ranks *)
  let m = 200_000 in
  let counts = Array.make n 0 in
  List.iter (fun k -> counts.(k) <- counts.(k) + 1) (draws ~seed:3 z m);
  List.iter
    (fun k ->
      let freq = float_of_int counts.(k) /. float_of_int m in
      Alcotest.(check bool) (Printf.sprintf "rank %d frequency %.4f" k freq) true
        (Float.abs (freq -. Kit.zipf_mass z k) < 0.004))
    [ 0; 1; 2; 10 ];
  let u = Kit.zipf ~n:4 ~s:0.0 in
  Alcotest.(check bool) "s = 0 is uniform" true (close (Kit.zipf_mass u 3) 0.25);
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument "Kit.zipf: need n >= 1 and s >= 0") (fun () ->
      ignore (Kit.zipf ~n:0 ~s:1.0))

let quantiles () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let q p = Kit.nearest_rank xs p in
  Alcotest.(check (float 0.0)) "p0 is the minimum" 1.0 (q 0.0);
  Alcotest.(check (float 0.0)) "p50 of 1..10" 5.0 (q 0.5);
  Alcotest.(check (float 0.0)) "p90 of 1..10" 9.0 (q 0.9);
  Alcotest.(check (float 0.0)) "p99 of 1..10" 10.0 (q 0.99);
  Alcotest.(check (float 0.0)) "p100 is the maximum" 10.0 (q 1.0);
  Alcotest.(check (float 0.0)) "median of unsorted" 3.0 (Kit.median [| 5.; 1.; 3.; 4.; 2. |]);
  Alcotest.(check (float 0.0)) "one sample" 7.0 (Kit.nearest_rank [| 7.0 |] 0.99);
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Kit.beyond ~n:1000 0.99);
  Alcotest.(check bool) "p99 of 1000 is reportable" true (Kit.reportable ~n:1000 0.99);
  Alcotest.(check int) "999 samples: 9 beyond p99" 9 (Kit.beyond ~n:999 0.99);
  Alcotest.(check bool) "p99 of 999 is not" false (Kit.reportable ~n:999 0.99);
  Alcotest.(check bool) "p90 of 100 is reportable" true (Kit.reportable ~n:100 0.9);
  Alcotest.(check bool) "p99 of 100 is not" false (Kit.reportable ~n:100 0.99)

let layer_sums () =
  let r = Kit.reconcile ~tolerance:0.1 ~total:6.6 [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check (float 1e-12)) "parts" 6.0 r.Kit.parts;
  Alcotest.(check (float 1e-12)) "residual" 0.6 r.residual;
  Alcotest.(check (float 1e-12)) "residual share" (0.6 /. 6.6) r.residual_frac;
  Alcotest.(check bool) "9.1% is within 10%" true r.within;
  let r = Kit.reconcile ~tolerance:0.05 ~total:6.6 [ 1.0; 2.0; 3.0 ] in
  Alcotest.(check bool) "9.1% is outside 5%" false r.within;
  let r = Kit.reconcile ~tolerance:0.1 ~total:5.0 [ 4.0; 2.0 ] in
  Alcotest.(check (float 1e-12)) "parts above the total" (-0.2) r.residual_frac;
  Alcotest.(check bool) "-20% is outside 10%" false r.within

let read path = In_channel.with_open_bin path In_channel.input_all

let benchmark_json () =
  let text = read "../BENCHMARK.json" in
  (match Kit.check_benchmark_json text with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e));
  Alcotest.(check bool) "at most 16 end-to-end" true (List.length Kit.end_to_end <= 16);
  Alcotest.(check bool) "at most 128 per-layer" true (List.length Kit.per_layer <= 128);
  let replace ~sub ~by s =
    let i = Option.get (List.find_opt (fun i -> String.sub s i (String.length sub) = sub)
                          (List.init (String.length s - String.length sub + 1) Fun.id)) in
    String.sub s 0 i ^ by ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)
  in
  let rejects what t =
    Alcotest.(check bool) what true (Result.is_error (Kit.check_benchmark_json t))
  in
  rejects "a name with a space" (replace ~sub:"\"cpu_ms_per_op\"" ~by:"\"cpu ms\"" text);
  rejects "a bound above 0.25" (replace ~sub:"0.24" ~by:"0.3" text);
  rejects "a renamed workload" (replace ~sub:"\"query_zipf\"" ~by:"\"zipf\"" text);
  rejects "not JSON" "{";
  List.iter
    (fun (s, ok) -> Alcotest.(check bool) ("name " ^ s) ok (Kit.valid_name s))
    [ ("service.lru.find_us.query_hot", true); ("9x", true); ("_x", false); ("a b", false); ("", false);
      (String.make 65 'a', false); ("a/b", false) ];
  List.iter
    (fun (s, ok) -> Alcotest.(check bool) ("unit " ^ s) ok (Kit.valid_unit s))
    [ ("1/s", true); ("%", true); ("ms", true); ("a b", false); (String.make 17 's', false) ]

let registry_ids () =
  Alcotest.(check (list string)) "one layer per registry entry"
    (List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all)
    Kit.registry_ids

let () =
  Alcotest.run "perfbench"
    [
      ( "zipf",
        [
          Alcotest.test_case "same seed, same stream" `Quick zipf_same_seed;
          Alcotest.test_case "rank masses" `Quick zipf_masses;
        ] );
      ("quantiles", [ Alcotest.test_case "nearest rank and the 10-beyond rule" `Quick quantiles ]);
      ("layer sums", [ Alcotest.test_case "residual arithmetic" `Quick layer_sums ]);
      ( "catalogue",
        [
          Alcotest.test_case "BENCHMARK.json" `Quick benchmark_json;
          Alcotest.test_case "registry ids" `Quick registry_ids;
        ] );
    ]
