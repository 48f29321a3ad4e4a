open Streaming

let sample =
  {|# four stages on seven processors
stages    4
work      52 48 72 32
files     24 36 28
processors 7
speeds    2 0.8 1.1 0.9 1.3 0.7 1.6
bandwidth default 0.5
bandwidth 0 1 0.35        # src dst value
team 0
team 1 2
team 3 4 5
team 6
|}

let test_parse_ok () =
  match Instance_io.parse sample with
  | Error msg -> Alcotest.fail msg
  | Ok mapping ->
      Alcotest.(check int) "stages" 4 (Mapping.n_stages mapping);
      Alcotest.(check int) "processors" 7 (Mapping.n_processors mapping);
      Alcotest.(check int) "rows" 6 (Mapping.rows mapping);
      Alcotest.(check (float 1e-12)) "override bandwidth" 0.35
        (Platform.bandwidth (Mapping.platform mapping) ~src:0 ~dst:1);
      Alcotest.(check (float 1e-12)) "default bandwidth" 0.5
        (Platform.bandwidth (Mapping.platform mapping) ~src:0 ~dst:2);
      Alcotest.(check (float 1e-12)) "work" 48.0 (Application.work (Mapping.app mapping) 1)

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let expect_error fragment text =
  match Instance_io.parse text with
  | Ok _ -> Alcotest.fail ("expected parse error mentioning " ^ fragment)
  | Error msg ->
      Alcotest.(check bool) (Printf.sprintf "%S mentions %S" msg fragment) true
        (contains fragment msg)

let test_parse_errors () =
  expect_error "stages" "work 1\nprocessors 1\nspeeds 1\nbandwidth default 1\nteam 0\n";
  expect_error "unknown keyword" (sample ^ "frobnicate 3\n");
  expect_error "team" "stages 2\nwork 1 1\nfiles 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nteam 0\n";
  expect_error "bad speeds" "stages 1\nwork 1\nprocessors 1\nspeeds abc\nbandwidth default 1\nteam 0\n"

(* numeric sanity: NaN, infinities, wrong signs and dangling overrides are
   rejected with the offending line number *)
let test_parse_insane_numbers () =
  expect_error "line 2: work sizes must be finite and positive"
    "stages 1\nwork nan\nprocessors 1\nspeeds 1\nbandwidth default 1\nteam 0\n";
  expect_error "line 2: work sizes must be finite and positive"
    "stages 1\nwork -3\nprocessors 1\nspeeds 1\nbandwidth default 1\nteam 0\n";
  expect_error "line 4: speeds must be finite and positive"
    "stages 1\nwork 1\nprocessors 2\nspeeds 1 inf\nbandwidth default 1\nteam 0\n";
  expect_error "line 4: speeds must be finite and positive"
    "stages 1\nwork 1\nprocessors 1\nspeeds 0\nbandwidth default 1\nteam 0\n";
  expect_error "line 5: default bandwidth must be finite and positive"
    "stages 1\nwork 1\nprocessors 1\nspeeds 1\nbandwidth default -0.5\nteam 0\n";
  expect_error "line 6: bandwidth must be finite and positive"
    "stages 1\nwork 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nbandwidth 0 1 nan\nteam 0\n";
  expect_error "line 3: file sizes must be finite and non-negative"
    "stages 2\nwork 1 1\nfiles -1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nteam 0\nteam 1\n";
  expect_error "line 6: bandwidth override 0 7 out of range (processors 2)"
    "stages 1\nwork 1\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nbandwidth 0 7 0.5\nteam 0\n";
  (* a zero file size passes numeric validation (non-negative) but the
     model still rejects it: a zero-time communication would need an
     infinite exponential rate *)
  expect_error "communication time"
    "stages 2\nwork 1 1\nfiles 0\nprocessors 2\nspeeds 1 1\nbandwidth default 1\nteam 0\nteam 1\n"

let test_roundtrip () =
  let mapping = Workload.Scenarios.example_a in
  let text = Format.asprintf "%a" Instance_io.print mapping in
  match Instance_io.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok mapping' ->
      Alcotest.(check int) "stages" (Mapping.n_stages mapping) (Mapping.n_stages mapping');
      Alcotest.(check int) "rows" (Mapping.rows mapping) (Mapping.rows mapping');
      (* the analysis of the reparsed instance is identical *)
      List.iter
        (fun model ->
          Alcotest.(check (float 1e-9))
            (Model.to_string model)
            (Deterministic.throughput mapping model)
            (Deterministic.throughput mapping' model))
        Model.all

(* canonical rendering: [to_string] is a fixed point of [parse] — render,
   reparse, render again and the bytes are identical.  The query service
   derives its cache keys from this rendering, so two textually different
   descriptions of the same instance collide exactly when this property
   holds. *)
let qcheck_render_roundtrip =
  QCheck.Test.make ~name:"parse (to_string m) renders back byte-identically" ~count:60
    QCheck.small_int (fun seed ->
      let g = Prng.create ~seed:(9_000 + seed) in
      let params =
        {
          Workload.Gen.n_stages = 2 + (seed mod 4);
          n_procs = 6 + (seed mod 7);
          comp_range = (0.5, 20.);
          comm_range = (0.25, 10.);
          max_rows = 40;
        }
      in
      let mapping = Workload.Gen.random_mapping g params in
      let text = Instance_io.to_string mapping in
      match Instance_io.parse text with
      | Error msg -> QCheck.Test.fail_reportf "reparse failed: %s" msg
      | Ok mapping' -> String.equal text (Instance_io.to_string mapping'))

(* ---- canonical text and bit-exact keys ---- *)

(* Golden bytes of the canonical renderings: the experiment output and
   the benchmark's request texts are built from them, so the emitter may
   not change a byte.  The literal instance covers 17-digit floats,
   exponent spellings, an explicit override equal to the default, and
   real overrides. *)
let test_golden_literal () =
  let text =
    "stages 3\nwork 0.30000000000000004 1e-7 123456789012345\nfiles 2.5 1e21\nprocessors 4\n\
     speeds 1 2 0.1 3\nbandwidth default 0.5\nbandwidth 0 1 0.5\nbandwidth 2 3 0.7\n\
     bandwidth 3 2 1e-3\nteam 0\nteam 1 2\nteam 3\n"
  in
  match Instance_io.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok mapping ->
      Alcotest.(check string) "to_string"
        "stages 3\nwork 0.30000000000000004 1e-07 123456789012345\nfiles 2.5 1e+21\n\
         processors 4\nspeeds 1 2 0.1 3\nbandwidth default 0.5\nbandwidth 2 3 0.7\n\
         bandwidth 3 2 0.001\nteam 0\nteam 1 2\nteam 3\n"
        (Instance_io.to_string mapping);
      Alcotest.(check string) "print is to_string" (Instance_io.to_string mapping)
        (Format.asprintf "%a" Instance_io.print mapping)

let table1_sized seed =
  Workload.Gen.random_mapping (Prng.create ~seed)
    {
      Workload.Gen.n_stages = 5;
      n_procs = 14;
      comp_range = (0.5, 20.);
      comm_range = (0.25, 10.);
      max_rows = 60;
    }

let two_tenants seed =
  Workload.Gen.random_tenant_mix (Prng.create ~seed)
    { Workload.Gen.default_mix with mix_tenants = 2 }

(* the drawn instances render to several kilobytes (182 override lines
   for the single mapping), so they are pinned by length and MD5 *)
let check_golden what ~len ~md5 text =
  Alcotest.(check int) (what ^ " length") len (String.length text);
  Alcotest.(check string) (what ^ " md5") md5 (Digest.to_hex (Digest.string text))

let test_golden_drawn () =
  check_golden "5-stage 14-processor to_string" ~len:6665 ~md5:"6aff8cbef0bfeedef1ea381ca259df56"
    (Instance_io.to_string (table1_sized 2010));
  check_golden "2-tenant multi_to_string" ~len:2477 ~md5:"b1bde03a78b99d8fbf2ca3c17c38e81b"
    (Instance_io.multi_to_string (two_tenants 2010))

(* [mapping] rebuilt from fresh arrays, with at most one value changed *)
type tweak = Same | Diagonal of int | Speed of int | Work of int | Link of int * int

let rebuild mapping tweak =
  let app = Mapping.app mapping and platform = Mapping.platform mapping in
  let n = Application.n_stages app and m = Platform.n_processors platform in
  let work = Array.init n (Application.work app) in
  let files = Array.init (n - 1) (Application.file_size app) in
  let speeds = Array.init m (Platform.speed platform) in
  let bandwidth =
    Array.init m (fun p -> Array.init m (fun q -> Platform.bandwidth platform ~src:p ~dst:q))
  in
  (match tweak with
  | Same -> ()
  | Diagonal p -> bandwidth.(p).(p) <- 2.0 *. bandwidth.(p).(p)
  | Speed p -> speeds.(p) <- Float.succ speeds.(p)
  | Work i -> work.(i) <- Float.succ work.(i)
  | Link (p, q) -> bandwidth.(p).(q) <- Float.succ bandwidth.(p).(q));
  Mapping.create ~app:(Application.create ~work ~files)
    ~platform:(Platform.create ~speeds ~bandwidth)
    ~teams:(Array.init n (Mapping.team mapping))

let with_first_floor floor = function
  | [] -> []
  | d :: rest -> { d with Instance_io.floor } :: rest

(* The cache and the ring key on [key], the canonical text is what
   round-trips: the two must induce the same equivalence.  Pairs are
   equal rebuilds, a changed diagonal (not part of the instance
   content), one-ulp perturbations of a speed, a work size or a link,
   and tenant floors 0 vs -0 (file sizes cannot carry the signed zero:
   [Mapping.create] rejects zero-byte files). *)
let qcheck_key_equivalence =
  QCheck.Test.make ~name:"key m1 = key m2 <=> to_string m1 = to_string m2" ~count:200
    ~long_factor:50
    QCheck.(triple (int_bound 1_000_000) (int_bound 5) (pair small_nat small_nat))
    (fun (seed, kind, (i, j)) ->
      let renderings same render key a b = (same, render a, render b, key a, key b) in
      let same, text_a, text_b, key_a, key_b =
        if kind = 5 then
          let decls = two_tenants seed in
          renderings false Instance_io.multi_to_string Instance_io.multi_key
            (with_first_floor 0.0 decls) (with_first_floor (-0.0) decls)
        else begin
          let g = Prng.create ~seed:(17_000 + seed) in
          let n = 2 + (seed mod 4) and m = 6 + (seed mod 9) in
          let mapping =
            Workload.Gen.random_mapping g
              {
                Workload.Gen.n_stages = n;
                n_procs = m;
                comp_range = (0.5, 20.);
                comm_range = (0.25, 10.);
                max_rows = 60;
              }
          in
          let p = i mod m in
          let tweak, same =
            match kind with
            | 0 -> (Same, true)
            | 1 -> (Diagonal p, true)
            | 2 -> (Speed p, false)
            | 3 -> (Work (i mod n), false)
            | _ -> (Link (p, (p + 1 + (j mod (m - 1))) mod m), false)
          in
          renderings same Instance_io.to_string Instance_io.key mapping (rebuild mapping tweak)
        end
      in
      let texts_equal = String.equal text_a text_b and keys_equal = String.equal key_a key_b in
      if keys_equal <> texts_equal then
        QCheck.Test.fail_reportf "keys equal: %b, texts equal: %b" keys_equal texts_equal
      else if keys_equal <> same then
        QCheck.Test.fail_reportf "expected %s renderings" (if same then "equal" else "distinct")
      else true)

let engine_key text =
  match
    Service.Engine.prepare
      {
        Service.Engine.instance = text;
        model = Model.Overlap;
        law = Service.Engine.Exponential;
        cap = Service.Engine.default_cap;
        wall = None;
        sweeps = None;
        states = None;
        simulate = false;
      }
  with
  | Ok p -> p.Service.Engine.key
  | Error msg -> Alcotest.fail msg

(* spellings of one instance share one cache key; one ulp does not *)
let test_spelling_variants () =
  let base =
    "stages 2\nwork 5.5 3\nfiles 2\nprocessors 3\nspeeds 1 2 1.5\nbandwidth default 0.5\n\
     bandwidth 1 2 0.25\nbandwidth 2 0 0.75\nteam 0\nteam 1 2\n"
  in
  let key = engine_key base in
  List.iter
    (fun (what, text) -> Alcotest.(check string) what key (engine_key text))
    [
      ( "tabs and comments",
        "# two stages\nstages\t2\nwork 5.5\t 3   # trailing\n\nfiles 2\nprocessors\t3\n\
         speeds 1 2 1.5\nbandwidth default 0.5\nbandwidth 1 2 0.25\nbandwidth 2 0 0.75\n\
         team 0 # first\nteam\t1 2\n" );
      ( "5.50 vs 5.5",
        "stages 2\nwork 5.50 3.0e0\nfiles 2.\nprocessors 3\nspeeds 1 2 1.5\n\
         bandwidth default 0.5\nbandwidth 1 2 0.25\nbandwidth 2 0 0.75\nteam 0\nteam 1 2\n" );
      ( "reordered lines",
        "processors 3\nbandwidth 2 0 0.75\nbandwidth default 0.5\nteam 0\nbandwidth 1 2 0.25\n\
         speeds 1 2 1.5\nfiles 2\nteam 1 2\nwork 5.5 3\nstages 2\n" );
      ("override equal to the default", base ^ "bandwidth 0 2 0.5\n");
      ("diagonal override", base ^ "bandwidth 1 1 9\n");
    ];
  let one_ulp =
    "stages 2\nwork 5.5000000000000009 3\nfiles 2\nprocessors 3\nspeeds 1 2 1.5\n\
     bandwidth default 0.5\nbandwidth 1 2 0.25\nbandwidth 2 0 0.75\nteam 0\nteam 1 2\n"
  in
  Alcotest.(check bool) "one ulp apart is a different key" false (String.equal key (engine_key one_ulp))

(* Engine keys share a long prefix (parameters, stage count, unit work
   and file sizes); the word-wise ring hash must still spread them *)
let test_ring_balance_on_engine_keys () =
  let workers = 3 in
  let ring = Cluster.Ring.create workers in
  let counts = Array.make workers 0 in
  let n = 256 in
  for seed = 1 to n do
    let w = Cluster.Ring.lookup ring (engine_key (Instance_io.to_string (table1_sized seed))) in
    counts.(w) <- counts.(w) + 1
  done;
  Array.iteri
    (fun w c ->
      let share = float_of_int c /. float_of_int n in
      Alcotest.(check bool)
        (Printf.sprintf "worker %d share %.3f within [0.2, 0.5]" w share)
        true
        (share >= 0.2 && share <= 0.5))
    counts

let test_parse_file_missing () =
  match Instance_io.parse_file "/nonexistent/instance.txt" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

(* Example C (§5.2): stages replicated (5,21,27,11).  The second
   communication (21 senders, 27 receivers) must decompose into g=3
   components, each made of 55 copies of a 7x9 pattern whose marking chain
   has S(7,9) states. *)
let test_example_c_structure () =
  let sizes = Workload.Scenarios.example_c_teams in
  let n_procs = Array.fold_left ( + ) 0 sizes in
  let app = Application.uniform ~n:4 ~work:1.0 ~file:1.0 in
  let platform = Platform.fully_connected ~speeds:(Array.make n_procs 1.0) ~bw:1.0 in
  let teams =
    let next = ref 0 in
    Array.map
      (fun size ->
        let t = Array.init size (fun k -> !next + k) in
        next := !next + size;
        t)
      sizes
  in
  let mapping = Mapping.create ~app ~platform ~teams in
  Alcotest.(check int) "m = lcm(5,21,27,11)" 10395 (Mapping.rows mapping);
  let comms =
    List.filter_map
      (function Columns.Communication c when c.Columns.file = 1 -> Some c | _ -> None)
      (Columns.components mapping)
  in
  Alcotest.(check int) "g = 3 components" 3 (List.length comms);
  List.iter
    (fun c ->
      Alcotest.(check int) "u = 7" 7 c.Columns.u;
      Alcotest.(check int) "v = 9" 9 c.Columns.v;
      (* rows per component = copies * u * v with 55 copies *)
      Alcotest.(check int) "55 copies of the 7x9 pattern" (55 * 7 * 9) (10395 / 3))
    comms;
  Alcotest.(check int) "S(7,9) = C(15,6) * 9" (5005 * 9) (Young.Combin.state_count ~u:7 ~v:9);
  (* homogeneous network: Theorem 4 end to end on example C *)
  let rho = Expo.overlap_throughput mapping in
  (* with unit times everywhere the bottleneck is the (5,21) communication:
     a single component with inner throughput 5*21/(5+21-1) = 4.2, below
     stage 1's aggregate rate 5 and every other column *)
  Alcotest.(check (float 1e-9)) "rho = 4.2 (Theorem 4 on example C)" 4.2 rho

let () =
  Alcotest.run "instance_io"
    [
      ( "parse",
        [
          Alcotest.test_case "ok" `Quick test_parse_ok;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "insane numbers" `Quick test_parse_insane_numbers;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_render_roundtrip;
          Alcotest.test_case "missing file" `Quick test_parse_file_missing;
        ] );
      ( "keys",
        [
          Alcotest.test_case "golden literal" `Quick test_golden_literal;
          Alcotest.test_case "golden drawn" `Quick test_golden_drawn;
          QCheck_alcotest.to_alcotest qcheck_key_equivalence;
          Alcotest.test_case "spelling variants" `Quick test_spelling_variants;
          Alcotest.test_case "ring balance" `Quick test_ring_balance_on_engine_keys;
        ] );
      ("example C", [ Alcotest.test_case "structure" `Quick test_example_c_structure ]);
    ]
