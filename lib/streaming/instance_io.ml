let strip_comment line = match String.index_opt line '#' with None -> line | Some i -> String.sub line 0 i

let tokens_of_line line =
  strip_comment line |> String.split_on_char ' '
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let float_of s = match float_of_string_opt s with Some f -> Some f | None -> None

let floats rest =
  let parsed = List.map float_of rest in
  if List.exists (( = ) None) parsed then None
  else Some (Array.of_list (List.map Option.get parsed))

let ints rest =
  let parsed = List.map int_of_string_opt rest in
  if List.exists (( = ) None) parsed then None
  else Some (Array.of_list (List.map Option.get parsed))

(* numeric sanity is checked where the line number is still at hand, so a
   NaN three screens into a file is reported as "line 47: ...", not as a
   late [Invalid_argument] from the model constructors *)
let bad ~strict v = (not (Float.is_finite v)) || if strict then v <= 0.0 else v < 0.0
let any_bad ~strict a = Array.exists (bad ~strict) a

let parse text =
  let lines = String.split_on_char '\n' text in
  let n_stages = ref None in
  let work = ref None in
  let files = ref None in
  let n_procs = ref None in
  let speeds = ref None in
  let bw_default = ref None in
  let bw_overrides = ref [] in
  let teams = ref [] in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  List.iteri
    (fun lineno raw ->
      let lineno = lineno + 1 in
      match tokens_of_line raw with
      | [] -> ()
      | "stages" :: [ n ] -> (
          match int_of_string_opt n with
          | Some n -> n_stages := Some n
          | None -> fail (Printf.sprintf "line %d: bad stage count" lineno))
      | "processors" :: [ n ] -> (
          match int_of_string_opt n with
          | Some n -> n_procs := Some n
          | None -> fail (Printf.sprintf "line %d: bad processor count" lineno))
      | "work" :: rest -> (
          match floats rest with
          | Some a when any_bad ~strict:true a ->
              fail (Printf.sprintf "line %d: work sizes must be finite and positive" lineno)
          | Some a -> work := Some a
          | None -> fail (Printf.sprintf "line %d: bad work sizes" lineno))
      | "files" :: rest -> (
          match floats rest with
          | Some a when any_bad ~strict:false a ->
              fail (Printf.sprintf "line %d: file sizes must be finite and non-negative" lineno)
          | Some a -> files := Some a
          | None -> fail (Printf.sprintf "line %d: bad file sizes" lineno))
      | "speeds" :: rest -> (
          match floats rest with
          | Some a when any_bad ~strict:true a ->
              fail (Printf.sprintf "line %d: speeds must be finite and positive" lineno)
          | Some a -> speeds := Some a
          | None -> fail (Printf.sprintf "line %d: bad speeds" lineno))
      | [ "bandwidth"; "default"; v ] -> (
          match float_of v with
          | Some b when bad ~strict:true b ->
              fail (Printf.sprintf "line %d: default bandwidth must be finite and positive" lineno)
          | Some b -> bw_default := Some b
          | None -> fail (Printf.sprintf "line %d: bad default bandwidth" lineno))
      | [ "bandwidth"; p; q; v ] -> (
          match (int_of_string_opt p, int_of_string_opt q, float_of v) with
          | Some _, Some _, Some b when bad ~strict:true b ->
              fail (Printf.sprintf "line %d: bandwidth must be finite and positive" lineno)
          | Some p, Some q, Some b -> bw_overrides := (lineno, p, q, b) :: !bw_overrides
          | _ -> fail (Printf.sprintf "line %d: bad bandwidth override" lineno))
      | "team" :: rest -> (
          match ints rest with
          | Some a when Array.length a > 0 -> teams := a :: !teams
          | _ -> fail (Printf.sprintf "line %d: bad team" lineno))
      | keyword :: _ -> fail (Printf.sprintf "line %d: unknown keyword %s" lineno keyword))
    lines;
  match !error with
  | Some msg -> Error msg
  | None -> (
      match (!n_stages, !work, !n_procs, !speeds, !bw_default) with
      | None, _, _, _, _ -> Error "missing 'stages'"
      | _, None, _, _, _ -> Error "missing 'work'"
      | _, _, None, _, _ -> Error "missing 'processors'"
      | _, _, _, None, _ -> Error "missing 'speeds'"
      | _, _, _, _, None -> Error "missing 'bandwidth default'"
      | Some n, Some work, Some m, Some speeds, Some bw ->
          let files = match !files with Some f -> f | None -> [||] in
          let teams = Array.of_list (List.rev !teams) in
          if Array.length teams <> n then Error "need exactly one 'team' line per stage"
          else begin
            let bandwidth = Array.init m (fun _ -> Array.make m bw) in
            let range_error = ref None in
            List.iter
              (fun (lineno, p, q, b) ->
                if p >= 0 && p < m && q >= 0 && q < m then bandwidth.(p).(q) <- b
                else if !range_error = None then
                  range_error :=
                    Some
                      (Printf.sprintf
                         "line %d: bandwidth override %d %d out of range (processors %d)" lineno p
                         q m))
              (List.rev !bw_overrides);
            match !range_error with
            | Some msg -> Error msg
            | None -> (
                try
                  let app = Application.create ~work ~files in
                  let platform = Platform.create ~speeds ~bandwidth in
                  Ok (Mapping.create ~app ~platform ~teams)
                with Invalid_argument msg -> Error msg)
          end)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

(* ---- rendering ----

   One traversal writes both the canonical text and the cache key; they
   differ only in how a float is written.  The text uses the shortest
   decimal that parses back to the same float; the key uses the float's
   16 hex IEEE-754 digits, with no formatting and no reparse.  Both
   encodings are injective on the finite floats the parser admits (-0
   and 0 included), so two mappings share a key exactly when they share
   a canonical text. *)

let text_float buf v = Buffer.add_string buf (Obs.Log.exact_float v)

let hex_digits = "0123456789abcdef"

let bits_float buf v =
  let bits = Int64.bits_of_float v in
  let hi = Int64.to_int (Int64.shift_right_logical bits 32) and lo = Int64.to_int bits in
  for k = 7 downto 0 do
    Buffer.add_char buf hex_digits.[(hi lsr (4 * k)) land 15]
  done;
  for k = 7 downto 0 do
    Buffer.add_char buf hex_digits.[(lo lsr (4 * k)) land 15]
  done

(* [%d] without the C formatter; the ids and counts written here are
   small and non-negative *)
let rec add_int buf n =
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

let add_floats buf float keyword n get =
  Buffer.add_string buf keyword;
  for i = 0 to n - 1 do
    Buffer.add_char buf ' ';
    float buf (get i)
  done;
  Buffer.add_char buf '\n'

let emit_app buf float app =
  let n = Application.n_stages app in
  Buffer.add_string buf "stages ";
  add_int buf n;
  Buffer.add_char buf '\n';
  add_floats buf float "work" n (Application.work app);
  add_floats buf float "files" (n - 1) (Application.file_size app)

(* the default bandwidth is the 0 -> 1 link; every other off-diagonal
   link that differs from it gets an override line *)
let emit_platform buf float platform =
  let m = Platform.n_processors platform in
  Buffer.add_string buf "processors ";
  add_int buf m;
  Buffer.add_char buf '\n';
  add_floats buf float "speeds" m (Platform.speed platform);
  let default = Platform.bandwidth platform ~src:0 ~dst:(min 1 (m - 1)) in
  Buffer.add_string buf "bandwidth default ";
  float buf default;
  Buffer.add_char buf '\n';
  for p = 0 to m - 1 do
    for q = 0 to m - 1 do
      let b = Platform.bandwidth platform ~src:p ~dst:q in
      if p <> q && b <> default then begin
        Buffer.add_string buf "bandwidth ";
        add_int buf p;
        Buffer.add_char buf ' ';
        add_int buf q;
        Buffer.add_char buf ' ';
        float buf b;
        Buffer.add_char buf '\n'
      end
    done
  done

let emit_teams buf mapping =
  for i = 0 to Mapping.n_stages mapping - 1 do
    Buffer.add_string buf "team";
    Array.iter
      (fun p ->
        Buffer.add_char buf ' ';
        add_int buf p)
      (Mapping.team mapping i);
    Buffer.add_char buf '\n'
  done

let render float mapping =
  let buf = Buffer.create 1024 in
  emit_app buf float (Mapping.app mapping);
  emit_platform buf float (Mapping.platform mapping);
  emit_teams buf mapping;
  Buffer.contents buf

let to_string mapping = render text_float mapping
let key mapping = render bits_float mapping
let print ppf mapping = Format.pp_print_string ppf (to_string mapping)

(* ---- multi-tenant blocks (version 1) ---- *)

type tenant_decl = {
  tenant_id : string;
  weight : float;
  floor : float;
  tenant_mapping : Mapping.t;
}

(* one tenant being accumulated while its lines stream past *)
type pending = {
  p_line : int;
  p_id : string;
  p_weight : float;
  p_floor : float;
  mutable p_stages : int option;
  mutable p_work : float array option;
  mutable p_files : float array option;
  mutable p_teams : int array list;  (* reversed *)
}

let parse_multi text =
  let lines = String.split_on_char '\n' text in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let version = ref false in
  let n_procs = ref None in
  let speeds = ref None in
  let bw_default = ref None in
  let bw_overrides = ref [] in
  let pendings = ref [] in
  (* reversed *)
  let current () = match !pendings with [] -> None | t :: _ -> Some t in
  let platform_line lineno set =
    (* the shared platform is declared once, before the first tenant *)
    match current () with
    | Some _ -> fail (Printf.sprintf "line %d: platform line after the first 'tenant'" lineno)
    | None -> set ()
  in
  let tenant_line lineno keyword body =
    match current () with
    | None ->
        fail (Printf.sprintf "line %d: '%s' outside a tenant declaration" lineno keyword)
    | Some t -> body t
  in
  List.iteri
    (fun lineno raw ->
      let lineno = lineno + 1 in
      if !error = None then
        match tokens_of_line raw with
        | [] -> ()
        | [ "tenancy"; v ] ->
            if !version then fail (Printf.sprintf "line %d: duplicate 'tenancy' line" lineno)
            else if v <> "1" then
              fail
                (Printf.sprintf "line %d: unsupported tenancy version %s (this reader speaks 1)"
                   lineno v)
            else version := true
        | _ :: _ when not !version ->
            fail (Printf.sprintf "line %d: multi-tenant instances start with 'tenancy 1'" lineno)
        | "processors" :: [ n ] ->
            platform_line lineno (fun () ->
                match int_of_string_opt n with
                | Some n -> n_procs := Some n
                | None -> fail (Printf.sprintf "line %d: bad processor count" lineno))
        | "speeds" :: rest ->
            platform_line lineno (fun () ->
                match floats rest with
                | Some a when any_bad ~strict:true a ->
                    fail (Printf.sprintf "line %d: speeds must be finite and positive" lineno)
                | Some a -> speeds := Some a
                | None -> fail (Printf.sprintf "line %d: bad speeds" lineno))
        | [ "bandwidth"; "default"; v ] ->
            platform_line lineno (fun () ->
                match float_of v with
                | Some b when bad ~strict:true b ->
                    fail
                      (Printf.sprintf "line %d: default bandwidth must be finite and positive"
                         lineno)
                | Some b -> bw_default := Some b
                | None -> fail (Printf.sprintf "line %d: bad default bandwidth" lineno))
        | [ "bandwidth"; p; q; v ] ->
            platform_line lineno (fun () ->
                match (int_of_string_opt p, int_of_string_opt q, float_of v) with
                | Some _, Some _, Some b when bad ~strict:true b ->
                    fail (Printf.sprintf "line %d: bandwidth must be finite and positive" lineno)
                | Some p, Some q, Some b -> bw_overrides := (lineno, p, q, b) :: !bw_overrides
                | _ -> fail (Printf.sprintf "line %d: bad bandwidth override" lineno))
        | [ "tenant"; id; "weight"; w; "floor"; f ] -> (
            match (float_of w, float_of f) with
            | Some w, _ when bad ~strict:true w ->
                fail (Printf.sprintf "line %d: tenant weight must be finite and positive" lineno)
            | _, Some f when bad ~strict:false f ->
                fail
                  (Printf.sprintf "line %d: tenant floor must be finite and non-negative" lineno)
            | Some w, Some f ->
                pendings :=
                  {
                    p_line = lineno;
                    p_id = id;
                    p_weight = w;
                    p_floor = f;
                    p_stages = None;
                    p_work = None;
                    p_files = None;
                    p_teams = [];
                  }
                  :: !pendings
            | _ -> fail (Printf.sprintf "line %d: bad tenant weight or floor" lineno))
        | "tenant" :: _ ->
            fail (Printf.sprintf "line %d: tenant line is 'tenant ID weight W floor F'" lineno)
        | "stages" :: [ n ] ->
            tenant_line lineno "stages" (fun t ->
                match int_of_string_opt n with
                | Some n -> t.p_stages <- Some n
                | None -> fail (Printf.sprintf "line %d: bad stage count" lineno))
        | "work" :: rest ->
            tenant_line lineno "work" (fun t ->
                match floats rest with
                | Some a when any_bad ~strict:true a ->
                    fail
                      (Printf.sprintf "line %d: work sizes must be finite and positive" lineno)
                | Some a -> t.p_work <- Some a
                | None -> fail (Printf.sprintf "line %d: bad work sizes" lineno))
        | "files" :: rest ->
            tenant_line lineno "files" (fun t ->
                match floats rest with
                | Some a when any_bad ~strict:false a ->
                    fail
                      (Printf.sprintf "line %d: file sizes must be finite and non-negative"
                         lineno)
                | Some a -> t.p_files <- Some a
                | None -> fail (Printf.sprintf "line %d: bad file sizes" lineno))
        | "team" :: rest ->
            tenant_line lineno "team" (fun t ->
                match ints rest with
                | Some a when Array.length a > 0 -> t.p_teams <- a :: t.p_teams
                | _ -> fail (Printf.sprintf "line %d: bad team" lineno))
        | keyword :: _ -> fail (Printf.sprintf "line %d: unknown keyword %s" lineno keyword))
    lines;
  match !error with
  | Some msg -> Error msg
  | None -> (
      if not !version then Error "missing 'tenancy 1'"
      else
        match (!n_procs, !speeds, !bw_default) with
        | None, _, _ -> Error "missing 'processors'"
        | _, None, _ -> Error "missing 'speeds'"
        | _, _, None -> Error "missing 'bandwidth default'"
        | Some m, Some speeds, Some bw -> (
            let bandwidth = Array.init m (fun _ -> Array.make m bw) in
            let range_error = ref None in
            List.iter
              (fun (lineno, p, q, b) ->
                if p >= 0 && p < m && q >= 0 && q < m then bandwidth.(p).(q) <- b
                else if !range_error = None then
                  range_error :=
                    Some
                      (Printf.sprintf
                         "line %d: bandwidth override %d %d out of range (processors %d)" lineno
                         p q m))
              (List.rev !bw_overrides);
            match !range_error with
            | Some msg -> Error msg
            | None -> (
                match
                  let platform = Platform.create ~speeds ~bandwidth in
                  let seen = Hashtbl.create 8 in
                  List.rev !pendings
                  |> List.map (fun t ->
                         if Hashtbl.mem seen t.p_id then
                           failwith
                             (Printf.sprintf "line %d: duplicate tenant id %s" t.p_line t.p_id);
                         Hashtbl.add seen t.p_id ();
                         let ctx msg =
                           failwith (Printf.sprintf "tenant %s: %s" t.p_id msg)
                         in
                         match (t.p_stages, t.p_work) with
                         | None, _ -> ctx "missing 'stages'"
                         | _, None -> ctx "missing 'work'"
                         | Some n, Some work ->
                             let files = match t.p_files with Some f -> f | None -> [||] in
                             let teams = Array.of_list (List.rev t.p_teams) in
                             if Array.length teams <> n then
                               ctx "need exactly one 'team' line per stage"
                             else begin
                               match
                                 let app = Application.create ~work ~files in
                                 Mapping.create ~app ~platform ~teams
                               with
                               | mapping ->
                                   {
                                     tenant_id = t.p_id;
                                     weight = t.p_weight;
                                     floor = t.p_floor;
                                     tenant_mapping = mapping;
                                   }
                               | exception Invalid_argument msg -> ctx msg
                             end)
                with
                | [] -> Error "a tenancy block needs at least one tenant"
                | decls -> Ok decls
                | exception Failure msg -> Error msg
                | exception Invalid_argument msg -> Error msg)))

let parse_multi_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse_multi text
  | exception Sys_error msg -> Error msg

let shared_platform decls =
  match decls with
  | [] -> invalid_arg "Instance_io.multi_to_string: no tenants"
  | first :: rest ->
      let platform = Mapping.platform first.tenant_mapping in
      let m = Platform.n_processors platform in
      let same p =
        p == platform
        || Platform.n_processors p = m
           &&
           let ok = ref true in
           for i = 0 to m - 1 do
             if Platform.speed p i <> Platform.speed platform i then ok := false;
             for j = 0 to m - 1 do
               if
                 i <> j
                 && Platform.bandwidth p ~src:i ~dst:j
                    <> Platform.bandwidth platform ~src:i ~dst:j
               then ok := false
             done
           done;
           !ok
      in
      List.iter
        (fun d ->
          if not (same (Mapping.platform d.tenant_mapping)) then
            invalid_arg "Instance_io.multi_to_string: tenants do not share one platform")
        rest;
      platform

let render_multi float decls =
  let platform = shared_platform decls in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "tenancy 1\n";
  emit_platform buf float platform;
  List.iter
    (fun d ->
      Buffer.add_string buf "tenant ";
      Buffer.add_string buf d.tenant_id;
      Buffer.add_string buf " weight ";
      float buf d.weight;
      Buffer.add_string buf " floor ";
      float buf d.floor;
      Buffer.add_char buf '\n';
      emit_app buf float (Mapping.app d.tenant_mapping);
      emit_teams buf d.tenant_mapping)
    decls;
  Buffer.contents buf

let multi_to_string decls = render_multi text_float decls
let multi_key decls = render_multi bits_float decls
