let schema_version = "ewalk-bench-ledger/1"

type kernel = {
  k_median_ns : float;
  k_mad_ns : float;
  k_min_ns : float;
  k_samples : int;
}

type record = {
  schema : string;
  timestamp : float;
  git_rev : string;
  scale : string;
  jobs : int;
  run_id : string; (* "" when the writing run predates provenance *)
  kernels : (string * kernel) list;
}

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> String.trim line
    | _ -> "unknown"
  with _ -> "unknown"

let make ?timestamp ?git_rev:rev ?run_id ~scale ~jobs ~kernels () =
  {
    schema = schema_version;
    timestamp =
      (match timestamp with Some t -> t | None -> Unix.gettimeofday ());
    git_rev = (match rev with Some r -> r | None -> git_rev ());
    scale;
    jobs;
    run_id =
      (match run_id with
      | Some id -> id
      | None -> Option.value (Runlog.run_id ()) ~default:"");
    kernels = List.sort (fun (a, _) (b, _) -> String.compare a b) kernels;
  }

let kernel_to_json k =
  Json.Obj
    [
      ("median_ns", Json.Float k.k_median_ns);
      ("mad_ns", Json.Float k.k_mad_ns);
      ("min_ns", Json.Float k.k_min_ns);
      ("samples", Json.Int k.k_samples);
    ]

let to_json r =
  Json.Obj
    ([
       ("schema", Json.String r.schema);
       ("timestamp", Json.Float r.timestamp);
       ("git_rev", Json.String r.git_rev);
       ("scale", Json.String r.scale);
       ("jobs", Json.Int r.jobs);
     ]
    @ (if r.run_id = "" then [] else [ ("run_id", Json.String r.run_id) ])
    @ [
        ( "kernels",
          Json.Obj (List.map (fun (n, k) -> (n, kernel_to_json k)) r.kernels)
        );
      ])

let kernel_of_json j =
  let field name =
    match Option.bind (Json.member name j) Json.to_float_opt with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "kernel entry missing %S" name)
  in
  match (field "median_ns", field "mad_ns", field "min_ns") with
  | Ok m, Ok d, Ok mn ->
      let samples =
        match Option.bind (Json.member "samples" j) Json.to_int_opt with
        | Some s -> s
        | None -> 0
      in
      Ok { k_median_ns = m; k_mad_ns = d; k_min_ns = mn; k_samples = samples }
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e

let of_json j =
  match Json.member "kernels" j with
  | Some (Json.Obj entries) ->
      let rec kernels acc = function
        | [] -> Ok (List.rev acc)
        | (name, kj) :: rest -> (
            match kernel_of_json kj with
            | Ok k -> kernels ((name, k) :: acc) rest
            | Error e -> Error (Printf.sprintf "kernel %S: %s" name e))
      in
      Result.map
        (fun ks ->
          let str name default =
            match Option.bind (Json.member name j) Json.to_string_opt with
            | Some s -> s
            | None -> default
          in
          {
            schema = str "schema" "unknown";
            timestamp =
              (match
                 Option.bind (Json.member "timestamp" j) Json.to_float_opt
               with
              | Some t -> t
              | None -> 0.0);
            git_rev = str "git_rev" "unknown";
            scale = str "scale" "unknown";
            run_id = str "run_id" "";
            jobs =
              (match Option.bind (Json.member "jobs" j) Json.to_int_opt with
              | Some n -> n
              | None -> 0);
            kernels =
              List.sort (fun (a, _) (b, _) -> String.compare a b) ks;
          })
        (kernels [] entries)
  | Some _ -> Error "\"kernels\" is not an object"
  | None -> Error "record has no \"kernels\" field"

let append ~path r =
  (* One [output_string] of the full line, flushed before close: an append
     that dies mid-way leaves at most one unterminated trailing line, which
     [read_history] skips, never an interleaved or silently-buffered one. *)
  let line = Json.to_string (to_json r) ^ "\n" in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc line;
      flush oc)

let read_file path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        Ok (really_input_string ic len))
  with Sys_error e -> Error e

let read_history ~path =
  match read_file path with
  | Error e -> Error e
  | Ok text ->
      (* A final line with no terminating newline is a truncated append (a
         crash mid-write): drop it if it no longer parses, instead of
         failing the whole history.  A terminated line that fails to parse
         is real corruption and still errors. *)
      let terminated =
        text = "" || text.[String.length text - 1] = '\n'
      in
      let lines =
        String.split_on_char '\n' text
        |> List.filter (fun l -> String.trim l <> "")
      in
      let rec go acc i = function
        | [] -> Ok (List.rev acc)
        | [ last ] when not terminated -> (
            match Result.bind (Json.of_string last) of_json with
            | Ok r -> Ok (List.rev (r :: acc))
            | Error _ -> Ok (List.rev acc))
        | line :: rest -> (
            match Result.bind (Json.of_string line) of_json with
            | Ok r -> go (r :: acc) (i + 1) rest
            | Error e ->
                Error (Printf.sprintf "%s line %d: %s" path (i + 1) e))
      in
      go [] 1 lines

let load_record path =
  if Filename.check_suffix path ".jsonl" then
    match read_history ~path with
    | Error e -> Error e
    | Ok [] -> Error (Printf.sprintf "%s: empty history" path)
    | Ok records -> Ok (List.nth records (List.length records - 1))
  else
    match read_file path with
    | Error e -> Error e
    | Ok text -> (
        match Result.bind (Json.of_string (String.trim text)) of_json with
        | Ok r -> Ok r
        | Error e -> Error (Printf.sprintf "%s: %s" path e))

type verdict = {
  v_kernel : string;
  v_base_ns : float;
  v_cand_ns : float;
  v_delta_percent : float;
  v_tolerance_percent : float;
  v_regressed : bool;
}

(* Most kernels measure nanoseconds, where up is bad; throughput kernels
   (named "...per_second...") measure rates, where down is bad. *)
let higher_is_better name =
  let sub = "per_second" in
  let n = String.length name and k = String.length sub in
  let rec at i = i + k <= n && (String.sub name i k = sub || at (i + 1)) in
  at 0

let diff ?(tolerance_mads = 6.0) ?(min_rel = 0.25) ~baseline candidate =
  List.filter_map
    (fun (name, base) ->
      match List.assoc_opt name candidate.kernels with
      | None -> None
      | Some cand ->
          let tolerance_ns =
            Float.max
              (tolerance_mads *. base.k_mad_ns)
              (min_rel *. base.k_median_ns)
          in
          let delta_ns = cand.k_median_ns -. base.k_median_ns in
          Some
            {
              v_kernel = name;
              v_base_ns = base.k_median_ns;
              v_cand_ns = cand.k_median_ns;
              v_delta_percent =
                (if base.k_median_ns > 0.0 then
                   100.0 *. delta_ns /. base.k_median_ns
                 else 0.0);
              v_tolerance_percent =
                (if base.k_median_ns > 0.0 then
                   100.0 *. tolerance_ns /. base.k_median_ns
                 else 0.0);
              v_regressed =
                (if higher_is_better name then delta_ns < -.tolerance_ns
                 else delta_ns > tolerance_ns);
            })
    baseline.kernels

let any_regression = List.exists (fun v -> v.v_regressed)
