type phase = Blue | Red
type milestone = Vertices | Edges

type event =
  | Run_start of { name : string; n : int; m : int; start : int }
  | Run_info of { run_id : string; parent_run_id : string option }
  | Step of { step : int; vertex : int; edge : int; blue : bool }
  | Phase of { step : int; kind : phase; vertex : int }
  | Milestone of {
      step : int;
      kind : milestone;
      percent : int;
      count : int;
      total : int;
    }
  | Checkpoint of { step : int }
  | Resume of { step : int }
  | Run_end of { steps : int; covered : bool }

let phase_name = function Blue -> "blue" | Red -> "red"
let milestone_name = function Vertices -> "vertices" | Edges -> "edges"

let prologue ?resumed_at emit ~name ~n ~m ~start =
  emit (Run_start { name; n; m; start });
  (match Runlog.current () with
  | Some r ->
      emit
        (Run_info
           { run_id = r.Runlog.run_id; parent_run_id = r.Runlog.parent_run_id })
  | None -> ());
  Option.iter (fun step -> emit (Resume { step })) resumed_at

let event_to_json = function
  | Run_start { name; n; m; start } ->
      Json.Obj
        [
          ("type", Json.String "run_start");
          ("process", Json.String name);
          ("n", Json.Int n);
          ("m", Json.Int m);
          ("start", Json.Int start);
        ]
  | Run_info { run_id; parent_run_id } ->
      Json.Obj
        [
          ("type", Json.String "run_info");
          ("run_id", Json.String run_id);
          ( "parent_run_id",
            match parent_run_id with
            | None -> Json.Null
            | Some p -> Json.String p );
        ]
  | Step { step; vertex; edge; blue } ->
      Json.Obj
        [
          ("type", Json.String "step");
          ("step", Json.Int step);
          ("vertex", Json.Int vertex);
          ("edge", Json.Int edge);
          ("blue", Json.Bool blue);
        ]
  | Phase { step; kind; vertex } ->
      Json.Obj
        [
          ("type", Json.String "phase");
          ("step", Json.Int step);
          ("kind", Json.String (phase_name kind));
          ("vertex", Json.Int vertex);
        ]
  | Milestone { step; kind; percent; count; total } ->
      Json.Obj
        [
          ("type", Json.String "milestone");
          ("step", Json.Int step);
          ("kind", Json.String (milestone_name kind));
          ("percent", Json.Int percent);
          ("count", Json.Int count);
          ("total", Json.Int total);
        ]
  | Checkpoint { step } ->
      Json.Obj [ ("type", Json.String "checkpoint"); ("step", Json.Int step) ]
  | Resume { step } ->
      Json.Obj [ ("type", Json.String "resume"); ("step", Json.Int step) ]
  | Run_end { steps; covered } ->
      Json.Obj
        [
          ("type", Json.String "run_end");
          ("steps", Json.Int steps);
          ("covered", Json.Bool covered);
        ]

let event_to_string ev = Json.to_string (event_to_json ev)

let event_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_string_opt in
  let int name = Option.bind (Json.member name j) Json.to_int_opt in
  let bool name =
    match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None
  in
  let missing ty name =
    Error (Printf.sprintf "%s event: missing or ill-typed %S" ty name)
  in
  match str "type" with
  | None -> Error "event has no \"type\" field"
  | Some "run_start" -> (
      match (str "process", int "n", int "m", int "start") with
      | Some name, Some n, Some m, Some start ->
          Ok (Run_start { name; n; m; start })
      | None, _, _, _ -> missing "run_start" "process"
      | _, None, _, _ -> missing "run_start" "n"
      | _, _, None, _ -> missing "run_start" "m"
      | _, _, _, None -> missing "run_start" "start")
  | Some "run_info" -> (
      match str "run_id" with
      | Some run_id ->
          let parent_run_id =
            match Json.member "parent_run_id" j with
            | Some (Json.String p) -> Some p
            | _ -> None
          in
          Ok (Run_info { run_id; parent_run_id })
      | None -> missing "run_info" "run_id")
  | Some "step" -> (
      match (int "step", int "vertex", int "edge", bool "blue") with
      | Some step, Some vertex, Some edge, Some blue ->
          Ok (Step { step; vertex; edge; blue })
      | None, _, _, _ -> missing "step" "step"
      | _, None, _, _ -> missing "step" "vertex"
      | _, _, None, _ -> missing "step" "edge"
      | _, _, _, None -> missing "step" "blue")
  | Some "phase" -> (
      match (int "step", str "kind", int "vertex") with
      | Some step, Some kind_s, Some vertex -> (
          match kind_s with
          | "blue" -> Ok (Phase { step; kind = Blue; vertex })
          | "red" -> Ok (Phase { step; kind = Red; vertex })
          | other -> Error (Printf.sprintf "phase event: unknown kind %S" other))
      | None, _, _ -> missing "phase" "step"
      | _, None, _ -> missing "phase" "kind"
      | _, _, None -> missing "phase" "vertex")
  | Some "milestone" -> (
      match
        (int "step", str "kind", int "percent", int "count", int "total")
      with
      | Some step, Some kind_s, Some percent, Some count, Some total -> (
          match kind_s with
          | "vertices" ->
              Ok (Milestone { step; kind = Vertices; percent; count; total })
          | "edges" ->
              Ok (Milestone { step; kind = Edges; percent; count; total })
          | other ->
              Error (Printf.sprintf "milestone event: unknown kind %S" other))
      | None, _, _, _, _ -> missing "milestone" "step"
      | _, None, _, _, _ -> missing "milestone" "kind"
      | _, _, None, _, _ -> missing "milestone" "percent"
      | _, _, _, None, _ -> missing "milestone" "count"
      | _, _, _, _, None -> missing "milestone" "total")
  | Some "checkpoint" -> (
      match int "step" with
      | Some step -> Ok (Checkpoint { step })
      | None -> missing "checkpoint" "step")
  | Some "resume" -> (
      match int "step" with
      | Some step -> Ok (Resume { step })
      | None -> missing "resume" "step")
  | Some "run_end" -> (
      match (int "steps", bool "covered") with
      | Some steps, Some covered -> Ok (Run_end { steps; covered })
      | None, _ -> missing "run_end" "steps"
      | _, None -> missing "run_end" "covered")
  | Some other -> Error (Printf.sprintf "unknown event type %S" other)

let event_of_string s = Result.bind (Json.of_string s) event_of_json

(* Streams are read line by line (files, stdin); a parse failure must
   name the line so `verify-trace` failures point at the offending input
   instead of an anonymous fragment.  Json.of_string errors already
   carry the character offset within the line. *)
let event_of_line ~line s =
  Result.map_error
    (fun e -> Printf.sprintf "line %d: %s" line e)
    (event_of_string s)

type sink = { kind : sink_kind; emit : event -> unit; close_fn : unit -> unit }
and sink_kind = Null | Live

let emit s ev = s.emit ev
let close s = s.close_fn ()
let null = { kind = Null; emit = ignore; close_fn = ignore }
let is_null s = s.kind = Null

let of_fun ?(close = ignore) emit = { kind = Live; emit; close_fn = close }

let jsonl oc =
  of_fun
    ~close:(fun () -> flush oc)
    (fun ev ->
      output_string oc (event_to_string ev);
      output_char oc '\n')

let tee a b =
  if is_null a then b
  else if is_null b then a
  else
    of_fun
      ~close:(fun () ->
        close a;
        close b)
      (fun ev ->
        a.emit ev;
        b.emit ev)

let filter pred s =
  if is_null s then s
  else
    of_fun
      ~close:(fun () -> close s)
      (fun ev -> if pred ev then s.emit ev)

type ring = {
  buf : event array;
  capacity : int;
  mutable next : int; (* insertion index *)
  mutable seen : int;
}

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Trace.ring: capacity <= 0";
  {
    buf = Array.make capacity (Run_end { steps = 0; covered = false });
    capacity;
    next = 0;
    seen = 0;
  }

let ring_sink r =
  of_fun (fun ev ->
      r.buf.(r.next) <- ev;
      r.next <- (r.next + 1) mod r.capacity;
      r.seen <- r.seen + 1)

let ring_length r = min r.seen r.capacity
let ring_seen r = r.seen

let ring_contents r =
  let len = ring_length r in
  let first = if r.seen <= r.capacity then 0 else r.next in
  List.init len (fun i -> r.buf.((first + i) mod r.capacity))
