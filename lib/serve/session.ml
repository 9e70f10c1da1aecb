(* Session mechanics: walk construction, stepping, trace streaming, and
   the hibernate/rehydrate round trip.  The correctness contract is
   bit-identity: hibernating and rehydrating between any two operations
   must not change any subsequent state or event byte — Snapshot
   round-trips guarantee the walk state, and observers are attached only
   for the duration of a stream call, so the fast stepping paths stay
   observer-free (and competing rounds remain pool-shardable). *)

open Ewalk_graph
module Obs = Ewalk_obs
module Json = Obs.Json
module Rng = Ewalk_prng.Rng
module Engine = Ewalk.Engine
module Snapshot = Ewalk_resume.Snapshot

type summary = {
  s_steps : int;
  s_position : int;
  s_covered : bool;
  s_vertices : int;
  s_edges : int;
}

type t = {
  sid : string;
  cfg : Proto.config;
  dir : string;
  mutable walk : Engine.t option;
  mutable hsum : summary;  (* last known state; authoritative when hibernated *)
  mutable lru : int;
}

let id t = t.sid
let config t = t.cfg
let resident t = t.walk <> None
let last_used t = t.lru
let touch t ~tick = t.lru <- tick
let snapshot_path t = Filename.concat t.dir "snapshot.json"
let meta_path t = Filename.concat t.dir "session.json"

(* -- walk construction ----------------------------------------------------- *)

(* The walk eproc builds for the same spec, from the rng already advanced
   past the graph build.  Proto validated the spec, so the [None] branch
   is unreachable for accepted configs. *)
let build_walk (c : Proto.config) g rng =
  match Engine.proc_of_spec c.process with
  | None -> Error (Proto.err 400 "unknown_process" c.process)
  | Some proc ->
      let mode =
        match c.mode with
        | Proto.Cooperating -> Engine.Cooperating
        | Proto.Competing -> Engine.Competing
      in
      Ok (Engine.build ~mode proc g rng ~walkers:c.walkers)

(* Loops over the walkers' coverages: the shared one in cooperating mode,
   each walker's own in competing mode.  A walk is covered once every
   coverage is; it reports its furthest coverage. *)
let walk_covered e =
  let rec go i =
    i >= Engine.walkers e
    || (Ewalk.Coverage.all_vertices_visited (Engine.walker_coverage e i)
       && go (i + 1))
  in
  go 0

let summarize_walk e =
  let v = ref 0 and d = ref 0 in
  for i = 0 to Engine.walkers e - 1 do
    let cov = Engine.walker_coverage e i in
    v := max !v (Ewalk.Coverage.vertices_visited cov);
    d := max !d (Ewalk.Coverage.edges_visited cov)
  done;
  {
    s_steps = Engine.steps e;
    s_position = Engine.position e;
    s_covered = walk_covered e;
    s_vertices = !v;
    s_edges = !d;
  }

let summarize t =
  match t.walk with Some w -> summarize_walk w | None -> t.hsum

(* -- meta file ------------------------------------------------------------- *)

let meta_schema = "eprocd-session/1"

let summary_to_json s =
  Json.Obj
    [
      ("steps", Json.Int s.s_steps);
      ("position", Json.Int s.s_position);
      ("covered", Json.Bool s.s_covered);
      ("vertices_visited", Json.Int s.s_vertices);
      ("edges_visited", Json.Int s.s_edges);
    ]

let summary_of_json j =
  match
    ( Option.bind (Json.member "steps" j) Json.to_int_opt,
      Option.bind (Json.member "position" j) Json.to_int_opt,
      Json.member "covered" j,
      Option.bind (Json.member "vertices_visited" j) Json.to_int_opt,
      Option.bind (Json.member "edges_visited" j) Json.to_int_opt )
  with
  | Some s_steps, Some s_position, Some covered, Some s_vertices, Some s_edges
    ->
      let s_covered = match covered with Json.Bool b -> b | _ -> false in
      Some { s_steps; s_position; s_covered; s_vertices; s_edges }
  | _ -> None

let write_meta t =
  let j =
    Json.Obj
      [
        ("schema", Json.String meta_schema);
        ("id", Json.String t.sid);
        ("config", Proto.config_to_json t.cfg);
        ("summary", summary_to_json (summarize t));
      ]
  in
  let tmp = meta_path t ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp (meta_path t)

let meta_of_json j =
  match Json.member "schema" j with
  | Some (Json.String s) when s = meta_schema -> (
      match (Json.member "config" j, Json.member "summary" j) with
      | Some cj, Some sj -> (
          (* Recovery re-validates against a generous bound; the daemon's
             own cap applied when the session was created. *)
          match
            (Proto.config_of_json ~max_n:max_int cj, summary_of_json sj)
          with
          | Ok c, Some s -> Some (c, s)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* -- lifecycle ------------------------------------------------------------- *)

let zero_summary = { s_steps = 0; s_position = 0; s_covered = false; s_vertices = 1; s_edges = 0 }

let create ~id ~dir ~graph ~rng cfg =
  match build_walk cfg graph rng with
  | Error e -> Error e
  | Ok w ->
      let t = { sid = id; cfg; dir; walk = Some w; hsum = zero_summary; lru = 0 } in
      (try write_meta t
       with Sys_error m -> prerr_endline ("eprocd: meta write failed: " ^ m));
      Ok t

let recover ~id ~dir cfg sum =
  { sid = id; cfg; dir; walk = None; hsum = sum; lru = 0 }

let hibernate t =
  match t.walk with
  | None -> Ok ()
  | Some e -> (
      t.hsum <- summarize_walk e;
      match Snapshot.write ~path:(snapshot_path t) (Snapshot.of_engine e) with
      | Error e ->
          Error (Proto.internal ("snapshot write: " ^ Snapshot.error_to_string e))
      | Ok () ->
          t.walk <- None;
          (try write_meta t
           with Sys_error m ->
             prerr_endline ("eprocd: meta write failed: " ^ m));
          Ok ())

let materialize t ~graph ~rng =
  match t.walk with
  | Some _ -> Ok ()
  | None ->
      if Sys.file_exists (snapshot_path t) then (
        match Snapshot.read graph ~path:(snapshot_path t) with
        | Error (Snapshot.Mismatch _ as e) ->
            (* A well-formed snapshot this build cannot resume (e.g. one
               written under an older coupling): the session's state is
               intact on disk, so say so rather than report a fault. *)
            Error
              (Proto.err 409 "snapshot_mismatch"
                 ("snapshot read: " ^ Snapshot.error_to_string e))
        | Error e ->
            Error
              (Proto.internal ("snapshot read: " ^ Snapshot.error_to_string e))
        | Ok w ->
            t.walk <- Some (Snapshot.engine w);
            Ok ())
      else (
        (* Recovered session that never hibernated: its walk never left
           step 0, so rebuilding from the seed is exact. *)
        match build_walk t.cfg graph rng with
        | Error e -> Error e
        | Ok w ->
            t.walk <- Some w;
            Ok ())

let not_resident = Proto.internal "session not resident"

let with_walk t f =
  match t.walk with None -> Error not_resident | Some w -> f w

(* -- stepping -------------------------------------------------------------- *)

let step ?pool t k =
  with_walk t @@ fun e ->
  (* Whole rounds take the engine's batched path (sharded across the pool
     in competing mode); the remainder steps stay on the same round-robin
     order, so the state sequence is identical to k single steps. *)
  let wk = Engine.walkers e in
  let rounds = k / wk in
  if rounds > 0 then Engine.run_rounds ?pool e rounds;
  for _ = 1 to k - (rounds * wk) do
    Engine.step e
  done;
  Ok (Engine.steps e)

let run_to_cover ?pool t ~cap =
  with_walk t @@ fun e ->
  let cap =
    match cap with Some c -> c | None -> Ewalk.Cover.default_cap (Engine.graph e)
  in
  (match Engine.mode e with
  | Engine.Competing -> ignore (Engine.run_until_first_cover ?pool ~cap e)
  | Engine.Cooperating -> ignore (Engine.run_to_vertex_cover ~cap e));
  Ok (Engine.steps e)

(* -- trace streaming ------------------------------------------------------- *)

let stream t ~max_steps ~push =
  with_walk t @@ fun e ->
  let g = Engine.graph e in
  let n = Graph.n g in
  let steps0 = Engine.steps e in
  let start = Engine.position e in
  (* Track exactly what a replay shadow of this stream sees, so the
     run_end covered flag can never contradict it: the start vertex plus
     every streamed step vertex. *)
  let seen = Bytes.make n '\000' in
  let seen_count = ref 0 in
  let mark v =
    if v >= 0 && v < n && Bytes.get seen v = '\000' then begin
      Bytes.set seen v '\001';
      incr seen_count
    end
  in
  Obs.Trace.prologue push
    ?resumed_at:(if steps0 > 0 then Some steps0 else None)
    ~name:(Engine.name e) ~n ~m:(Graph.m g) ~start;
  mark start;
  Engine.set_observer e
    (Some
       (fun ~walker:_ ev ->
         (match ev with Obs.Trace.Step { vertex; _ } -> mark vertex | _ -> ());
         push ev));
  let stepped = ref 0 in
  Fun.protect
    ~finally:(fun () -> Engine.set_observer e None)
    (fun () ->
      while !stepped < max_steps && not (walk_covered e) do
        Engine.step e;
        incr stepped
      done);
  let tail_covered = !seen_count = n in
  (* A fresh stream's flag must equal the shadow's union verdict; a
     resumed stream may also assert true coverage the tail alone cannot
     show (the verifier only refutes false-with-covered-tail). *)
  let covered = tail_covered || (steps0 > 0 && walk_covered e) in
  push (Obs.Trace.Run_end { steps = Engine.steps e; covered });
  Ok !stepped

(* -- info / delete --------------------------------------------------------- *)

let info_json t =
  let s = summarize t in
  Json.Obj
    [
      ("id", Json.String t.sid);
      ("config", Proto.config_to_json t.cfg);
      ("resident", Json.Bool (resident t));
      ("steps", Json.Int s.s_steps);
      ("position", Json.Int s.s_position);
      ("covered", Json.Bool s.s_covered);
      ("vertices_visited", Json.Int s.s_vertices);
      ("edges_visited", Json.Int s.s_edges);
    ]

let delete t =
  t.walk <- None;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ snapshot_path t; meta_path t; meta_path t ^ ".tmp" ];
  try Unix.rmdir t.dir with Unix.Unix_error _ -> ()
