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
module Kengine = Ewalk_kernel.Engine
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
  mutable walk : Snapshot.walk option;
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

let kernel_proc_of_spec = function
  | "e-process" -> Some Kengine.E_uar
  | "e-process:lowest" -> Some Kengine.E_lowest
  | "e-process:highest" -> Some Kengine.E_highest
  | "srw" -> Some Kengine.Srw
  | "rotor" -> Some Kengine.Rotor
  | _ -> None

(* Mirrors eproc's make_snapshot_walk: start vertex 0, the rng already
   advanced past the graph build.  Proto validated the spec, so the
   final wildcard is unreachable for accepted configs. *)
let build_walk (c : Proto.config) g rng =
  if c.walkers > 1 || c.mode = Proto.Competing then
    match kernel_proc_of_spec c.process with
    | None -> Error (Proto.err 400 "unknown_process" c.process)
    | Some kp ->
        let mode =
          match c.mode with
          | Proto.Cooperating -> Kengine.Cooperating
          | Proto.Competing -> Kengine.Competing
        in
        Ok
          (Snapshot.Kernel
             (Kengine.create_spread ~mode kp g rng ~walkers:c.walkers))
  else
    let start = 0 in
    match c.process with
    | "e-process" -> Ok (Snapshot.Eprocess (Ewalk.Eprocess.create g rng ~start))
    | "e-process:lowest" ->
        Ok
          (Snapshot.Eprocess
             (Ewalk.Eprocess.create ~rule:Ewalk.Eprocess.Lowest_slot g rng
                ~start))
    | "e-process:highest" ->
        Ok
          (Snapshot.Eprocess
             (Ewalk.Eprocess.create ~rule:Ewalk.Eprocess.Highest_slot g rng
                ~start))
    | "srw" -> Ok (Snapshot.Srw (Ewalk.Srw.create g rng ~start))
    | "lazy-srw" -> Ok (Snapshot.Srw (Ewalk.Srw.create_lazy g rng ~start))
    | "rotor" ->
        Ok
          (Snapshot.Rotor
             (Ewalk.Rotor.create ~randomize_rotors:true g rng ~start))
    | other -> Error (Proto.err 400 "unknown_process" other)

let walk_graph = function
  | Snapshot.Eprocess p -> (Ewalk.Eprocess.process p).Ewalk.Cover.graph
  | Snapshot.Srw w -> (Ewalk.Srw.process w).Ewalk.Cover.graph
  | Snapshot.Rotor r -> (Ewalk.Rotor.process r).Ewalk.Cover.graph
  | Snapshot.Kernel k -> Kengine.graph k

let all_walkers_covered k =
  let w = Kengine.walkers k in
  let rec go i = i >= w || (Kengine.walker_cover_step k i <> None && go (i + 1)) in
  go 0

let walk_covered = function
  | Snapshot.Eprocess p ->
      Ewalk.Coverage.all_vertices_visited (Ewalk.Eprocess.coverage p)
  | Snapshot.Srw w ->
      Ewalk.Coverage.all_vertices_visited (Ewalk.Srw.coverage w)
  | Snapshot.Rotor r ->
      Ewalk.Coverage.all_vertices_visited (Ewalk.Rotor.coverage r)
  | Snapshot.Kernel k ->
      if Kengine.mode k = Kengine.Competing then all_walkers_covered k
      else Ewalk.Coverage.all_vertices_visited (Kengine.coverage k)

let summarize_walk w =
  let coverage_counts cov =
    (Ewalk.Coverage.vertices_visited cov, Ewalk.Coverage.edges_visited cov)
  in
  let s_vertices, s_edges =
    match w with
    | Snapshot.Eprocess p -> coverage_counts (Ewalk.Eprocess.coverage p)
    | Snapshot.Srw s -> coverage_counts (Ewalk.Srw.coverage s)
    | Snapshot.Rotor r -> coverage_counts (Ewalk.Rotor.coverage r)
    | Snapshot.Kernel k ->
        if Kengine.mode k = Kengine.Competing then begin
          (* Per-walker visited sets: report the furthest walker. *)
          let v = ref 0 and e = ref 0 in
          for i = 0 to Kengine.walkers k - 1 do
            v := max !v (Kengine.walker_vertices_visited k i);
            e := max !e (Kengine.walker_edges_visited k i)
          done;
          (!v, !e)
        end
        else coverage_counts (Kengine.coverage k)
  in
  {
    s_steps = Snapshot.walk_steps w;
    s_position = Snapshot.walk_position w;
    s_covered = walk_covered w;
    s_vertices;
    s_edges;
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
  | Some w -> (
      t.hsum <- summarize_walk w;
      match Snapshot.write ~path:(snapshot_path t) w with
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
            t.walk <- Some w;
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

let step_one = function
  | Snapshot.Eprocess p -> Ewalk.Eprocess.step p
  | Snapshot.Srw s -> Ewalk.Srw.step s
  | Snapshot.Rotor r -> Ewalk.Rotor.step r
  | Snapshot.Kernel k -> Kengine.step k

let step ?pool t k =
  with_walk t @@ fun w ->
  (match w with
  | Snapshot.Eprocess p -> Ewalk.Eprocess.run_steps p k
  | Snapshot.Srw s -> Ewalk.Srw.run_steps s k
  | Snapshot.Rotor r -> for _ = 1 to k do Ewalk.Rotor.step r done
  | Snapshot.Kernel e ->
      let wk = Kengine.walkers e in
      if wk > 1 then begin
        (* Whole rounds take the engine's batched path (sharded across
           the pool in competing mode); the remainder steps stay on the
           same round-robin order, so the state sequence is identical to
           k single steps. *)
        let rounds = k / wk in
        if rounds > 0 then Kengine.run_rounds ?pool e rounds;
        for _ = 1 to k - (rounds * wk) do Kengine.step e done
      end
      else for _ = 1 to k do Kengine.step e done);
  Ok (Snapshot.walk_steps w)

let run_to_cover ?pool t ~cap =
  with_walk t @@ fun w ->
  let g = walk_graph w in
  let cap = match cap with Some c -> c | None -> Ewalk.Cover.default_cap g in
  (match w with
  | Snapshot.Eprocess p -> ignore (Ewalk.Eprocess.run_to_vertex_cover ~cap p)
  | Snapshot.Srw s -> ignore (Ewalk.Srw.run_to_vertex_cover ~cap s)
  | Snapshot.Rotor r ->
      let cov = Ewalk.Rotor.coverage r in
      while
        (not (Ewalk.Coverage.all_vertices_visited cov))
        && Ewalk.Rotor.steps r < cap
      do
        Ewalk.Rotor.step r
      done
  | Snapshot.Kernel e ->
      if Kengine.mode e = Kengine.Competing then
        ignore (Kengine.run_until_first_cover ?pool ~cap e)
      else
        let cov = Kengine.coverage e in
        while
          (not (Ewalk.Coverage.all_vertices_visited cov))
          && Kengine.steps e < cap
        do
          Kengine.step e
        done);
  Ok (Snapshot.walk_steps w)

(* -- trace streaming ------------------------------------------------------- *)

let set_observer w obs =
  match w with
  | Snapshot.Eprocess p -> Ewalk.Eprocess.set_observer p obs
  | Snapshot.Srw s -> Ewalk.Srw.set_observer s obs
  | Snapshot.Rotor r -> Ewalk.Rotor.set_observer r obs
  | Snapshot.Kernel k ->
      Kengine.set_observer k
        (Option.map (fun f -> fun ~walker:_ ev -> f ev) obs)

let stream t ~max_steps ~push =
  with_walk t @@ fun w ->
  let g = walk_graph w in
  let n = Graph.n g in
  let steps0 = Snapshot.walk_steps w in
  let start = Snapshot.walk_position w in
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
  push
    (Obs.Trace.Run_start
       { name = Snapshot.kind_name w; n; m = Graph.m g; start });
  (match Obs.Runlog.current () with
  | Some r ->
      push
        (Obs.Trace.Run_info
           {
             run_id = r.Obs.Runlog.run_id;
             parent_run_id = r.Obs.Runlog.parent_run_id;
           })
  | None -> ());
  if steps0 > 0 then push (Obs.Trace.Resume { step = steps0 });
  mark start;
  set_observer w
    (Some
       (fun ev ->
         (match ev with Obs.Trace.Step { vertex; _ } -> mark vertex | _ -> ());
         push ev));
  let stepped = ref 0 in
  Fun.protect
    ~finally:(fun () -> set_observer w None)
    (fun () ->
      while !stepped < max_steps && not (walk_covered w) do
        step_one w;
        incr stepped
      done);
  let tail_covered = !seen_count = n in
  (* A fresh stream's flag must equal the shadow's union verdict; a
     resumed stream may also assert true coverage the tail alone cannot
     show (the verifier only refutes false-with-covered-tail). *)
  let covered = tail_covered || (steps0 > 0 && walk_covered w) in
  push (Obs.Trace.Run_end { steps = Snapshot.walk_steps w; covered });
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
