open Ewalk_graph
module Json = Ewalk_obs.Json
module Kengine = Ewalk_kernel.Engine

let schema = "ewalk-snapshot/2"
let schema_v1 = "ewalk-snapshot/1"

type walk =
  | Eprocess of Ewalk.Eprocess.t
  | Srw of Ewalk.Srw.t
  | Rotor of Ewalk.Rotor.t
  | Kernel of Kengine.t

let kind_name = function
  | Eprocess p -> (Ewalk.Eprocess.process p).Ewalk.Cover.name
  | Srw w -> (Ewalk.Srw.process w).Ewalk.Cover.name
  | Rotor r -> (Ewalk.Rotor.process r).Ewalk.Cover.name
  | Kernel k -> Kengine.name k

let walk_steps = function
  | Eprocess p -> Ewalk.Eprocess.steps p
  | Srw w -> Ewalk.Srw.steps w
  | Rotor r -> Ewalk.Rotor.steps r
  | Kernel k -> Kengine.steps k

let walk_position = function
  | Eprocess p -> Ewalk.Eprocess.position p
  | Srw w -> Ewalk.Srw.position w
  | Rotor r -> Ewalk.Rotor.position r
  | Kernel k -> Kengine.position k

type error = Io of string | Corrupt of string | Mismatch of string

let error_to_string = function
  | Io msg -> "io error: " ^ msg
  | Corrupt msg -> "corrupt snapshot: " ^ msg
  | Mismatch msg -> "snapshot mismatch: " ^ msg

(* ------------------------------------------------------------------ *)
(* Encoding *)

let int_array a = Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

(* PRNG words are full unsigned 64-bit values; OCaml's [Json.Int] carries
   63-bit ints, so the words travel as hex strings. *)
let rng_words words =
  Json.List
    (Array.to_list
       (Array.map (fun w -> Json.String (Printf.sprintf "0x%Lx" w)) words))

let coverage_json (s : Ewalk.Coverage.state) =
  Json.Obj
    [
      ("vertex_first", int_array s.s_vertex_first);
      ("edge_first", int_array s.s_edge_first);
      ("visits", int_array s.s_visits);
      ("edge_count", int_array s.s_edge_count);
      ("vertices_seen", Json.Int s.s_vertices_seen);
      ("edges_seen", Json.Int s.s_edges_seen);
      ("vertex_cover_step", Json.Int s.s_vertex_cover_step);
      ("edge_cover_step", Json.Int s.s_edge_cover_step);
    ]

let phase_kind_name = function
  | Ewalk.Eprocess.Blue -> "blue"
  | Ewalk.Eprocess.Red -> "red"

let phase_json (p : Ewalk.Eprocess.phase) =
  Json.Obj
    [
      ("kind", Json.String (phase_kind_name p.kind));
      ("start_step", Json.Int p.start_step);
      ("start_vertex", Json.Int p.start_vertex);
      ("end_step", Json.Int p.end_step);
      ("end_vertex", Json.Int p.end_vertex);
    ]

let graph_fields g =
  [ ("n", Json.Int (Graph.n g)); ("m", Json.Int (Graph.m g)) ]

let payload_of_walk walk =
  match walk with
  | Eprocess p ->
      let ck = Ewalk.Eprocess.checkpoint p in
      Json.Obj
        ([ ("kind", Json.String "eprocess") ]
        @ graph_fields (Ewalk.Eprocess.graph p)
        @ [
            ( "rule",
              Json.String
                (match ck.ck_rule with
                | `Uar -> "uar"
                | `Lowest_slot -> "lowest-slot"
                | `Highest_slot -> "highest-slot") );
            ("pos", Json.Int ck.ck_pos);
            ("steps", Json.Int ck.ck_steps);
            ("blue_steps", Json.Int ck.ck_blue_steps);
            ("red_steps", Json.Int ck.ck_red_steps);
            ("rng", rng_words ck.ck_rng);
            ("coverage", coverage_json ck.ck_coverage);
            ("record_phases", Json.Bool ck.ck_record_phases);
            ( "current_phase",
              match ck.ck_current_phase with
              | None -> Json.Null
              | Some (kind, start_step, start_vertex) ->
                  Json.Obj
                    [
                      ("kind", Json.String (phase_kind_name kind));
                      ("start_step", Json.Int start_step);
                      ("start_vertex", Json.Int start_vertex);
                    ] );
            ("phases", Json.List (List.map phase_json ck.ck_phases));
          ])
  | Srw w ->
      let ck = Ewalk.Srw.checkpoint w in
      Json.Obj
        ([
           ( "kind",
             Json.String
               (match ck.ck_kind with `Simple -> "srw" | `Lazy -> "lazy-srw")
           );
         ]
        @ graph_fields (Ewalk.Srw.graph w)
        @ [
            ("pos", Json.Int ck.ck_pos);
            ("steps", Json.Int ck.ck_steps);
            ("rng", rng_words ck.ck_rng);
            ("coverage", coverage_json ck.ck_coverage);
          ])
  | Rotor r ->
      let ck = Ewalk.Rotor.checkpoint r in
      Json.Obj
        ([ ("kind", Json.String "rotor") ]
        @ graph_fields (Ewalk.Rotor.graph r)
        @ [
            ("pos", Json.Int ck.ck_pos);
            ("steps", Json.Int ck.ck_steps);
            ("rotor", int_array ck.ck_rotor);
            ("coverage", coverage_json ck.ck_coverage);
          ])
  | Kernel k when Kengine.mode k = Kengine.Competing ->
      (* Competing engines carry per-walker bit-packed visited sets; the
         bitsets travel as hex strings and the derived visit counters ride
         along for inspectability ([describe] cross-checks them). *)
      let ck = Kengine.checkpoint_competing k in
      let kernel_phase_kind = function
        | Kengine.Blue -> "blue"
        | Kengine.Red -> "red"
      in
      let phase_cell = function
        | None -> Json.Null
        | Some (kind, start_step, start_vertex) ->
            Json.Obj
              [
                ("kind", Json.String (kernel_phase_kind kind));
                ("start_step", Json.Int start_step);
                ("start_vertex", Json.Int start_vertex);
              ]
      in
      let bitsets a =
        Json.List
          (Array.to_list
             (Array.map (fun b -> Json.String (Ewalk.Bitset.to_hex b)) a))
      in
      Json.Obj
        ([ ("kind", Json.String "kernel-competing") ]
        @ graph_fields (Kengine.graph k)
        @ [
            ( "proc",
              Json.String
                (match ck.Kengine.cc_proc with
                | Kengine.E_uar -> "e-uar"
                | Kengine.E_lowest -> "e-lowest"
                | Kengine.E_highest -> "e-highest"
                | Kengine.Srw -> "srw"
                | Kengine.Rotor -> "rotor") );
            ("walkers", Json.Int (Array.length ck.Kengine.cc_pos));
            ("pos", int_array ck.Kengine.cc_pos);
            ("cursor", Json.Int ck.Kengine.cc_cursor);
            ( "steps",
              Json.Int (Array.fold_left ( + ) 0 ck.Kengine.cc_wsteps) );
            ("wsteps", int_array ck.Kengine.cc_wsteps);
            ("wblue", int_array ck.Kengine.cc_wblue);
            ("wred", int_array ck.Kengine.cc_wred);
            ("prng", rng_words ck.Kengine.cc_prng);
            ("visited", bitsets ck.Kengine.cc_visited);
            ("vseen", bitsets ck.Kengine.cc_vseen);
            ("vcount", int_array ck.Kengine.cc_vcount);
            ("ecount", int_array ck.Kengine.cc_ecount);
            ("cover_at", int_array ck.Kengine.cc_cover_at);
            ( "rotor",
              match ck.Kengine.cc_rotor with
              | None -> Json.Null
              | Some r -> int_array r );
            ( "phase",
              Json.List
                (Array.to_list (Array.map phase_cell ck.Kengine.cc_phase)) );
          ])
  | Kernel k ->
      let ck = Kengine.checkpoint k in
      let kernel_phase_kind = function
        | Kengine.Blue -> "blue"
        | Kengine.Red -> "red"
      in
      let phase_cell = function
        | None -> Json.Null
        | Some (kind, start_step, start_vertex) ->
            Json.Obj
              [
                ("kind", Json.String (kernel_phase_kind kind));
                ("start_step", Json.Int start_step);
                ("start_vertex", Json.Int start_vertex);
              ]
      in
      Json.Obj
        ([ ("kind", Json.String "kernel") ]
        @ graph_fields (Kengine.graph k)
        @ [
            ( "proc",
              Json.String
                (match ck.Kengine.ck_proc with
                | Kengine.E_uar -> "e-uar"
                | Kengine.E_lowest -> "e-lowest"
                | Kengine.E_highest -> "e-highest"
                | Kengine.Srw -> "srw"
                | Kengine.Rotor -> "rotor") );
            ("walkers", Json.Int (Array.length ck.Kengine.ck_pos));
            ("pos", int_array ck.Kengine.ck_pos);
            ("cursor", Json.Int ck.Kengine.ck_cursor);
            ("steps", Json.Int ck.Kengine.ck_steps);
            ("wsteps", int_array ck.Kengine.ck_wsteps);
            ("wblue", int_array ck.Kengine.ck_wblue);
            ("wred", int_array ck.Kengine.ck_wred);
            ("prng", rng_words ck.Kengine.ck_prng);
            ("coverage", coverage_json ck.Kengine.ck_coverage);
            ( "rotor",
              match ck.Kengine.ck_rotor with
              | None -> Json.Null
              | Some r -> int_array r );
            ( "phase",
              Json.List
                (Array.to_list (Array.map phase_cell ck.Kengine.ck_phase)) );
          ])

(* ------------------------------------------------------------------ *)
(* Decoding *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let get_int name j =
  match Json.to_int_opt (field name j) with
  | Some i -> i
  | None -> fail "field %S is not an integer" name

let get_string name j =
  match Json.to_string_opt (field name j) with
  | Some s -> s
  | None -> fail "field %S is not a string" name

let get_bool name j =
  match field name j with
  | Json.Bool b -> b
  | _ -> fail "field %S is not a boolean" name

let get_int_array name j =
  match field name j with
  | Json.List l ->
      Array.of_list
        (List.map
           (fun v ->
             match Json.to_int_opt v with
             | Some i -> i
             | None -> fail "field %S has a non-integer entry" name)
           l)
  | _ -> fail "field %S is not an array" name

let get_rng_words name j =
  match field name j with
  | Json.List l ->
      Array.of_list
        (List.map
           (fun v ->
             match Json.to_string_opt v with
             | Some s -> (
                 match Int64.of_string_opt s with
                 | Some w -> w
                 | None -> fail "field %S has a malformed word %S" name s)
             | None -> fail "field %S has a non-string entry" name)
           l)
  | _ -> fail "field %S is not an array" name

let coverage_of_json j : Ewalk.Coverage.state =
  {
    s_vertex_first = get_int_array "vertex_first" j;
    s_edge_first = get_int_array "edge_first" j;
    s_visits = get_int_array "visits" j;
    s_edge_count = get_int_array "edge_count" j;
    s_vertices_seen = get_int "vertices_seen" j;
    s_edges_seen = get_int "edges_seen" j;
    s_vertex_cover_step = get_int "vertex_cover_step" j;
    s_edge_cover_step = get_int "edge_cover_step" j;
  }

(* Snapshots written while the E-process kept its visited edges in a swap
   partition carry that partition as an [unvisited] section.  Their UAR
   draws indexed the partition's private slot order, so continuing one
   under adjacency-order marks would silently change its trajectory:
   refuse it instead. *)
let carries_partition j =
  match Json.member "unvisited" j with None | Some Json.Null -> false | Some _ -> true

let partition_refusal =
  "payload carries an \"unvisited\" section: it was written under the \
   swap-partition coupling and cannot resume draw-for-draw"

let refuse_partition j = if carries_partition j then raise (Bad partition_refusal)

let phase_kind_of_string name = function
  | "blue" -> Ewalk.Eprocess.Blue
  | "red" -> Ewalk.Eprocess.Red
  | other -> fail "field %S has unknown phase kind %S" name other

let phase_of_json j : Ewalk.Eprocess.phase =
  {
    kind = phase_kind_of_string "phases" (get_string "kind" j);
    start_step = get_int "start_step" j;
    start_vertex = get_int "start_vertex" j;
    end_step = get_int "end_step" j;
    end_vertex = get_int "end_vertex" j;
  }

let walk_of_payload g j =
  let n = get_int "n" j and m = get_int "m" j in
  if n <> Graph.n g || m <> Graph.m g then
    raise
      (Bad
         (Printf.sprintf
            "recorded on a graph with n=%d m=%d, but the given graph has \
             n=%d m=%d"
            n m (Graph.n g) (Graph.m g)));
  match get_string "kind" j with
  | "eprocess" ->
      refuse_partition j;
      let ck : Ewalk.Eprocess.checkpoint =
        {
          ck_rule =
            (match get_string "rule" j with
            | "uar" -> `Uar
            | "lowest-slot" -> `Lowest_slot
            | "highest-slot" -> `Highest_slot
            | other -> fail "unknown e-process rule %S" other);
          ck_pos = get_int "pos" j;
          ck_steps = get_int "steps" j;
          ck_blue_steps = get_int "blue_steps" j;
          ck_red_steps = get_int "red_steps" j;
          ck_rng = get_rng_words "rng" j;
          ck_coverage = coverage_of_json (field "coverage" j);
          ck_record_phases = get_bool "record_phases" j;
          ck_current_phase =
            (match field "current_phase" j with
            | Json.Null -> None
            | p ->
                Some
                  ( phase_kind_of_string "current_phase" (get_string "kind" p),
                    get_int "start_step" p,
                    get_int "start_vertex" p ));
          ck_phases =
            (match field "phases" j with
            | Json.List l -> List.map phase_of_json l
            | _ -> fail "field \"phases\" is not an array");
        }
      in
      Eprocess (Ewalk.Eprocess.of_checkpoint g ck)
  | ("srw" | "lazy-srw") as kind ->
      let ck : Ewalk.Srw.checkpoint =
        {
          ck_kind = (if kind = "srw" then `Simple else `Lazy);
          ck_pos = get_int "pos" j;
          ck_steps = get_int "steps" j;
          ck_rng = get_rng_words "rng" j;
          ck_coverage = coverage_of_json (field "coverage" j);
        }
      in
      Srw (Ewalk.Srw.of_checkpoint g ck)
  | "rotor" ->
      let ck : Ewalk.Rotor.checkpoint =
        {
          ck_pos = get_int "pos" j;
          ck_steps = get_int "steps" j;
          ck_rotor = get_int_array "rotor" j;
          ck_coverage = coverage_of_json (field "coverage" j);
        }
      in
      Rotor (Ewalk.Rotor.of_checkpoint g ck)
  | "kernel" ->
      refuse_partition j;
      let proc =
        match get_string "proc" j with
        | "e-uar" -> Kengine.E_uar
        | "e-lowest" -> Kengine.E_lowest
        | "e-highest" -> Kengine.E_highest
        | "srw" -> Kengine.Srw
        | "rotor" -> Kengine.Rotor
        | other -> fail "unknown kernel proc %S" other
      in
      let kernel_phase_kind name = function
        | "blue" -> Kengine.Blue
        | "red" -> Kengine.Red
        | other -> fail "field %S has unknown phase kind %S" name other
      in
      let phase =
        match field "phase" j with
        | Json.List l ->
            Array.of_list
              (List.map
                 (fun p ->
                   match p with
                   | Json.Null -> None
                   | p ->
                       Some
                         ( kernel_phase_kind "phase" (get_string "kind" p),
                           get_int "start_step" p,
                           get_int "start_vertex" p ))
                 l)
        | _ -> fail "field \"phase\" is not an array"
      in
      let ck : Kengine.checkpoint =
        {
          ck_proc = proc;
          ck_pos = get_int_array "pos" j;
          ck_cursor = get_int "cursor" j;
          ck_steps = get_int "steps" j;
          ck_wsteps = get_int_array "wsteps" j;
          ck_wblue = get_int_array "wblue" j;
          ck_wred = get_int_array "wred" j;
          ck_prng = get_rng_words "prng" j;
          ck_coverage = coverage_of_json (field "coverage" j);
          ck_rotor =
            (match field "rotor" j with
            | Json.Null -> None
            | _ -> Some (get_int_array "rotor" j));
          ck_phase = phase;
        }
      in
      let w = Array.length ck.Kengine.ck_pos in
      if Array.length phase <> w then
        fail "field \"phase\" has %d entries for %d walkers"
          (Array.length phase) w;
      Kernel (Kengine.of_checkpoint g ck)
  | "kernel-competing" ->
      let proc =
        match get_string "proc" j with
        | "e-uar" -> Kengine.E_uar
        | "e-lowest" -> Kengine.E_lowest
        | "e-highest" -> Kengine.E_highest
        | "srw" -> Kengine.Srw
        | "rotor" -> Kengine.Rotor
        | other -> fail "unknown kernel proc %S" other
      in
      let kernel_phase_kind name = function
        | "blue" -> Kengine.Blue
        | "red" -> Kengine.Red
        | other -> fail "field %S has unknown phase kind %S" name other
      in
      let phase =
        match field "phase" j with
        | Json.List l ->
            Array.of_list
              (List.map
                 (fun p ->
                   match p with
                   | Json.Null -> None
                   | p ->
                       Some
                         ( kernel_phase_kind "phase" (get_string "kind" p),
                           get_int "start_step" p,
                           get_int "start_vertex" p ))
                 l)
        | _ -> fail "field \"phase\" is not an array"
      in
      let bitsets name ~len =
        match field name j with
        | Json.List l ->
            Array.of_list
              (List.map
                 (fun v ->
                   match Json.to_string_opt v with
                   | Some hex -> (
                       try Ewalk.Bitset.of_hex ~len hex
                       with Invalid_argument msg ->
                         fail "field %S: %s" name msg)
                   | None -> fail "field %S has a non-string entry" name)
                 l)
        | _ -> fail "field %S is not an array" name
      in
      let ck : Kengine.competing_checkpoint =
        {
          cc_proc = proc;
          cc_pos = get_int_array "pos" j;
          cc_cursor = get_int "cursor" j;
          cc_wsteps = get_int_array "wsteps" j;
          cc_wblue = get_int_array "wblue" j;
          cc_wred = get_int_array "wred" j;
          cc_prng = get_rng_words "prng" j;
          cc_visited = bitsets "visited" ~len:(Graph.m g);
          cc_vseen = bitsets "vseen" ~len:(Graph.n g);
          cc_vcount = get_int_array "vcount" j;
          cc_ecount = get_int_array "ecount" j;
          cc_cover_at = get_int_array "cover_at" j;
          cc_rotor =
            (match field "rotor" j with
            | Json.Null -> None
            | _ -> Some (get_int_array "rotor" j));
          cc_phase = phase;
        }
      in
      Kernel (Kengine.of_checkpoint_competing g ck)
  | other -> fail "unknown walk kind %S" other

(* ------------------------------------------------------------------ *)
(* Files *)

let write ~path walk =
  let payload = Json.to_string (payload_of_walk walk) in
  let crc = Crc32.to_hex (Crc32.string payload) in
  (* Run provenance lives in the header, next to the schema tag: the CRC
     covers the payload bytes only, so stamping the id does not disturb
     the walk-state checksum, and v1 readers that checked the payload
     alone never see it. *)
  let provenance =
    match Ewalk_obs.Runlog.current () with
    | None -> ""
    | Some r ->
        Printf.sprintf "\"run_id\":%s,\"parent_run_id\":%s,"
          (Json.to_string (Json.String r.Ewalk_obs.Runlog.run_id))
          (match r.Ewalk_obs.Runlog.parent_run_id with
          | None -> "null"
          | Some p -> Json.to_string (Json.String p))
  in
  let line =
    Printf.sprintf "{\"schema\":%s,%s\"crc32\":\"%s\",\"payload\":%s}"
      (Json.to_string (Json.String schema))
      provenance crc payload
  in
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    (try
       output_string oc line;
       output_char oc '\n';
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp path;
    Ok ()
  with Sys_error msg -> Error (Io msg)

(* CRC-verify the file and hand back the payload.  The checksum covers the
   payload's serialized bytes: the reader re-serializes the parsed payload,
   which is byte-identical to what the writer hashed because the JSON
   serializer is deterministic and snapshot payloads carry no floats. *)
(* Run provenance from the header.  A v2 header carries [run_id] (and
   optionally [parent_run_id]); both must be well-formed ids or the file
   is rejected as tampered.  A v1 header (or a v2 writer with no ambient
   run) carries none — a stable legacy id is synthesized from the payload
   bytes so every snapshot still joins to {e some} id. *)
let provenance_of_header doc ~payload_str =
  match Json.member "run_id" doc with
  | None ->
      Ok
        {
          Ewalk_obs.Runlog.run_id =
            Ewalk_obs.Runlog.synthesize_legacy payload_str;
          parent_run_id = None;
        }
  | Some (Json.String id) when Ewalk_obs.Runlog.validate_id id -> (
      match Json.member "parent_run_id" doc with
      | None | Some Json.Null ->
          Ok { Ewalk_obs.Runlog.run_id = id; parent_run_id = None }
      | Some (Json.String p) when Ewalk_obs.Runlog.validate_id p ->
          Ok { Ewalk_obs.Runlog.run_id = id; parent_run_id = Some p }
      | Some _ -> Error (Corrupt "malformed parent_run_id field"))
  | Some _ -> Error (Corrupt "malformed run_id field")

let read_payload ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  with
  | exception Sys_error msg -> Error (Io msg)
  | raw -> (
      match Json.of_string raw with
      | Error msg -> Error (Corrupt ("not a JSON document: " ^ msg))
      | Ok doc -> (
          match Option.bind (Json.member "schema" doc) Json.to_string_opt with
          | None -> Error (Corrupt "no schema tag")
          | Some s when s <> schema && s <> schema_v1 ->
              Error
                (Mismatch
                   (Printf.sprintf "schema %S, this reader understands %S" s
                      schema))
          | Some _ -> (
              match
                ( Option.bind (Json.member "crc32" doc) Json.to_string_opt,
                  Json.member "payload" doc )
              with
              | None, _ -> Error (Corrupt "no crc32 field")
              | _, None -> Error (Corrupt "no payload field")
              | Some crc_hex, Some payload -> (
                  match Crc32.of_hex crc_hex with
                  | None ->
                      Error (Corrupt ("malformed crc32 field " ^ crc_hex))
                  | Some stored ->
                      let payload_str = Json.to_string payload in
                      let actual = Crc32.string payload_str in
                      if stored <> actual then
                        Error
                          (Corrupt
                             (Printf.sprintf
                                "checksum mismatch (stored %s, computed %s)"
                                crc_hex (Crc32.to_hex actual)))
                      else
                        Result.map
                          (fun run -> (payload, run))
                          (provenance_of_header doc ~payload_str)))))

let read_with_id g ~path =
  match read_payload ~path with
  | Error _ as e -> e
  | Ok (payload, run) -> (
      try Ok (walk_of_payload g payload, run) with
      | Bad msg -> Error (Mismatch msg)
      | Invalid_argument msg -> Error (Mismatch msg))

let read g ~path = Result.map fst (read_with_id g ~path)

(* Set bits in a bitset's hex serialization, without materializing the
   bitset — [describe] has no graph to size one against. *)
let hex_popcount name s =
  let nibble = function
    | '0' -> 0
    | '1' | '2' | '4' | '8' -> 1
    | '3' | '5' | '6' | '9' | 'a' | 'c' -> 2
    | '7' | 'b' | 'd' | 'e' -> 3
    | 'f' -> 4
    | c -> fail "field %S has a non-hex digit %C" name c
  in
  String.fold_left (fun acc c -> acc + nibble c) 0 s

let hex_popcounts name j =
  match field name j with
  | Json.List l ->
      Array.of_list
        (List.map
           (fun v ->
             match Json.to_string_opt v with
             | Some s -> hex_popcount name s
             | None -> fail "field %S has a non-string entry" name)
           l)
  | _ -> fail "field %S is not an array" name

let describe ~path =
  match read_payload ~path with
  | Error _ as e -> e
  | Ok (payload, _) when carries_partition payload ->
      Error (Mismatch partition_refusal)
  | Ok (payload, run) -> (
      try
        let kind = get_string "kind" payload in
        let n = get_int "n" payload and m = get_int "m" payload in
        let steps = get_int "steps" payload in
        let where =
          match kind with
          | "kernel" | "kernel-competing" ->
              Printf.sprintf "%d walkers (cursor %d)"
                (get_int "walkers" payload)
                (get_int "cursor" payload)
          | _ -> Printf.sprintf "at vertex %d" (get_int "pos" payload)
        in
        let extra =
          match kind with
          | "eprocess" ->
              Printf.sprintf " rule=%s blue=%d red=%d"
                (get_string "rule" payload)
                (get_int "blue_steps" payload)
                (get_int "red_steps" payload)
          | "kernel" | "kernel-competing" ->
              Printf.sprintf " proc=%s" (get_string "proc" payload)
          | _ -> ""
        in
        let run_suffix =
          Printf.sprintf " [run %s%s]" run.Ewalk_obs.Runlog.run_id
            (match run.Ewalk_obs.Runlog.parent_run_id with
            | None -> ""
            | Some p -> " parent " ^ p)
        in
        match kind with
        | "kernel-competing" ->
            (* No shared coverage table: report per-walker visit counters,
               cross-checked against the bitset popcounts the way a resume
               would — the crash matrix greps for the verdict. *)
            let vcount = get_int_array "vcount" payload in
            let ecount = get_int_array "ecount" payload in
            let vpop = hex_popcounts "vseen" payload in
            let epop = hex_popcounts "visited" payload in
            if
              Array.length vpop <> Array.length vcount
              || Array.length epop <> Array.length ecount
            then fail "bitset arrays do not match the counter arrays";
            if vpop <> vcount || epop <> ecount then
              fail
                "stored visit counter disagrees with its bitset popcount \
                 (counter!=popcount)";
            let best = Array.fold_left max 0 vcount in
            Ok
              (Printf.sprintf
                 "%s: %s walk on n=%d m=%d, %d steps, %s, best walker %d/%d \
                  vertices, counters verified (counter==popcount)%s%s"
                 schema kind n m steps where best n extra run_suffix)
        | _ ->
            let coverage = field "coverage" payload in
            Ok
              (Printf.sprintf
                 "%s: %s walk on n=%d m=%d, %d steps, %s, %d/%d vertices \
                  %d/%d edges visited%s%s"
                 schema kind n m steps where
                 (get_int "vertices_seen" coverage)
                 n
                 (get_int "edges_seen" coverage)
                 m extra run_suffix)
      with Bad msg -> Error (Corrupt msg))
