open Ewalk_graph
module Json = Ewalk_obs.Json
module Engine = Ewalk.Engine

let schema = "ewalk-snapshot/2"
let schema_v1 = "ewalk-snapshot/1"

type walk =
  | Eprocess of Ewalk.Eprocess.t
  | Srw of Ewalk.Srw.t
  | Rotor of Ewalk.Rotor.t
  | Kernel of Engine.t

let engine (Eprocess e | Srw e | Rotor e | Kernel e) = e

(* A one-walker cooperating engine comes back under its view's
   constructor; every other engine as [Kernel]. *)
let of_engine e =
  if Engine.walkers e > 1 || Engine.mode e = Engine.Competing then Kernel e
  else
    match Engine.proc e with
    | Engine.E_uar | Engine.E_lowest | Engine.E_highest | Engine.E_adversarial _
      ->
        Eprocess e
    | Engine.Srw | Engine.Lazy_srw -> Srw e
    | Engine.Rotor -> Rotor e

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

(* The wire names of the engine's processes.  An adversarial rule never
   reaches here: checkpointing it raises first. *)
let proc_names =
  [
    ("e-uar", Engine.E_uar);
    ("e-lowest", Engine.E_lowest);
    ("e-highest", Engine.E_highest);
    ("srw", Engine.Srw);
    ("lazy-srw", Engine.Lazy_srw);
    ("rotor", Engine.Rotor);
  ]

let proc_wire_name = function
  | Engine.E_uar -> "e-uar"
  | Engine.E_lowest -> "e-lowest"
  | Engine.E_highest -> "e-highest"
  | Engine.Srw -> "srw"
  | Engine.Lazy_srw -> "lazy-srw"
  | Engine.Rotor -> "rotor"
  | Engine.E_adversarial _ -> assert false

(* Each walker's open phase: its kind, start step and start vertex. *)
let phase_cell = function
  | None -> Json.Null
  | Some (kind, start_step, start_vertex) ->
      Json.Obj
        [
          ( "kind",
            Json.String (match kind with Engine.Blue -> "blue" | Engine.Red -> "red") );
          ("start_step", Json.Int start_step);
          ("start_vertex", Json.Int start_vertex);
        ]

(* The fields both payload kinds share, in wire order: the graph size,
   the process and the per-walker state, then (after the mode's own
   fields) the phase cells. *)
let walker_fields g ~proc ~pos ~cursor ~steps ~wsteps ~wblue ~wred ~prng =
  [
    ("n", Json.Int (Graph.n g));
    ("m", Json.Int (Graph.m g));
    ("proc", Json.String (proc_wire_name proc));
    ("walkers", Json.Int (Array.length pos));
    ("pos", int_array pos);
    ("cursor", Json.Int cursor);
    ("steps", Json.Int steps);
    ("wsteps", int_array wsteps);
    ("wblue", int_array wblue);
    ("wred", int_array wred);
    ("prng", rng_words prng);
  ]

let phase_field phase =
  ("phase", Json.List (Array.to_list (Array.map phase_cell phase)))

let rotor_json = function None -> Json.Null | Some r -> int_array r

let payload_of_engine e =
  let g = Engine.graph e in
  match Engine.mode e with
  | Engine.Competing ->
      (* Competing engines carry per-walker bit-packed visited sets; the
         bitsets travel as hex strings and the derived visit counters ride
         along for inspectability ([describe] cross-checks them). *)
      let ck = Engine.checkpoint_competing e in
      let bitsets a =
        Json.List
          (Array.to_list
             (Array.map (fun b -> Json.String (Ewalk.Bitset.to_hex b)) a))
      in
      Json.Obj
        ((("kind", Json.String "kernel-competing")
         :: walker_fields g ~proc:ck.cc_proc ~pos:ck.cc_pos ~cursor:ck.cc_cursor
              ~steps:(Array.fold_left ( + ) 0 ck.cc_wsteps)
              ~wsteps:ck.cc_wsteps ~wblue:ck.cc_wblue ~wred:ck.cc_wred
              ~prng:ck.cc_prng)
        @ [
            ("visited", bitsets ck.cc_visited);
            ("vseen", bitsets ck.cc_vseen);
            ("vcount", int_array ck.cc_vcount);
            ("ecount", int_array ck.cc_ecount);
            ("cover_at", int_array ck.cc_cover_at);
            ("rotor", rotor_json ck.cc_rotor);
            phase_field ck.cc_phase;
          ])
  | Engine.Cooperating ->
      let ck = Engine.checkpoint e in
      Json.Obj
        ((("kind", Json.String "kernel")
         :: walker_fields g ~proc:ck.ck_proc ~pos:ck.ck_pos ~cursor:ck.ck_cursor
              ~steps:ck.ck_steps ~wsteps:ck.ck_wsteps ~wblue:ck.ck_wblue
              ~wred:ck.ck_wred ~prng:ck.ck_prng)
        @ [
            ("coverage", coverage_json ck.ck_coverage);
            ("rotor", rotor_json ck.ck_rotor);
            phase_field ck.ck_phase;
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

(* Payloads a build can no longer resume, refused with a typed
   [Mismatch] rather than continued under a different encoding:

   - the single-walker kinds ([eprocess], [srw], [lazy-srw], [rotor]),
     written before every walk became an engine — a walk now snapshots as
     [kernel] or [kernel-competing];
   - payloads that still carry an [unvisited] section, written while the
     E-process kept its visited edges in a swap partition whose private
     slot order the uniform rule's draws indexed. *)
let refusal j =
  match Json.to_string_opt (Option.value (Json.member "kind" j) ~default:Json.Null) with
  | Some (("eprocess" | "srw" | "lazy-srw" | "rotor") as kind) ->
      Some
        (Printf.sprintf
           "payload kind %S is a retired single-walker encoding: walks now \
            snapshot as \"kernel\" or \"kernel-competing\"; regenerate it \
            with this build"
           kind)
  | _ -> (
      match Json.member "unvisited" j with
      | None | Some Json.Null -> None
      | Some _ ->
          Some
            "payload carries an \"unvisited\" section: it was written under \
             the swap-partition coupling and cannot resume draw-for-draw")

let proc_of_json j =
  let name = get_string "proc" j in
  match List.assoc_opt name proc_names with
  | Some p -> p
  | None -> fail "unknown kernel proc %S" name

let phase_of_json j =
  match field "phase" j with
  | Json.List l ->
      Array.of_list
        (List.map
           (function
             | Json.Null -> None
             | p ->
                 let kind =
                   match get_string "kind" p with
                   | "blue" -> Engine.Blue
                   | "red" -> Engine.Red
                   | other -> fail "field \"phase\" has unknown phase kind %S" other
                 in
                 Some (kind, get_int "start_step" p, get_int "start_vertex" p))
           l)
  | _ -> fail "field \"phase\" is not an array"

let rotor_of_json j =
  match field "rotor" j with Json.Null -> None | _ -> Some (get_int_array "rotor" j)

let engine_of_payload g j =
  let n = get_int "n" j and m = get_int "m" j in
  if n <> Graph.n g || m <> Graph.m g then
    raise
      (Bad
         (Printf.sprintf
            "recorded on a graph with n=%d m=%d, but the given graph has \
             n=%d m=%d"
            n m (Graph.n g) (Graph.m g)));
  let pos = get_int_array "pos" j in
  let phase = phase_of_json j in
  if Array.length phase <> Array.length pos then
    fail "field \"phase\" has %d entries for %d walkers" (Array.length phase)
      (Array.length pos);
  match get_string "kind" j with
  | "kernel" ->
      Engine.of_checkpoint g
        {
          ck_proc = proc_of_json j;
          ck_pos = pos;
          ck_cursor = get_int "cursor" j;
          ck_steps = get_int "steps" j;
          ck_wsteps = get_int_array "wsteps" j;
          ck_wblue = get_int_array "wblue" j;
          ck_wred = get_int_array "wred" j;
          ck_prng = get_rng_words "prng" j;
          ck_coverage = coverage_of_json (field "coverage" j);
          ck_rotor = rotor_of_json j;
          ck_phase = phase;
        }
  | "kernel-competing" ->
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
      Engine.of_checkpoint_competing g
        {
          cc_proc = proc_of_json j;
          cc_pos = pos;
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
          cc_rotor = rotor_of_json j;
          cc_phase = phase;
        }
  | other -> fail "unknown walk kind %S" other

(* ------------------------------------------------------------------ *)
(* Files *)

let write ~path walk =
  let payload = Json.to_string (payload_of_engine (engine walk)) in
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
      match refusal payload with
      | Some msg -> Error (Mismatch msg)
      | None -> (
          try Ok (of_engine (engine_of_payload g payload), run) with
          | Bad msg -> Error (Mismatch msg)
          | Invalid_argument msg -> Error (Mismatch msg)))

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
  | Ok (payload, run) -> (
      match refusal payload with
      | Some msg -> Error (Mismatch msg)
      | None -> (
          try
            let kind = get_string "kind" payload in
            let n = get_int "n" payload and m = get_int "m" payload in
            let head =
              Printf.sprintf "%s: %s walk on n=%d m=%d, %d steps, %d walkers (cursor %d)"
                schema kind n m (get_int "steps" payload)
                (get_int "walkers" payload) (get_int "cursor" payload)
            in
            let tail =
              Printf.sprintf " proc=%s [run %s%s]" (get_string "proc" payload)
                run.Ewalk_obs.Runlog.run_id
                (match run.Ewalk_obs.Runlog.parent_run_id with
                | None -> ""
                | Some p -> " parent " ^ p)
            in
            match kind with
            | "kernel-competing" ->
                (* No shared coverage table: report per-walker visit
                   counters, cross-checked against the bitset popcounts the
                   way a resume would — the crash matrix greps for the
                   verdict. *)
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
                Ok
                  (Printf.sprintf
                     "%s, best walker %d/%d vertices, counters verified \
                      (counter==popcount)%s"
                     head (Array.fold_left max 0 vcount) n tail)
            | "kernel" ->
                let coverage = field "coverage" payload in
                Ok
                  (Printf.sprintf "%s, %d/%d vertices %d/%d edges visited%s" head
                     (get_int "vertices_seen" coverage)
                     n
                     (get_int "edges_seen" coverage)
                     m tail)
            | other -> fail "unknown walk kind %S" other
          with Bad msg -> Error (Corrupt msg)))
