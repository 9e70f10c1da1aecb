open Ewalk_graph
module Json = Ewalk_obs.Json
module Engine = Ewalk.Engine

let schema = "ewalk-snapshot/3"

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

let rotor_json = function None -> Json.Null | Some r -> int_array r

(* One layout for both kinds: the walker fields, then one entry per
   coverage in each of the visited-set fields, then the rotor rows and
   the phase cells.  The kind says whether the coverage is shared.  The
   counts are derived data, written so that [describe] can cross-check
   them against the sets. *)
let payload_of_engine e =
  let g = Engine.graph e in
  let ck = Engine.checkpoint e in
  (* Coverage r is walker r's, in both modes. *)
  let covs = Array.mapi (fun r _ -> Engine.walker_coverage e r) ck.ck_coverage in
  let per_coverage f = Json.List (Array.to_list (Array.map f ck.ck_coverage)) in
  let hex b = Json.String (Ewalk.Bitset.to_hex b) in
  Json.Obj
    [
      ( "kind",
        Json.String
          (match ck.ck_mode with
          | Engine.Cooperating -> "kernel"
          | Engine.Competing -> "kernel-competing") );
      ("n", Json.Int (Graph.n g));
      ("m", Json.Int (Graph.m g));
      ("proc", Json.String (proc_wire_name ck.ck_proc));
      ("walkers", Json.Int (Array.length ck.ck_pos));
      ("pos", int_array ck.ck_pos);
      ("cursor", Json.Int ck.ck_cursor);
      ("steps", Json.Int ck.ck_steps);
      ("wsteps", int_array ck.ck_wsteps);
      ("wblue", int_array ck.ck_wblue);
      ("wred", int_array ck.ck_wred);
      ("prng", rng_words ck.ck_prng);
      ("visited", per_coverage (fun s -> hex s.Ewalk.Coverage.s_edges));
      ("vseen", per_coverage (fun s -> hex s.Ewalk.Coverage.s_vertices));
      ("vcount", int_array (Array.map Ewalk.Coverage.vertices_visited covs));
      ("ecount", int_array (Array.map Ewalk.Coverage.edges_visited covs));
      ( "cover_at",
        per_coverage (fun s -> Json.Int s.Ewalk.Coverage.s_vertex_cover_step) );
      ( "ecover_at",
        per_coverage (fun s -> Json.Int s.Ewalk.Coverage.s_edge_cover_step) );
      ("rotor", rotor_json ck.ck_rotor);
      ("phase", Json.List (Array.to_list (Array.map phase_cell ck.ck_phase)));
    ]

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

let hex_sets name ~len j =
  match field name j with
  | Json.List l ->
      Array.of_list
        (List.map
           (fun v ->
             match Json.to_string_opt v with
             | Some hex -> (
                 try Ewalk.Bitset.of_hex ~len hex
                 with Invalid_argument msg -> fail "field %S: %s" name msg)
             | None -> fail "field %S has a non-string entry" name)
           l)
  | _ -> fail "field %S is not an array" name

let engine_of_payload g j =
  let n = get_int "n" j and m = get_int "m" j in
  if n <> Graph.n g || m <> Graph.m g then
    raise
      (Bad
         (Printf.sprintf
            "recorded on a graph with n=%d m=%d, but the given graph has \
             n=%d m=%d"
            n m (Graph.n g) (Graph.m g)));
  let mode =
    match get_string "kind" j with
    | "kernel" -> Engine.Cooperating
    | "kernel-competing" -> Engine.Competing
    | other -> fail "unknown walk kind %S" other
  in
  let pos = get_int_array "pos" j in
  let phase = phase_of_json j in
  if Array.length phase <> Array.length pos then
    fail "field \"phase\" has %d entries for %d walkers" (Array.length phase)
      (Array.length pos);
  let rows =
    match mode with Engine.Cooperating -> 1 | Engine.Competing -> Array.length pos
  in
  let rowed name a =
    if Array.length a <> rows then
      fail "field %S has %d entries for %d coverages" name (Array.length a) rows;
    a
  in
  let visited = rowed "visited" (hex_sets "visited" ~len:(Graph.m g) j) in
  let vseen = rowed "vseen" (hex_sets "vseen" ~len:(Graph.n g) j) in
  let vcount = rowed "vcount" (get_int_array "vcount" j) in
  let ecount = rowed "ecount" (get_int_array "ecount" j) in
  let cover_at = rowed "cover_at" (get_int_array "cover_at" j) in
  let ecover_at = rowed "ecover_at" (get_int_array "ecover_at" j) in
  (* The stored counts are never trusted: restore recounts the sets, and a
     count that disagrees with its set marks a stale or tampered file. *)
  for r = 0 to rows - 1 do
    if
      vcount.(r) <> Ewalk.Bitset.popcount vseen.(r)
      || ecount.(r) <> Ewalk.Bitset.popcount visited.(r)
    then fail "stored visit counter disagrees with its bitset popcount"
  done;
  Engine.of_checkpoint g
    {
      ck_proc = proc_of_json j;
      ck_mode = mode;
      ck_pos = pos;
      ck_cursor = get_int "cursor" j;
      ck_steps = get_int "steps" j;
      ck_wsteps = get_int_array "wsteps" j;
      ck_wblue = get_int_array "wblue" j;
      ck_wred = get_int_array "wred" j;
      ck_prng = get_rng_words "prng" j;
      ck_coverage =
        Array.init rows (fun r ->
            {
              Ewalk.Coverage.s_edges = visited.(r);
              s_vertices = vseen.(r);
              s_vertex_cover_step = cover_at.(r);
              s_edge_cover_step = ecover_at.(r);
            });
      ck_rotor = rotor_of_json j;
      ck_phase = phase;
    }

(* ------------------------------------------------------------------ *)
(* Files *)

let write ~path walk =
  let payload = Json.to_string (payload_of_engine (engine walk)) in
  let crc = Crc32.to_hex (Crc32.string payload) in
  (* Run provenance lives in the header, next to the schema tag: the CRC
     covers the payload bytes only, so stamping the id does not disturb
     the walk-state checksum. *)
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
(* Run provenance from the header.  A header carries [run_id] (and
   optionally [parent_run_id]); both must be well-formed ids or the file
   is rejected as tampered.  A writer with no ambient run stamps none — a
   stable id is synthesized from the payload bytes so every snapshot
   still joins to {e some} id. *)
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
          | Some s when s <> schema ->
              Error
                (Mismatch
                   (Printf.sprintf
                      "schema %S, this reader understands only %S: regenerate \
                       the snapshot with this build"
                      s schema))
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
      try Ok (of_engine (engine_of_payload g payload), run) with
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
  | Ok (payload, run) -> (
      try
        let kind = get_string "kind" payload in
        if kind <> "kernel" && kind <> "kernel-competing" then
          fail "unknown walk kind %S" kind;
        let n = get_int "n" payload and m = get_int "m" payload in
        (* The stored counts, cross-checked against the sets' popcounts the
           way a resume would — the crash matrix greps for the verdict. *)
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
        let most a = Array.fold_left max 0 a in
        Ok
          (Printf.sprintf
             "%s: %s walk on n=%d m=%d, %d steps, %d walkers (cursor %d), \
              %s%d/%d vertices %d/%d edges visited, counters verified \
              (counter==popcount) proc=%s [run %s%s]"
             schema kind n m (get_int "steps" payload)
             (get_int "walkers" payload) (get_int "cursor" payload)
             (if Array.length vcount > 1 then "best walker " else "")
             (most vcount) n (most ecount) m (get_string "proc" payload)
             run.Ewalk_obs.Runlog.run_id
             (match run.Ewalk_obs.Runlog.parent_run_id with
             | None -> ""
             | Some p -> " parent " ^ p))
      with Bad msg -> Error (Corrupt msg))
