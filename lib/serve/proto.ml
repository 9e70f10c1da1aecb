(* Session-protocol shapes and validation.  Everything here is pure: the
   router parses and validates through this module before any registry
   state is touched, so malformed input is rejected without side
   effects. *)

module Json = Ewalk_obs.Json

type mode = Cooperating | Competing

let mode_name = function
  | Cooperating -> "cooperating"
  | Competing -> "competing"

type config = {
  family : string;
  n : int;
  process : string;
  seed : int;
  walkers : int;
  mode : mode;
}

type error = { status : int; code : string; message : string }

let err status code message = { status; code; message }
let internal msg = err 500 "internal" msg

let error_body e =
  Json.to_string
    (Json.Obj
       [
         ( "error",
           Json.Obj
             [
               ("code", Json.String e.code);
               ("message", Json.String e.message);
             ] );
       ])
  ^ "\n"

let max_walkers = 4096
let max_steps_per_request = 50_000_000
let max_family_len = 64

(* The processes a session can run: the engine's process table, every
   entry of which snapshots (hibernation needs Snapshot.write to
   succeed), at any walker count and in either mode. *)
let snapshottable spec = Ewalk.Engine.proc_of_spec spec <> None

let config_to_json c =
  Json.Obj
    [
      ("family", Json.String c.family);
      ("n", Json.Int c.n);
      ("process", Json.String c.process);
      ("seed", Json.Int c.seed);
      ("walkers", Json.Int c.walkers);
      ("mode", Json.String (mode_name c.mode));
    ]

let parse_body body =
  let body = String.trim body in
  if body = "" then Ok (Json.Obj [])
  else
    match Json.of_string body with
    | Ok j -> Ok j
    | Error e -> Error (err 400 "bad_json" e)

let field_int j name =
  Option.bind (Json.member name j) Json.to_int_opt

let field_string j name =
  Option.bind (Json.member name j) Json.to_string_opt

(* Reject a field that is present but of the wrong type, rather than
   silently applying the default. *)
let opt_int j name ~default =
  match Json.member name j with
  | None | Some Json.Null -> Ok default
  | Some v -> (
      match Json.to_int_opt v with
      | Some k -> Ok k
      | None -> Error (err 400 "bad_field" (name ^ " must be an integer")))

let opt_string j name ~default =
  match Json.member name j with
  | None | Some Json.Null -> Ok default
  | Some v -> (
      match Json.to_string_opt v with
      | Some s -> Ok s
      | None -> Error (err 400 "bad_field" (name ^ " must be a string")))

let ( let* ) = Result.bind

let config_of_json ~max_n j =
  match j with
  | Json.Obj _ ->
      let* family =
        match field_string j "family" with
        | Some f -> Ok f
        | None -> Error (err 400 "missing_field" "family is required")
      in
      let* n =
        match field_int j "n" with
        | Some n -> Ok n
        | None -> Error (err 400 "missing_field" "n is required")
      in
      let* process = opt_string j "process" ~default:"e-process" in
      let* seed = opt_int j "seed" ~default:1 in
      let* walkers = opt_int j "walkers" ~default:1 in
      let* mode =
        match field_string j "mode" with
        | None -> Ok Cooperating
        | Some "cooperating" -> Ok Cooperating
        | Some "competing" -> Ok Competing
        | Some other ->
            Error
              (err 400 "bad_field"
                 ("mode must be cooperating or competing, not " ^ other))
      in
      if String.length family = 0 || String.length family > max_family_len
      then Error (err 400 "bad_family" "family spec empty or oversized")
      else if n < 2 then Error (err 400 "bad_n" "n must be at least 2")
      else if n > max_n then
        Error
          (err 413 "graph_too_large"
             (Printf.sprintf "n=%d exceeds the daemon cap %d" n max_n))
      else if walkers < 1 || walkers > max_walkers then
        Error
          (err 400 "bad_walkers"
             (Printf.sprintf "walkers must be in [1,%d]" max_walkers))
      else if not (snapshottable process) then
        Error
          (err 400 "unknown_process"
             (Printf.sprintf
                "process %S is not servable (sessions must be snapshottable)"
                process))
      else Ok { family; n; process; seed; walkers; mode }
  | _ -> Error (err 400 "bad_json" "request body must be a JSON object")

type step_request = Steps of int | To_cover of int option

let check_steps k =
  if k <= 0 then Error (err 400 "bad_steps" "steps must be positive")
  else if k > max_steps_per_request then
    Error
      (err 400 "bad_steps"
         (Printf.sprintf "steps must be at most %d" max_steps_per_request))
  else Ok k

let step_request_of_json j =
  match j with
  | Json.Obj _ -> (
      match field_string j "until" with
      | Some "cover" -> (
          match Json.member "cap" j with
          | None | Some Json.Null -> Ok (To_cover None)
          | Some v -> (
              match Json.to_int_opt v with
              | Some c when c > 0 -> Ok (To_cover (Some c))
              | _ -> Error (err 400 "bad_field" "cap must be a positive integer")))
      | Some other ->
          Error (err 400 "bad_field" ("unknown milestone " ^ other))
      | None -> (
          match Json.member "steps" j with
          | None ->
              Error (err 400 "missing_field" "steps (or until) is required")
          | Some v -> (
              match Json.to_int_opt v with
              | Some k ->
                  let* k = check_steps k in
                  Ok (Steps k)
              | None ->
                  Error (err 400 "bad_field" "steps must be an integer"))))
  | _ -> Error (err 400 "bad_json" "request body must be a JSON object")

let steps_query q =
  match List.assoc_opt "steps" q with
  | None -> Error (err 400 "missing_field" "steps query parameter is required")
  | Some s -> (
      match int_of_string_opt s with
      | Some k -> check_steps k
      | None -> Error (err 400 "bad_field" "steps must be an integer"))
