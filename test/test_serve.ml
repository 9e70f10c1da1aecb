(* Conformance + lifecycle battery for the eprocd session service
   (Ewalk_serve): protocol validation unit tests, router-level
   malformed-request rejection (structured 4xx, never a crash), qcheck
   fuzz over request shapes and raw request bytes, the session-lifecycle
   equivalence property (any interleaving of step / trace / hibernate /
   rehydrate is bit-identical to an uninterrupted session — event
   streams and final snapshot payloads compared byte-for-byte), restart
   recovery, and concurrent-client determinism over real loopback HTTP
   at pool sizes 1 and 4. *)

module Obs = Ewalk_obs
module Json = Obs.Json
module Serve = Obs.Serve
module Trace = Obs.Trace
module Proto = Ewalk_serve.Proto
module Session = Ewalk_serve.Session
module Registry = Ewalk_serve.Registry
module Router = Ewalk_serve.Router
module Client = Ewalk_serve.Client
module Daemon = Ewalk_serve.Daemon
module Pool = Ewalk_par.Pool

let qcheck = QCheck_alcotest.to_alcotest

(* -- scratch directories ---------------------------------------------------- *)

let temp_dir () =
  let d = Filename.temp_file "ewalk-serve" ".d" in
  Sys.remove d;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_registry ?resident_cap ?max_n f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () -> f (Registry.create ?resident_cap ?max_n ~state_dir:dir ()))

let with_daemon ?resident_cap ?pool f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match Daemon.start ~state_dir:dir ?resident_cap ?pool () with
      | Error e -> Alcotest.fail ("daemon start: " ^ e)
      | Ok d ->
          Fun.protect ~finally:(fun () -> ignore (Daemon.stop d)) (fun () -> f d))

(* -- router-level request plumbing ------------------------------------------ *)

let req ?(meth = "GET") ?(query = []) ?(body = "") path =
  { Serve.rq_meth = meth; rq_path = path; rq_query = query; rq_body = body }

let status r = Serve.response_status r
let body_of r = Option.value ~default:"" (Serve.response_body r)

(* Every error response must carry the one structured envelope:
   {"error":{"code":...,"message":...}}. *)
let error_code r =
  match Json.of_string (body_of r) with
  | Error e -> Alcotest.fail ("error body is not JSON: " ^ e)
  | Ok j -> (
      match
        Option.bind (Json.member "error" j) (fun e ->
            Option.bind (Json.member "code" e) Json.to_string_opt)
      with
      | Some c -> c
      | None -> Alcotest.fail ("no error.code in: " ^ body_of r))

let json_member_int name r =
  match Json.of_string (body_of r) with
  | Error e -> Alcotest.fail ("body is not JSON: " ^ e)
  | Ok j -> (
      match Option.bind (Json.member name j) Json.to_int_opt with
      | Some v -> v
      | None -> Alcotest.fail ("no int member " ^ name ^ " in: " ^ body_of r))

let json_member_string name r =
  match Json.of_string (body_of r) with
  | Error e -> Alcotest.fail ("body is not JSON: " ^ e)
  | Ok j -> (
      match Option.bind (Json.member name j) Json.to_string_opt with
      | Some v -> v
      | None -> Alcotest.fail ("no string member " ^ name ^ " in: " ^ body_of r))

let cfg_body ?(process = "e-process") ?(seed = 1) ?(walkers = 1)
    ?(mode = "cooperating") ~family ~n () =
  Json.to_string
    (Json.Obj
       [
         ("family", Json.String family);
         ("n", Json.Int n);
         ("process", Json.String process);
         ("seed", Json.Int seed);
         ("walkers", Json.Int walkers);
         ("mode", Json.String mode);
       ])

(* -- Proto validation ------------------------------------------------------- *)

let ok_or_fail = function
  | Ok v -> v
  | Error (e : Proto.error) ->
      Alcotest.fail (Printf.sprintf "%d %s: %s" e.status e.code e.message)

let proto_config_defaults () =
  let j =
    ok_or_fail
      (Proto.parse_body {|{"family":"cycle","n":16}|} |> fun r ->
       Result.map_error (fun e -> e) r)
  in
  let c = ok_or_fail (Proto.config_of_json ~max_n:1000 j) in
  Alcotest.(check string) "family" "cycle" c.Proto.family;
  Alcotest.(check int) "n" 16 c.Proto.n;
  Alcotest.(check string) "process" "e-process" c.Proto.process;
  Alcotest.(check int) "seed" 1 c.Proto.seed;
  Alcotest.(check int) "walkers" 1 c.Proto.walkers;
  Alcotest.(check string) "mode" "cooperating"
    (Proto.mode_name c.Proto.mode)

let expect_proto_error ~status ~code = function
  | Ok (_ : Proto.config) -> Alcotest.fail "validation accepted a bad config"
  | Error (e : Proto.error) ->
      Alcotest.(check int) "status" status e.Proto.status;
      Alcotest.(check string) "code" code e.Proto.code

let proto_config_rejections () =
  let parse s = ok_or_fail (Proto.parse_body s) in
  let of_json ?(max_n = 1000) s = Proto.config_of_json ~max_n (parse s) in
  expect_proto_error ~status:400 ~code:"missing_field"
    (of_json {|{"n":16}|});
  expect_proto_error ~status:400 ~code:"missing_field"
    (of_json {|{"family":"cycle"}|});
  expect_proto_error ~status:400 ~code:"bad_n"
    (of_json {|{"family":"cycle","n":1}|});
  expect_proto_error ~status:400 ~code:"bad_n"
    (of_json {|{"family":"cycle","n":-40}|});
  expect_proto_error ~status:413 ~code:"graph_too_large"
    (of_json {|{"family":"cycle","n":1001}|});
  expect_proto_error ~status:400 ~code:"bad_walkers"
    (of_json {|{"family":"cycle","n":16,"walkers":0}|});
  expect_proto_error ~status:400 ~code:"bad_walkers"
    (of_json
       (Printf.sprintf {|{"family":"cycle","n":16,"walkers":%d}|}
          (Proto.max_walkers + 1)));
  expect_proto_error ~status:400 ~code:"bad_field"
    (of_json {|{"family":"cycle","n":16,"mode":"sideways"}|});
  expect_proto_error ~status:400 ~code:"bad_field"
    (of_json {|{"family":"cycle","n":16,"seed":"seven"}|});
  expect_proto_error ~status:400 ~code:"unknown_process"
    (of_json {|{"family":"cycle","n":16,"process":"levy-flight"}|});
  (* Every engine process serves at any walker count and in either mode:
     lazy-srw alone, multi-walker and competing. *)
  List.iter
    (fun body -> ignore (ok_or_fail (of_json body)))
    [
      {|{"family":"cycle","n":16,"process":"lazy-srw"}|};
      {|{"family":"cycle","n":16,"process":"lazy-srw","walkers":2}|};
      {|{"family":"cycle","n":16,"process":"lazy-srw","mode":"competing"}|};
    ];
  expect_proto_error ~status:400 ~code:"bad_family"
    (of_json
       (Printf.sprintf {|{"family":"%s","n":16}|} (String.make 80 'x')));
  (match Proto.parse_body "{nope" with
  | Error e -> Alcotest.(check string) "bad json code" "bad_json" e.Proto.code
  | Ok _ -> Alcotest.fail "parsed garbage");
  match Proto.config_of_json ~max_n:1000 (Json.Int 3) with
  | Error e -> Alcotest.(check string) "non-object" "bad_json" e.Proto.code
  | Ok _ -> Alcotest.fail "accepted a non-object body"

let proto_step_requests () =
  let parse s = ok_or_fail (Proto.parse_body s) in
  (match Proto.step_request_of_json (parse {|{"steps":5}|}) with
  | Ok (Proto.Steps 5) -> ()
  | _ -> Alcotest.fail "steps:5");
  (match Proto.step_request_of_json (parse {|{"until":"cover"}|}) with
  | Ok (Proto.To_cover None) -> ()
  | _ -> Alcotest.fail "until cover");
  (match Proto.step_request_of_json (parse {|{"until":"cover","cap":9}|}) with
  | Ok (Proto.To_cover (Some 9)) -> ()
  | _ -> Alcotest.fail "until cover cap");
  let bad s code =
    match Proto.step_request_of_json (parse s) with
    | Error e -> Alcotest.(check string) s code e.Proto.code
    | Ok _ -> Alcotest.fail ("accepted " ^ s)
  in
  bad {|{"steps":0}|} "bad_steps";
  bad {|{"steps":-12}|} "bad_steps";
  bad
    (Printf.sprintf {|{"steps":%d}|} (Proto.max_steps_per_request + 1))
    "bad_steps";
  bad {|{"steps":"many"}|} "bad_field";
  bad {|{"until":"moon"}|} "bad_field";
  bad {|{"until":"cover","cap":-1}|} "bad_field";
  bad {|{}|} "missing_field";
  (match Proto.steps_query [ ("steps", "12") ] with
  | Ok 12 -> ()
  | _ -> Alcotest.fail "steps=12");
  (match Proto.steps_query [] with
  | Error e -> Alcotest.(check string) "no steps" "missing_field" e.Proto.code
  | Ok _ -> Alcotest.fail "accepted missing steps");
  match Proto.steps_query [ ("steps", "oodles") ] with
  | Error e -> Alcotest.(check string) "bad steps" "bad_field" e.Proto.code
  | Ok _ -> Alcotest.fail "accepted non-numeric steps"

(* -- router: malformed requests are structured 4xx, never a crash ----------- *)

let router_malformed () =
  with_registry ~max_n:512 @@ fun reg ->
  let h = Router.handler reg in
  let r = h (req ~meth:"POST" ~body:"{nope" "/sessions") in
  Alcotest.(check int) "bad json status" 400 (status r);
  Alcotest.(check string) "bad json code" "bad_json" (error_code r);
  let r = h (req ~meth:"POST" ~body:{|{"family":"cycle"}|} "/sessions") in
  Alcotest.(check int) "missing n" 400 (status r);
  let r =
    h (req ~meth:"POST" ~body:{|{"family":"cycle","n":4096}|} "/sessions")
  in
  Alcotest.(check int) "oversized graph" 413 (status r);
  Alcotest.(check string) "oversized code" "graph_too_large" (error_code r);
  let r = h (req "/sessions/s999999") in
  Alcotest.(check int) "unknown id" 404 (status r);
  Alcotest.(check string) "unknown code" "unknown_session" (error_code r);
  let r =
    h (req ~meth:"POST" ~body:{|{"steps":3}|} "/sessions/s999999/step")
  in
  Alcotest.(check int) "step unknown id" 404 (status r);
  let r = h (req ~meth:"DELETE" "/sessions/s999999") in
  Alcotest.(check int) "delete unknown id" 404 (status r);
  let r = h (req ~query:[ ("steps", "5") ] "/sessions/s999999/trace") in
  Alcotest.(check int) "trace unknown id" 404 (status r);
  (* A real session still rejects malformed step bodies. *)
  let r =
    h (req ~meth:"POST" ~body:(cfg_body ~family:"cycle" ~n:16 ()) "/sessions")
  in
  Alcotest.(check int) "create" 201 (status r);
  let id = json_member_string "id" r in
  let step b = h (req ~meth:"POST" ~body:b ("/sessions/" ^ id ^ "/step")) in
  Alcotest.(check int) "negative steps" 400 (status (step {|{"steps":-4}|}));
  Alcotest.(check int) "zero steps" 400 (status (step {|{"steps":0}|}));
  Alcotest.(check int) "giant steps" 400
    (status (step {|{"steps":999999999999}|}));
  Alcotest.(check int) "garbage step body" 400 (status (step "]["));
  let r = h (req ~query:[ ("steps", "no") ] ("/sessions/" ^ id ^ "/trace")) in
  Alcotest.(check int) "bad trace steps" 400 (status r);
  let r = h (req ~meth:"PUT" "/sessions") in
  Alcotest.(check int) "bad method" 405 (status r);
  Alcotest.(check string) "bad method code" "method_not_allowed" (error_code r);
  let r = h (req "/frobnicate") in
  Alcotest.(check int) "unknown path" 404 (status r);
  (* Nothing above may have created state beyond the one session. *)
  Alcotest.(check int) "session count" 1 (Registry.session_count reg)

let router_lifecycle () =
  with_registry @@ fun reg ->
  let h = Router.handler reg in
  let r =
    h
      (req ~meth:"POST"
         ~body:(cfg_body ~family:"regular:4" ~n:24 ~seed:11 ())
         "/sessions")
  in
  Alcotest.(check int) "create" 201 (status r);
  let id = json_member_string "id" r in
  let r = h (req ~meth:"POST" ~body:{|{"steps":25}|} ("/sessions/" ^ id ^ "/step")) in
  Alcotest.(check int) "step ok" 200 (status r);
  Alcotest.(check int) "advanced" 25 (json_member_int "steps_advanced" r);
  Alcotest.(check int) "total" 25 (json_member_int "steps" r);
  let r = h (req ~meth:"POST" ("/sessions/" ^ id ^ "/hibernate")) in
  Alcotest.(check int) "hibernate" 200 (status r);
  (match Registry.find reg id with
  | Some s ->
      Alcotest.(check bool) "snapshot on disk" true
        (Sys.file_exists (Session.snapshot_path s));
      Alcotest.(check bool) "not resident" false (Session.resident s)
  | None -> Alcotest.fail "session vanished");
  (* Stepping a hibernated session rehydrates it transparently. *)
  let r = h (req ~meth:"POST" ~body:{|{"steps":15}|} ("/sessions/" ^ id ^ "/step")) in
  Alcotest.(check int) "step after rehydrate" 200 (status r);
  Alcotest.(check int) "total after rehydrate" 40 (json_member_int "steps" r);
  let r = h (req ~meth:"POST" ~body:{|{"until":"cover"}|} ("/sessions/" ^ id ^ "/step")) in
  Alcotest.(check int) "run to cover" 200 (status r);
  (match Json.of_string (body_of r) with
  | Ok j -> (
      match Option.bind (Json.member "covered" j) (function
        | Json.Bool b -> Some b
        | _ -> None) with
      | Some true -> ()
      | _ -> Alcotest.fail "run-to-cover did not cover")
  | Error e -> Alcotest.fail e);
  let r = h (req "/sessions") in
  Alcotest.(check int) "list" 200 (status r);
  let r = h (req ~meth:"DELETE" ("/sessions/" ^ id)) in
  Alcotest.(check int) "delete" 200 (status r);
  let r = h (req ("/sessions/" ^ id)) in
  Alcotest.(check int) "deleted is gone" 404 (status r);
  Alcotest.(check int) "no sessions left" 0 (Registry.session_count reg)

(* A hibernated session whose snapshot was written by an earlier build —
   under schema /2, here with the swap-partition coupling's [unvisited]
   section, CRC intact — cannot resume draw-for-draw: rehydrating it
   answers a structured 409, and the daemon keeps serving. *)
let router_refuses_partition_snapshot () =
  with_registry @@ fun reg ->
  let h = Router.handler reg in
  let r =
    h
      (req ~meth:"POST"
         ~body:(cfg_body ~family:"regular:4" ~n:24 ~seed:11 ())
         "/sessions")
  in
  Alcotest.(check int) "create" 201 (status r);
  let id = json_member_string "id" r in
  let step () =
    h (req ~meth:"POST" ~body:{|{"steps":10}|} ("/sessions/" ^ id ^ "/step"))
  in
  Alcotest.(check int) "step" 200 (status (step ()));
  let r = h (req ~meth:"POST" ("/sessions/" ^ id ^ "/hibernate")) in
  Alcotest.(check int) "hibernate" 200 (status r);
  let path =
    match Registry.find reg id with
    | Some s -> Session.snapshot_path s
    | None -> Alcotest.fail "session vanished"
  in
  (match Json.of_string (read_file path) with
  | Ok doc -> (
      match Json.member "payload" doc with
      | Some (Json.Obj fields) ->
          let payload =
            Json.to_string
              (Json.Obj (fields @ [ ("unvisited", Json.Obj []) ]))
          in
          let crc = Ewalk_resume.Crc32.(to_hex (string payload)) in
          let oc = open_out_bin path in
          Printf.fprintf oc
            "{\"schema\":\"ewalk-snapshot/2\",\"crc32\":\"%s\",\"payload\":%s}\n"
            crc payload;
          close_out oc
      | _ -> Alcotest.fail "snapshot has no payload object")
  | Error e -> Alcotest.fail e);
  let r = step () in
  Alcotest.(check int) "rehydrate refused" 409 (status r);
  Alcotest.(check string) "error code" "snapshot_mismatch" (error_code r);
  Alcotest.(check int) "still serving" 200 (status (h (req "/sessions")))

(* qcheck: no request shape may crash the router or escape the
   structured-status contract. *)
let prop_router_fuzz =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ "GET"; "POST"; "DELETE"; "PUT"; "PATCH"; "FROB"; "" ])
        (oneof
           [
             string_size ~gen:printable (int_bound 40);
             oneofl
               [
                 "/sessions";
                 "/sessions/";
                 "/sessions/s000001/step";
                 "/sessions/../../etc/passwd";
                 "/sessions/s000001/trace";
                 "/metrics";
                 "//";
               ];
           ])
        (string_size ~gen:printable (int_bound 60)))
  in
  let arb =
    QCheck.make
      ~print:(fun (m, p, b) -> Printf.sprintf "%s %s body=%S" m p b)
      gen
  in
  QCheck.Test.make ~count:200
    ~name:"router: arbitrary requests never crash, statuses stay structured"
    arb
    (fun (meth, path, body) ->
      with_registry ~max_n:256 @@ fun reg ->
      let r = Router.handler reg (req ~meth ~body path) in
      let st = status r in
      if st < 200 || st > 599 then
        QCheck.Test.fail_reportf "status %d out of range" st;
      true)

(* -- the lifecycle equivalence property ------------------------------------- *)

type op = Step of int | Stream of int | Hib | Wake

let op_name = function
  | Step k -> Printf.sprintf "step:%d" k
  | Stream k -> Printf.sprintf "stream:%d" k
  | Hib -> "hibernate"
  | Wake -> "rehydrate"

let scenario_print (cfg, ops) =
  Printf.sprintf "%s n=%d %s seed=%d w=%d %s [%s]" cfg.Proto.family
    cfg.Proto.n cfg.Proto.process cfg.Proto.seed cfg.Proto.walkers
    (Proto.mode_name cfg.Proto.mode)
    (String.concat "; " (List.map op_name ops))

let scenario_gen =
  let open QCheck.Gen in
  let family = oneofl [ "cycle"; "regular:4"; "torus"; "complete" ] in
  let single =
    family >>= fun family ->
    oneofl [ "e-process"; "e-process:lowest"; "srw"; "lazy-srw"; "rotor" ]
    >>= fun process ->
    int_range 12 40 >>= fun n ->
    int_range 1 999 >>= fun seed ->
    return
      { Proto.family; n; process; seed; walkers = 1; mode = Proto.Cooperating }
  in
  let kernel =
    family >>= fun family ->
    oneofl [ "e-process"; "e-process:highest"; "srw"; "lazy-srw"; "rotor" ]
    >>= fun process ->
    int_range 12 40 >>= fun n ->
    int_range 1 999 >>= fun seed ->
    int_range 2 3 >>= fun walkers ->
    oneofl [ Proto.Cooperating; Proto.Competing ] >>= fun mode ->
    return { Proto.family; n; process; seed; walkers; mode }
  in
  let op =
    frequency
      [
        (5, map (fun k -> Step (1 + k)) (int_bound 40));
        (3, map (fun k -> Stream (1 + k)) (int_bound 30));
        (2, return Hib);
        (1, return Wake);
      ]
  in
  pair (frequency [ (3, single); (2, kernel) ]) (list_size (int_range 1 10) op)

let apply_op reg id buf op =
  match op with
  | Step k ->
      Registry.with_session reg id (fun s ~pool ->
          Result.map (fun (_ : int) -> ()) (Session.step ?pool s k))
  | Stream k ->
      Registry.with_session reg id (fun s ~pool:_ ->
          Result.map
            (fun (_ : int) -> ())
            (Session.stream s ~max_steps:k ~push:(fun ev ->
                 Buffer.add_string buf (Trace.event_to_string ev);
                 Buffer.add_char buf '\n')))
  | Hib -> Registry.hibernate reg id
  | Wake ->
      Registry.with_session reg id (fun s ~pool:_ ->
          ignore (Session.summarize s);
          Ok ())

let snapshot_payload path =
  match Json.of_string (read_file path) with
  | Error e -> QCheck.Test.fail_reportf "snapshot parse: %s" e
  | Ok j -> (
      match Json.member "payload" j with
      | Some p -> Json.to_string p
      | None -> QCheck.Test.fail_reportf "no payload member in %s" path)

let prop_lifecycle_equivalence =
  QCheck.Test.make ~count:30
    ~name:
      "session lifecycle: any step/stream/hibernate/rehydrate interleaving \
       is bit-identical to an uninterrupted run"
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun (cfg, ops) ->
      let da = temp_dir () and db = temp_dir () in
      Fun.protect
        ~finally:(fun () ->
          rm_rf da;
          rm_rf db)
        (fun () ->
          let rega = Registry.create ~resident_cap:1 ~state_dir:da () in
          let regb = Registry.create ~state_dir:db () in
          let mk reg =
            match Registry.create_session reg cfg with
            | Ok s -> Session.id s
            | Error e -> QCheck.Test.fail_reportf "create: %s" e.Proto.message
          in
          let ida = mk rega and idb = mk regb in
          let bufa = Buffer.create 256 and bufb = Buffer.create 256 in
          let run reg id buf op =
            match apply_op reg id buf op with
            | Ok () -> ()
            | Error e ->
                QCheck.Test.fail_reportf "%s on %s: %s" (op_name op) id
                  e.Proto.message
          in
          List.iter
            (fun op ->
              run rega ida bufa op;
              (* The uninterrupted twin skips the durability ops. *)
              match op with
              | Step _ | Stream _ -> run regb idb bufb op
              | Hib | Wake -> ())
            ops;
          if Buffer.contents bufa <> Buffer.contents bufb then
            QCheck.Test.fail_reportf
              "event streams diverged:\n-- interleaved --\n%s\n-- straight \
               --\n%s"
              (Buffer.contents bufa) (Buffer.contents bufb);
          let suma =
            match Registry.with_session rega ida (fun s ~pool:_ ->
                Ok (Session.summarize s))
            with
            | Ok s -> s
            | Error e -> QCheck.Test.fail_reportf "summarize a: %s" e.Proto.message
          in
          let sumb =
            match Registry.with_session regb idb (fun s ~pool:_ ->
                Ok (Session.summarize s))
            with
            | Ok s -> s
            | Error e -> QCheck.Test.fail_reportf "summarize b: %s" e.Proto.message
          in
          if suma <> sumb then
            QCheck.Test.fail_reportf
              "summaries diverged: steps %d/%d pos %d/%d covered %b/%b"
              suma.Session.s_steps sumb.Session.s_steps suma.Session.s_position
              sumb.Session.s_position suma.Session.s_covered
              sumb.Session.s_covered;
          (* Final durable states must match byte-for-byte (the CRC-guarded
             snapshot payload is the full walk state). *)
          ignore (Registry.hibernate rega ida);
          ignore (Registry.hibernate regb idb);
          let path reg id =
            match Registry.find reg id with
            | Some s -> Session.snapshot_path s
            | None -> QCheck.Test.fail_reportf "session %s vanished" id
          in
          let pa = snapshot_payload (path rega ida)
          and pb = snapshot_payload (path regb idb) in
          if pa <> pb then
            QCheck.Test.fail_reportf "snapshot payloads diverged for %s"
              (scenario_print (cfg, ops));
          true))

(* -- restart recovery ------------------------------------------------------- *)

let registry_restart_recovery () =
  let dir = temp_dir () and dir' = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf dir')
    (fun () ->
      let cfg =
        {
          Proto.family = "regular:4";
          n = 32;
          process = "e-process";
          seed = 23;
          walkers = 1;
          mode = Proto.Cooperating;
        }
      in
      let reg = Registry.create ~state_dir:dir () in
      let ids =
        List.map
          (fun seed ->
            match Registry.create_session reg { cfg with Proto.seed } with
            | Ok s -> Session.id s
            | Error e -> Alcotest.fail e.Proto.message)
          [ 23; 24; 25 ]
      in
      List.iteri
        (fun i id ->
          match
            Registry.with_session reg id (fun s ~pool ->
                Session.step ?pool s (10 * (i + 1)))
          with
          | Ok _ -> ()
          | Error e -> Alcotest.fail e.Proto.message)
        ids;
      Alcotest.(check int) "hibernate_all" 3 (Registry.hibernate_all reg);
      (* A new registry over the same state dir re-adopts everything. *)
      let reg2 = Registry.create ~state_dir:dir () in
      Alcotest.(check int) "recovered count" 3 (Registry.session_count reg2);
      List.iteri
        (fun i id ->
          match Registry.find reg2 id with
          | Some s ->
              Alcotest.(check int)
                ("recovered steps " ^ id)
                (10 * (i + 1))
                (Session.summarize s).Session.s_steps
          | None -> Alcotest.fail ("lost session " ^ id))
        ids;
      (* Id allocation resumes above the recovered ids. *)
      (match Registry.create_session reg2 cfg with
      | Ok s -> Alcotest.(check string) "next id" "s000004" (Session.id s)
      | Error e -> Alcotest.fail e.Proto.message);
      (* Continuing a recovered session matches an uninterrupted twin. *)
      let twin = Registry.create ~state_dir:dir' () in
      let idt =
        match Registry.create_session twin { cfg with Proto.seed = 24 } with
        | Ok s -> Session.id s
        | Error e -> Alcotest.fail e.Proto.message
      in
      let stream_of reg id pre post =
        let buf = Buffer.create 128 in
        (match
           Registry.with_session reg id (fun s ~pool ->
               Result.bind
                 (if pre > 0 then
                    Result.map (fun (_ : int) -> ()) (Session.step ?pool s pre)
                  else Ok ())
                 (fun () ->
                   Session.stream s ~max_steps:post ~push:(fun ev ->
                       Buffer.add_string buf (Trace.event_to_string ev);
                       Buffer.add_char buf '\n')))
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e.Proto.message);
        Buffer.contents buf
      in
      let recovered = stream_of reg2 (List.nth ids 1) 7 12 in
      let straight = stream_of twin idt (20 + 7) 12 in
      Alcotest.(check string) "recovered stream matches twin" straight recovered)

(* -- the resident cap ------------------------------------------------------- *)

let registry_resident_cap () =
  with_registry ~resident_cap:2 @@ fun reg ->
  let cfg =
    {
      Proto.family = "cycle";
      n = 16;
      process = "e-process";
      seed = 1;
      walkers = 1;
      mode = Proto.Cooperating;
    }
  in
  let ids =
    List.map
      (fun seed ->
        match Registry.create_session reg { cfg with Proto.seed } with
        | Ok s -> Session.id s
        | Error e -> Alcotest.fail e.Proto.message)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check int) "sessions" 5 (Registry.session_count reg);
  Alcotest.(check bool) "cap holds" true (Registry.resident_count reg <= 2);
  (* Oldest sessions hibernated to disk. *)
  let hibernated =
    List.filter
      (fun id ->
        match Registry.find reg id with
        | Some s -> not (Session.resident s)
        | None -> false)
      ids
  in
  Alcotest.(check int) "evicted count" 3 (List.length hibernated);
  (* Touching an evicted session rehydrates it and stays under the cap. *)
  (match
     Registry.with_session reg (List.hd ids) (fun s ~pool ->
         Session.step ?pool s 5)
   with
  | Ok 5 -> ()
  | Ok k -> Alcotest.fail (Printf.sprintf "stepped to %d" k)
  | Error e -> Alcotest.fail e.Proto.message);
  Alcotest.(check bool) "cap still holds" true (Registry.resident_count reg <= 2)

(* -- loopback HTTP: transport conformance ----------------------------------- *)

let http_req d meth path body =
  match
    Client.request ~port:(Daemon.port d) ~meth ~path
      ?body:(if body = "" then None else Some body)
      ()
  with
  | Ok r -> r
  | Error e -> Alcotest.fail ("client: " ^ e)

let http_lifecycle () =
  with_daemon @@ fun d ->
  let r = http_req d "GET" "/healthz" "" in
  Alcotest.(check int) "healthz" 200 r.Client.status;
  Alcotest.(check string) "healthz body" "ok\n" r.Client.body;
  let r =
    http_req d "POST" "/sessions" (cfg_body ~family:"regular:4" ~n:32 ~seed:5 ())
  in
  Alcotest.(check int) "create" 201 r.Client.status;
  let id =
    match Json.of_string r.Client.body with
    | Ok j ->
        Option.value ~default:"?"
          (Option.bind (Json.member "id" j) Json.to_string_opt)
    | Error e -> Alcotest.fail e
  in
  let r = http_req d "POST" ("/sessions/" ^ id ^ "/step") {|{"steps":40}|} in
  Alcotest.(check int) "step" 200 r.Client.status;
  let r = http_req d "POST" ("/sessions/" ^ id ^ "/hibernate") "" in
  Alcotest.(check int) "hibernate" 200 r.Client.status;
  (* The trace endpoint streams chunked JSONL that parses back into
     events: prologue, resume (the walk is underway), steps, run_end. *)
  let r = http_req d "GET" ("/sessions/" ^ id ^ "/trace?steps=12") "" in
  Alcotest.(check int) "trace" 200 r.Client.status;
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' r.Client.body)
  in
  Alcotest.(check bool) "has prologue + steps" true (List.length lines >= 3);
  List.iteri
    (fun i l ->
      match Trace.event_of_string l with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "line %d: %s" i e))
    lines;
  let has_kind k =
    List.exists
      (fun l ->
        match Json.of_string l with
        | Ok j -> (
            match Option.bind (Json.member "type" j) Json.to_string_opt with
            | Some e -> e = k
            | None -> false)
        | Error _ -> false)
      lines
  in
  Alcotest.(check bool) "run_start" true (has_kind "run_start");
  Alcotest.(check bool) "resume" true (has_kind "resume");
  Alcotest.(check bool) "run_end" true (has_kind "run_end");
  (* /metrics must be valid OpenMetrics and carry the session gauges. *)
  let r = http_req d "GET" "/metrics" "" in
  Alcotest.(check int) "metrics" 200 r.Client.status;
  (match Obs.Export.validate r.Client.body with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("openmetrics: " ^ e));
  let has_line pre =
    List.exists
      (fun l -> String.length l >= String.length pre
                && String.sub l 0 (String.length pre) = pre)
      (String.split_on_char '\n' r.Client.body)
  in
  Alcotest.(check bool) "sessions gauge" true (has_line "ewalk_sessions ");
  Alcotest.(check bool) "hibernation counter" true
    (has_line "ewalk_hibernations_total");
  let r = http_req d "DELETE" ("/sessions/" ^ id) "" in
  Alcotest.(check int) "delete" 200 r.Client.status;
  let r = http_req d "GET" ("/sessions/" ^ id) "" in
  Alcotest.(check int) "gone" 404 r.Client.status

let http_quit_says_bye () =
  with_daemon @@ fun d ->
  let r = http_req d "GET" "/quit" "" in
  Alcotest.(check int) "quit status" 200 r.Client.status;
  Alcotest.(check string) "quit body" "bye\n" r.Client.body;
  (* The stop flag is set once "bye" has been written. *)
  let rec wait n =
    if Daemon.stopped d then ()
    else if n = 0 then Alcotest.fail "daemon did not stop after /quit"
    else begin
      Unix.sleepf 0.05;
      wait (n - 1)
    end
  in
  wait 100

(* Raw framing abuse: the daemon must answer (or close) and keep serving.
   Every probe is followed by a /healthz check. *)
let raw_probe port bytes =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (try
         ignore (Unix.write_substring fd bytes 0 (String.length bytes))
       with Unix.Unix_error _ -> ());
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ -> ());
      let buf = Bytes.create 4096 in
      let out = Buffer.create 128 in
      (try
         let rec drain () =
           let k = Unix.read fd buf 0 (Bytes.length buf) in
           if k > 0 then begin
             Buffer.add_subbytes out buf 0 k;
             drain ()
           end
         in
         drain ()
       with Unix.Unix_error _ -> ());
      Buffer.contents out)

let http_framing_abuse () =
  with_daemon @@ fun d ->
  let port = Daemon.port d in
  let corpus =
    [
      "";
      "\r\n\r\n";
      "GET\r\n\r\n";
      "GET /healthz\r\n\r\n";
      "FROB /sessions HTTP/1.1\r\n\r\n";
      "POST /sessions HTTP/1.1\r\nContent-Length: 10\r\n\r\n{";
      "POST /sessions HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
      "POST /sessions HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n";
      "\x00\x01\x02\xff\xfe garbage \x7f\r\n\r\n";
      String.make 5000 'A' ^ "\r\n\r\n";
      "GET /sessions/s000001/trace?steps= HTTP/1.1\r\n\r\n";
    ]
  in
  List.iteri
    (fun i bytes ->
      ignore (raw_probe port bytes);
      let r = http_req d "GET" "/healthz" "" in
      Alcotest.(check int)
        (Printf.sprintf "alive after probe %d" i)
        200 r.Client.status)
    corpus;
  (* Parse failures must still be structured JSON errors. *)
  let out = raw_probe port "GET\r\n\r\n" in
  Alcotest.(check bool) "structured framing error" true
    (let needle = "\"error\"" in
     let ln = String.length needle and lo = String.length out in
     let rec find i =
       i + ln <= lo && (String.sub out i ln = needle || find (i + 1))
     in
     find 0)

let prop_http_fuzz =
  (* No 'q' in the alphabet: a fuzzed probe must never spell /quit. *)
  let byte =
    QCheck.Gen.(
      frequency
        [
          (6, map Char.chr (int_range 32 110));
          (1, return '\r');
          (1, return '\n');
          (1, map Char.chr (int_range 0 31));
        ])
  in
  let gen = QCheck.Gen.(string_size ~gen:byte (int_bound 120)) in
  QCheck.Test.make ~count:40
    ~name:"transport: random request bytes never kill the daemon"
    (QCheck.make ~print:String.escaped gen)
    (fun bytes ->
      QCheck.assume (not (String.length bytes >= 4
                          && String.sub bytes 0 4 = "quit"));
      with_daemon @@ fun d ->
      ignore (raw_probe (Daemon.port d) bytes);
      let r = http_req d "GET" "/healthz" "" in
      r.Client.status = 200)

(* -- concurrent-session determinism ----------------------------------------- *)

(* Two clients (real domains, real sockets) drive identically-configured
   sessions on one daemon: their trace streams must be byte-identical,
   and identical across pool sizes 1 and 4. *)
let concurrent_determinism () =
  let drive port =
    let body = cfg_body ~family:"regular:4" ~n:48 ~seed:7 ~walkers:4 ~mode:"competing" () in
    let client () =
      match Client.request ~port ~meth:"POST" ~path:"/sessions" ~body () with
      | Error e -> Error e
      | Ok { Client.status = 201; body = b } -> (
          match Json.of_string b with
          | Error e -> Error e
          | Ok j -> (
              match Option.bind (Json.member "id" j) Json.to_string_opt with
              | None -> Error "no id"
              | Some id -> (
                  match
                    Client.request ~port ~meth:"POST"
                      ~path:("/sessions/" ^ id ^ "/step")
                      ~body:{|{"steps":30}|} ()
                  with
                  | Error e -> Error e
                  | Ok { Client.status = 200; _ } -> (
                      match
                        Client.request ~port ~meth:"GET"
                          ~path:("/sessions/" ^ id ^ "/trace?steps=40")
                          ()
                      with
                      | Error e -> Error e
                      | Ok { Client.status = 200; body } -> Ok body
                      | Ok r ->
                          Error (Printf.sprintf "trace: %d" r.Client.status))
                  | Ok r -> Error (Printf.sprintf "step: %d" r.Client.status))))
      | Ok r -> Error (Printf.sprintf "create: %d" r.Client.status)
    in
    let d1 = Domain.spawn client and d2 = Domain.spawn client in
    let r1 = Domain.join d1 and r2 = Domain.join d2 in
    match (r1, r2) with
    | Ok b1, Ok b2 -> (b1, b2)
    | Error e, _ | _, Error e -> Alcotest.fail ("client: " ^ e)
  in
  let with_pool jobs f =
    if jobs <= 1 then f None
    else begin
      let pool = Pool.create ~jobs () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
          f (Some pool))
    end
  in
  let run jobs =
    with_pool jobs @@ fun pool ->
    with_daemon ?pool @@ fun d -> drive (Daemon.port d)
  in
  let a1, a2 = run 1 in
  Alcotest.(check bool) "streams non-trivial" true (String.length a1 > 200);
  Alcotest.(check string) "jobs=1: two clients identical" a1 a2;
  let b1, b2 = run 4 in
  Alcotest.(check string) "jobs=4: two clients identical" b1 b2;
  Alcotest.(check string) "jobs=1 and jobs=4 identical" a1 b1

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "config defaults" `Quick proto_config_defaults;
          Alcotest.test_case "config rejections" `Quick proto_config_rejections;
          Alcotest.test_case "step requests" `Quick proto_step_requests;
        ] );
      ( "router",
        [
          Alcotest.test_case "malformed requests" `Quick router_malformed;
          Alcotest.test_case "session lifecycle" `Quick router_lifecycle;
          qcheck prop_router_fuzz;
        ] );
      ( "lifecycle",
        [
          qcheck prop_lifecycle_equivalence;
          Alcotest.test_case "restart recovery" `Quick
            registry_restart_recovery;
          Alcotest.test_case "resident cap eviction" `Quick
            registry_resident_cap;
          Alcotest.test_case "swap-partition snapshot is a 409" `Quick
            router_refuses_partition_snapshot;
        ] );
      ( "http",
        [
          Alcotest.test_case "lifecycle over loopback" `Quick http_lifecycle;
          Alcotest.test_case "/quit answers bye" `Quick http_quit_says_bye;
          Alcotest.test_case "framing abuse" `Quick http_framing_abuse;
          qcheck prop_http_fuzz;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "concurrent clients, jobs 1 vs 4" `Quick
            concurrent_determinism;
        ] );
    ]
