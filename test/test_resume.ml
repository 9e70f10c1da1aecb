(* Tests for the durability layer (Ewalk_resume): CRC-32 known answers,
   snapshot save/restore-then-continue equivalence for every snapshottable
   walk (qcheck over generated graphs for the E-process), corrupted and
   mismatched snapshot rejection, campaign journal memoization / resume /
   truncation tolerance, and the EWALK_FAULT_SPEC grammar. *)

module Crc32 = Ewalk_resume.Crc32
module Snapshot = Ewalk_resume.Snapshot
module Campaign = Ewalk_resume.Campaign
module Faults = Ewalk_resume.Faults
module Json = Ewalk_obs.Json
module Rng = Ewalk_prng.Rng
module Eprocess = Ewalk.Eprocess
module Srw = Ewalk.Srw
module Rotor = Ewalk.Rotor
module Coverage = Ewalk.Coverage
module Exp_util = Ewalk_expt.Exp_util
module Runlog = Ewalk_obs.Runlog

let qcheck = QCheck_alcotest.to_alcotest

let temp_path suffix =
  let path = Filename.temp_file "ewalk-resume" suffix in
  path

let temp_dir () =
  let d = Filename.temp_file "ewalk-resume" ".d" in
  Sys.remove d;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    if Sys.is_directory dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ()
    end
    else Sys.remove dir
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* First-occurrence substring replacement (no Str dependency). *)
let replace_once ~sub ~by s =
  let ls = String.length s and lsub = String.length sub in
  let rec find i =
    if i + lsub > ls then None
    else if String.sub s i lsub = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
      String.sub s 0 i ^ by ^ String.sub s (i + lsub) (ls - i - lsub)

(* -- Crc32 ------------------------------------------------------------------ *)

let crc32_known_answers () =
  (* The standard CRC-32 check value, plus anchors for "" and "a". *)
  Alcotest.(check string)
    "check value" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Crc32.to_hex (Crc32.string ""));
  Alcotest.(check string) "a" "e8b7be43" (Crc32.to_hex (Crc32.string "a"))

let crc32_hex_roundtrip () =
  List.iter
    (fun s ->
      let c = Crc32.string s in
      match Crc32.of_hex (Crc32.to_hex c) with
      | Some c' -> Alcotest.(check int32) s c c'
      | None -> Alcotest.fail "of_hex rejected its own to_hex")
    [ ""; "a"; "123456789"; String.make 1000 'x' ]

(* -- Rng save/restore ------------------------------------------------------- *)

let prop_rng_save_restore =
  QCheck.Test.make ~name:"Rng save/restore continues the same stream"
    ~count:200
    QCheck.(pair small_int (int_range 0 200))
    (fun (seed, warmup) ->
      let r = Rng.create ~seed () in
      for _ = 1 to warmup do
        ignore (Rng.bits64 r)
      done;
      let words = Rng.save r in
      let a = Array.init 32 (fun _ -> Rng.int r 1_000_000) in
      let r' = Rng.restore words in
      let b = Array.init 32 (fun _ -> Rng.int r' 1_000_000) in
      a = b)

let rng_restore_validates () =
  Alcotest.check_raises "wrong word count"
    (Invalid_argument "Rng.restore: expected 4 state words") (fun () ->
      ignore (Rng.restore [| 1L; 2L |]))

(* -- Snapshot round trips --------------------------------------------------- *)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Snapshot.error_to_string e)

(* Continue [live] (never serialized) and [restored] in lockstep for
   [horizon] steps, checking position, step counters and coverage agree at
   every step: the definition of a faithful snapshot. *)
let check_lockstep ~horizon ~step ~position ~steps ~coverage live restored =
  for i = 1 to horizon do
    step live;
    step restored;
    Alcotest.(check int)
      (Printf.sprintf "position at +%d" i)
      (position live) (position restored);
    Alcotest.(check int)
      (Printf.sprintf "steps at +%d" i)
      (steps live) (steps restored)
  done;
  Alcotest.(check int)
    "vertices visited"
    (Coverage.vertices_visited (coverage live))
    (Coverage.vertices_visited (coverage restored));
  Alcotest.(check int)
    "edges visited"
    (Coverage.edges_visited (coverage live))
    (Coverage.edges_visited (coverage restored))

let prop_eprocess_snapshot_roundtrip =
  QCheck.Test.make
    ~name:"snapshot restore-then-continue = uninterrupted (e-process)"
    ~count:25
    QCheck.(triple (int_range 4 32) (int_range 0 150) (int_range 0 1000))
    (fun (half_n, k, seed) ->
      let n = 2 * half_n in
      let g = Exp_util.regular_graph (Rng.create ~seed ()) ~n ~d:4 in
      let p = Eprocess.create g (Rng.create ~seed:(seed + 1) ()) ~start:0 in
      for _ = 1 to k do
        Eprocess.step p
      done;
      let path = temp_path ".snap" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          (match Snapshot.write ~path (Snapshot.Eprocess p) with
          | Ok () -> ()
          | Error e ->
              QCheck.Test.fail_reportf "write: %s" (Snapshot.error_to_string e));
          let q =
            match Snapshot.read g ~path with
            | Ok (Snapshot.Eprocess q) -> q
            | Ok _ -> QCheck.Test.fail_reportf "restored the wrong walk kind"
            | Error e ->
                QCheck.Test.fail_reportf "read: %s"
                  (Snapshot.error_to_string e)
          in
          if Eprocess.steps q <> k then
            QCheck.Test.fail_reportf "restored %d steps, snapshotted at %d"
              (Eprocess.steps q) k;
          (* p continues in memory, q from disk: they must stay identical. *)
          for i = 1 to 4 * n do
            Eprocess.step p;
            Eprocess.step q;
            if Eprocess.position p <> Eprocess.position q then
              QCheck.Test.fail_reportf "positions diverged at +%d" i
          done;
          Coverage.vertices_visited (Eprocess.coverage p)
          = Coverage.vertices_visited (Eprocess.coverage q)
          && Coverage.edges_visited (Eprocess.coverage p)
             = Coverage.edges_visited (Eprocess.coverage q)
          && Eprocess.blue_steps p = Eprocess.blue_steps q
          && Eprocess.red_steps p = Eprocess.red_steps q))

(* The payload a snapshot file carries, as written. *)
let payload_of_file path =
  match Json.of_string (read_file path) with
  | Ok doc -> (
      match Json.member "payload" doc with
      | Some p -> p
      | None -> Alcotest.fail "snapshot has no payload")
  | Error e -> Alcotest.failf "snapshot is not JSON: %s" e

(* A single-walker walk writes the one-walker "kernel" payload (its
   process under [proc]) and reads back under its view's constructor. *)
let snapshot_roundtrip_fixed name ~proc make step position steps coverage wrap
    unwrap () =
  let g = Exp_util.regular_graph (Rng.create ~seed:11 ()) ~n:40 ~d:4 in
  let p = make g in
  for _ = 1 to 57 do
    step p
  done;
  let path = temp_path ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ok_or_fail (name ^ " write") (Snapshot.write ~path (wrap p));
      let payload = payload_of_file path in
      let field key = Option.bind (Json.member key payload) Json.to_string_opt in
      Alcotest.(check (option string)) (name ^ " payload kind") (Some "kernel")
        (field "kind");
      Alcotest.(check (option string)) (name ^ " payload proc") (Some proc)
        (field "proc");
      let q = unwrap (ok_or_fail (name ^ " read") (Snapshot.read g ~path)) in
      check_lockstep ~horizon:200 ~step ~position ~steps ~coverage p q)

let srw_snapshot_roundtrip =
  snapshot_roundtrip_fixed "srw" ~proc:"srw"
    (fun g -> Srw.create g (Rng.create ~seed:5 ()) ~start:0)
    Srw.step Srw.position Srw.steps Srw.coverage
    (fun p -> Snapshot.Srw p)
    (function Snapshot.Srw p -> p | _ -> Alcotest.fail "wrong kind")

let lazy_srw_snapshot_roundtrip =
  snapshot_roundtrip_fixed "lazy-srw" ~proc:"lazy-srw"
    (fun g -> Srw.create_lazy g (Rng.create ~seed:5 ()) ~start:0)
    Srw.step Srw.position Srw.steps Srw.coverage
    (fun p -> Snapshot.Srw p)
    (function Snapshot.Srw p -> p | _ -> Alcotest.fail "wrong kind")

let rotor_snapshot_roundtrip =
  snapshot_roundtrip_fixed "rotor" ~proc:"rotor"
    (fun g ->
      Rotor.create ~randomize_rotors:true g (Rng.create ~seed:5 ()) ~start:0)
    Rotor.step Rotor.position Rotor.steps Rotor.coverage
    (fun p -> Snapshot.Rotor p)
    (function Snapshot.Rotor p -> p | _ -> Alcotest.fail "wrong kind")

(* -- kernel-competing snapshots (one visited set per walker) ---------------- *)

module Kengine = Ewalk.Engine

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false else String.sub hay i nn = needle || go (i + 1)
  in
  go 0

(* Round trip a competing engine (one visited set per walker, walker-local
   clocks) through the "kernel-competing" payload kind and continue live vs
   restored in lockstep. *)
let competing_roundtrip proc () =
  let g = Exp_util.regular_graph (Rng.create ~seed:81 ()) ~n:48 ~d:4 in
  let e =
    Kengine.create ~mode:Kengine.Competing proc g
      (Rng.create ~seed:82 ())
      ~starts:[| 0; 5; 11; 17 |]
  in
  for _ = 1 to 157 do
    Kengine.step e
  done;
  let path = temp_path ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ok_or_fail "write" (Snapshot.write ~path (Snapshot.Kernel e));
      (* The summary cross-checks stored counters against the serialized
         bitsets' popcounts — the marker crash_matrix.sh greps for. *)
      (match Snapshot.describe ~path with
      | Ok s ->
          Alcotest.(check bool) "describe carries the popcount verdict" true
            (contains s "counter==popcount")
      | Error err -> Alcotest.failf "describe: %s" (Snapshot.error_to_string err));
      let q =
        match Snapshot.read g ~path with
        | Ok (Snapshot.Kernel q) -> q
        | Ok _ -> Alcotest.fail "restored the wrong walk kind"
        | Error err -> Alcotest.failf "read: %s" (Snapshot.error_to_string err)
      in
      Alcotest.(check int) "mode preserved" 0
        (match Kengine.mode q with Kengine.Competing -> 0 | _ -> 1);
      Alcotest.(check int) "steps preserved" (Kengine.steps e) (Kengine.steps q);
      for i = 1 to 400 do
        Kengine.step e;
        Kengine.step q;
        if Kengine.positions e <> Kengine.positions q then
          Alcotest.failf "positions diverged at +%d" i
      done;
      for w = 0 to 3 do
        Alcotest.(check int)
          (Printf.sprintf "walker %d steps" w)
          (Kengine.walker_steps e w) (Kengine.walker_steps q w);
        Alcotest.(check int)
          (Printf.sprintf "walker %d blue" w)
          (Kengine.walker_blue_steps e w)
          (Kengine.walker_blue_steps q w);
        let ce = Kengine.walker_coverage e w and cq = Kengine.walker_coverage q w in
        Alcotest.(check int)
          (Printf.sprintf "walker %d vertices" w)
          (Coverage.vertices_visited ce) (Coverage.vertices_visited cq);
        Alcotest.(check int)
          (Printf.sprintf "walker %d edges" w)
          (Coverage.edges_visited ce) (Coverage.edges_visited cq);
        Alcotest.(check (option int))
          (Printf.sprintf "walker %d cover step" w)
          (Coverage.vertex_cover_step ce) (Coverage.vertex_cover_step cq);
        Alcotest.(check (option int))
          (Printf.sprintf "walker %d edge cover step" w)
          (Coverage.edge_cover_step ce) (Coverage.edge_cover_step cq)
      done)

let expect_error what pred = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error e ->
      if not (pred e) then
        Alcotest.failf "%s: wrong error class: %s" what
          (Snapshot.error_to_string e)

let is_corrupt = function Snapshot.Corrupt _ -> true | _ -> false
let is_mismatch = function Snapshot.Mismatch _ -> true | _ -> false
let is_io = function Snapshot.Io _ -> true | _ -> false

(* Rewrite a snapshot's payload and re-seal its CRC, as a writer of that
   payload would have: what the reader then says is about the payload
   alone. *)
let reseal ?(schema = Snapshot.schema) path edit =
  match Json.of_string (read_file path) with
  | Error e -> Alcotest.failf "snapshot is not JSON: %s" e
  | Ok doc -> (
      match Json.member "payload" doc with
      | Some (Json.Obj fields) ->
          let payload = Json.to_string (Json.Obj (edit fields)) in
          write_file path
            (Printf.sprintf "{\"schema\":%s,\"crc32\":\"%s\",\"payload\":%s}\n"
               (Json.to_string (Json.String schema))
               (Crc32.to_hex (Crc32.string payload))
               payload)
      | _ -> Alcotest.fail "snapshot has no payload object")

let expect_mismatch what ~mentions = function
  | Error (Snapshot.Mismatch msg) ->
      if not (contains msg mentions) then
        Alcotest.failf "%s: mismatch message %S does not mention %S" what msg
          mentions
  | Error e -> Alcotest.failf "%s: wrong error %s" what (Snapshot.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: accepted" what

(* The derived-counter contract, for both kinds: a stored visit count
   that disagrees with its set's popcount is refused by read (a Mismatch)
   and reported by describe (Corrupt, the counter!=popcount verdict) —
   restore never trusts a count it can recount. *)
let competing_counter_recount () =
  let g = Exp_util.regular_graph (Rng.create ~seed:83 ()) ~n:32 ~d:4 in
  let path = temp_path ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun mode ->
          let e =
            Kengine.create ~mode Kengine.E_uar g (Rng.create ~seed:84 ())
              ~starts:[| 0; 1 |]
          in
          Kengine.run_steps e 64;
          List.iter
            (fun field ->
              ok_or_fail "write" (Snapshot.write ~path (Snapshot.Kernel e));
              ok_or_fail "clean read" (Result.map ignore (Snapshot.read g ~path));
              reseal path
                (List.map (fun (key, v) ->
                     match v with
                     | Json.List (Json.Int c :: rest) when key = field ->
                         (key, Json.List (Json.Int (c + 1) :: rest))
                     | _ -> (key, v)));
              expect_mismatch field ~mentions:"popcount" (Snapshot.read g ~path);
              expect_error (field ^ " inspect") is_corrupt (Snapshot.describe ~path))
            [ "vcount"; "ecount" ])
        [ Kengine.Cooperating; Kengine.Competing ])

(* -- Snapshot rejection ----------------------------------------------------- *)

let snapshot_rejects_corruption () =
  let g = Exp_util.regular_graph (Rng.create ~seed:3 ()) ~n:20 ~d:4 in
  let p = Eprocess.create g (Rng.create ~seed:4 ()) ~start:0 in
  for _ = 1 to 25 do
    Eprocess.step p
  done;
  let path = temp_path ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ok_or_fail "write" (Snapshot.write ~path (Snapshot.Eprocess p));
      let original = read_file path in
      (* Truncation: a torn write must not be restorable. *)
      write_file path (String.sub original 0 (String.length original / 2));
      expect_error "truncated" is_corrupt (Snapshot.read g ~path);
      (* Payload tampering: flip one digit somewhere after the CRC field. *)
      let tampered = Bytes.of_string original in
      let pos = String.length original - 10 in
      Bytes.set tampered pos
        (if Bytes.get tampered pos = '1' then '2' else '1');
      write_file path (Bytes.to_string tampered);
      expect_error "tampered" is_corrupt (Snapshot.read g ~path);
      (* Unknown schema versions are refused, not guessed at. *)
      write_file path
        (replace_once ~sub:Snapshot.schema ~by:"ewalk-snapshot/999" original);
      expect_error "unknown schema" is_mismatch (Snapshot.read g ~path);
      (* Valid file, wrong graph. *)
      write_file path original;
      let g' = Exp_util.regular_graph (Rng.create ~seed:3 ()) ~n:30 ~d:4 in
      expect_error "wrong graph" is_mismatch (Snapshot.read g' ~path);
      (* describe works without the graph and fails cleanly when missing. *)
      (match Snapshot.describe ~path with
      | Ok s ->
          Alcotest.(check bool) "describe mentions kind" true
            (String.length s > 0)
      | Error e ->
          Alcotest.failf "describe: %s" (Snapshot.error_to_string e));
      expect_error "missing file" is_io
        (Snapshot.read g ~path:(path ^ ".does-not-exist")))

(* A snapshot written while the marks were a swap partition carries an
   [unvisited] section under schema /2, whose UAR draws indexed the
   partition's slot order: it is refused as a Mismatch naming its schema,
   never continued.  A /3 payload whose blue steps differ from its edges
   seen is refused too. *)
let snapshot_refuses_partition () =
  let g = Exp_util.regular_graph (Rng.create ~seed:3 ()) ~n:20 ~d:4 in
  let p = Eprocess.create g (Rng.create ~seed:4 ()) ~start:0 in
  Eprocess.run_steps p 25;
  let k = Kengine.create Kengine.E_uar g (Rng.create ~seed:5 ()) ~starts:[| 0; 7 |] in
  Kengine.run_rounds k 10;
  let partition =
    Json.Obj
      [
        ("slot_list", Json.List [ Json.Int 0 ]);
        ("slot_index", Json.List [ Json.Int 0 ]);
        ("counts", Json.List [ Json.Int 1 ]);
      ]
  in
  let path = temp_path ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (what, walk) ->
          ok_or_fail "write" (Snapshot.write ~path walk);
          ok_or_fail "clean read" (Result.map ignore (Snapshot.read g ~path));
          reseal ~schema:"ewalk-snapshot/2" path (fun fields ->
              fields @ [ ("unvisited", partition) ]);
          expect_mismatch what ~mentions:"\"ewalk-snapshot/2\"" (Snapshot.read g ~path);
          expect_mismatch (what ^ " inspect") ~mentions:"\"ewalk-snapshot/2\""
            (Snapshot.describe ~path))
        [ ("e-process", Snapshot.Eprocess p); ("kernel", Snapshot.Kernel k) ];
      ok_or_fail "write" (Snapshot.write ~path (Snapshot.Eprocess p));
      reseal path
        (List.map (fun (key, v) ->
             match (key, v) with
             | "wblue", Json.List [ Json.Int b ] -> (key, Json.List [ Json.Int (b - 1) ])
             | "wred", Json.List [ Json.Int r ] -> (key, Json.List [ Json.Int (r + 1) ])
             | _ -> (key, v)));
      expect_mismatch "blue steps != edges seen" ~mentions:"edges seen"
        (Snapshot.read g ~path))

(* The single-walker kinds were retired before schema /3: a /1 or /2 file
   carrying one is refused as a Mismatch that names its schema — by read
   and by describe alike. *)
let snapshot_refuses_retired_kinds () =
  let g = Exp_util.regular_graph (Rng.create ~seed:3 ()) ~n:20 ~d:4 in
  let p = Eprocess.create g (Rng.create ~seed:4 ()) ~start:0 in
  Eprocess.run_steps p 25;
  let path = temp_path ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (schema, kind) ->
          ok_or_fail "write" (Snapshot.write ~path (Snapshot.Eprocess p));
          reseal ~schema path
            (List.map (fun (key, v) ->
                 if key = "kind" then (key, Json.String kind) else (key, v)));
          let mentions = Printf.sprintf "%S" schema in
          expect_mismatch kind ~mentions (Snapshot.read g ~path);
          expect_mismatch (kind ^ " inspect") ~mentions (Snapshot.describe ~path))
        [
          ("ewalk-snapshot/1", "eprocess");
          ("ewalk-snapshot/2", "srw");
          ("ewalk-snapshot/2", "lazy-srw");
          ("ewalk-snapshot/1", "rotor");
        ])

(* A covered walk's cover steps are checked on restore: each is set
   exactly when its set is full, and then lies within the walk's clock.  A
   resealed file breaking either rule is refused as a Mismatch, so a
   resumed covered walk always knows when it covered. *)
let snapshot_checks_cover_steps () =
  let g = Exp_util.regular_graph (Rng.create ~seed:3 ()) ~n:20 ~d:4 in
  let p = Eprocess.create g (Rng.create ~seed:4 ()) ~start:0 in
  (match Ewalk.Cover.run_until_edge_cover (Eprocess.process p) with
  | Some _ -> ()
  | None -> Alcotest.fail "walk did not cover");
  Eprocess.run_steps p 10;
  let steps = Eprocess.steps p in
  let path = temp_path ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (field, value) ->
          ok_or_fail "write" (Snapshot.write ~path (Snapshot.Eprocess p));
          ok_or_fail "clean read" (Result.map ignore (Snapshot.read g ~path));
          reseal path
            (List.map (fun (key, v) ->
                 if key = field then (key, Json.List [ Json.Int value ]) else (key, v)));
          expect_mismatch
            (Printf.sprintf "%s = %d" field value)
            ~mentions:"cover step" (Snapshot.read g ~path))
        [
          ("cover_at", -1);
          ("cover_at", steps + 1);
          ("ecover_at", -1);
          ("ecover_at", steps + 1);
        ];
      (* Mid-walk, a set cover step on an unfilled set is refused too. *)
      let q = Eprocess.create g (Rng.create ~seed:4 ()) ~start:0 in
      Eprocess.run_steps q 5;
      ok_or_fail "write" (Snapshot.write ~path (Snapshot.Eprocess q));
      reseal path
        (List.map (fun (key, v) ->
             if key = "cover_at" then (key, Json.List [ Json.Int 3 ]) else (key, v)));
      expect_mismatch "early cover step" ~mentions:"cover step" (Snapshot.read g ~path))

(* -- Snapshot run provenance ------------------------------------------------- *)

let snapshot_provenance () =
  let g = Exp_util.regular_graph (Rng.create ~seed:3 ()) ~n:20 ~d:4 in
  let p = Eprocess.create g (Rng.create ~seed:4 ()) ~start:0 in
  for _ = 1 to 10 do
    Eprocess.step p
  done;
  let path = temp_path ".snap" in
  Fun.protect
    ~finally:(fun () ->
      Runlog.set_current None;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* The ambient run's id and parent land in the header and read back. *)
      Runlog.set_current
        (Some
           {
             Runlog.run_id = "raaaaaaaaaaaaaaaa";
             parent_run_id = Some "rbbbbbbbbbbbbbbbb";
           });
      ok_or_fail "write" (Snapshot.write ~path (Snapshot.Eprocess p));
      (match Snapshot.read_with_id g ~path with
      | Ok (_, run) ->
          Alcotest.(check string) "run_id read back" "raaaaaaaaaaaaaaaa"
            run.Runlog.run_id;
          Alcotest.(check (option string))
            "parent read back" (Some "rbbbbbbbbbbbbbbbb")
            run.Runlog.parent_run_id
      | Error e -> Alcotest.failf "read_with_id: %s" (Snapshot.error_to_string e));
      (* A malformed run_id is refused, not trusted: uppercase hex fails
         validate_id, so the length (and CRC'd payload) are untouched. *)
      let original = read_file path in
      write_file path
        (replace_once ~sub:"raaaaaaaaaaaaaaaa" ~by:"rZZZZZZZZZZZZZZZZ" original);
      expect_error "malformed run_id" is_corrupt
        (Result.map fst (Snapshot.read_with_id g ~path));
      (* A provenance-free header (what a writer with no ambient run
         produces) still loads — with a deterministic synthesized id. *)
      Runlog.set_current None;
      ok_or_fail "plain write" (Snapshot.write ~path (Snapshot.Eprocess p));
      Alcotest.(check bool) "no run id written" false
        (contains (read_file path) "run_id");
      match Snapshot.read_with_id g ~path with
      | Error e -> Alcotest.failf "legacy read: %s" (Snapshot.error_to_string e)
      | Ok (_, run) -> (
          Alcotest.(check bool) "synthesized id well-formed" true
            (Runlog.validate_id run.Runlog.run_id);
          Alcotest.(check bool) "no parent on legacy" true
            (run.Runlog.parent_run_id = None);
          match Snapshot.read_with_id g ~path with
          | Ok (_, run2) ->
              Alcotest.(check string) "synthesized id stable across loads"
                run.Runlog.run_id run2.Runlog.run_id
          | Error e ->
              Alcotest.failf "legacy reload: %s" (Snapshot.error_to_string e)))

(* -- Campaign --------------------------------------------------------------- *)

let manifest = [ ("experiment", Json.String "t"); ("seed", Json.Int 1) ]

let ok_campaign what = function
  | Ok c -> c
  | Error e -> Alcotest.failf "%s: %s" what e

let campaign_memoizes_and_resumes () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let runs = ref 0 in
  let trial v () =
    incr runs;
    v
  in
  let c = ok_campaign "open" (Campaign.open_ ~dir ~manifest ~resume:false) in
  Alcotest.(check int) "batch a.0" 0 (Campaign.next_batch c ~label:"a");
  Alcotest.(check int) "batch a.1" 1 (Campaign.next_batch c ~label:"a");
  Alcotest.(check int) "batch b.0" 0 (Campaign.next_batch c ~label:"b");
  Alcotest.(check (float 0.0)) "first run executes" 0.3 (Campaign.run c ~key:"a#0:0" (trial 0.3));
  Alcotest.(check (float 0.0)) "second run memoized" 0.3 (Campaign.run c ~key:"a#0:0" (trial 0.9));
  Alcotest.(check int) "one execution" 1 !runs;
  ignore (Campaign.run c ~key:"a#0:1" (trial 0.7));
  Alcotest.(check int) "completed" 2 (Campaign.completed c);
  Campaign.close c;
  (* A fresh (non-resume) open refuses the leftover campaign. *)
  (match Campaign.open_ ~dir ~manifest ~resume:false with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fresh open over an existing campaign accepted");
  (* A mismatched manifest refuses to resume. *)
  (match
     Campaign.open_ ~dir
       ~manifest:[ ("experiment", Json.String "other") ]
       ~resume:true
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "manifest mismatch accepted");
  (* Resume replays the journal: same values, bit for bit, no execution. *)
  let c2 = ok_campaign "resume" (Campaign.open_ ~dir ~manifest ~resume:true) in
  runs := 0;
  let v = Campaign.run c2 ~key:"a#0:0" (trial 99.0) in
  Alcotest.(check int) "replayed without executing" 0 !runs;
  Alcotest.(check bool) "float bit-identical" true
    (Int64.bits_of_float v = Int64.bits_of_float 0.3);
  Alcotest.(check int) "cached counter" 1 (Campaign.cached c2);
  let w = Campaign.run c2 ~key:"a#1:0" (trial 1.5) in
  Alcotest.(check int) "miss executes" 1 !runs;
  Alcotest.(check (float 0.0)) "miss value" 1.5 w;
  Alcotest.(check int) "executed counter" 1 (Campaign.executed c2);
  Campaign.close c2

let campaign_tolerates_truncated_journal () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let c = ok_campaign "open" (Campaign.open_ ~dir ~manifest ~resume:false) in
  ignore (Campaign.run c ~key:"a#0:0" (fun () -> 1));
  ignore (Campaign.run c ~key:"a#0:1" (fun () -> 2));
  Campaign.close c;
  (* Simulate a crash mid-append: an unterminated trailing line. *)
  let journal = Filename.concat dir Campaign.journal_basename in
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 journal
  in
  output_string oc "{\"key\":\"a#0:2\",\"data\":\"00";
  close_out oc;
  let c2 = ok_campaign "resume" (Campaign.open_ ~dir ~manifest ~resume:true) in
  Alcotest.(check int) "torn line dropped" 2 (Campaign.completed c2);
  let runs = ref 0 in
  let v =
    Campaign.run c2 ~key:"a#0:2" (fun () ->
        incr runs;
        3)
  in
  Alcotest.(check int) "torn trial re-executes" 1 !runs;
  Alcotest.(check int) "torn trial value" 3 v;
  Campaign.close c2;
  (* The re-run was journaled: a third open replays all three. *)
  let c3 = ok_campaign "reopen" (Campaign.open_ ~dir ~manifest ~resume:true) in
  Alcotest.(check int) "journal healed" 3 (Campaign.completed c3);
  Campaign.close c3

let campaign_describe () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (match Campaign.describe ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "describe of a non-campaign dir accepted");
  let c = ok_campaign "open" (Campaign.open_ ~dir ~manifest ~resume:false) in
  ignore (Campaign.run c ~key:"a#0:0" (fun () -> 1));
  Campaign.close c;
  match Campaign.describe ~dir with
  | Ok s ->
      Alcotest.(check bool) "mentions schema" true
        (String.length s > 0
        && String.sub s 0 (String.length Campaign.schema) = Campaign.schema)
  | Error e -> Alcotest.failf "describe: %s" e

let campaign_provenance_and_v1_resume () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      Runlog.set_current None;
      rm_rf dir)
  @@ fun () ->
  Runlog.set_current
    (Some { Runlog.run_id = "rcccccccccccccccc"; parent_run_id = None });
  let c = ok_campaign "open" (Campaign.open_ ~dir ~manifest ~resume:false) in
  ignore (Campaign.run c ~key:"a#0:0" (fun () -> 1.0));
  Campaign.close c;
  (* The manifest records the creating run, journal rows are stamped. *)
  (match Campaign.provenance ~dir with
  | Ok r ->
      Alcotest.(check string) "manifest run id" "rcccccccccccccccc"
        r.Runlog.run_id
  | Error e -> Alcotest.failf "provenance: %s" e);
  Alcotest.(check bool) "journal rows stamped" true
    (contains
       (read_file (Filename.concat dir Campaign.journal_basename))
       "\"run_id\":\"rcccccccccccccccc\"");
  (* A v1 manifest (no provenance, old schema tag) still resumes: the
     identity comparison ignores schema and run_id fields. *)
  let mpath = Filename.concat dir Campaign.manifest_basename in
  let v1 =
    replace_once ~sub:"ewalk-campaign/2" ~by:"ewalk-campaign/1"
      (replace_once
         ~sub:",\"run_id\":\"rcccccccccccccccc\",\"parent_run_id\":null"
         ~by:"" (read_file mpath))
  in
  Alcotest.(check bool) "fixture stripped provenance" false
    (contains v1 "run_id");
  write_file mpath v1;
  Runlog.set_current None;
  let c2 = ok_campaign "v1 resume" (Campaign.open_ ~dir ~manifest ~resume:true) in
  Alcotest.(check int) "journal replayed" 1 (Campaign.completed c2);
  Campaign.close c2;
  (* Legacy provenance synthesizes a stable, well-formed id... *)
  (match (Campaign.provenance ~dir, Campaign.provenance ~dir) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "legacy id well-formed" true
        (Runlog.validate_id a.Runlog.run_id);
      Alcotest.(check string) "legacy id stable" a.Runlog.run_id b.Runlog.run_id
  | (Error e, _ | _, Error e) -> Alcotest.failf "legacy provenance: %s" e);
  (* ...but a malformed run_id field is an error, not trusted. *)
  write_file mpath
    (replace_once ~sub:"\"experiment\":\"t\""
       ~by:"\"experiment\":\"t\",\"run_id\":\"bogus\"" (read_file mpath));
  match Campaign.provenance ~dir with
  | Error e ->
      Alcotest.(check bool) "error mentions run_id" true (contains e "run_id")
  | Ok _ -> Alcotest.fail "malformed manifest run_id accepted"

(* -- Faults ----------------------------------------------------------------- *)

let faults_parse_roundtrip () =
  let cases =
    [
      ("", []);
      ("kill-trial:7", [ Faults.Kill_trial 7 ]);
      ("fail-lane:2", [ Faults.Fail_lane { lane = 2; always = false } ]);
      ("fail-lane:2:once", [ Faults.Fail_lane { lane = 2; always = false } ]);
      ("fail-lane:0:always", [ Faults.Fail_lane { lane = 0; always = true } ]);
      ( "kill-trial:3,fail-lane:1",
        [ Faults.Kill_trial 3; Faults.Fail_lane { lane = 1; always = false } ]
      );
    ]
  in
  List.iter
    (fun (spec, want) ->
      match Faults.parse spec with
      | Ok got ->
          if got <> want then Alcotest.failf "parse %S: wrong clauses" spec;
          (match Faults.parse (Faults.to_string got) with
          | Ok again when again = got -> ()
          | _ -> Alcotest.failf "to_string of %S not parseable back" spec)
      | Error e -> Alcotest.failf "parse %S: %s" spec e)
    cases;
  List.iter
    (fun spec ->
      match Faults.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse %S: accepted" spec)
    [ "bogus"; "kill-trial:0"; "kill-trial:x"; "fail-lane:-1"; "fail-lane:1:n" ];
  Alcotest.(check int) "exit code is EX_SOFTWARE" 70 Faults.kill_exit_code

let () =
  Alcotest.run "resume"
    [
      ( "crc32",
        [
          Alcotest.test_case "known answers" `Quick crc32_known_answers;
          Alcotest.test_case "hex round trip" `Quick crc32_hex_roundtrip;
        ] );
      ( "rng",
        [
          qcheck prop_rng_save_restore;
          Alcotest.test_case "restore validates" `Quick rng_restore_validates;
        ] );
      ( "snapshot",
        [
          qcheck prop_eprocess_snapshot_roundtrip;
          Alcotest.test_case "srw round trip" `Quick srw_snapshot_roundtrip;
          Alcotest.test_case "lazy-srw round trip" `Quick
            lazy_srw_snapshot_roundtrip;
          Alcotest.test_case "rotor round trip" `Quick rotor_snapshot_roundtrip;
          Alcotest.test_case "kernel-competing round trip (e-uar)" `Quick
            (competing_roundtrip Kengine.E_uar);
          Alcotest.test_case "kernel-competing round trip (rotor)" `Quick
            (competing_roundtrip Kengine.Rotor);
          Alcotest.test_case "kernel-competing counter recount" `Quick
            competing_counter_recount;
          Alcotest.test_case "run provenance" `Quick snapshot_provenance;
          Alcotest.test_case "rejects corruption" `Quick
            snapshot_rejects_corruption;
          Alcotest.test_case "refuses swap-partition payloads" `Quick
            snapshot_refuses_partition;
          Alcotest.test_case "refuses retired single-walker kinds" `Quick
            snapshot_refuses_retired_kinds;
          Alcotest.test_case "checks cover steps" `Quick
            snapshot_checks_cover_steps;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "memoizes and resumes" `Quick
            campaign_memoizes_and_resumes;
          Alcotest.test_case "tolerates torn journal" `Quick
            campaign_tolerates_truncated_journal;
          Alcotest.test_case "describe" `Quick campaign_describe;
          Alcotest.test_case "provenance and v1 resume" `Quick
            campaign_provenance_and_v1_resume;
        ] );
      ( "faults",
        [
          Alcotest.test_case "spec grammar" `Quick faults_parse_roundtrip;
        ] );
    ]
