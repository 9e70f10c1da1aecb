(* Golden trajectory pins: every walk this library steps, run to vertex
   cover plus 1000 steps on two stock graphs and two seeds, reduced to one
   line — cover step, final positions, blue/red step counts (read off the
   event stream), a digest of the full trace-event stream, and the
   caller's generator words afterwards.  Two committed snapshots (one
   cooperating, one competing engine) must load and continue to their
   pinned digests, and the same two states as the previous schema wrote
   them must be refused, naming that schema.

   The pinned lines live in golden/trajectories.txt.  A refactor of the
   stepping code must leave every line unchanged: any difference means
   some run drew a different number, or drew in a different order. *)

module Graph = Ewalk_graph.Graph
module Gen_classic = Ewalk_graph.Gen_classic
module Rng = Ewalk_prng.Rng
module Trace = Ewalk_obs.Trace
module Pool = Ewalk_par.Pool
module Cover = Ewalk.Cover
module Eprocess = Ewalk.Eprocess
module Srw = Ewalk.Srw
module Rotor = Ewalk.Rotor
module Engine = Ewalk.Engine
module Snapshot = Ewalk_resume.Snapshot

let graphs =
  [ ("torus6x5", Gen_classic.torus2d 6 5); ("lollipop8-8", Gen_classic.lollipop 8 8) ]

let seeds = [ 1; 2 ]
let tail = 1000

(* Event-stream accumulator: the digest of every event's JSONL rendering
   plus the blue/red step counts. *)
type recorder = { buf : Buffer.t; mutable blue : int; mutable red : int }

let recorder () = { buf = Buffer.create 4096; blue = 0; red = 0 }

let record r ev =
  (match ev with
  | Trace.Step { blue; _ } -> if blue then r.blue <- r.blue + 1 else r.red <- r.red + 1
  | _ -> ());
  Buffer.add_string r.buf (Trace.event_to_string ev);
  Buffer.add_char r.buf '\n'

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let words a =
  String.concat "," (Array.to_list (Array.map (Printf.sprintf "%Lx") a))

let line ~id ~cover ~positions r ~rng_words =
  Printf.sprintf "%s cover=%s pos=%s blue=%d red=%d digest=%s rng=%s" id
    (match cover with None -> "-" | Some c -> string_of_int c)
    (ints positions) r.blue r.red
    (Digest.to_hex (Digest.string (Buffer.contents r.buf)))
    (words rng_words)

(* The single-walker walks, built the way their callers build them: the
   walk draws from the caller's generator and advances it. *)
let single_walkers =
  [
    "e-uar"; "e-lowest"; "e-highest"; "e-adversary-min-blue"; "srw"; "lazy-srw";
    "rotor-randomized";
  ]

let single_walk kind g rng =
  let start = 0 in
  match kind with
  | "e-uar" -> Eprocess.create g rng ~start
  | "e-lowest" -> Eprocess.create ~rule:Eprocess.Lowest_slot g rng ~start
  | "e-highest" -> Eprocess.create ~rule:Eprocess.Highest_slot g rng ~start
  | "e-adversary-min-blue" ->
      Eprocess.create
        ~rule:(Eprocess.Adversarial Ewalk_expt.Exp_util.adversary_min_blue)
        g rng ~start
  | "srw" -> Srw.create g rng ~start
  | "lazy-srw" -> Srw.create_lazy g rng ~start
  | "rotor-randomized" -> Rotor.create ~randomize_rotors:true g rng ~start
  | other -> invalid_arg other

let engine_observer eng r = Engine.set_observer eng (Some (fun ~walker:_ ev -> record r ev))

let single_line gname g seed kind =
  let rng = Rng.create ~seed () in
  let r = recorder () in
  let walk = single_walk kind g rng in
  engine_observer walk r;
  let p = Engine.process walk in
  let cover = Cover.run_until_vertex_cover p in
  Cover.run_steps p tail;
  line
    ~id:(Printf.sprintf "%s/seed=%d/%s" gname seed kind)
    ~cover ~positions:[| p.Cover.position () |] r ~rng_words:(Rng.save rng)

let cooperating_line gname g seed =
  let rng = Rng.create ~seed () in
  let eng = Engine.create_spread Engine.E_uar g rng ~walkers:4 in
  let r = recorder () in
  engine_observer eng r;
  let p = Engine.process eng in
  let cover = Cover.run_until_vertex_cover p in
  Cover.run_steps p tail;
  line
    ~id:(Printf.sprintf "%s/seed=%d/engine-w4-cooperating" gname seed)
    ~cover ~positions:(Engine.positions eng) r ~rng_words:(Rng.save rng)

(* The competing engine runs twice: observed (sequential, for the event
   digest) and unobserved over the ambient pool (the sharded path).  Both
   must land in the same state. *)
let competing_line gname g seed =
  let run ?pool observe =
    let rng = Rng.create ~seed () in
    let eng =
      Engine.create_spread ~mode:Engine.Competing Engine.E_uar g rng ~walkers:4
    in
    let r = recorder () in
    if observe then engine_observer eng r;
    let first = Engine.run_until_first_cover ?pool eng in
    Engine.run_rounds ?pool eng (tail / 4);
    (eng, rng, r, Option.map snd first)
  in
  let eng, rng, r, cover = run true in
  let eng', _, _, cover' = Pool.with_pool (fun pool -> run ~pool false) in
  Alcotest.(check (option int)) "pooled first cover" cover cover';
  Alcotest.(check (array int)) "pooled positions" (Engine.positions eng)
    (Engine.positions eng');
  Alcotest.(check (pair int int)) "pooled blue/red"
    (Engine.blue_steps eng, Engine.red_steps eng)
    (Engine.blue_steps eng', Engine.red_steps eng');
  line
    ~id:(Printf.sprintf "%s/seed=%d/engine-w4-competing" gname seed)
    ~cover ~positions:(Engine.positions eng) r ~rng_words:(Rng.save rng)

(* Committed snapshots: each must load on its graph and continue to the
   pinned digest.  [rng] pins the walker lanes' words after the
   continuation.  They hold [Engine.create_spread E_uar] walks of three
   walkers: cooperating on torus 6x5 from seed 5 after 150 steps, and
   competing on lollipop 8-8 from seed 6 after 200 steps. *)
let snapshots =
  [
    ("kernel", "golden/kernel.snapshot.json", Gen_classic.torus2d 6 5);
    ( "kernel-competing",
      "golden/kernel-competing.snapshot.json",
      Gen_classic.lollipop 8 8 );
  ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The same two states as schema /2 wrote them. *)
let earlier_schema_refused () =
  List.iter
    (fun (_, path, g) ->
      let v2 = Filename.chop_suffix path ".snapshot.json" ^ ".v2.snapshot.json" in
      match Snapshot.read g ~path:v2 with
      | Error (Snapshot.Mismatch msg) ->
          Alcotest.(check bool) (v2 ^ " names its schema") true
            (contains msg {|"ewalk-snapshot/2"|})
      | Error e -> Alcotest.failf "%s: %s" v2 (Snapshot.error_to_string e)
      | Ok _ -> Alcotest.failf "%s: loaded" v2)
    snapshots

let snapshot_line (kind, path, g) =
  match Snapshot.read g ~path with
  | Error e -> Alcotest.failf "%s: %s" path (Snapshot.error_to_string e)
  | Ok (Snapshot.Kernel eng) ->
      let r = recorder () in
      engine_observer eng r;
      let steps0 = Engine.steps eng in
      for _ = 1 to tail do
        Engine.step eng
      done;
      line
        ~id:(Printf.sprintf "snapshot/%s/from=%d" kind steps0)
        ~cover:None ~positions:(Engine.positions eng) r
        ~rng_words:(Engine.checkpoint eng).Engine.ck_prng
  | Ok _ -> Alcotest.failf "%s: not a kernel snapshot" path

let actual_lines () =
  List.concat_map
    (fun (gname, g) ->
      List.concat_map
        (fun seed ->
          List.map (single_line gname g seed) single_walkers
          @ [ cooperating_line gname g seed; competing_line gname g seed ])
        seeds)
    graphs
  @ List.map snapshot_line snapshots

let pinned_lines () =
  In_channel.with_open_text "golden/trajectories.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let trajectories_pinned () =
  let actual = actual_lines () and pinned = pinned_lines () in
  if List.length pinned <> List.length actual then
    (* Print the lines this build computes, for a deliberate re-pin. *)
    List.iter prerr_endline actual;
  Alcotest.(check int) "pinned run count" (List.length pinned) (List.length actual);
  List.iter2 (fun p a -> Alcotest.(check string) "pinned run" p a) pinned actual

(* Every experiment's table at tiny scale, under the command line's
   default seed and without a pool, as one text: a [# id] line, then the
   table's CSV.  Pinned in golden/experiments-tiny.txt. *)
let experiment_tables () =
  String.concat ""
    (List.map
       (fun e ->
         let table =
           e.Ewalk_expt.Experiments.run ~pool:None ~scale:Ewalk_expt.Sweep.Tiny
             ~seed:1
         in
         Printf.sprintf "# %s\n%s" e.Ewalk_expt.Experiments.id
           (Ewalk_expt.Table.to_csv table))
       Ewalk_expt.Experiments.all)

let experiment_tables_pinned () =
  let actual = experiment_tables () in
  let pinned =
    In_channel.with_open_text "golden/experiments-tiny.txt" In_channel.input_all
  in
  (* Print the tables this build computes, for a deliberate re-pin. *)
  if actual <> pinned then prerr_string actual;
  Alcotest.(check string) "pinned tables" pinned actual

let () =
  Alcotest.run "golden"
    [
      ( "trajectories",
        [ Alcotest.test_case "pinned at every run" `Quick trajectories_pinned ] );
      ( "snapshots",
        [ Alcotest.test_case "schema /2 refused" `Quick earlier_schema_refused ] );
      ( "experiments",
        [ Alcotest.test_case "tiny tables pinned" `Quick experiment_tables_pinned ] );
    ]
