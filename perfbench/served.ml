(* The serve rung of the ladder: eprocd under the service mix of the
   ROADMAP's never-stalls item.  One connection sends long step requests
   back to back while a second sends short 1000-step requests on a fixed
   schedule, each timed from when it was due.  The daemon accepts one
   connection at a time and steps under its registry lock, so today the
   short requests queue behind whole long ones.  The mix is modelled on
   [eproc load-test], not taken from measured traffic.  Every traced run
   runs it; its metrics are the serve layer's. *)

module Json = Ewalk_obs.Json

let sessions = 8  (* resident n = 10^4 E-process sessions set-up creates *)
let idle_probes = 1000  (* 1000-step requests with nothing else running *)
let healthz_probes = 200
let covers = 32  (* until:cover requests, each on a freshly created session *)
let checkpoints = 16  (* hibernate + rehydrate pairs *)

(* The cover, contended and checkpoint phases run interleaved in this
   many rounds, so each metric samples the whole rung. *)
let rounds = 2

(* Contended bursts, spread over the rounds; each sends one long request
   to each of the srw, coop-8 and compete-8 sessions. *)
let bursts = 4
let long_steps = 500_000
let probe_rate = 200.  (* scheduled short requests per second *)

let n = 10_000
let probe_steps = 1000

let create_body ~seed ?(process = "e-process") ?(extra = "") () =
  Printf.sprintf
    "{\"family\":\"regular:4\",\"n\":%d,\"process\":%S,\"seed\":%d%s}" n process
    seed extra

let int_field j name = Option.bind (Json.member name j) Json.to_int_opt

let bool_field j name =
  match Json.member name j with Some (Json.Bool b) -> Some b | _ -> None

let parse body =
  match Json.of_string body with Ok j -> j | Error _ -> Json.Null

let requests = ref 0

(* One checked request, in a serve span.  Returns the parsed body. *)
let call d what ~meth ~path ?body () =
  incr requests;
  let status, resp =
    Span.call ~layer:"serve" what
      ~failed:(fun (s, _) -> not (Daemon.ok s))
      (fun () -> Daemon.request d ~meth ~path ?body ())
  in
  Report.checkf (Daemon.ok status) "%s %s answered %d: %s" meth path status
    (String.trim resp);
  parse resp

let timed f =
  let t0 = Span.now () in
  let r = f () in
  (r, Span.now () -. t0)

let create d body =
  let j = call d "POST /sessions" ~meth:"POST" ~path:"/sessions" ~body () in
  match Option.bind (Json.member "id" j) Json.to_string_opt with
  | Some id -> id
  | None ->
      Report.check "create-session returned no id" false;
      "missing"

let delete d id =
  ignore (call d "DELETE /sessions/:id" ~meth:"DELETE" ~path:("/sessions/" ^ id) ())

(* A step request whose answer must show exactly [k] steps advanced. *)
let step d what id k =
  let j =
    call d what ~meth:"POST"
      ~path:("/sessions/" ^ id ^ "/step")
      ~body:(Printf.sprintf "{\"steps\":%d}" k)
      ()
  in
  Report.checkf
    (int_field j "steps_advanced" = Some k)
    "%s on %s did not advance %d steps" what id k;
  j

let counter exposition name =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ k; v ] when k = "ewalk_" ^ name ^ "_total" ->
          Option.value ~default:acc (float_of_string_opt v)
      | _ -> acc)
    Float.nan
    (String.split_on_char '\n' exposition)

let run ~seed ~exe ~dir =
  (* Session seeds: resident sessions [base + i], the long-request
     sessions [base + 900 ..], fresh cover sessions [base + 1000 ..]. *)
  let base = 10_000 * seed in
  let session_seed i = base + i in
  (* set-up: start eprocd and create the resident sessions. *)
  requests := 0;
  let d =
    Span.call ~layer:"serve" "eprocd start" (fun () ->
        Daemon.start ~exe ~dir:(Filename.concat dir "eprocd")
          ~resident_cap:(sessions + 64))
  in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let ids = Array.init sessions (fun i -> create d (create_body ~seed:(session_seed i) ())) in
  let expected = Array.make sessions 0 in
  let advance what i =
    ignore (step d what ids.(i) probe_steps);
    expected.(i) <- expected.(i) + probe_steps
  in
  (* step-latency: 1000-step requests and health probes, nothing else
     running. *)
  let idle = Array.make idle_probes 0. in
  let healthz = Array.make healthz_probes 0. in
  (* The resident sessions run to cover first, so every probe sees the
     same regime: the process after cover. *)
  Array.iteri
    (fun i id ->
      let j =
        call d "POST step until:cover (warm-up)" ~meth:"POST"
          ~path:("/sessions/" ^ id ^ "/step")
          ~body:"{\"until\":\"cover\"}" ()
      in
      expected.(i) <- Option.value ~default:0 (int_field j "steps"))
    ids;
  Span.phase_each "step-latency" ~total:idle_probes ~warm:ignore (fun s ->
      idle.(s) <- snd (timed (fun () -> advance "POST step (idle)" (s mod sessions))));
  Span.phase_each "step-latency" ~total:healthz_probes ~warm:ignore (fun s ->
      healthz.(s) <-
        snd
          (timed (fun () ->
               ignore (call d "GET /healthz" ~meth:"GET" ~path:"/healthz" ()))));
  (* cover: until:cover on freshly created sessions.  Every session,
     warm-ups and the traced pass of a traced run included, gets a graph
     seed of its own: eprocd caches recently built graphs, and a repeated
     seed would time a cache hit instead of the create a fresh session
     costs. *)
  let cover_seq = ref 0 in
  let creates = Array.make covers 0. in
  let deletes = Array.make covers 0. in
  let cover_steps = Array.make covers 0 and cover_blue = Array.make covers 0 in
  let one_cover i =
    incr cover_seq;
    let seed = base + 1000 + !cover_seq in
    let id, c = timed (fun () -> create d (create_body ~seed ())) in
    let j =
      call d "POST step until:cover" ~meth:"POST"
        ~path:("/sessions/" ^ id ^ "/step")
        ~body:"{\"until\":\"cover\"}" ()
    in
    Report.checkf
      (bool_field j "covered" = Some true && int_field j "vertices_visited" = Some n)
      "until:cover on %s did not cover all %d vertices" id n;
    let (), del = timed (fun () -> delete d id) in
    if i < covers then begin
      creates.(i) <- c;
      deletes.(i) <- del;
      cover_steps.(i) <- Option.value ~default:0 (int_field j "steps_advanced");
      (* Every blue step of the E-process visits a new edge. *)
      cover_blue.(i) <- Option.value ~default:0 (int_field j "edges_visited")
    end
  in
  (* steps: in each burst one connection sends a long request to each of
     the srw, cooperating and competing sessions back to back, while the
     prober sends 1000-step requests on a fixed schedule.  Probe [i] is
     due at [start + i / rate] and timed from then; it is sent when due
     or, if the previous one is still out, as soon as that returns, and
     only probes due before the burst's long requests end are sent.  The
     daemon serves one connection at a time in accept order, and the long
     connection's next request is queued before the prober's next one,
     so about one probe is answered per long request and the rest wait
     until the burst's long requests end.  A probe's latency is thus the
     wait the load causes: about half a burst at p50 and a whole burst at
     p99.  The percentiles pool all bursts; with many short ones the 1%
     tail spreads over the longest few instead of resting on the single
     slowest. *)
  let long_ids =
    [|
      create d (create_body ~seed:(base + 900) ~process:"srw" ());
      create d
        (create_body ~seed:(base + 901)
           ~extra:",\"walkers\":8,\"mode\":\"cooperating\"" ());
      create d
        (create_body ~seed:(base + 902)
           ~extra:",\"walkers\":8,\"mode\":\"competing\"" ());
    |]
  in
  let nlong = bursts * Array.length long_ids in
  let long_times = Array.make nlong 0. in
  let probes = ref [] and lag = ref 0. in
  let contended b =
    let long_end = Atomic.make Float.infinity in
    let t_start = Span.now () in
    let parent = Span.current () in
    let long () =
      Fun.protect ~finally:(fun () -> Atomic.set long_end (Span.now ()))
      @@ fun () ->
      Span.with_parent parent @@ fun () ->
      Array.iteri
        (fun k id ->
          long_times.((b * Array.length long_ids) + k) <-
            snd (timed (fun () -> ignore (step d "POST step (long)" id long_steps))))
        long_ids
    in
    let th = Thread.create long () in
    let prev_done = ref t_start in
    let rec probe i =
      let due = t_start +. (float_of_int i /. probe_rate) in
      if due < Atomic.get long_end then begin
        let wait = due -. Span.now () in
        if wait > 0. then Thread.delay wait;
        if due < Atomic.get long_end then begin
          let sent = Span.now () in
          lag := Float.max !lag (sent -. Float.max due !prev_done);
          advance "POST step (probe)" (i mod sessions);
          let fin = Span.now () in
          prev_done := fin;
          probes := (fin -. due) :: !probes;
          probe (i + 1)
        end
      end
    in
    probe 0;
    Thread.join th
  in
  (* checkpoint: explicit hibernation, then the rehydrating first step.
     Round trips rotate over the resident sessions, so each one, warm-ups
     and the traced pass included, rehydrates a session whose graph has
     left eprocd's cache and must be rebuilt, as after a long idle. *)
  let writes = Array.make checkpoints 0. in
  let reads = Array.make checkpoints 0. in
  let trips = ref 0 in
  let round_trip k =
    let i = !trips mod sessions in
    incr trips;
    let id = ids.(i) in
    let j, w =
      timed (fun () ->
          call d "POST hibernate" ~meth:"POST" ~path:("/sessions/" ^ id ^ "/hibernate") ())
    in
    Report.checkf (bool_field j "hibernated" = Some true) "%s did not hibernate" id;
    let j, r = timed (fun () -> step d "POST step (rehydrate)" id 1) in
    expected.(i) <- expected.(i) + 1;
    Report.checkf
      (int_field j "steps" = Some expected.(i))
      "%s came back at step %s, not %d" id
      (Option.fold ~none:"?" ~some:string_of_int (int_field j "steps"))
      expected.(i);
    if k < checkpoints then begin
      writes.(k) <- w;
      reads.(k) <- r
    end
  in
  (* The cover and checkpoint phases warm up before their first slice
     only: a warm-up there costs as much as a sample, and the daemon's
     paths stay warm between slices. *)
  let first_only f =
    let fresh = ref true in
    fun () ->
      if !fresh then begin
        fresh := false;
        f ()
      end
  in
  let cover_slice =
    Span.phase_slice "cover" ~total:covers ~rounds:rounds
      ~warm:(first_only (fun () -> one_cover covers))
      one_cover
  in
  let steps_slice =
    Span.phase_slice "steps" ~total:bursts ~rounds:rounds
      ~warm:(fun () ->
        Array.iter (fun id -> ignore (step d "POST step (warm-up)" id probe_steps)) long_ids)
      contended
  in
  let checkpoint_slice =
    Span.phase_slice "checkpoint" ~total:checkpoints ~rounds:rounds
      ~warm:(first_only (fun () -> round_trip checkpoints))
      round_trip
  in
  for r = 0 to rounds - 1 do
    cover_slice r;
    steps_slice r;
    checkpoint_slice r
  done;
  Report.covers ~n ~steps:cover_steps ~blue:cover_blue;
  let probes = Array.of_list !probes in
  Report.checkf (Array.length probes > 0) "no probe was due while the long requests ran";
  (* The daemon's own counters. *)
  let exposition =
    incr requests;
    snd (Daemon.request d ~meth:"GET" ~path:"/metrics" ())
  in
  let c name = counter exposition name in
  Report.checkf (c "serve_errors" = 0.) "eprocd counted %.0f errors" (c "serve_errors");
  Report.checkf
    (c "serve_requests" = float_of_int !requests)
    "eprocd counted %.0f requests, the client sent %d" (c "serve_requests") !requests;
  let trips = float_of_int !trips in
  Report.checkf (c "hibernations" = trips) "eprocd counted %.0f hibernations, not %.0f"
    (c "hibernations") trips;
  Report.checkf (c "rehydrations" = trips) "eprocd counted %.0f rehydrations, not %.0f"
    (c "rehydrations") trips;
  List.iter
    (fun (metric, name) -> Report.add ("serve." ^ metric) ~unit_:"count" (c name))
    [
      ("requests", "serve_requests");
      ("errors", "serve_errors");
      ("hibernations", "hibernations");
      ("rehydrations", "rehydrations");
      ("steps", "serve_steps");
    ];
  let idle_p50 = Report.median idle in
  Report.add "serve.step_idle.p50_ms" ~unit_:"ms" ~samples:idle_probes (Report.ms idle_p50);
  Report.add "serve.wait.p50_ms" ~unit_:"ms" ~samples:(Array.length probes)
    (Report.ms (Report.median probes -. idle_p50));
  Report.add "serve.long.s" ~unit_:"s" ~samples:nlong (Report.median long_times);
  Report.add "serve.create.ms" ~unit_:"ms" ~samples:covers (Report.ms (Report.median creates));
  Report.add "serve.delete.ms" ~unit_:"ms" ~samples:covers (Report.ms (Report.median deletes));
  Report.add "serve.hibernate.ms" ~unit_:"ms" ~samples:checkpoints
    (Report.ms (Report.median writes));
  Report.add "serve.rehydrate.ms" ~unit_:"ms" ~samples:checkpoints
    (Report.ms (Report.median reads));
  Report.add "serve.healthz.p50_ms" ~unit_:"ms" ~samples:healthz_probes
    (Report.ms (Report.median healthz));
  Report.add "serve.generator_lag.s" ~unit_:"s" ~samples:(Array.length probes) !lag;
  Array.iter (delete d) ids;
  Array.iter (delete d) long_ids
