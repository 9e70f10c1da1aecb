open Ewalk_graph
module Rng = Ewalk_prng.Rng
module Trace = Ewalk_obs.Trace
module Pool = Ewalk_par.Pool

type mode = Cooperating | Competing
type phase_kind = Blue | Red
type fault = Skip_preference | Reuse_prng_word | Torn_soa

(* A coverage with its marks at hand for the step path.  A record, so
   that indexing an array of them is a plain load, where an array of an
   abstract type is read through the float-array check. *)
type visited = { set : Coverage.t; marks : Arc_marks.t }

type proc =
  | E_uar
  | E_lowest
  | E_highest
  | E_adversarial of (t -> Graph.edge array -> int)
  | Srw
  | Lazy_srw
  | Rotor

(* Cooperating walkers share the one coverage and rotor row, competing
   walkers own one each, so their state slices are disjoint and walker
   blocks can run on separate domains. *)
and t = {
  g : Graph.t;
  proc : proc;
  mode : mode;
  cov : visited array; (* length 1 cooperating, one per walker competing *)
  rotor : int array option; (* one row of n offsets per coverage, Rotor only *)
  pos : int array;
  lanes : Rng.t array; (* walker w draws from lanes.(w) *)
  mutable cursor : int;
  mutable gsteps : int; (* cooperating: global step clock *)
  wsteps : int array;
  wblue : int array;
  wred : int array;
  (* Each walker's open phase, as plain ints so that opening one allocates
     nothing: its kind (-1 before the first step, else [phase_code]), the
     pre-step clock and the vertex it opened at. *)
  phase_kind : int array;
  phase_stamp : int array;
  phase_vertex : int array;
  mutable observer : (walker:int -> Trace.event -> unit) option;
  mutable phase_observer : (walker:int -> Trace.event -> unit) option;
  mutable fault : fault option;
}

let visited set = { set; marks = Coverage.marks set }

let prefers_unvisited = function
  | E_uar | E_lowest | E_highest | E_adversarial _ -> true
  | Srw | Lazy_srw | Rotor -> false

let is_rotor = function Rotor -> true | _ -> false

(* The process table the command line and the session service share:
   every spec a walk can be built from, and so snapshotted from. *)
let specs =
  [
    ("e-process", E_uar);
    ("e-process:lowest", E_lowest);
    ("e-process:highest", E_highest);
    ("srw", Srw);
    ("lazy-srw", Lazy_srw);
    ("rotor", Rotor);
  ]

let proc_of_spec spec = List.assoc_opt spec specs

let no_phase = -1
let phase_code = function Blue -> 0 | Red -> 1

let make ~mode ~randomize_rotors proc g ~lanes ~starts =
  let walkers = Array.length starts in
  let n = Graph.n g in
  let rows = match mode with Cooperating -> 1 | Competing -> walkers in
  let cov = Array.init rows (fun _ -> visited (Coverage.create g)) in
  (match mode with
  | Cooperating -> Array.iter (Coverage.record_start cov.(0).set) starts
  | Competing ->
      Array.iteri (fun w v -> Coverage.record_start cov.(w).set v) starts);
  (* Row r's rotor offsets draw from lane r, in vertex order. *)
  let rotor =
    if not (is_rotor proc) then None
    else begin
      let r = Array.make (rows * n) 0 in
      for row = 0 to rows - 1 do
        for v = 0 to n - 1 do
          let deg = Graph.degree g v in
          if randomize_rotors && deg > 0 then
            r.((row * n) + v) <- Rng.int lanes.(row) deg
        done
      done;
      Some r
    end
  in
  {
    g;
    proc;
    mode;
    cov;
    rotor;
    pos = Array.copy starts;
    lanes;
    cursor = 0;
    gsteps = 0;
    wsteps = Array.make walkers 0;
    wblue = Array.make walkers 0;
    wred = Array.make walkers 0;
    phase_kind = Array.make walkers no_phase;
    phase_stamp = Array.make walkers 0;
    phase_vertex = Array.make walkers 0;
    observer = None;
    phase_observer = None;
    fault = None;
  }

let check_start ~who g v =
  if v < 0 || v >= Graph.n g then invalid_arg (who ^ ": start out of range")

let create ?(mode = Cooperating) ?(randomize_rotors = true) proc g rng ~starts =
  let walkers = Array.length starts in
  if walkers = 0 then invalid_arg "Engine.create: no walkers";
  if Graph.n g = 0 then invalid_arg "Engine.create: empty graph";
  Array.iter (check_start ~who:"Engine.create" g) starts;
  make ~mode ~randomize_rotors proc g ~starts
    ~lanes:(Array.init walkers (Rng.stream rng))

let single ?(randomize_rotors = true) proc g rng ~start =
  if Graph.n g = 0 then invalid_arg "Engine.single: empty graph";
  check_start ~who:"Engine.single" g start;
  make ~mode:Cooperating ~randomize_rotors proc g ~starts:[| start |]
    ~lanes:[| rng |]

let create_spread ?mode ?randomize_rotors proc g rng ~walkers =
  if walkers < 1 then invalid_arg "Engine.create_spread: walkers < 1";
  if Graph.n g = 0 then invalid_arg "Engine.create_spread: empty graph";
  let starts = Array.init walkers (fun _ -> Rng.int rng (Graph.n g)) in
  create ?mode ?randomize_rotors proc g rng ~starts

let build ?(mode = Cooperating) proc g rng ~walkers =
  match mode with
  | Cooperating when walkers = 1 -> single proc g rng ~start:0
  | _ -> create_spread ~mode proc g rng ~walkers

(* --- accessors ------------------------------------------------------- *)

let graph t = t.g
let proc t = t.proc
let mode t = t.mode
let walkers t = Array.length t.pos
let positions t = Array.copy t.pos
let walker_position t w = t.pos.(w)
let cursor t = t.cursor
let position t = t.pos.(t.cursor)

let steps t =
  match t.mode with
  | Cooperating -> t.gsteps
  | Competing -> Array.fold_left ( + ) 0 t.wsteps

let rounds t = steps t / walkers t
let blue_steps t = Array.fold_left ( + ) 0 t.wblue
let red_steps t = Array.fold_left ( + ) 0 t.wred
let walker_steps t w = t.wsteps.(w)
let walker_blue_steps t w = t.wblue.(w)
let walker_red_steps t w = t.wred.(w)

(* The coverage and rotor row walker [w] steps on. *)
let row t w = match t.mode with Cooperating -> 0 | Competing -> w

let walker_coverage t w =
  if w < 0 || w >= Array.length t.pos then
    invalid_arg "Engine.walker_coverage: no such walker";
  t.cov.(row t w).set

let coverage t =
  match t.mode with
  | Cooperating -> t.cov.(0).set
  | Competing ->
      invalid_arg "Engine.coverage: competing mode has no shared coverage"

let rotor_offset t w v =
  match t.rotor with
  | Some r -> r.((row t w * Graph.n t.g) + v)
  | None -> invalid_arg "Engine.rotor_offset: not a rotor engine"

let set_observer t obs = t.observer <- obs
let set_phase_observer t obs = t.phase_observer <- obs
let set_fault t f = t.fault <- f

(* --- stepping -------------------------------------------------------- *)

(* The [Step] event, and the edge id of the slot left by ([-1] for a lazy
   stay), are read only when someone listens, so an unobserved step
   allocates nothing and never loads an edge id. *)
let emit_step t w ~step ~vertex ~slot ~blue =
  match t.observer with
  | None -> ()
  | Some f ->
      let edge = if slot < 0 then -1 else Graph.slot_edge t.g slot in
      f ~walker:w (Trace.Step { step; vertex; edge; blue })

let emit_phase_ev t w ev =
  (match t.observer with Some f -> f ~walker:w ev | None -> ());
  match t.phase_observer with Some f -> f ~walker:w ev | None -> ()

(* Walker-local phase bookkeeping: a [Phase] event opens each maximal
   blue or red run, stamped with the pre-step clock (global in
   cooperating mode, walker-local in competing mode) and the pre-move
   vertex. *)
let record_phase_transition t w ~stamp ~vertex next_is_blue =
  let kind = phase_code (if next_is_blue then Blue else Red) in
  if t.phase_kind.(w) <> kind then begin
    t.phase_kind.(w) <- kind;
    t.phase_stamp.(w) <- stamp;
    t.phase_vertex.(w) <- vertex;
    match (t.observer, t.phase_observer) with
    | None, None -> ()
    | _ ->
        emit_phase_ev t w
          (Trace.Phase
             {
               step = stamp;
               kind = (if next_is_blue then Trace.Blue else Trace.Red);
               vertex;
             })
  end

let lane t w =
  match t.fault with Some Reuse_prng_word -> t.lanes.(0) | _ -> t.lanes.(w)

let skips_preference t =
  match t.fault with Some Skip_preference -> true | _ -> false

(* Where the landing position is written: the walker's own slot, or the
   next walker's under the torn-SoA fault. *)
let dest t w =
  match t.fault with Some Torn_soa -> (w + 1) mod Array.length t.pos | _ -> w

(* The blue choice of an edge-preferring walker at [v] among the [k] live
   slots of its marks, which it sees in adjacency order. *)
let blue_slot t marks lane v ~start ~stop k =
  match t.proc with
  | E_uar -> Arc_marks.nth_live marks ~start ~stop (Rng.int lane k)
  | E_lowest -> Arc_marks.first_live marks ~start ~stop
  | E_highest -> Arc_marks.last_live marks ~start ~stop
  | E_adversarial f ->
      let candidates = Arc_marks.incident_edges marks v in
      let idx = f t candidates in
      let idx = max 0 (min idx (Array.length candidates - 1)) in
      Arc_marks.slot_of_edge marks v candidates.(idx)
  | Srw | Lazy_srw | Rotor -> assert false

let count_step t w ~blue =
  t.wsteps.(w) <- t.wsteps.(w) + 1;
  if blue then t.wblue.(w) <- t.wblue.(w) + 1 else t.wred.(w) <- t.wred.(w) + 1

(* The pre-step clock stamped on phase events. *)
let stamp t w =
  match t.mode with Cooperating -> t.gsteps | Competing -> t.wsteps.(w)

(* The one choice function: the slot walker [w] at [v] leaves by, or
   [-1] for a lazy stay.  It counts the step blue or red, so a caller
   learns the colour from the walker's blue count. *)
let choose t w v ~start ~stop =
  let lane = lane t w in
  match t.proc with
  | E_uar | E_lowest | E_highest | E_adversarial _ ->
      let marks = t.cov.(row t w).marks in
      let k = Arc_marks.live marks ~start ~stop in
      let blue = k > 0 && not (skips_preference t) in
      record_phase_transition t w ~stamp:(stamp t w) ~vertex:v blue;
      let slot =
        if blue then blue_slot t marks lane v ~start ~stop k
        else start + Rng.int lane (stop - start)
      in
      count_step t w ~blue;
      slot
  | Srw ->
      count_step t w ~blue:false;
      start + Rng.int lane (stop - start)
  | Lazy_srw ->
      count_step t w ~blue:false;
      if Rng.bool lane then -1 else start + Rng.int lane (stop - start)
  | Rotor ->
      count_step t w ~blue:false;
      let rot = Option.get t.rotor and i = (row t w * Graph.n t.g) + v in
      let r = rot.(i) in
      rot.(i) <- (if r + 1 = stop - start then 0 else r + 1);
      start + r

(* Walker [w] takes one step and records it on its coverage, stamped with
   the global clock (cooperating) or its own (competing).  A lazy stay
   records nothing: the walker's vertex is already seen. *)
let step_walker t w =
  let v = t.pos.(w) in
  let start = Graph.adj_start t.g v and stop = Graph.adj_stop t.g v in
  if start = stop then invalid_arg "Engine.step: isolated vertex";
  let blue0 = t.wblue.(w) in
  let slot = choose t w v ~start ~stop in
  let blue = t.wblue.(w) <> blue0 in
  let step =
    match t.mode with
    | Cooperating ->
        t.gsteps <- t.gsteps + 1;
        t.gsteps
    | Competing -> t.wsteps.(w)
  in
  if slot < 0 then emit_step t w ~step ~vertex:v ~slot ~blue
  else begin
    let set = t.cov.(row t w).set in
    let target = Graph.slot_vertex t.g slot in
    Coverage.record_slot set ~step slot;
    t.pos.(dest t w) <- target;
    Coverage.record_move set ~step target;
    emit_step t w ~step ~vertex:target ~slot ~blue
  end

(* The cursor moves on after the step, so [position] is the stepping
   walker's vertex while an adversarial rule looks at the engine. *)
let step t =
  let w = t.cursor in
  step_walker t w;
  t.cursor <- (if w + 1 = Array.length t.pos then 0 else w + 1)

let step_round t =
  for _ = 1 to Array.length t.pos do
    step t
  done

let run_steps t k =
  if k < 0 then invalid_arg "Engine.run_steps: negative step count";
  for _ = 1 to k do
    step t
  done

let run_to_vertex_cover ?cap t =
  let cov = coverage t in
  let cap = match cap with Some c -> c | None -> Cover.default_cap t.g in
  while (not (Coverage.all_vertices_visited cov)) && t.gsteps < cap do
    step t
  done;
  Coverage.vertex_cover_step cov

let no_observer t =
  match (t.observer, t.phase_observer) with None, None -> true | _ -> false

let run_rounds ?pool t rounds =
  if rounds < 0 then invalid_arg "Engine.run_rounds: negative rounds";
  let par =
    match (t.mode, pool, t.fault) with
    | Competing, Some p, None when Pool.jobs p > 1 && no_observer t -> Some p
    | _ -> None
  in
  match par with
  | Some p ->
      (* Competing walkers own disjoint state slices (position, lane,
         coverage, rotor row, counters), so walker blocks advance
         independently on separate domains.  [retries = 0]: a re-executed
         block would re-apply steps to live state. *)
      let ids = Array.init (Array.length t.pos) (fun w -> w) in
      let (_ : unit array) =
        Pool.map_array ~retries:0 p
          (fun w ->
            for _ = 1 to rounds do
              step_walker t w
            done)
          ids
      in
      ()
  | None ->
      for _ = 1 to rounds do
        step_round t
      done

let run_until_first_cover ?pool ?(block = 64) ?cap ?tick t =
  if t.mode = Cooperating then
    invalid_arg "Engine.run_until_first_cover: competing mode only";
  let cap = match cap with Some c -> c | None -> Cover.default_cap t.g in
  let cover_at w =
    Option.value (Coverage.vertex_cover_step t.cov.(w).set) ~default:(-1)
  in
  let any () =
    Array.exists (fun v -> Coverage.all_vertices_visited v.set) t.cov
  in
  while (not (any ())) && t.wsteps.(0) < cap do
    let burst = min block (cap - t.wsteps.(0)) in
    run_rounds ?pool t burst;
    match tick with Some f -> f () | None -> ()
  done;
  if not (any ()) then None
  else begin
    let best = ref (-1) in
    for w = 0 to Array.length t.cov - 1 do
      let c = cover_at w in
      if c >= 0 && (!best < 0 || c < cover_at !best) then best := w
    done;
    Some (!best, cover_at !best)
  end

(* --- naming and the generic process adapter -------------------------- *)

let proc_name = function
  | E_uar -> "e-process(uar)"
  | E_lowest -> "e-process(lowest-slot)"
  | E_highest -> "e-process(highest-slot)"
  | E_adversarial _ -> "e-process(adversarial)"
  | Srw -> "srw"
  | Lazy_srw -> "lazy-srw"
  | Rotor -> "rotor-router"

let name t =
  match t.mode with
  | Cooperating when walkers t = 1 -> proc_name t.proc
  | Cooperating ->
      Printf.sprintf "kernel-%s[w=%d,cooperating]" (proc_name t.proc)
        (walkers t)
  | Competing ->
      Printf.sprintf "kernel-%s[w=%d,competing]" (proc_name t.proc) (walkers t)

let process t =
  match t.mode with
  | Competing ->
      invalid_arg "Engine.process: competing mode has no shared coverage"
  | Cooperating ->
      {
        Cover.name = name t;
        graph = t.g;
        position = (fun () -> t.pos.(t.cursor));
        step = (fun () -> step t);
        steps_done = (fun () -> t.gsteps);
        coverage = t.cov.(0).set;
      }

(* --- checkpointing ---------------------------------------------------- *)

(* The open phases in their plain-data form, and back. *)
let save_phases t =
  Array.init (Array.length t.pos) (fun w ->
      if t.phase_kind.(w) = no_phase then None
      else
        Some
          ( (if t.phase_kind.(w) = phase_code Blue then Blue else Red),
            t.phase_stamp.(w),
            t.phase_vertex.(w) ))

let phase_field f default phases =
  Array.map (function None -> default | Some p -> f p) phases

(* The lanes' state words, walker-major: walker w's are words 4w..4w+3. *)
let save_lanes t = Array.concat (Array.to_list (Array.map Rng.save t.lanes))

let restore_lanes ~walkers words =
  if Array.length words <> 4 * walkers then
    invalid_arg "Engine: expected 4 PRNG state words per walker";
  Array.init walkers (fun w -> Rng.restore (Array.sub words (4 * w) 4))

type checkpoint = {
  ck_proc : proc;
  ck_mode : mode;
  ck_pos : int array;
  ck_cursor : int;
  ck_steps : int;
  ck_wsteps : int array;
  ck_wblue : int array;
  ck_wred : int array;
  ck_prng : int64 array;
  ck_coverage : Coverage.state array;
  ck_rotor : int array option;
  ck_phase : (phase_kind * int * Graph.vertex) option array;
}

let checkpoint t =
  (match t.proc with
  | E_adversarial _ ->
      invalid_arg
        "Engine.checkpoint: an adversarial rule is a closure and cannot be \
         serialized"
  | E_uar | E_lowest | E_highest | Srw | Lazy_srw | Rotor -> ());
  {
    ck_proc = t.proc;
    ck_mode = t.mode;
    ck_pos = Array.copy t.pos;
    ck_cursor = t.cursor;
    ck_steps = steps t;
    ck_wsteps = Array.copy t.wsteps;
    ck_wblue = Array.copy t.wblue;
    ck_wred = Array.copy t.wred;
    ck_prng = save_lanes t;
    ck_coverage = Array.map (fun v -> Coverage.save v.set) t.cov;
    ck_rotor = Option.map Array.copy t.rotor;
    ck_phase = save_phases t;
  }

let of_checkpoint g ck =
  let fail msg = invalid_arg ("Engine.of_checkpoint: " ^ msg) in
  let n = Graph.n g in
  let w = Array.length ck.ck_pos in
  if w = 0 then fail "no walkers";
  let rows = match ck.ck_mode with Cooperating -> 1 | Competing -> w in
  if
    Array.length ck.ck_wsteps <> w
    || Array.length ck.ck_wblue <> w
    || Array.length ck.ck_wred <> w
    || Array.length ck.ck_phase <> w
    || Array.length ck.ck_coverage <> rows
  then fail "walker array length mismatch";
  Array.iter
    (fun v -> if v < 0 || v >= n then fail "position out of range")
    ck.ck_pos;
  if ck.ck_cursor < 0 || ck.ck_cursor >= w then fail "cursor out of range";
  Array.iteri
    (fun i s ->
      let b = ck.ck_wblue.(i) and r = ck.ck_wred.(i) in
      if s < 0 || b < 0 || r < 0 || b + r <> s then
        fail "inconsistent step counters")
    ck.ck_wsteps;
  if Array.fold_left ( + ) 0 ck.ck_wsteps <> ck.ck_steps then
    fail "inconsistent step counters";
  let row i = match ck.ck_mode with Cooperating -> 0 | Competing -> i in
  (* Each coverage is recounted and its cover steps checked against the
     clock that stamps it. *)
  let cov =
    Array.mapi
      (fun r s ->
        let clock =
          match ck.ck_mode with
          | Cooperating -> ck.ck_steps
          | Competing -> ck.ck_wsteps.(r)
        in
        Coverage.restore g ~clock s)
      ck.ck_coverage
  in
  Array.iteri
    (fun i v ->
      if not (Coverage.vertex_visited cov.(row i) v) then
        fail "walker position not marked seen")
    ck.ck_pos;
  (* An E-process walk retires a fresh edge on every blue step and on no
     other, so each coverage's edges seen are its walkers' blue steps. *)
  if prefers_unvisited ck.ck_proc then begin
    let blue = Array.make rows 0 in
    Array.iteri (fun i b -> blue.(row i) <- blue.(row i) + b) ck.ck_wblue;
    Array.iteri
      (fun r c ->
        if blue.(r) <> Coverage.edges_visited c then
          fail "blue steps disagree with edges seen")
      cov
  end;
  (match ck.ck_rotor with
  | Some r ->
      if not (is_rotor ck.ck_proc) then fail "unexpected rotor state";
      if Array.length r <> rows * n then
        fail "rotor array does not match the graph";
      Array.iteri
        (fun i o ->
          let deg = Graph.degree g (i mod n) in
          if o < 0 || (deg > 0 && o >= deg) || (deg = 0 && o <> 0) then
            fail "rotor offset out of range")
        r
  | None -> if is_rotor ck.ck_proc then fail "missing rotor state");
  {
    g;
    proc = ck.ck_proc;
    mode = ck.ck_mode;
    cov = Array.map visited cov;
    rotor = Option.map Array.copy ck.ck_rotor;
    pos = Array.copy ck.ck_pos;
    lanes = restore_lanes ~walkers:w ck.ck_prng;
    cursor = ck.ck_cursor;
    gsteps =
      (match ck.ck_mode with Cooperating -> ck.ck_steps | Competing -> 0);
    wsteps = Array.copy ck.ck_wsteps;
    wblue = Array.copy ck.ck_wblue;
    wred = Array.copy ck.ck_wred;
    phase_kind =
      phase_field (fun (k, _, _) -> phase_code k) no_phase ck.ck_phase;
    phase_stamp = phase_field (fun (_, s, _) -> s) 0 ck.ck_phase;
    phase_vertex = phase_field (fun (_, _, v) -> v) 0 ck.ck_phase;
    observer = None;
    phase_observer = None;
    fault = None;
  }
