open Ewalk_graph
module Rng = Ewalk_prng.Rng
module Trace = Ewalk_obs.Trace
module Pool = Ewalk_par.Pool

type mode = Cooperating | Competing
type phase_kind = Blue | Red
type fault = Skip_preference | Reuse_prng_word | Torn_soa

(* Cooperating walkers share one set of arc marks and one coverage table;
   competing walkers each carry private arc marks and vertex sets, so
   their state slices are disjoint and walker blocks can run on separate
   domains. *)
type shared = {
  sh_marks : Arc_marks.t option; (* E-process rules only *)
  sh_coverage : Coverage.t;
  sh_rotor : int array option; (* per-vertex slot offset, Rotor only *)
}

type priv = {
  pv_marks : Arc_marks.t array; (* per walker: every traversed edge *)
  pv_vseen : Bitset.t array; (* per-walker vertex bitset, n bits *)
  pv_vcount : int array;
  pv_ecount : int array;
  pv_cover_at : int array; (* walker-local step of own vertex cover, -1 *)
  pv_rotor : int array option; (* walkers * n, walker-major *)
}

type marks = Shared of shared | Private of priv

type proc =
  | E_uar
  | E_lowest
  | E_highest
  | E_adversarial of (t -> Graph.edge array -> int)
  | Srw
  | Lazy_srw
  | Rotor

and t = {
  g : Graph.t;
  proc : proc;
  marks : marks;
  pos : int array;
  lanes : Rng.t array; (* walker w draws from lanes.(w) *)
  mutable cursor : int;
  mutable gsteps : int; (* cooperating: global step clock *)
  wsteps : int array;
  wblue : int array;
  wred : int array;
  phase : (phase_kind * int * Graph.vertex) option array;
  mutable observer : (walker:int -> Trace.event -> unit) option;
  mutable phase_observer : (walker:int -> Trace.event -> unit) option;
  mutable fault : fault option;
}

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

(* Raw LSB-first bit ops over a bitset's backing bytes — the step-path
   view of the per-walker vertex {!Bitset}s (same layout, no bounds
   checks). *)
let bit_get b i = Char.code (Bytes.unsafe_get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  let j = i lsr 3 in
  Bytes.unsafe_set b j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b j) lor (1 lsl (i land 7))))

let make ~mode ~randomize_rotors proc g ~lanes ~starts =
  let walkers = Array.length starts in
  let n = Graph.n g in
  (* Rotor offsets draw from the owning walker's lane, in vertex order. *)
  let init_rotor w =
    Array.init n (fun v ->
        let deg = Graph.degree g v in
        if randomize_rotors && deg > 0 then Rng.int lanes.(w) deg else 0)
  in
  let marks =
    match mode with
    | Cooperating ->
        let cov = Coverage.create g in
        Array.iter (fun v -> Coverage.record_start cov v) starts;
        Shared
          {
            sh_marks =
              (if prefers_unvisited proc then Some (Arc_marks.create g)
               else None);
            sh_coverage = cov;
            sh_rotor = (if is_rotor proc then Some (init_rotor 0) else None);
          }
    | Competing ->
        let pv =
          {
            pv_marks = Array.init walkers (fun _ -> Arc_marks.create g);
            pv_vseen = Array.init walkers (fun _ -> Bitset.create n);
            pv_vcount = Array.make walkers 0;
            pv_ecount = Array.make walkers 0;
            pv_cover_at = Array.make walkers (-1);
            pv_rotor =
              (if is_rotor proc then begin
                 let r = Array.make (walkers * n) 0 in
                 for w = 0 to walkers - 1 do
                   Array.blit (init_rotor w) 0 r (w * n) n
                 done;
                 Some r
               end
               else None);
          }
        in
        Array.iteri
          (fun w v ->
            Bitset.set pv.pv_vseen.(w) v;
            pv.pv_vcount.(w) <- 1;
            if n = 1 then pv.pv_cover_at.(w) <- 0)
          starts;
        Private pv
  in
  {
    g;
    proc;
    marks;
    pos = Array.copy starts;
    lanes;
    cursor = 0;
    gsteps = 0;
    wsteps = Array.make walkers 0;
    wblue = Array.make walkers 0;
    wred = Array.make walkers 0;
    phase = Array.make walkers None;
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
let mode t = match t.marks with Shared _ -> Cooperating | Private _ -> Competing
let walkers t = Array.length t.pos
let positions t = Array.copy t.pos
let walker_position t w = t.pos.(w)
let cursor t = t.cursor
let position t = t.pos.(t.cursor)

let steps t =
  match t.marks with
  | Shared _ -> t.gsteps
  | Private _ -> Array.fold_left ( + ) 0 t.wsteps

let rounds t = steps t / walkers t
let blue_steps t = Array.fold_left ( + ) 0 t.wblue
let red_steps t = Array.fold_left ( + ) 0 t.wred
let walker_steps t w = t.wsteps.(w)
let walker_blue_steps t w = t.wblue.(w)
let walker_red_steps t w = t.wred.(w)

let coverage t =
  match t.marks with
  | Shared sh -> sh.sh_coverage
  | Private _ -> invalid_arg "Engine.coverage: competing mode has no shared coverage"

let marks t =
  match t.marks with
  | Shared { sh_marks = Some m; _ } -> m
  | _ -> invalid_arg "Engine.marks: not a cooperating e-process engine"

let walker_vertices_visited t w =
  match t.marks with
  | Private pv -> pv.pv_vcount.(w)
  | Shared _ ->
      invalid_arg "Engine.walker_vertices_visited: cooperating mode is shared"

let walker_edges_visited t w =
  match t.marks with
  | Private pv -> pv.pv_ecount.(w)
  | Shared _ ->
      invalid_arg "Engine.walker_edges_visited: cooperating mode is shared"

let walker_edge_visited t w e =
  match t.marks with
  | Private pv -> Arc_marks.edge_retired pv.pv_marks.(w) e
  | Shared _ ->
      invalid_arg "Engine.walker_edge_visited: cooperating mode is shared"

let walker_vertex_visited t w v =
  match t.marks with
  | Private pv -> Bitset.get pv.pv_vseen.(w) v
  | Shared _ ->
      invalid_arg "Engine.walker_vertex_visited: cooperating mode is shared"

let walker_cover_step t w =
  match t.marks with
  | Private pv -> if pv.pv_cover_at.(w) >= 0 then Some pv.pv_cover_at.(w) else None
  | Shared _ -> invalid_arg "Engine.walker_cover_step: cooperating mode is shared"

let rotor_offset t v =
  match t.marks with
  | Shared { sh_rotor = Some r; _ } -> r.(v)
  | _ -> invalid_arg "Engine.rotor_offset: not a cooperating rotor engine"

let walker_rotor_offset t w v =
  match t.marks with
  | Private { pv_rotor = Some r; _ } -> r.((w * Graph.n t.g) + v)
  | _ -> invalid_arg "Engine.walker_rotor_offset: not a competing rotor engine"

let set_observer t obs = t.observer <- obs
let set_phase_observer t obs = t.phase_observer <- obs
let set_fault t f = t.fault <- f

(* --- stepping -------------------------------------------------------- *)

(* The [Step] event is built only when someone listens, so an unobserved
   step allocates nothing. *)
let emit_step t w ~step ~vertex ~edge ~blue =
  match t.observer with
  | None -> ()
  | Some f -> f ~walker:w (Trace.Step { step; vertex; edge; blue })

let emit_phase_ev t w ev =
  (match t.observer with Some f -> f ~walker:w ev | None -> ());
  match t.phase_observer with Some f -> f ~walker:w ev | None -> ()

(* Walker-local phase bookkeeping: a [Phase] event opens each maximal
   blue or red run, stamped with the pre-step clock (global in
   cooperating mode, walker-local in competing mode) and the pre-move
   vertex. *)
let record_phase_transition t w ~stamp ~vertex next_is_blue =
  let changed =
    match t.phase.(w) with
    | None -> true
    | Some (Blue, _, _) -> not next_is_blue
    | Some (Red, _, _) -> next_is_blue
  in
  if changed then begin
    let kind = if next_is_blue then Blue else Red in
    t.phase.(w) <- Some (kind, stamp, vertex);
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

(* Walker [w]'s visited marks and rotor row: the shared ones in
   cooperating mode, its own in competing mode. *)
let marks_of t w =
  match t.marks with
  | Shared { sh_marks = Some m; _ } -> m
  | Private pv -> pv.pv_marks.(w)
  | Shared { sh_marks = None; _ } -> assert false

let rotor_of t =
  match t.marks with
  | Shared { sh_rotor = Some r; _ } | Private { pv_rotor = Some r; _ } -> r
  | _ -> assert false

let rotor_base t w = match t.marks with Shared _ -> 0 | Private _ -> w * Graph.n t.g

(* The pre-step clock stamped on phase events. *)
let stamp t w = match t.marks with Shared _ -> t.gsteps | Private _ -> t.wsteps.(w)

(* The one choice function: the slot walker [w] at [v] leaves by, or
   [-1] for a lazy stay.  It counts the step blue or red, so a caller
   learns the colour from the walker's blue count. *)
let choose t w v ~start ~stop =
  let lane = lane t w in
  match t.proc with
  | E_uar | E_lowest | E_highest | E_adversarial _ ->
      let marks = marks_of t w in
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
      let rot = rotor_of t and base = rotor_base t w in
      let r = rot.(base + v) in
      rot.(base + v) <- (if r + 1 = stop - start then 0 else r + 1);
      start + r

let step_shared t sh w =
  let v = t.pos.(w) in
  let start = Graph.adj_start t.g v and stop = Graph.adj_stop t.g v in
  if start = stop then invalid_arg "Engine.step: isolated vertex";
  let blue0 = t.wblue.(w) in
  let slot = choose t w v ~start ~stop in
  let blue = t.wblue.(w) <> blue0 in
  t.gsteps <- t.gsteps + 1;
  let step = t.gsteps in
  if slot < 0 then begin
    (* A lazy stay: a move with no edge. *)
    Coverage.record_move sh.sh_coverage ~step v;
    emit_step t w ~step ~vertex:v ~edge:(-1) ~blue
  end
  else begin
    let target = Graph.slot_vertex t.g slot in
    let e = Graph.slot_edge t.g slot in
    if blue then Arc_marks.retire_edge (Option.get sh.sh_marks) e;
    Coverage.record_edge sh.sh_coverage ~step e;
    t.pos.(dest t w) <- target;
    Coverage.record_move sh.sh_coverage ~step target;
    emit_step t w ~step ~vertex:target ~edge:e ~blue
  end

(* Competing walkers step on private marks that record every traversed
   edge (a red step's edge is already marked for the E-process rules, so
   they double as the preference state). *)
let step_private t pv w =
  let v = t.pos.(w) in
  let start = Graph.adj_start t.g v and stop = Graph.adj_stop t.g v in
  if start = stop then invalid_arg "Engine.step: isolated vertex";
  let marks = pv.pv_marks.(w) in
  let blue0 = t.wblue.(w) in
  let slot = choose t w v ~start ~stop in
  let blue = t.wblue.(w) <> blue0 in
  let step = t.wsteps.(w) in
  if slot < 0 then
    emit_step t w ~step ~vertex:v ~edge:(-1) ~blue
  else begin
    let e = Graph.slot_edge t.g slot in
    let target = Graph.slot_vertex t.g slot in
    if not (Arc_marks.edge_retired marks e) then begin
      Arc_marks.retire_edge marks e;
      pv.pv_ecount.(w) <- pv.pv_ecount.(w) + 1
    end;
    t.pos.(dest t w) <- target;
    let seen = Bitset.unsafe_bytes pv.pv_vseen.(w) in
    if not (bit_get seen target) then begin
      bit_set seen target;
      pv.pv_vcount.(w) <- pv.pv_vcount.(w) + 1;
      if pv.pv_vcount.(w) = Graph.n t.g && pv.pv_cover_at.(w) < 0 then
        pv.pv_cover_at.(w) <- step
    end;
    emit_step t w ~step ~vertex:target ~edge:e ~blue
  end

let step_walker t w =
  match t.marks with
  | Shared sh -> step_shared t sh w
  | Private pv -> step_private t pv w

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
    match (t.marks, pool, t.fault) with
    | Private _, Some p, None when Pool.jobs p > 1 && no_observer t -> Some p
    | _ -> None
  in
  match par with
  | Some p ->
      (* Competing walkers own disjoint state slices (position, lane,
         bitsets, counters), so walker blocks advance independently on
         separate domains.  [retries = 0]: a re-executed block would
         re-apply steps to live state. *)
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

let run_until_first_cover ?pool ?(block = 64) ?cap t =
  match t.marks with
  | Shared _ ->
      invalid_arg "Engine.run_until_first_cover: competing mode only"
  | Private pv ->
      let cap = match cap with Some c -> c | None -> Cover.default_cap t.g in
      let any () = Array.exists (fun c -> c >= 0) pv.pv_cover_at in
      while (not (any ())) && t.wsteps.(0) < cap do
        let burst = min block (cap - t.wsteps.(0)) in
        run_rounds ?pool t burst
      done;
      if not (any ()) then None
      else begin
        let best = ref (-1) in
        Array.iteri
          (fun w c ->
            if c >= 0 && (!best < 0 || c < pv.pv_cover_at.(!best)) then
              best := w)
          pv.pv_cover_at;
        Some (!best, pv.pv_cover_at.(!best))
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
  match t.marks with
  | Shared _ when walkers t = 1 -> proc_name t.proc
  | Shared _ ->
      Printf.sprintf "kernel-%s[w=%d,cooperating]" (proc_name t.proc)
        (walkers t)
  | Private _ ->
      Printf.sprintf "kernel-%s[w=%d,competing]" (proc_name t.proc) (walkers t)

let process t =
  match t.marks with
  | Private _ ->
      invalid_arg "Engine.process: competing mode has no shared coverage"
  | Shared sh ->
      {
        Cover.name = name t;
        graph = t.g;
        position = (fun () -> t.pos.(t.cursor));
        step = (fun () -> step t);
        steps_done = (fun () -> t.gsteps);
        coverage = sh.sh_coverage;
      }

(* --- checkpointing (cooperating mode) -------------------------------- *)

(* The lanes' state words, walker-major: walker w's are words 4w..4w+3. *)
let save_lanes t = Array.concat (Array.to_list (Array.map Rng.save t.lanes))

let restore_lanes ~walkers words =
  if Array.length words <> 4 * walkers then
    invalid_arg "Engine: expected 4 PRNG state words per walker";
  Array.init walkers (fun w -> Rng.restore (Array.sub words (4 * w) 4))

let serializable ~who proc =
  match proc with
  | E_adversarial _ ->
      invalid_arg
        (who ^ ": an adversarial rule is a closure and cannot be serialized")
  | E_uar | E_lowest | E_highest | Srw | Lazy_srw | Rotor -> ()

(* Rotor state matches the process and the graph: [rows] rows of one
   offset per vertex, each in range for its vertex's degree. *)
let check_rotor ~who g proc rotor ~rows =
  match rotor with
  | Some r ->
      if not (is_rotor proc) then invalid_arg (who ^ ": unexpected rotor state");
      let n = Graph.n g in
      if Array.length r <> rows * n then
        invalid_arg (who ^ ": rotor array does not match the graph");
      Array.iteri
        (fun i o ->
          let deg = Graph.degree g (i mod n) in
          if o < 0 || (deg > 0 && o >= deg) || (deg = 0 && o <> 0) then
            invalid_arg (who ^ ": rotor offset out of range"))
        r
  | None -> if is_rotor proc then invalid_arg (who ^ ": missing rotor state")

(* Positions in range, cursor valid, and per-walker blue + red = steps. *)
let check_walkers ~who g ~pos ~cursor ~wsteps ~wblue ~wred =
  Array.iter
    (fun v ->
      if v < 0 || v >= Graph.n g then invalid_arg (who ^ ": position out of range"))
    pos;
  if cursor < 0 || cursor >= Array.length pos then
    invalid_arg (who ^ ": cursor out of range");
  Array.iteri
    (fun i s ->
      if s < 0 || wblue.(i) < 0 || wred.(i) < 0 || wblue.(i) + wred.(i) <> s then
        invalid_arg (who ^ ": inconsistent step counters"))
    wsteps

type checkpoint = {
  ck_proc : proc;
  ck_pos : int array;
  ck_cursor : int;
  ck_steps : int;
  ck_wsteps : int array;
  ck_wblue : int array;
  ck_wred : int array;
  ck_prng : int64 array;
  ck_coverage : Coverage.state;
  ck_rotor : int array option;
  ck_phase : (phase_kind * int * Graph.vertex) option array;
}

let checkpoint t =
  serializable ~who:"Engine.checkpoint" t.proc;
  match t.marks with
  | Private _ ->
      invalid_arg
        "Engine.checkpoint: competing mode carries per-walker bitsets; use \
         checkpoint_competing"
  | Shared sh ->
      {
        ck_proc = t.proc;
        ck_pos = Array.copy t.pos;
        ck_cursor = t.cursor;
        ck_steps = t.gsteps;
        ck_wsteps = Array.copy t.wsteps;
        ck_wblue = Array.copy t.wblue;
        ck_wred = Array.copy t.wred;
        ck_prng = save_lanes t;
        ck_coverage = Coverage.save sh.sh_coverage;
        ck_rotor = Option.map Array.copy sh.sh_rotor;
        ck_phase = Array.copy t.phase;
      }

let of_checkpoint g ck =
  let who = "Engine.of_checkpoint" in
  let w = Array.length ck.ck_pos in
  if w = 0 then invalid_arg "Engine.of_checkpoint: no walkers";
  if
    Array.length ck.ck_wsteps <> w
    || Array.length ck.ck_wblue <> w
    || Array.length ck.ck_wred <> w
    || Array.length ck.ck_phase <> w
  then invalid_arg "Engine.of_checkpoint: walker array length mismatch";
  check_walkers ~who g ~pos:ck.ck_pos ~cursor:ck.ck_cursor ~wsteps:ck.ck_wsteps
    ~wblue:ck.ck_wblue ~wred:ck.ck_wred;
  if Array.fold_left ( + ) 0 ck.ck_wsteps <> ck.ck_steps then
    invalid_arg "Engine.of_checkpoint: inconsistent step counters";
  let prefers = prefers_unvisited ck.ck_proc in
  (* Every blue step retires a fresh edge of the shared marks and no red
     step does, so the marks are the coverage's edge set and are rebuilt
     from it. *)
  if prefers && Array.fold_left ( + ) 0 ck.ck_wblue <> ck.ck_coverage.s_edges_seen
  then invalid_arg "Engine.of_checkpoint: blue steps disagree with edges seen";
  check_rotor ~who g ck.ck_proc ck.ck_rotor ~rows:1;
  let coverage = Coverage.restore g ck.ck_coverage in
  {
    g;
    proc = ck.ck_proc;
    marks =
      Shared
        {
          sh_marks =
            (if prefers then Some (Arc_marks.of_coverage g coverage) else None);
          sh_coverage = coverage;
          sh_rotor = Option.map Array.copy ck.ck_rotor;
        };
    pos = Array.copy ck.ck_pos;
    lanes = restore_lanes ~walkers:w ck.ck_prng;
    cursor = ck.ck_cursor;
    gsteps = ck.ck_steps;
    wsteps = Array.copy ck.ck_wsteps;
    wblue = Array.copy ck.ck_wblue;
    wred = Array.copy ck.ck_wred;
    phase = Array.copy ck.ck_phase;
    observer = None;
    phase_observer = None;
    fault = None;
  }

(* --- checkpointing (competing mode) ----------------------------------- *)

type competing_checkpoint = {
  cc_proc : proc;
  cc_pos : int array;
  cc_cursor : int;
  cc_wsteps : int array;
  cc_wblue : int array;
  cc_wred : int array;
  cc_prng : int64 array;
  cc_visited : Bitset.t array;
  cc_vseen : Bitset.t array;
  cc_vcount : int array;
  cc_ecount : int array;
  cc_cover_at : int array;
  cc_rotor : int array option;
  cc_phase : (phase_kind * int * Graph.vertex) option array;
}

let checkpoint_competing t =
  serializable ~who:"Engine.checkpoint_competing" t.proc;
  match t.marks with
  | Shared _ ->
      invalid_arg "Engine.checkpoint_competing: cooperating mode (use \
                   checkpoint)"
  | Private pv ->
      {
        cc_proc = t.proc;
        cc_pos = Array.copy t.pos;
        cc_cursor = t.cursor;
        cc_wsteps = Array.copy t.wsteps;
        cc_wblue = Array.copy t.wblue;
        cc_wred = Array.copy t.wred;
        cc_prng = save_lanes t;
        cc_visited = Array.map Arc_marks.edge_set pv.pv_marks;
        cc_vseen = Array.map Bitset.copy pv.pv_vseen;
        cc_vcount = Array.copy pv.pv_vcount;
        cc_ecount = Array.copy pv.pv_ecount;
        cc_cover_at = Array.copy pv.pv_cover_at;
        cc_rotor = Option.map Array.copy pv.pv_rotor;
        cc_phase = Array.copy t.phase;
      }

(* Restore never trusts the serialized visit counters: each walker's
   vcount/ecount is recomputed as the popcount of its bitset, and a
   stored counter that disagrees with its own set is rejected — a stale
   or tampered counter can otherwise mis-time the cover detection. *)
let of_checkpoint_competing g ck =
  let who = "Engine.of_checkpoint_competing" in
  let w = Array.length ck.cc_pos in
  if w = 0 then invalid_arg "Engine.of_checkpoint_competing: no walkers";
  let arrays_ok =
    Array.length ck.cc_wsteps = w
    && Array.length ck.cc_wblue = w
    && Array.length ck.cc_wred = w
    && Array.length ck.cc_visited = w
    && Array.length ck.cc_vseen = w
    && Array.length ck.cc_vcount = w
    && Array.length ck.cc_ecount = w
    && Array.length ck.cc_cover_at = w
    && Array.length ck.cc_phase = w
  in
  if not arrays_ok then
    invalid_arg "Engine.of_checkpoint_competing: walker array length mismatch";
  check_walkers ~who g ~pos:ck.cc_pos ~cursor:ck.cc_cursor ~wsteps:ck.cc_wsteps
    ~wblue:ck.cc_wblue ~wred:ck.cc_wred;
  let n = Graph.n g and m = Graph.m g in
  let vcount = Array.make w 0 and ecount = Array.make w 0 in
  for i = 0 to w - 1 do
    if Bitset.length ck.cc_visited.(i) <> m then
      invalid_arg
        "Engine.of_checkpoint_competing: edge bitset does not match the graph";
    if Bitset.length ck.cc_vseen.(i) <> n then
      invalid_arg
        "Engine.of_checkpoint_competing: vertex bitset does not match the \
         graph";
    (* The recount that replaces trusting the snapshot counters. *)
    vcount.(i) <- Bitset.popcount ck.cc_vseen.(i);
    ecount.(i) <- Bitset.popcount ck.cc_visited.(i);
    if vcount.(i) <> ck.cc_vcount.(i) || ecount.(i) <> ck.cc_ecount.(i) then
      invalid_arg
        "Engine.of_checkpoint_competing: stored visit counter disagrees with \
         its bitset popcount";
    if not (Bitset.get ck.cc_vseen.(i) ck.cc_pos.(i)) then
      invalid_arg
        "Engine.of_checkpoint_competing: walker position not marked seen";
    if ck.cc_cover_at.(i) < -1 || ck.cc_cover_at.(i) > ck.cc_wsteps.(i) then
      invalid_arg "Engine.of_checkpoint_competing: cover step out of range";
    if (ck.cc_cover_at.(i) >= 0) <> (vcount.(i) = n) then
      invalid_arg
        "Engine.of_checkpoint_competing: cover mark disagrees with the \
         vertex set"
  done;
  check_rotor ~who g ck.cc_proc ck.cc_rotor ~rows:w;
  {
    g;
    proc = ck.cc_proc;
    marks =
      Private
        {
          pv_marks = Array.map (Arc_marks.of_edge_set g) ck.cc_visited;
          pv_vseen = Array.map Bitset.copy ck.cc_vseen;
          pv_vcount = vcount;
          pv_ecount = ecount;
          pv_cover_at = Array.copy ck.cc_cover_at;
          pv_rotor = Option.map Array.copy ck.cc_rotor;
        };
    pos = Array.copy ck.cc_pos;
    lanes = restore_lanes ~walkers:w ck.cc_prng;
    cursor = ck.cc_cursor;
    gsteps = 0;
    wsteps = Array.copy ck.cc_wsteps;
    wblue = Array.copy ck.cc_wblue;
    wred = Array.copy ck.cc_wred;
    phase = Array.copy ck.cc_phase;
    observer = None;
    phase_observer = None;
    fault = None;
  }
