(** The walk engine: the one implementation that steps every walk.

    Theorem 1 holds for every rule A, so the E-process is one loop with a
    pluggable choice; the simple random walk, its lazy variant and the
    rotor-router are other choice functions on the same loop.  The engine
    runs that loop for W walkers over one graph in round-robin lockstep,
    with all per-walker state held struct-of-arrays style: a flat
    [int array] of positions and one {!Ewalk_prng.Rng.t} lane per walker.
    Every walker records its steps on a {!Coverage} — the visited set,
    whose {!Arc_marks} are also what the E-process rules prefer unvisited
    edges by.  {!Eprocess}, {!Srw} and {!Rotor} are names and constructors
    over a one-walker engine ({!single}).

    Two disciplines, one step:

    - {e cooperating}: the engine holds one coverage, shared by all its
      walkers — a blue edge retired by any walker is gone for every
      walker.  Steps advance a global clock; the engine exposes a
      {!Cover.process} adapter.
    - {e competing}: the engine holds one coverage per walker, so walkers
      are mutually independent and walker blocks shard across domains via
      {!Ewalk_par.Pool} ({!run_rounds}) with results independent of the
      job count.  Step clocks are walker-local.

    E-process blue choices in both modes index the live slots in adjacency
    order — exactly the naive [Ewalk_check.Oracle] protocol. *)

open Ewalk_graph

type mode = Cooperating | Competing

type t

type proc =
  | E_uar  (** E-process, uniform among unvisited incident edges *)
  | E_lowest  (** E-process, first unvisited edge in adjacency order *)
  | E_highest  (** E-process, last unvisited edge in adjacency order *)
  | E_adversarial of (t -> Graph.edge array -> int)
      (** E-process under an online adversary: it sees the engine
          (during {!step}, {!position} is the stepping walker's vertex) and
          that walker's unvisited incident edges in adjacency order, a
          self-loop listed once, and returns the index of its choice; an
          out-of-range answer is clamped.  A closure: such engines cannot be
          checkpointed.  Compare procs by pattern matching, never with
          [=]. *)
  | Srw  (** simple random walk *)
  | Lazy_srw
      (** lazy simple random walk: a fair coin ({!Ewalk_prng.Rng.bool})
          first; heads stays put — one step, a move with no edge,
          [edge = -1] in its [Step] event — tails takes the SRW draw *)
  | Rotor  (** rotor-router *)

val proc_of_spec : string -> proc option
(** The process table shared by the command line and the session
    service: ["e-process"], ["e-process:lowest"], ["e-process:highest"],
    ["srw"], ["lazy-srw"] and ["rotor"]. *)

type phase_kind = Blue | Red

type fault = Skip_preference | Reuse_prng_word | Torn_soa
(** Deliberate defects for the mutation-kill battery (see {!set_fault}):
    take the red draw even when unvisited edges remain; draw every
    walker's randomness from walker 0's lane; write the landing position
    into the {e next} walker's SoA slot. *)

val create :
  ?mode:mode ->
  ?randomize_rotors:bool ->
  proc ->
  Graph.t ->
  Ewalk_prng.Rng.t ->
  starts:int array ->
  t
(** [create proc g rng ~starts] builds a [length starts]-walker engine,
    walker [w] starting at [starts.(w)] and drawing from lane
    [Rng.stream rng w] (lane 0 is a copy of [rng]).  [mode] defaults to
    [Cooperating]; [randomize_rotors] (default [true]) draws each rotor
    offset from the owning walker's lane, in vertex order.  [rng] itself
    is not advanced.
    @raise Invalid_argument on an empty graph, no walkers, or a start
    out of range. *)

val single :
  ?randomize_rotors:bool -> proc -> Graph.t -> Ewalk_prng.Rng.t ->
  start:Graph.vertex -> t
(** [single proc g rng ~start] is a one-walker cooperating engine whose
    lane is [rng] itself: every draw, rotor offsets included, advances the
    caller's generator — the engine behind {!Eprocess.create},
    {!Srw.create} and {!Rotor.create}.
    @raise Invalid_argument on an empty graph or a start out of range. *)

val create_spread :
  ?mode:mode ->
  ?randomize_rotors:bool ->
  proc ->
  Graph.t ->
  Ewalk_prng.Rng.t ->
  walkers:int ->
  t
(** Like {!create} with [walkers] uniform start vertices drawn from [rng]
    (advancing it — the lanes then derive from the advanced state). *)

val build : ?mode:mode -> proc -> Graph.t -> Ewalk_prng.Rng.t -> walkers:int -> t
(** The walk the command line and the session service build from a
    process spec: one cooperating walker starts at vertex 0 and draws from
    [rng] itself ({!single}); otherwise [walkers] walkers start spread
    from [rng] ({!create_spread}).  [mode] defaults to [Cooperating]. *)

(** {1 Stepping} *)

val step : t -> unit
(** Advance the cursor walker one step and move the cursor on — W calls
    make one lockstep round.  @raise Invalid_argument on an isolated
    vertex. *)

val step_round : t -> unit
(** One full round: every walker takes one step, in walker order. *)

val run_steps : t -> int -> unit
(** [run_steps t k]: [k] calls of {!step} in a tight loop.
    @raise Invalid_argument if [k < 0]. *)

val run_to_vertex_cover : ?cap:int -> t -> int option
(** Cooperating mode: step until every vertex is visited (or the clock
    reaches [cap], default {!Cover.default_cap}); the cover step if
    reached.  @raise Invalid_argument in competing mode. *)

val run_rounds : ?pool:Ewalk_par.Pool.t -> t -> int -> unit
(** [run_rounds ?pool t r] advances every walker [r] steps.  In competing
    mode with a multi-lane pool, no observers and no fault injected, the
    walker blocks run sharded across the pool's domains; the final state
    is identical to the sequential path at any job count (walkers are
    independent).  Cooperating mode always steps sequentially (the
    shared coverage imposes the round-robin order).
    @raise Invalid_argument if [r < 0]. *)

val run_until_first_cover :
  ?pool:Ewalk_par.Pool.t ->
  ?block:int ->
  ?cap:int ->
  ?tick:(unit -> unit) ->
  t ->
  (int * int) option
(** Competing mode only: advance in [block]-round bursts (default 64)
    until some walker has seen every vertex or every walker has taken
    [cap] steps (default {!Cover.default_cap}), calling [tick] after each
    burst (how {!Observe.ticker} drains metrics mid-run; it must not step
    the engine).  Returns
    [Some (walker, cover_step)] for the walker with the smallest
    walker-local cover step (lowest index on ties) — deterministic and
    independent of [?pool].  @raise Invalid_argument in cooperating mode
    (use {!process} with {!Cover.run_until_vertex_cover}). *)

(** {1 Observation} *)

val set_observer : t -> (walker:int -> Ewalk_obs.Trace.event -> unit) option -> unit
(** Per-step observer: receives every [Step] and [Phase] event tagged
    with the walker index.  Event [step] stamps are global in
    cooperating mode and walker-local in competing mode.  A [Phase] event
    opens each maximal blue or red run of an edge-preferring walker,
    stamped with the pre-step clock and vertex. *)

val set_phase_observer :
  t -> (walker:int -> Ewalk_obs.Trace.event -> unit) option -> unit
(** Phase-boundary-only observer (what [Observe] counts phases on): fires
    once per maximal blue/red run of each walker, not per step. *)

val set_fault : t -> fault option -> unit
(** Test-only: inject a deliberate defect into the step functions so the
    differential/invariant battery can prove it would be caught.  Faulted
    engines never take the sharded {!run_rounds} path. *)

(** {1 Accessors} *)

val graph : t -> Graph.t
val proc : t -> proc
val mode : t -> mode
val walkers : t -> int
val positions : t -> int array
val walker_position : t -> int -> int

val cursor : t -> int
(** The walker that will move on the next {!step} (during a step: the
    stepping walker). *)

val position : t -> int
(** The cursor walker's position — a one-walker engine's position. *)

val steps : t -> int
(** Total steps across all walkers (both modes). *)

val rounds : t -> int
val blue_steps : t -> int
val red_steps : t -> int
val walker_steps : t -> int -> int
val walker_blue_steps : t -> int -> int
val walker_red_steps : t -> int -> int

val coverage : t -> Coverage.t
(** Cooperating mode: the shared coverage (not a copy).
    @raise Invalid_argument in competing mode. *)

val walker_coverage : t -> int -> Coverage.t
(** The coverage walker [w] records on (not a copy): the shared one in
    cooperating mode, its own in competing mode, where its steps and
    cover steps are walker-local.
    @raise Invalid_argument if there is no walker [w]. *)

val rotor_offset : t -> int -> Graph.vertex -> int
(** Rotor engines: walker [w]'s rotor offset at [v] — the shared row in
    cooperating mode, its own in competing mode.
    @raise Invalid_argument on another process. *)

val proc_name : proc -> string
(** The process name ("e-process(uar)", "lazy-srw", "rotor-router", ...). *)

val name : t -> string
(** The engine's run name: exactly {!proc_name} for a 1-walker
    cooperating engine (the names single-walker traces have always
    carried), ["kernel-<proc>[w=W,<mode>]"] otherwise. *)

val process : t -> Cover.process
(** Cooperating mode: the generic process adapter (position = cursor
    walker, one [step ()] = one walker step), ready for
    {!Cover.run_until_vertex_cover} and {!Observe.instrument}.
    @raise Invalid_argument in competing mode. *)

(** {1 Checkpointing}

    Every engine but an {!E_adversarial} one checkpoints; the
    adversarial rule's closure is not plain data, and checkpointing it
    raises [Invalid_argument]. *)

type checkpoint = {
  ck_proc : proc;
  ck_mode : mode;
  ck_pos : int array;
  ck_cursor : int;
  ck_steps : int;  (** total steps, the sum of [ck_wsteps] *)
  ck_wsteps : int array;
  ck_wblue : int array;
  ck_wred : int array;
  ck_prng : int64 array;  (** the lanes' {!Ewalk_prng.Rng.save} words, walker-major *)
  ck_coverage : Coverage.state array;
      (** the engine's coverages: one (cooperating) or one per walker
          (competing) *)
  ck_rotor : int array option;
      (** one row of [n] offsets per coverage, row-major; Rotor only *)
  ck_phase : (phase_kind * int * Graph.vertex) option array;
      (** each walker's open phase: kind, start stamp, start vertex *)
}

val checkpoint : t -> checkpoint
(** Serialize an engine's complete state (the sets are copied). *)

val of_checkpoint : Graph.t -> checkpoint -> t
(** Rebuild an engine that continues bit-identically to the one
    checkpointed, at any job count.  Each coverage is rebuilt by
    {!Coverage.restore}, which recounts it and checks its cover steps
    against the clock that stamps it.  Observers and faults are not
    restored.
    @raise Invalid_argument on any internally inconsistent record: bad
    lengths or ranges, step counters that do not add up, a cover step
    that breaks {!Coverage.restore}'s rules, a walker position not marked
    seen, or an E-process record whose blue steps differ from its edges
    seen. *)
