(** The E-process: a random walk that prefers unvisited edges.

    This is the paper's object of study.  At each step, if the current
    vertex has unvisited ("blue") incident edges, the process moves along
    one of them — chosen by an arbitrary {!rule} [A] — and marks it visited
    ("red"); otherwise it performs a plain simple-random-walk step along a
    uniformly random incident (necessarily red) edge.

    Theorem 1's cover-time bound is independent of the rule, including
    adversarial online rules, which is why the rule is a first-class
    parameter here.

    Visited edges are {!Arc_marks}: one bit per adjacency slot, so the
    count and the choice of an unvisited edge are word operations on the
    current vertex's slot region.  Every rule sees its candidates in
    adjacency order.

    The process also tracks the red/blue {e phase} structure used throughout
    the paper's proofs: a blue phase is a maximal run of unvisited-edge
    transitions, a red phase a maximal run of random-walk transitions.
    Observation 10 (blue phases on even-degree graphs end where they began)
    is checked by the test suite through {!phase_log}. *)

open Ewalk_graph

type t

type rule =
  | Uar  (** uniform among unvisited incident edges — the "greedy random
             walk" of Orenshtein–Shinkar *)
  | Lowest_slot
      (** deterministic: first unvisited edge in adjacency order *)
  | Highest_slot
      (** deterministic: last unvisited edge in adjacency order *)
  | Adversarial of (t -> Graph.edge array -> int)
      (** online adversary: sees the full process state and the candidate
          unvisited incident edges, returns the index of its choice.  An
          out-of-range answer is clamped. *)

type phase_kind = Blue | Red

type phase = {
  kind : phase_kind;
  start_step : int; (** step count when the phase began *)
  start_vertex : Graph.vertex;
  end_step : int; (** step count when the phase ended *)
  end_vertex : Graph.vertex;
}

val create :
  ?rule:rule -> ?record_phases:bool -> Graph.t -> Ewalk_prng.Rng.t ->
  start:Graph.vertex -> t
(** [create g rng ~start] initialises the process at [start] with every edge
    unvisited.  Default rule: {!Uar}.  [record_phases] (default [false])
    retains the full phase log for invariant checking.
    @raise Invalid_argument if [start] is out of range or [g] has no
    vertices. *)

val graph : t -> Graph.t
val position : t -> Graph.vertex
val steps : t -> int
(** Total transitions so far ([blue_steps + red_steps]). *)

val blue_steps : t -> int
(** Transitions along previously unvisited edges. *)

val red_steps : t -> int
(** Simple-random-walk transitions (the embedded walk [W] of Obs. 12). *)

val coverage : t -> Coverage.t

val marks : t -> Arc_marks.t
(** The visited-edge marks (shared, not a copy); they always hold exactly
    the edges {!coverage} has seen. *)

val blue_degree : t -> Graph.vertex -> int
(** Number of unvisited edges incident with the vertex right now. *)

val unvisited_incident : t -> Graph.vertex -> Graph.edge array
(** The unvisited incident edges in adjacency order, a self-loop listed
    once (fresh array) — the candidates an {!Adversarial} rule sees. *)

val in_blue_phase : t -> bool
(** [true] iff the {e next} transition would follow an unvisited edge. *)

val step : t -> unit
(** Perform one transition.  @raise Invalid_argument if the current vertex
    is isolated. *)

val run_steps : t -> int -> unit
(** [run_steps t k]: [k] transitions in a tight loop — draw-for-draw
    identical to [k] calls of {!step}, without the generic runner's
    per-step closure dispatch.  The full-scale benchmark path. *)

val run_to_vertex_cover : ?cap:int -> t -> int option
(** Step until every vertex is visited (or [cap] steps, default
    {!Cover.default_cap}); returns the cover step if reached. *)

val run_to_edge_cover : ?cap:int -> t -> int option

val set_observer : t -> (Ewalk_obs.Trace.event -> unit) option -> unit
(** Install (or remove, with [None]) a per-step trace observer.  With an
    observer present, every transition emits a {!Ewalk_obs.Trace.Step}
    event and every Blue/Red phase boundary a [Phase] event — independent
    of [record_phases].  The default ([None]) costs one pattern match per
    step; use {!Observe.attach_eprocess} rather than calling this
    directly. *)

val set_phase_observer : t -> (Ewalk_obs.Trace.event -> unit) option -> unit
(** Install (or remove) an observer that sees {e only} [Phase] boundary
    events — no per-step [Step] allocation.  This is the metrics fast
    path's hook: phase transitions are rare (one per maximal blue/red
    run), so phase accounting can stay event-driven while step counting
    reads the process's native counters.  Independent of, and composable
    with, {!set_observer}: with both installed a phase boundary reaches
    the full observer first. *)

val phase_log : t -> phase list
(** Completed phases in chronological order ([] unless [record_phases]).
    The phase currently in progress is not included. *)

val process : t -> Cover.process
(** Adapter for the generic runners in {!Cover}. *)

(** {2 Checkpointing} *)

type rule_id = [ `Uar | `Lowest_slot | `Highest_slot ]
(** Serializable rules.  {!Adversarial} carries a closure and is excluded. *)

type checkpoint = {
  ck_rule : rule_id;
  ck_pos : Graph.vertex;
  ck_steps : int;
  ck_blue_steps : int;
  ck_red_steps : int;
  ck_rng : int64 array;
  ck_coverage : Coverage.state;
  ck_record_phases : bool;
  ck_current_phase : (phase_kind * int * Graph.vertex) option;
  ck_phases : phase list;
}
(** Complete plain-data process state: continuing from a restored
    checkpoint is bit-identical to never having stopped.  The visited marks
    are not stored: they are the coverage's edge set. *)

val checkpoint : t -> checkpoint
(** Capture the full state (PRNG words included).
    @raise Invalid_argument on an {!Adversarial} rule. *)

val of_checkpoint : Graph.t -> checkpoint -> t
(** Rebuild a process over [g].  The observer is not restored; re-attach
    one with {!set_observer} / {!Observe.attach_eprocess} if needed.
    @raise Invalid_argument if the checkpoint does not fit the graph or
    its counters are inconsistent (the blue steps must equal the edges
    seen). *)
