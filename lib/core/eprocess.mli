(** The E-process: a random walk that prefers unvisited edges.

    This is the paper's object of study.  At each step, if the current
    vertex has unvisited ("blue") incident edges, the process moves along
    one of them — chosen by an arbitrary {!rule} [A] — and marks it visited
    ("red"); otherwise it performs a plain simple-random-walk step along a
    uniformly random incident (necessarily red) edge.

    Theorem 1's cover-time bound is independent of the rule, including
    adversarial online rules, which is why the rule is a first-class
    parameter here.

    The process is a one-walker {!Engine}: this module names its rules
    and the accessors callers use, over [type t = Engine.t].  Its state
    is its visited set, a {!Coverage}: visited edges are its
    {!Arc_marks}, one bit per adjacency slot, and every rule sees its
    candidates in adjacency order.

    The paper's proofs use the red/blue {e phase} structure: a blue phase
    is a maximal run of unvisited-edge transitions, a red phase a maximal
    run of random-walk transitions.  {!phase_log} records the completed
    phases from the engine's [Phase] events; Observation 10 (blue phases
    on even-degree graphs end where they began) is checked by the test
    suite through it. *)

open Ewalk_graph

type t = Engine.t

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

type phase_kind = Engine.phase_kind = Blue | Red

type phase = {
  kind : phase_kind;
  start_step : int; (** step count when the phase began *)
  start_vertex : Graph.vertex;
  end_step : int; (** step count when the phase ended *)
  end_vertex : Graph.vertex;
}

val create : ?rule:rule -> Graph.t -> Ewalk_prng.Rng.t -> start:Graph.vertex -> t
(** [create g rng ~start] initialises the process at [start] with every edge
    unvisited.  Default rule: {!Uar}.  The walk draws from [rng] itself,
    advancing it ({!Engine.single}).
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
(** The visited set; its {!Coverage.marks} are the marks the rule prefers
    unvisited edges by. *)

val blue_degree : t -> Graph.vertex -> int
(** Number of unvisited edges incident with the vertex right now. *)

val unvisited_incident : t -> Graph.vertex -> Graph.edge array
(** The unvisited incident edges in adjacency order, a self-loop listed
    once (fresh array) — the candidates an {!Adversarial} rule sees. *)

val in_blue_phase : t -> bool
(** [true] iff the {e next} transition would follow an unvisited edge. *)

val step : t -> unit
(** {!Engine.step}: one transition.  @raise Invalid_argument if the
    current vertex is isolated. *)

val run_steps : t -> int -> unit
(** {!Engine.run_steps}: [k] transitions in a tight loop. *)

val run_to_vertex_cover : ?cap:int -> t -> int option
(** Step until every vertex is visited (or [cap] steps, default
    {!Cover.default_cap}); returns the cover step if reached. *)

val phase_log : t -> unit -> phase list
(** [phase_log t] starts a phase recorder on [t]'s phase observer
    ({!Engine.set_phase_observer}, replacing any installed one) and
    returns its reader: the phases completed since, in chronological
    order, the one in progress excluded.  Call it before the first step
    to log the whole walk. *)

val process : t -> Cover.process
(** Adapter for the generic runners in {!Cover}. *)
