(** Naive, obviously-correct reference implementations of the walk step
    rules.

    Each oracle keeps the straightforward state the paper's prose
    describes — an explicit per-edge visited flag, a position, a few
    counters — and chooses its next edge by scanning the adjacency list,
    with none of the production data structures (no {!Ewalk.Arc_marks},
    no {!Ewalk.Coverage}).  They exist to be read and trusted at a glance,
    and to be driven in lockstep against the production implementations
    by {!Differential}.

    RNG alignment: every oracle consumes random draws in exactly the same
    order and with the same bounds as its production counterpart — the
    uniform rule indexes the unvisited slots in adjacency order on both
    sides — so seeding both sides identically must reproduce the
    production trajectory bit for bit. *)

open Ewalk_graph
module Rng = Ewalk_prng.Rng

(** The E-process over an explicit edge-visit set. *)
module Eprocess : sig
  type rule = Uar | Lowest_slot | Highest_slot

  type t

  val create : ?rule:rule -> Graph.t -> Rng.t -> start:Graph.vertex -> t
  (** Default rule: {!Uar}.  @raise Invalid_argument if [start] is out of
      range or the graph is empty. *)

  val position : t -> Graph.vertex
  val steps : t -> int
  val blue_steps : t -> int
  val red_steps : t -> int
  val edge_visited : t -> Graph.edge -> bool
  val visited_edges : t -> bool array
  (** A copy of the per-edge visited flags. *)

  val vertices_visited : t -> int
  val all_vertices_visited : t -> bool

  val step : t -> unit
  (** One transition: scan the current vertex's adjacency slots for
      unvisited edges; if any exist take one (per the rule) and mark it
      visited, else move along a uniformly random incident slot.
      @raise Invalid_argument on an isolated vertex. *)
end

(** Simple random walk: one uniform slot draw per step. *)
module Srw : sig
  type t

  val create : Graph.t -> Rng.t -> start:Graph.vertex -> t
  val position : t -> Graph.vertex
  val steps : t -> int
  val vertices_visited : t -> int
  val step : t -> unit
end

(** Naive multi-walker reference for the lockstep kernel: a plain
    round-robin loop over per-walker generators ([Rng.stream root w] — the
    stream derivation the engine's lanes use), explicit
    bool-array visited sets (one shared row in cooperating mode, one
    private row per walker in competing mode), and adjacency-order offset
    scans.

    RNG alignment: every configuration consumes draws in the same order
    and with the same bounds as {!Ewalk.Engine}, so identical
    seeding reproduces the engine's trajectory bit for bit. *)
module Kernel : sig
  type mode = Cooperating | Competing
  type proc = E_uar | E_lowest | E_highest | Srw_walk | Lazy_srw_walk | Rotor_walk
  (** [Lazy_srw_walk] flips [Rng.bool] first: heads stays put (a step
      with no edge), tails takes the [Srw_walk] draw. *)

  type t

  val create : ?mode:mode -> proc -> Graph.t -> Rng.t -> starts:int array -> t
  (** Default mode: {!Cooperating}.  Rotor offsets are randomized from the
      owning walker's stream (walker 0's in cooperating mode), matching
      [Ewalk.Engine.create ~randomize_rotors:true].  [rng] is not advanced.
      @raise Invalid_argument on no walkers or a start out of range. *)

  val step : t -> unit
  (** Advance the round-robin cursor walker one step.
      @raise Invalid_argument on an isolated vertex. *)

  val walkers : t -> int
  val positions : t -> int array
  val walker_position : t -> int -> int
  val steps : t -> int
  val blue_steps : t -> int
  val walker_steps : t -> int -> int
  val walker_blue_steps : t -> int -> int
  val walker_red_steps : t -> int -> int

  val visited_row : t -> int -> bool array
  (** A copy of walker [w]'s visited flags (the shared row in cooperating
      mode); marks every traversed edge. *)

  val edge_visited : t -> int -> Graph.edge -> bool
  val vertices_visited : t -> int -> int
  val all_vertices_visited : t -> int -> bool
  val rotor_offset : t -> int -> Graph.vertex -> int
end

(** Rotor-router: per-vertex cyclic slot pointers, no randomness after
    initialisation. *)
module Rotor : sig
  type t

  val create :
    ?randomize_rotors:bool -> Graph.t -> Rng.t -> start:Graph.vertex -> t
  (** Mirrors {!Ewalk.Rotor.create}: rotors start at slot 0, or at
      uniformly random offsets drawn vertex by vertex when
      [~randomize_rotors:true]. *)

  val position : t -> Graph.vertex
  val steps : t -> int
  val rotor_offset : t -> Graph.vertex -> int
  val step : t -> unit
end
