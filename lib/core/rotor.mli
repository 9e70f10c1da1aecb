(** Rotor-router walk (Propp machine).

    The deterministic exploration process the paper positions the E-process
    against: each vertex carries a rotor cycling through its incident edges
    in fixed order; the walk always leaves along the current rotor edge and
    advances the rotor.  Covers any connected graph in O(m D) steps
    (Yanovski et al.), and after a transient settles into an Eulerian
    circulation — properties exercised by the test suite.  A one-walker
    {!Engine}: this module is its constructor and the names callers use. *)

open Ewalk_graph

type t = Engine.t

val create :
  ?randomize_rotors:bool -> Graph.t -> Ewalk_prng.Rng.t ->
  start:Graph.vertex -> t
(** Rotors start at slot 0 of each adjacency list, or at uniformly random
    offsets drawn from [rng] in vertex order (advancing it) with
    [~randomize_rotors:true]; the rng is unused otherwise.
    @raise Invalid_argument if [start] is out of range. *)

val graph : t -> Graph.t
val position : t -> Graph.vertex
val steps : t -> int
val coverage : t -> Coverage.t

val rotor_offset : t -> Graph.vertex -> int
(** Current rotor position (slot offset) at a vertex. *)

val step : t -> unit
(** @raise Invalid_argument on an isolated vertex. *)

val process : t -> Cover.process
