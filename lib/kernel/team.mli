(** W cooperating E-process walkers — the legacy [Ewalk.Team] interface,
    now a thin veneer over the lockstep {!Engine}.

    The walkers share one set of visited-edge marks and one coverage table
    and move in round-robin lockstep.  Unlike the original closure-based
    implementation, which drew every walker's randomness from one shared
    generator, each walker [i] now owns PRNG stream [Rng.stream rng i]
    (a SplitMix jump off the creation-time state), so walkers can never
    collide on a stream — and per-walker step/blue/red counters come for
    free from the engine's struct-of-arrays state. *)

open Ewalk_graph

type t

val create :
  ?rule:[ `Uar ] -> Graph.t -> Ewalk_prng.Rng.t -> starts:Graph.vertex list -> t
(** [create g rng ~starts] puts one walker on each listed vertex.
    @raise Invalid_argument if [starts] is empty or out of range. *)

val create_spread : Graph.t -> Ewalk_prng.Rng.t -> walkers:int -> t
(** [create_spread g rng ~walkers] draws [walkers] uniform start vertices
    from [rng] (advancing it).  @raise Invalid_argument if [walkers < 1]
    or the graph is empty. *)

val graph : t -> Graph.t
val walkers : t -> int
val positions : t -> Graph.vertex array
val steps : t -> int
val rounds : t -> int
val coverage : t -> Ewalk.Coverage.t

val step : t -> unit
(** Advance the next walker (round-robin) one step.
    @raise Invalid_argument on an isolated vertex. *)

val step_round : t -> unit
(** Every walker takes one step. *)

val process : t -> Ewalk.Cover.process
(** The team as a generic process named ["team-e-process(W)"] (one
    [step ()] = one walker step). *)

val engine : t -> Engine.t
(** The underlying lockstep engine (same state, not a copy). *)
