(** Simple and lazy random walks — the paper's baselines.

    The simple random walk is the process whose [Omega(n log n)] cover time
    (Feige; Theorem 5) the E-process beats.  The lazy walk (stay put with
    probability 1/2) is the standard fix for bipartite periodicity
    (Section 2.1).  Both are one-walker {!Engine}s: this module is their
    constructors and the names callers use. *)

open Ewalk_graph

type t = Engine.t

val create : Graph.t -> Ewalk_prng.Rng.t -> start:Graph.vertex -> t
(** A simple random walk at [start], drawing from [rng] itself
    ({!Engine.single}).
    @raise Invalid_argument if [start] is out of range. *)

val create_lazy : Graph.t -> Ewalk_prng.Rng.t -> start:Graph.vertex -> t
(** Lazy variant: each step stays with probability 1/2. A lazy "stay" counts
    as one transition (visiting the current vertex again) and its [Step]
    event carries [edge = -1]. *)

val graph : t -> Graph.t
val position : t -> Graph.vertex
val steps : t -> int
val coverage : t -> Coverage.t

val step : t -> unit
(** One transition.  @raise Invalid_argument on an isolated vertex. *)

val run_steps : t -> int -> unit
(** [run_steps t k]: [k] transitions in a tight loop. *)

val process : t -> Cover.process
