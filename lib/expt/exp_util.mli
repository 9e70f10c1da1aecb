(** Shared building blocks for the named experiments. *)

open Ewalk_graph

val regular_graph : Ewalk_prng.Rng.t -> n:int -> d:int -> Graph.t
(** Connected random [d]-regular graph (Steger–Wormald + connectivity
    rejection) — the Figure 1 workload. *)

val vertex_cover_eprocess :
  ?rule:Ewalk.Eprocess.rule -> ?visits:Ewalk.Visits.t -> ?cap:int ->
  ?obs:Ewalk.Observe.t -> Ewalk_prng.Rng.t -> Graph.t -> int option
(** Vertex cover time of one E-process run from vertex 0;
    [None] if the cap (default {!Ewalk.Cover.default_cap}) was hit.
    With [visits], the recorder is attached to the walk first
    ({!Ewalk.Visits.attach}).  With [obs], the run is fully instrumented:
    native E-process hooks attached, the process wrapped by
    {!Ewalk.Observe.instrument}, and [Run_end] emitted on completion. *)

val edge_cover_eprocess :
  ?rule:Ewalk.Eprocess.rule -> ?cap:int -> ?obs:Ewalk.Observe.t ->
  Ewalk_prng.Rng.t -> Graph.t -> int option

val vertex_cover_srw :
  ?cap:int -> ?obs:Ewalk.Observe.t -> Ewalk_prng.Rng.t -> Graph.t ->
  int option

val edge_cover_srw :
  ?cap:int -> ?obs:Ewalk.Observe.t -> Ewalk_prng.Rng.t -> Graph.t ->
  int option

val adversary_stay_explored :
  Ewalk.Visits.t -> Ewalk.Eprocess.t -> Graph.edge array -> int
(** An online adversary for the rule-independence experiment: among the
    candidate unvisited edges it picks the one whose far endpoint has been
    occupied most often — trying to keep the walk inside explored territory
    and starve fresh vertices.  It reads the occupancy from the recorder
    it is given, which must be attached to the walk it steers.  Theorem 1
    says it cannot push the cover time beyond O(n) on even-degree random
    regular graphs. *)

val adversary_min_blue : Ewalk.Eprocess.t -> Graph.edge array -> int
(** A second adversary: steer towards the endpoint with the fewest
    remaining unvisited edges, trying to end blue phases as early as
    possible. *)
