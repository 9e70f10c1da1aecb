(** The visited set: which edges and vertices a walk has traversed.

    An E-process's state is the set of edges it has traversed, and its
    rule sees only which incident edges are still unvisited; every walk
    process in this library reports each transition to one [Coverage.t],
    and the generic runners in {!Cover} read cover times out of it.  It
    holds exactly:

    - the {!Arc_marks} of every traversed edge (an edge is retired in the
      marks on its first traversal) — the same marks the E-process rules
      prefer unvisited edges by;
    - an [n]-bit vertex set;
    - the two counts and the two cover steps.

    That is 0.625 B/vertex on a 4-regular graph.  Visit counts and
    first-visit steps are not kept here: {!Visits} records them for the
    few measurements that read them. *)

open Ewalk_graph

type t

val create : Graph.t -> t
(** Fresh instrumentation with nothing visited. *)

val record_start : t -> Graph.vertex -> unit
(** Mark the walk's start vertex as visited at step 0. *)

val record_move : t -> step:int -> Graph.vertex -> unit
(** [record_move t ~step v]: the walk occupies [v] after its [step]-th
    transition; [v] joins the vertex set. *)

val record_edge : t -> step:int -> Graph.edge -> unit
(** [record_edge t ~step e]: transition number [step] traversed [e].  Its
    first traversal retires [e] in the {!marks} and counts it; a repeat
    traversal changes nothing. *)

val marks : t -> Arc_marks.t
(** The marks of the traversed edges (shared, not a copy).  Only
    {!record_edge} may retire an arc: the counts track it. *)

val total_vertices : t -> int
(** [n] of the underlying graph. *)

val total_edges : t -> int

val vertex_fraction : t -> float
(** Fraction of vertices visited so far (1.0 on the empty graph). *)

val edge_fraction : t -> float

val vertex_visited : t -> Graph.vertex -> bool
val edge_visited : t -> Graph.edge -> bool

val vertices_visited : t -> int
(** Number of distinct vertices visited so far. *)

val edges_visited : t -> int

val all_vertices_visited : t -> bool
val all_edges_visited : t -> bool

val vertex_cover_step : t -> int option
(** The step at which the last vertex was first visited, once all are. *)

val edge_cover_step : t -> int option

val visited_edge_flags : t -> bool array
(** The per-edge visited flags as a fresh array (for blue-subgraph
    analysis). *)

(** {2 Checkpointing} *)

type state = {
  s_edges : Bitset.t;  (** the traversed edges, [m] bits *)
  s_vertices : Bitset.t;  (** the visited vertices, [n] bits *)
  s_vertex_cover_step : int;  (** [-1] until covered *)
  s_edge_cover_step : int;
}
(** A plain-data snapshot of the visited set.  The sets are copies;
    mutating a state never affects the live tracker.  The counts are not
    stored: they are the sets' popcounts. *)

val save : t -> state
(** Capture the complete current state. *)

val restore : Graph.t -> clock:int -> state -> t
(** Rebuild a tracker for [g] from a saved state whose walk has taken
    [clock] steps, recounting both sets by popcount.
    @raise Invalid_argument if a set's length does not match the graph, or
    a cover step breaks either rule: it is set (non-negative) exactly when
    its set is full, and then lies in [0 .. clock]. *)
