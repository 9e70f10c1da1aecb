(** Per-vertex occupancy of one walk: how often it has stood on each
    vertex, and from which step.

    The visited set ({!Coverage}) records only {e whether} each vertex and
    edge has been seen.  The few measurements that read visit counts or
    first-visit steps — the blanket-time ratio, the star census's
    surrounded vertices, an adversary steering by occupancy, stationary
    ratios — attach this recorder to their walk.  It observes the walk
    from outside and draws nothing, so attaching it never changes a
    trajectory. *)

open Ewalk_graph

type t

val create : Graph.t -> t
(** A recorder with nothing counted, for one walk on the graph.  It can be
    read (all zeros) before it is attached. *)

val attach : t -> Cover.process -> Cover.process
(** [attach r p] counts [p]'s current position as a visit at [p]'s
    current step, and returns a view of [p] ({!Cover.with_step_hook})
    that counts the position after every step it takes.  A step that
    stays put — a lazy stay, a rejected Metropolis move — is a visit to
    the vertex the walk stays on.  Only steps taken through the view are
    counted.
    @raise Invalid_argument if [p] walks another graph size. *)

val visit_count : t -> Graph.vertex -> int
(** How many times the walk has occupied the vertex (its start counts
    once). *)

val first_visit : t -> Graph.vertex -> int
(** Step of the first visit, [-1] if unvisited. *)

val min_visit_count : t -> int
(** Minimum visit count over all vertices (0 while some vertex is
    unvisited). *)

val run_until_min_visits :
  ?cap:int -> k:int -> t -> Cover.process -> int option
(** [run_until_min_visits ~k r p] steps [p] — the view {!attach} returned
    for [r] — until every vertex has been visited at least [k] times (the
    quantity behind the blanket-time discussion around eq. (4)).  The
    condition is only re-checked every [n/4] transitions (a full check
    costs O(n)), so the returned step count may overshoot the exact
    threshold by up to [n/4] — negligible against the [Omega(n log n)]
    scale of the quantity itself.  [None] if [cap] transitions (default
    [max_int]) elapsed first.
    @raise Invalid_argument if [k < 0]. *)
