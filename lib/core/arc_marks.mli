(** Visited marks over adjacency slots: the one visited-edge representation
    under every edge-preferring walk.

    One bit per arc slot of the graph's CSR adjacency, so vertex [v]'s
    marks are the contiguous bits [adj_start v .. adj_stop v - 1].  A set
    bit is a visited arc; retiring an edge sets both of its slot bits
    ({!Ewalk_graph.Graph.edge_slot}).  A region's live (clear) slots
    are counted with one masked-word popcount and enumerated in adjacency
    order, so the [k]-th live slot is the candidate the naive reference
    walks index with the same draw.  Regions wider than one word (degree
    above 56) are read a word at a time.

    Every {!Coverage} holds one set of marks, retiring each edge on its
    first traversal; the {!Engine}'s cooperating walkers share one
    coverage and its competing walkers own one each, and all of them step
    on these functions. *)

open Ewalk_graph

type t

val create : Graph.t -> t
(** Every arc live (unvisited). *)

(** {2 Counting and choosing}

    These take a vertex's slot region, [~start:(Graph.adj_start g v)
    ~stop:(Graph.adj_stop g v)], which the step loops have at hand
    anyway. *)

val live : t -> start:int -> stop:int -> int
(** Live arc slots in the region; a live self-loop counts 2. *)

val nth_live : t -> start:int -> stop:int -> int -> int
(** [nth_live t ~start ~stop k], [0 <= k < live t ~start ~stop]: the slot
    position of the region's [k]-th live slot in adjacency order.
    @raise Invalid_argument when [k] is out of range. *)

val first_live : t -> start:int -> stop:int -> int
val last_live : t -> start:int -> stop:int -> int
(** The lowest / highest live slot of the region.
    @raise Invalid_argument when it has none. *)

(** {2 Edges} *)

val incident_edges : t -> Graph.vertex -> Graph.edge array
(** The live incident edges of [v] in adjacency order, a self-loop listed
    once. *)

val slot_of_edge : t -> Graph.vertex -> Graph.edge -> int
(** The first live slot of [v] carrying the edge.
    @raise Not_found if the edge is not live at [v]. *)

val retire_edge : t -> Graph.edge -> unit
(** Mark both arcs of the edge visited (idempotent). *)

val edge_retired : t -> Graph.edge -> bool

val slot_retired : t -> int -> bool
(** Whether the arc at a slot position is retired: the same answer as
    {!edge_retired} of the slot's edge, read at the slot itself.
    @raise Invalid_argument when the slot is out of range. *)

val edge_set : t -> Bitset.t
(** The retired edges packed one bit per edge id ([m] bits). *)

val of_edge_set : Graph.t -> Bitset.t -> t
(** Inverse of {!edge_set}.
    @raise Invalid_argument if the set is not [m] bits long. *)
