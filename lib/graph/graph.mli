(** Compact immutable undirected (multi)graphs with stable edge identifiers.

    The representation is compressed-sparse-row adjacency over [2m] directed
    slots, where each undirected edge [e] owns exactly two slots (one per
    endpoint; a self-loop owns two slots at the same vertex and contributes 2
    to its degree, the standard convention).  Every walk process in
    [Ewalk] is driven off this structure; the E-process additionally needs
    the {e slot positions} of each edge ({!edge_slot}) to mark both arcs of
    an edge visited in O(1).

    Vertices are [0 .. n-1]; edges are [0 .. m-1] in insertion order. *)

type t

type vertex = int
type edge = int

val of_edges : n:int -> (vertex * vertex) list -> t
(** [of_edges ~n edges] builds a graph on vertices [0 .. n-1].  Parallel
    edges and self-loops are allowed (each listed pair is its own edge).
    @raise Invalid_argument on a vertex outside [0 .. n-1] or [n < 0]. *)

val of_edge_array : n:int -> (vertex * vertex) array -> t
(** Array flavour of {!of_edges}. *)

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of undirected edges. *)

val degree : t -> vertex -> int
(** [degree g v] counts edge slots at [v]; a self-loop counts 2. *)

val degrees : t -> int array

val max_degree : t -> int
val min_degree : t -> int

val total_degree : t -> int
(** Always [2 * m g]. *)

val is_regular : t -> bool

val all_degrees_even : t -> bool
(** The standing assumption of the paper's main theorems. *)

val endpoints : t -> edge -> vertex * vertex
(** The two endpoints of an edge, in insertion order. *)

val opposite : t -> edge -> vertex -> vertex
(** [opposite g e v] is the endpoint of [e] other than [v] (which is [v]
    itself for a self-loop).  @raise Invalid_argument if [v] is not an
    endpoint of [e]. *)

val adj_start : t -> vertex -> int
val adj_stop : t -> vertex -> int
(** [adj_start g v .. adj_stop g v - 1] are the adjacency slot positions of
    [v]; [adj_stop g v - adj_start g v = degree g v]. *)

val slot_vertex : t -> int -> vertex
(** [slot_vertex g p] is the neighbour stored in slot [p]. *)

val slot_edge : t -> int -> edge
(** [slot_edge g p] is the edge id stored in slot [p]. *)

val edge_slot : t -> edge -> int -> int
(** [edge_slot g e i], [i] 0 or 1: the adjacency slot position of the
    edge's [i]-th arc.  Arc 0 lies in the adjacency of the first
    endpoint. *)

val neighbor : t -> vertex -> int -> vertex
(** [neighbor g v i] is the [i]-th neighbour of [v], [0 <= i < degree g v]. *)

val neighbor_edge : t -> vertex -> int -> edge
(** The edge id leading to [neighbor g v i]. *)

val iter_neighbors : t -> vertex -> (vertex -> edge -> unit) -> unit
(** [iter_neighbors g v f] applies [f w e] for every incident slot. *)

val fold_neighbors : t -> vertex -> ('a -> vertex -> edge -> 'a) -> 'a -> 'a

val neighbors : t -> vertex -> vertex list
(** Neighbour multiset of [v] as a list (slot order). *)

val iter_edges : t -> (edge -> vertex -> vertex -> unit) -> unit

val fold_edges : t -> ('a -> edge -> vertex -> vertex -> 'a) -> 'a -> 'a

val edge_list : t -> (vertex * vertex) list
(** All edges in id order. *)

val edge_array : t -> (vertex * vertex) array
(** All edges in id order (fresh array);
    [of_edge_array ~n:(n g) (edge_array g)] rebuilds the graph
    identically. *)

val mem_edge : t -> vertex -> vertex -> bool
(** [mem_edge g u v] scans the (shorter) adjacency; O(min degree). *)

val count_self_loops : t -> int

val count_parallel_edges : t -> int
(** Number of edges in excess of the first between each vertex pair (a pair
    joined by [k] parallel edges contributes [k - 1]); self-loops are not
    counted here. *)

val is_simple : t -> bool
(** No self-loops and no parallel edges. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-line summary ([n], [m], degree range). *)
