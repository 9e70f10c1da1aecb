(** Compact immutable undirected (multi)graphs with stable edge identifiers.

    The representation is compressed-sparse-row adjacency over [2m] directed
    slots, where each undirected edge [e] owns exactly two slots (one per
    endpoint; a self-loop owns two slots at the same vertex and contributes 2
    to its degree, the standard convention).  Every walk process in
    [Ewalk] is driven off this structure.

    The layout is five arrays of 32-bit ints: the [n + 1] row offsets, and
    for each of the [2m] slots its neighbour ({!slot_vertex}), its edge id
    ({!slot_edge}) and its {e twin} ({!slot_twin}), the other slot of the
    same edge; and for each edge its arc-0 slot ({!edge_slot} [e 0]), the
    one in its first endpoint's row.  That is [4 (n + 1) + 28 m] bytes,
    60 per vertex at degree 4.  An edge's endpoints are read through its
    arc-0 slot and that slot's twin.  The twin lets an edge-preferring walk
    retire both arcs of the edge it leaves by from the slot it holds, with
    no lookup by edge id.  Because every entry is an int32, [n] and [2m]
    are at most [2^31 - 1].

    Vertices are [0 .. n-1]; edges are [0 .. m-1] in insertion order. *)

type t

type vertex = int
type edge = int

val of_edges : n:int -> (vertex * vertex) list -> t
(** [of_edges ~n edges] builds a graph on vertices [0 .. n-1].  Parallel
    edges and self-loops are allowed (each listed pair is its own edge).
    @raise Invalid_argument on a vertex outside [0 .. n-1], [n < 0], or [n]
    or [2m] above [2^31 - 1] (checked before anything is allocated). *)

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

val slot_twin : t -> int -> int
(** [slot_twin g p] is the other slot of the edge stored in slot [p]: it
    lies in the row of [slot_vertex g p] (in [p]'s own row for a
    self-loop), carries the same edge, and its twin is [p]. *)

val edge_slot : t -> edge -> int -> int
(** [edge_slot g e i], [i] 0 or 1: the adjacency slot position of the
    edge's [i]-th arc.  Arc 0 lies in the adjacency of the first
    endpoint; arc 1 is its {!slot_twin}.
    @raise Invalid_argument if [i] is not 0 or 1. *)

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

val digest : t -> string
(** Hex MD5 of the graph's whole layout: the endpoints of every edge in
    id order, then every slot's (neighbour, edge) pair in slot order, then
    both {!edge_slot}s of every edge, each number as 8 little-endian
    bytes.  The stream is hashed 64 KiB at a time and the digest is that
    of the blocks' digests, so memory stays bounded at any size.  Equal
    digests mean equal edge ids, slot order and slot positions — what
    [test/golden/graphs.txt] pins per generator and [eproc graph-info]
    prints. *)

(** {1 Direct fill} *)

(** A fixed-width row table that {e is} the CSR of the graph under
    construction, for generators that know every degree in advance (the
    random regular graphs and the cycle unions).  Vertex [v]'s row is the
    slots [v * width .. (v + 1) * width - 1]; each added edge takes the
    first free slot of each endpoint's row (a loop takes two) and the next
    edge id, so a full table freezes into the graph {!of_edge_array}
    builds from the same edges in the same order, slot for slot.  The
    table fills the graph's own int32 slot arrays in place — neighbour,
    edge id and twin per slot, arc 0 per edge — with a free slot's
    neighbour -1 (bytes [0xFF]), so adding an edge allocates nothing. *)
module Rows : sig
  type graph := t
  type t

  val create : n:int -> width:int -> t
  (** An empty table: [n] rows of [width] free slots.
      @raise Invalid_argument if [n] or [width] is negative, [n * width]
      is odd, or [n] or [n * width] is above [2^31 - 1] (checked before
      anything is allocated). *)

  val clear : t -> unit
  (** Remove every edge. *)

  val adjacent : t -> vertex -> vertex -> bool
  (** [adjacent t u v] scans [u]'s filled slots for [v]; O(width). *)

  val add_edge : t -> vertex -> vertex -> unit
  (** Add edge [u v]; its id is the number of edges added before it.
      @raise Invalid_argument on a vertex out of range or a full row. *)

  val connected : t -> stack:int array -> bool
  (** Whether the edges added so far connect all [n] vertices
      ([n <= 1] counts as connected): a depth-first search over the rows
      that uses [stack] as its stack and overwrites it.
      @raise Invalid_argument if there are edges and [stack] is shorter
      than [n]. *)

  val freeze : t -> graph
  (** The graph of a full table, on the table's own slot arrays, with
      row offsets [v * width].  The table gives the arrays up and must
      not be used again.
      @raise Invalid_argument if some row is not full. *)
end

val pp : Format.formatter -> t -> unit
(** Human-readable one-line summary ([n], [m], degree range). *)
