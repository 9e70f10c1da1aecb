(** Random regular graphs and the configuration model.

    This is the workload generator of the paper's evaluation: Figure 1 runs
    the E-process on random [d]-regular graphs for [d = 3 .. 7], generated
    there with NetworkX's Steger–Wormald implementation.  {!random_regular}
    is that algorithm — incremental pairing of random suitable stub pairs,
    restarting when the remaining stubs admit none — which is
    asymptotically uniform over simple [r]-regular graphs for
    [r = o(n^(1/3))] and linear time in expectation for constant [r].  It
    fills the graph's CSR directly ({!Graph.Rows}).  Exactly uniform
    samples come from {!random_regular_rejection}, the pairing model with
    simple-graph rejection, practical only for [r <= 4].  See DESIGN.md §3
    for the substitution argument. *)

val pairing_multigraph : Ewalk_prng.Rng.t -> int -> int -> Graph.t
(** [pairing_multigraph rng n r]: one draw of the pairing model — [r]
    half-edges ("stubs") per vertex, paired uniformly.  May contain loops and
    parallel edges.  @raise Invalid_argument if [n * r] is odd, [r < 0], or
    [n < 0]. *)

val random_regular_rejection :
  ?max_attempts:int -> Ewalk_prng.Rng.t -> int -> int -> Graph.t
(** [random_regular_rejection rng n r]: an {e exactly} uniform simple
    [r]-regular graph — rejects pairings until one is simple.  The
    acceptance probability is [~ exp(-(r^2 - 1)/4)], so this is only
    practical for [r <= 4]; prefer {!random_regular} beyond that.
    @param max_attempts default 10_000.
    @raise Invalid_argument on infeasible parameters ([n * r] odd, or
      [r >= n] with [n > 0]).
    @raise Failure if no simple pairing is found within [max_attempts]. *)

val random_regular :
  ?max_attempts:int -> Ewalk_prng.Rng.t -> int -> int -> Graph.t
(** [random_regular rng n r]: a simple [r]-regular graph by the
    Steger–Wormald incremental pairing algorithm — the same algorithm the
    paper used through NetworkX.  Random suitable stub pairs (distinct,
    non-adjacent endpoints) are matched one at a time; if the remaining
    stubs admit no suitable pair, the construction restarts.
    Asymptotically uniform for [r = o(n^(1/3))] and fast for all practical
    [r] (no [exp(r^2)] rejection).
    @param max_attempts restarts allowed (default 1_000).
    @raise Invalid_argument / @raise Failure as
      {!random_regular_rejection}. *)

val random_regular_connected :
  ?max_attempts:int -> Ewalk_prng.Rng.t -> int -> int -> Graph.t
(** Like {!random_regular} but additionally rejects disconnected samples.
    For [r >= 3] random regular graphs are connected whp, so this rarely
    costs more than one extra draw. *)

val configuration_model :
  ?simple:bool -> ?max_attempts:int -> Ewalk_prng.Rng.t -> int array -> Graph.t
(** [configuration_model rng degrees]: the pairing model for an arbitrary
    degree sequence — the "fixed degree sequence random graphs" of the
    paper's Corollary discussion.  With [~simple:true] (default [false])
    rejects until simple.
    @raise Invalid_argument if the degree sum is odd or any degree is
      negative. *)

val cycle_union : ?max_attempts:int -> Ewalk_prng.Rng.t -> int -> int -> Graph.t
(** [cycle_union rng n r]: the union of [r] independent uniform Hamiltonian
    cycles — a simple [2r]-regular (hence even-degree) graph, rejecting
    draws that share an edge between cycles.  A convenient even-degree
    expander family that is connected by construction.
    @raise Invalid_argument if [n < 3] or [r < 1]. *)
