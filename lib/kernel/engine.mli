(** Batched multi-walker lockstep engine.

    The engine advances W walkers over one shared graph in round-robin
    lockstep, with all per-walker state held struct-of-arrays style: a flat
    [int array] of positions, a {!Packed} bank of per-walker xoshiro256++
    words (walker [w] draws from [Rng.stream root w], so no two walkers
    ever share a PRNG stream), and {!Ewalk.Arc_marks} visited-edge marks.

    Two marking disciplines:

    - {e cooperating}: all walkers share one set of marks and one
      {!Ewalk.Coverage} table — a blue edge retired by any walker
      is gone for every walker.  Steps advance a global clock; the engine
      is checkpointable and exposes a {!Ewalk.Cover.process} adapter.  A
      1-walker cooperating engine is bit-identical to the legacy
      single-walker loop: same draws, same trace events, same tables.
    - {e competing}: every walker carries private marks and a private
      vertex set, so walkers are mutually independent and walker blocks
      shard across domains via {!Ewalk_par.Pool} ({!run_rounds}) with
      results independent of the job count.  Step clocks are
      walker-local.

    E-process blue choices in both modes index the live slots in adjacency
    order with the functions {!Ewalk.Eprocess} uses — exactly the naive
    [Ewalk_check.Oracle] protocol. *)

open Ewalk_graph

type mode = Cooperating | Competing

type proc = E_uar | E_lowest | E_highest | Srw | Rotor
(** The ported step functions: the three E-process rules, the simple
    random walk, and the rotor-router. *)

type phase_kind = Blue | Red

type fault = Skip_preference | Reuse_prng_word | Torn_soa
(** Deliberate defects for the mutation-kill battery (see {!set_fault}):
    take the red draw even when unvisited edges remain; draw every
    walker's randomness from walker 0's PRNG words; write the landing
    position into the {e next} walker's SoA slot. *)

type t

val create :
  ?mode:mode ->
  ?randomize_rotors:bool ->
  proc ->
  Graph.t ->
  Ewalk_prng.Rng.t ->
  starts:int array ->
  t
(** [create proc g rng ~starts] builds a [length starts]-walker engine,
    walker [w] starting at [starts.(w)] and drawing from
    [Rng.stream rng w].  [mode] defaults to [Cooperating];
    [randomize_rotors] (default [true]) seeds rotor offsets from the
    owning walker's stream like [Rotor.create ~randomize_rotors:true].
    [rng] itself is not advanced.
    @raise Invalid_argument on an empty graph, no walkers, or a start
    out of range. *)

val create_spread :
  ?mode:mode ->
  ?randomize_rotors:bool ->
  proc ->
  Graph.t ->
  Ewalk_prng.Rng.t ->
  walkers:int ->
  t
(** Like {!create} with [walkers] uniform start vertices drawn from [rng]
    (advancing it — the per-walker streams then derive from the advanced
    state, as the legacy [Team.create_spread] drew its starts). *)

(** {1 Stepping} *)

val step : t -> unit
(** Advance the cursor walker one step and move the cursor on — W calls
    make one lockstep round.  @raise Invalid_argument on an isolated
    vertex. *)

val step_round : t -> unit
(** One full round: every walker takes one step, in walker order. *)

val run_rounds : ?pool:Ewalk_par.Pool.t -> t -> int -> unit
(** [run_rounds ?pool t r] advances every walker [r] steps.  In competing
    mode with a multi-lane pool, no observers and no fault injected, the
    walker blocks run sharded across the pool's domains; the final state
    is identical to the sequential path at any job count (walkers are
    independent).  Cooperating mode always steps sequentially (the
    shared marks impose the round-robin order). *)

val run_until_first_cover :
  ?pool:Ewalk_par.Pool.t -> ?block:int -> ?cap:int -> t -> (int * int) option
(** Competing mode only: advance in [block]-round bursts (default 64)
    until some walker has seen every vertex or every walker has taken
    [cap] steps (default {!Ewalk.Cover.default_cap}).  Returns
    [Some (walker, cover_step)] for the walker with the smallest
    walker-local cover step (lowest index on ties) — deterministic and
    independent of [?pool].  @raise Invalid_argument in cooperating mode
    (use {!process} with {!Ewalk.Cover.run_until_vertex_cover}). *)

(** {1 Observation} *)

val set_observer : t -> (walker:int -> Ewalk_obs.Trace.event -> unit) option -> unit
(** Per-step observer: receives every [Step] and [Phase] event tagged
    with the walker index.  Event [step] stamps are global in
    cooperating mode and walker-local in competing mode.  At W=1
    cooperating, the stream is bit-identical to the legacy processes'. *)

val set_phase_observer :
  t -> (walker:int -> Ewalk_obs.Trace.event -> unit) option -> unit
(** Phase-boundary-only observer (the metrics fast path): fires once per
    maximal blue/red run of each walker, not per step. *)

val set_fault : t -> fault option -> unit
(** Test-only: inject a deliberate defect into the step functions so the
    differential/invariant battery can prove it would be caught.  Faulted
    engines never take the sharded {!run_rounds} path. *)

(** {1 Accessors} *)

val graph : t -> Graph.t
val proc : t -> proc
val mode : t -> mode
val walkers : t -> int
val positions : t -> int array
val walker_position : t -> int -> int

val cursor : t -> int
(** The walker that will move on the next {!step}. *)

val position : t -> int
(** The cursor walker's position (the legacy [Team.position ()] view). *)

val steps : t -> int
(** Total steps across all walkers (both modes). *)

val rounds : t -> int
val blue_steps : t -> int
val red_steps : t -> int
val walker_steps : t -> int -> int
val walker_blue_steps : t -> int -> int
val walker_red_steps : t -> int -> int

val coverage : t -> Ewalk.Coverage.t
(** The shared coverage table.  @raise Invalid_argument in competing
    mode. *)

val marks : t -> Ewalk.Arc_marks.t
(** Cooperating E-process engines: the shared visited-edge marks (not a
    copy), which always hold exactly the edges {!coverage} has seen.
    @raise Invalid_argument otherwise. *)

val walker_vertices_visited : t -> int -> int
(** Competing mode: vertices walker [w] has seen (its start counts).
    @raise Invalid_argument in cooperating mode; likewise the three
    accessors below. *)

val walker_edges_visited : t -> int -> int
val walker_edge_visited : t -> int -> Graph.edge -> bool
val walker_vertex_visited : t -> int -> Graph.vertex -> bool

val walker_cover_step : t -> int -> int option
(** Competing mode: the walker-local step at which walker [w] completed
    its own vertex cover, if it has. *)

val rotor_offset : t -> Graph.vertex -> int
(** Cooperating rotor engines: the shared rotor offset at [v]. *)

val walker_rotor_offset : t -> int -> Graph.vertex -> int
(** Competing rotor engines: walker [w]'s private rotor offset at [v]. *)

val proc_name : proc -> string
(** The legacy process name ("e-process(uar)", "srw", ...). *)

val name : t -> string
(** The engine's run name: exactly {!proc_name} for a 1-walker
    cooperating engine (so W=1 traces carry legacy [Run_start] names),
    ["kernel-<proc>[w=W,<mode>]"] otherwise. *)

val process : t -> Ewalk.Cover.process
(** Cooperating mode: the generic process adapter (position = cursor
    walker, one [step ()] = one walker step), ready for
    {!Ewalk.Cover.run_until_vertex_cover} and {!Ewalk.Observe.instrument}.
    @raise Invalid_argument in competing mode. *)

(** {1 Checkpointing (cooperating mode)} *)

type checkpoint = {
  ck_proc : proc;
  ck_pos : int array;
  ck_cursor : int;
  ck_steps : int;
  ck_wsteps : int array;
  ck_wblue : int array;
  ck_wred : int array;
  ck_prng : int64 array;  (** {!Packed.save} words, walker-major *)
  ck_coverage : Ewalk.Coverage.state;
  ck_rotor : int array option;  (** Rotor only *)
  ck_phase : (phase_kind * int * Graph.vertex) option array;
}

val checkpoint : t -> checkpoint
(** Serialize a cooperating engine's complete state.
    @raise Invalid_argument in competing mode. *)

val of_checkpoint : Graph.t -> checkpoint -> t
(** Rebuild an engine that continues bit-identically to the one
    checkpointed.  The E-process rules' shared marks are rebuilt from the
    coverage's edge set, which they always equal.  Observers and faults
    are not restored.
    @raise Invalid_argument on any internally inconsistent record, among
    them an E-process record whose blue steps differ from its edges
    seen. *)

(** {1 Checkpointing (competing mode)} *)

type competing_checkpoint = {
  cc_proc : proc;
  cc_pos : int array;
  cc_cursor : int;
  cc_wsteps : int array;
  cc_wblue : int array;
  cc_wred : int array;
  cc_prng : int64 array;  (** {!Packed.save} words, walker-major *)
  cc_visited : Ewalk.Bitset.t array;
      (** per-walker traversed edges, m bits ({!Ewalk.Arc_marks.edge_set}) *)
  cc_vseen : Ewalk.Bitset.t array;  (** per-walker vertex bitsets, n bits *)
  cc_vcount : int array;
      (** serialized for inspectability only — restore recomputes *)
  cc_ecount : int array;  (** likewise *)
  cc_cover_at : int array;  (** walker-local cover step, [-1] if none *)
  cc_rotor : int array option;  (** walkers * n, walker-major; Rotor only *)
  cc_phase : (phase_kind * int * Graph.vertex) option array;
}
(** Complete state of a competing engine.  The visit counters
    [cc_vcount]/[cc_ecount] ride along so snapshot inspection can print
    them, but they are {e derived} data: {!of_checkpoint_competing}
    recomputes both from the bitsets by popcount and rejects a record
    whose stored counters disagree — a resumed run never trusts a
    counter it can recount. *)

val checkpoint_competing : t -> competing_checkpoint
(** Serialize a competing engine's complete state (bitsets are copied).
    @raise Invalid_argument in cooperating mode (use {!checkpoint}). *)

val of_checkpoint_competing : Graph.t -> competing_checkpoint -> t
(** Rebuild a competing engine that continues bit-identically to the one
    checkpointed, at any job count.  Per-walker visit counters are
    recomputed from the bitset popcounts, never read from the record.
    Observers and faults are not restored.
    @raise Invalid_argument on any internally inconsistent record: bad
    lengths or ranges, step counters that do not add up, a stored visit
    counter disagreeing with its bitset's popcount, a walker position
    not marked seen, or a cover mark inconsistent with the vertex
    set. *)
