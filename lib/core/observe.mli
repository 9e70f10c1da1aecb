(** Observability wiring: one bundle connecting any walk process to the
    {!Ewalk_obs} metrics registry and trace sinks.

    An {!t} is a (metrics, sink) pair plus a per-trial view (see
    {!for_trial}).  Two attachment layers exist, and they compose:

    - {!instrument} wraps {e any} {!Cover.process} at the generic choke
      point ({!Cover.with_step_hook}): it watches the shared {!Coverage}
      for 25/50/75/100% vertex- and edge-coverage milestones and
      maintains the process-agnostic metrics ([steps],
      [coverage_vertex_fraction], [coverage_edge_fraction],
      [frontier_unvisited_vertices], [frontier_unvisited_edges]).
    - {!attach} installs the native hooks of a walk {!Engine} (every
      E-process, SRW, lazy-SRW and rotor walk, at any walker count),
      adding [Step] and [Phase] trace events and the step metrics
      ([blue_steps], [red_steps], [phases_blue], [phases_red], and the
      [phase_length] histogram).

    {b Cost model.}  The no-op bundle (no metrics, null sink) is free on
    the hot path: the native attach is skipped outright and
    {!instrument} returns the process untouched.  Metrics cost one path
    whatever the sink: no per-step event is built for them and no step
    pays an atomic, a mutex or a domain-local lookup.  The per-trial view
    holds every unpublished value — step counters drain as deltas of the
    engine's native counters, and phases are counted into plain ints by
    the phase-boundary observer ({!Engine.set_phase_observer}), which
    fires once per maximal blue/red run, not per step — and publishes
    them into the registry every 4096 steps and at {!flush}/{!finish}.
    Only a live sink pays for per-step events, which it merely receives.

    A registry read between drains therefore lags the walk by at most one
    drain interval (a competing engine, which has no {!instrument} hook,
    drains through {!ticker}, or only at {!flush}); after {!finish} or
    {!flush} it is exact. *)

module Metrics = Ewalk_obs.Metrics
module Trace = Ewalk_obs.Trace

type t

val create : ?metrics:Metrics.t -> ?sink:Trace.sink -> unit -> t
(** Defaults: no metrics, {!Trace.null}.  The returned bundle is the
    trial-0 view of itself. *)

val for_trial : t -> trial:int -> t
(** A fresh per-trial view sharing the registry and sink.  Each trial of
    a (possibly parallel) sweep must attach and instrument through its
    own view: the view carries the trial's drain state, and its [trial]
    index resolves gauge races deterministically — final gauge values
    are the highest trial index's ({!Metrics.set_at}), independent of
    [--jobs]. *)

val metrics : t -> Metrics.t option
val sink : t -> Trace.sink

val is_noop : t -> bool
(** True iff there is nothing to record (no metrics, null sink). *)

val attach : t -> Engine.t -> unit
(** Install a walk engine's observation (no-op on a no-op bundle).  A
    live sink receives the engine's [Step] and [Phase] events as they
    happen.  With metrics, the view registers drains over the engine's
    native step counters — aggregate [blue_steps]/[red_steps], plus
    name-encoded per-walker series ([blue_steps_walker_i], see
    {!Ewalk_obs.Metrics.with_label}) when [1 < W <= 32] — and counts
    [phases_blue], [phases_red] and the [phase_length] histogram through
    the phase-boundary observer.  A phase's length is counted in its
    walker's own steps, from that walker's previous phase boundary.
    Engines with more than one walker also publish a [kernel_walkers]
    gauge. *)

val attach_eprocess : t -> Eprocess.t -> unit
(** {!attach}, under the name the end-to-end benchmark calls. *)

val instrument : ?resumed_at:int -> t -> Cover.process -> Cover.process
(** Generic wrapper: emits the run prologue ({!Ewalk_obs.Trace.prologue})
    immediately when the sink is live (plus any milestone already crossed
    at attach time — the start vertex counts), then emits milestone
    events as coverage crosses 25/50/75/100%, and publishes the
    process-agnostic metrics at the view's drain cadence.  Each call
    carries its own milestone state,
    so instrument each process (or trial) with a fresh {!for_trial}
    view.

    [resumed_at] marks the process as restored from a snapshot taken at
    that step: a [Resume] event follows [Run_start], and thresholds the
    pre-resume segment already crossed are dropped silently instead of
    re-announced (the original trace carries them), so the tail stream
    stays verifiable by {!Ewalk_check.Replay}. *)

val ticker : t -> steps:(unit -> int) -> unit -> unit
(** The drain cadence of a run that has no {!Cover.process} (a competing
    engine, see {!Engine.run_until_first_cover}'s [tick]): [ticker t
    ~steps] publishes the run's total [steps ()] as the [steps] counter
    (and the throughput sampler's feed, as {!instrument} does) and
    returns a tick that runs the view's drains whenever [steps ()] has
    advanced a drain interval (4096 steps) since they last ran.  Call it
    once per view, after {!attach}. *)

val flush : t -> unit
(** Run the view's drains without touching process-specific state — the
    end-of-run publish for runs that have no {!Cover.process} adapter (a
    competing-mode engine). *)

val finish : t -> Cover.process -> unit
(** Run the view's drains, push the final gauge values (stamped with the
    view's trial index), and emit [Run_end] when the sink is live.  Call
    once per instrumented run, on the lane that ran it. *)
