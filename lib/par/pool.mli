(** A reusable OCaml 5 domain pool for embarrassingly parallel trial sweeps.

    The pool spawns its worker domains once ({!create}) and reuses them for
    every subsequent batch, so per-batch overhead is a few mutex operations
    rather than a domain spawn.  Work is distributed in chunks pulled from a
    shared cursor; the calling domain participates in every batch, so a pool
    with [jobs = k] runs [k] lanes of work on [k - 1] spawned domains.

    Determinism contract: {!map_array} writes result [i] from input [i] —
    results are positional, never completion-ordered.  A caller that gives
    each element its own independent random stream (as
    [Ewalk_expt.Sweep.trial_rngs] does via [Rng.split_n]) therefore gets
    results that are bit-identical to the sequential path regardless of the
    job count or chunk size.

    A pool with [jobs = 1] spawns no domains at all: every batch runs
    sequentially in the caller, making [jobs=1] a guaranteed-equivalent
    fallback (and the reference implementation the determinism tests compare
    against). *)

type t
(** A pool of worker domains plus a shared work queue. *)

exception Task_failed of { index : int; attempts : int; last : exn }
(** Raised by {!map_array} when element [index] still fails after its full
    retry budget ([attempts = retries + 1] executions); [last] is the final
    failure.  Only raised when the retry budget is positive — with
    [retries = 0] the original exception escapes unchanged. *)

exception Task_timeout of { index : int; elapsed_s : float; timeout_s : float }
(** The failure recorded for an element whose execution exceeded the task
    timeout.  Domains are not preemptible, so the timeout is checked after
    the fact: the overlong result is discarded and the element counts as
    failed (and is retried under a positive retry budget). *)

val set_fault_injector : (lane:int -> unit) option -> unit
(** Install (or clear) a process-global hook run before every element
    execution with the executing lane's index; raising from the hook makes
    that execution fail.  Deterministic failure injection for the
    fault-tolerance tests — see [Ewalk_resume.Faults]. *)

val default_jobs : unit -> int
(** Job count used when [create] is given no [jobs]: the value of the
    [EWALK_JOBS] environment variable if set to a positive integer, else
    [max 1 (Domain.recommended_domain_count () - 1)] (one lane is left for
    the calling domain's housekeeping).  A malformed [EWALK_JOBS] is
    reported on [stderr] and ignored. *)

val create : ?retries:int -> ?task_timeout_s:float -> ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (none when
    [jobs <= 1]).  Defaults to {!default_jobs}.  [retries] (default [0])
    and [task_timeout_s] (default: none) set the pool-wide defaults for
    every {!map_array} batch.
    @raise Invalid_argument if [jobs < 1], [retries < 0] or the timeout is
    not positive. *)

val jobs : t -> int
(** The number of parallel lanes (including the calling domain). *)

val map_array :
  ?chunk:int ->
  ?retries:int ->
  ?task_timeout_s:float ->
  t ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [map_array pool f a] is [Array.map f a], computed in parallel.  Elements
    are claimed in contiguous chunks of [chunk] (default: a chunk size that
    yields a few chunks per lane, at least 1); results land at their input's
    index.

    Failure handling is governed by the retry budget ([retries], defaulting
    to the pool-wide value; likewise [task_timeout_s]).  With [retries = 0],
    if any application of [f] raises, the first exception (in completion
    order) is re-raised in the caller after the batch quiesces, and the pool
    remains usable.  With [retries > 0], a failing (or timed-out) element
    does not abort the batch: after the other lanes drain, it is re-executed
    in the caller's lane — a different lane than the one that failed it,
    unless the caller's own drain hit the failure — up to [retries] more
    times, with every failure and re-execution surfaced in {!stats}.  An
    element still failing after [retries + 1] executions raises
    {!Task_failed}.  Because [f] is re-applied to the original element,
    retried batches return the same results as undisturbed ones whenever
    [f] is deterministic per element (give each element its own
    pre-split RNG and copy it inside [f], as [Ewalk_expt.Sweep.map_trials]
    does, rather than mutating shared state).

    Safe to call again after an exception and safe to call from code
    already running inside another pool's batch.
    @raise Invalid_argument if [chunk < 1] or [retries < 0]. *)

val run : t -> (unit -> 'a) list -> 'a list
(** [run pool thunks] evaluates the thunks in parallel (chunk size 1) and
    returns their results in input order.  Same exception contract as
    {!map_array}. *)

(** Per-lane telemetry accumulated since pool creation (or the last
    {!reset_stats}).  Lane 0 is the calling domain; lanes 1.. are the
    spawned workers. *)
type lane_report = {
  busy_s : float;  (** seconds spent executing batch work *)
  wait_s : float;
      (** seconds blocked: queue wait for workers, end-of-batch barrier
          for the caller *)
  chunks_served : int;  (** chunks claimed from batch cursors *)
  tasks_served : int;  (** helper tasks (workers) / batches (caller) *)
  tasks_failed : int;
      (** element executions in this lane that raised or timed out *)
  tasks_retried : int;  (** recovery re-executions performed by this lane *)
}

val stats : t -> lane_report array
(** One report per lane, index = lane.  Cells are written without locks by
    their owning domains, so read this at a quiescent point — after the
    batch whose cost you are attributing has returned.  The sequential
    fast path ([jobs = 1], or single-element inputs) records no timing,
    but failures and retries land in lane 0. *)

val reset_stats : t -> unit
(** Zero every lane (quiescent points only, same caveat as {!stats}). *)

val utilization_line : t -> wall_s:float -> string
(** One-line human summary of {!stats} against a wall-clock interval:
    per-lane busy seconds, aggregate utilization percent
    ([sum busy / (jobs * wall)]), and total chunks served — plus
    [run=<id>] when an ambient {!Ewalk_obs.Runlog} run exists, so lane
    telemetry joins the run's other artifacts.  This is the line the
    bench and CLI print after [--jobs > 1] runs so a poor speedup
    arrives with its explanation attached. *)

val shutdown : t -> unit
(** Joins the worker domains.  Idempotent.  Submitting new batches to a
    shut-down pool with [jobs > 1] raises [Invalid_argument]. *)

val with_pool :
  ?retries:int -> ?task_timeout_s:float -> ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] creates a pool, passes it to [f] and shuts it down
    afterwards (also on exceptions). *)
