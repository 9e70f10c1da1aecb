(** One walk session: a snapshottable walk plus the machinery to step it,
    stream its trace, and hibernate/rehydrate it bit-identically.

    A session is {e resident} (the walk is live in memory) or
    {e hibernated} (its full state sits in a CRC-guarded
    {!Ewalk_resume.Snapshot} under the session's state directory, plus a
    cached summary for cheap inspection).  The {!Registry} owns the
    resident/hibernated policy; this module owns the mechanics — and the
    invariant the qcheck battery enforces: any interleaving of
    [step]/[hibernate]/[rehydrate]/[stream] produces states and event
    streams bit-identical to a session that never hibernated.

    Trace streams are self-verifying: each [stream] call emits a full
    prologue ([run_start], [run_info] when a {!Ewalk_obs.Runlog} run is
    ambient, and [resume] when the walk is already underway) and a
    [run_end], so a recorded stream from a single-walker session is
    accepted by [eproc verify-trace] against the same
    family/n/seed graph. *)

type t

type summary = {
  s_steps : int;
  s_position : int;
  s_covered : bool;
  s_vertices : int;  (** distinct vertices visited (competing: best walker) *)
  s_edges : int;  (** distinct edges visited (competing: best walker) *)
}

val create :
  id:string ->
  dir:string ->
  graph:Ewalk_graph.Graph.t ->
  rng:Ewalk_prng.Rng.t ->
  Proto.config ->
  (t, Proto.error) result
(** Build a fresh resident session.  [rng] must be the PRNG advanced past
    the graph build for this config's seed — the same discipline as
    [eproc trace], so recorded streams verify.  Writes the session's
    meta file under [dir]. *)

val recover : id:string -> dir:string -> Proto.config -> summary -> t
(** Re-adopt a session found on disk at daemon restart: hibernated (or
    never-stepped) until the first request materializes it. *)

val id : t -> string
val config : t -> Proto.config
val resident : t -> bool
val last_used : t -> int
val touch : t -> tick:int -> unit

val summarize : t -> summary
(** Current state: live counters when resident, the cached hibernation
    summary otherwise. *)

val info_json : t -> Ewalk_obs.Json.t

val hibernate : t -> (unit, Proto.error) result
(** Snapshot the walk to disk, update the meta file's summary, drop the
    resident state.  No-op when already hibernated. *)

val materialize :
  t ->
  graph:Ewalk_graph.Graph.t ->
  rng:Ewalk_prng.Rng.t ->
  (unit, Proto.error) result
(** Make the session resident: restore the snapshot recorded on [graph],
    or — when no snapshot exists (a recovered session that never
    hibernated) — rebuild the fresh walk from [rng] exactly as {!create}
    did.  A snapshot that is well formed but cannot be resumed (a
    [Snapshot.Mismatch], such as one written under the swap-partition
    coupling) is a 409 [snapshot_mismatch]; other read failures are a
    500.  No-op when already resident. *)

val step : ?pool:Ewalk_par.Pool.t -> t -> int -> (int, Proto.error) result
(** Advance exactly [k] steps (multi-walker sessions batch whole rounds
    through the engine, competing rounds shard across [pool]).  Returns
    the session's total step count.  Requires residency. *)

val run_to_cover :
  ?pool:Ewalk_par.Pool.t -> t -> cap:int option -> (int, Proto.error) result
(** Run to the cover milestone: full coverage for cooperating sessions,
    first walker-local cover for competing ones — or until the cap
    (default {!Ewalk.Cover.default_cap}).  Returns the total step
    count. *)

val stream :
  t ->
  max_steps:int ->
  push:(Ewalk_obs.Trace.event -> unit) ->
  (int, Proto.error) result
(** Emit the prologue, advance up to [max_steps] steps (stopping early at
    the cover milestone) pushing every native trace event, then emit
    [run_end].  Returns the number of steps advanced.  The [run_end]
    covered flag is exactly what a replay shadow of this stream computes,
    so recorded streams verify.  Requires residency. *)

val delete : t -> unit
(** Remove the session's on-disk state (snapshot + meta + directory). *)

val snapshot_path : t -> string
val meta_of_json : Ewalk_obs.Json.t -> (Proto.config * summary) option
(** Parse a session meta file ([eprocd-session/1]). *)
