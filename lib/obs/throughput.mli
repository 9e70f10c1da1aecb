(** Low-overhead steps/second sampling.

    A process-global ring of (cumulative steps, monotonic ns) pairs fed
    by the observation view's batch drain — {!add} is called once
    every ~4096 steps per trial, never per step, and retains at most one
    sample per 10 ms — yielding a {e windowed} recent rate (what
    [/progress] serves) alongside the lifetime average, an optional
    JSONL spill ([runs/<id>/throughput.jsonl], one
    [{"step":..,"mono_ns":..}] object per line) and a summary for the
    run's [meta.json].

    The windowing math is exposed as pure helpers over pair lists
    ({!windowed_rate_of_pairs} and friends) so it is testable without a
    clock, and so [eproc runs] can reuse it over series read back from
    disk. *)

val add : int -> unit
(** Feed a step-count delta (from a drain); may retain a sample. *)

val reset : unit -> unit
(** Drop all samples and close any output — test / bench isolation. *)

val set_output : string -> unit
(** Spill every retained sample to this JSONL path (appended, opened at
    the first sample). *)

val samples : unit -> (int * int) list
(** Retained (cumulative steps, mono ns) pairs, oldest first. *)

val total_steps : unit -> int

val windowed_rate : ?window_ns:int -> unit -> float option
(** Steps/second over the trailing window (default 5 s): newest sample
    vs the oldest sample still inside the window, falling back to the
    most recent adjacent pair when the walk has paused.  [None] until
    two samples exist. *)

val lifetime_rate : unit -> float option
(** Steps/second from the first retained sample to the last. *)

val summary_fields : unit -> (string * Json.t) list
(** [steps_total], sample count, windowed and lifetime rates — the
    fields {!Runlog.add_meta_fields} persists into [meta.json]. *)

(** {2 Pure helpers (also used by [eproc runs] over on-disk series)} *)

val rate_between : int * int -> int * int -> float option
val windowed_rate_of_pairs :
  now_ns:int -> window_ns:int -> (int * int) list -> float option

val lifetime_rate_of_pairs : (int * int) list -> float option

val rates_of_pairs : (int * int) list -> float list
(** Instantaneous steps/second of each adjacent sample pair. *)

val default_window_ns : int
