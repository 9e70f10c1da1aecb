(** Monotonic time source for spans, profiling, and benchmarking.

    Readings come from [CLOCK_MONOTONIC] (via the [bechamel.monotonic_clock]
    stub already in the build), so durations can never go backwards under
    NTP slew or wall-clock adjustment — the property every span duration,
    profiler node, progress line and bench repetition in this repo relies
    on.  Use [Unix.gettimeofday] only when an {e epoch} timestamp is
    genuinely wanted (ledger records); use this module for every
    elapsed-time measurement. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary (per-boot) origin.  Fits comfortably in
    an OCaml [int] on 64-bit platforms (2^62 ns is ~146 years). *)

val elapsed_ns : int -> int
(** [elapsed_ns t0] is [now_ns () - t0], clamped at 0. *)

val ns_to_s : int -> float
(** Nanoseconds to seconds. *)

val elapsed_s : int -> float
(** [ns_to_s (elapsed_ns t0)]. *)
