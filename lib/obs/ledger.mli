(** The bench ledger: an append-only perf history with a regression gate.

    Every bench run appends one schema-versioned JSON line to
    [BENCH_history.jsonl] — git revision, scale, job count, and the
    median/MAD/min/sample-count of every kernel — so the repo's perf
    trajectory is a queryable dataset rather than a single overwritten
    snapshot.  {!diff} compares two records kernel by kernel with a
    MAD-scaled tolerance; [eproc bench-diff] and [make bench-check] wrap it
    into a non-zero-exit CI gate.

    Record format (one line of [BENCH_history.jsonl], schema
    {!schema_version}):
    {v
    {"schema":"ewalk-bench-ledger/1","timestamp":<epoch s>,
     "git_rev":"<short rev>","scale":"tiny","jobs":1,
     "kernels":{"<name>":{"median_ns":..,"mad_ns":..,"min_ns":..,
                          "samples":..},..}}
    v}
    {!of_json} also accepts a full [BENCH_core.json] (schema
    [ewalk-bench/2]) — it carries the same [kernels] object — so the gate
    can compare the committed baseline file directly. *)

val schema_version : string
(** ["ewalk-bench-ledger/1"]. *)

type kernel = {
  k_median_ns : float;
  k_mad_ns : float;
  k_min_ns : float;
  k_samples : int;
}

type record = {
  schema : string;
  timestamp : float;  (** epoch seconds (0 when absent) *)
  git_rev : string;  (** ["unknown"] when absent *)
  scale : string;
  jobs : int;
  run_id : string;
      (** the {!Runlog} id of the run that appended the record; [""] for
          records written before provenance existed (omitted from the
          JSON line when empty) *)
  kernels : (string * kernel) list;  (** sorted by kernel name *)
}

val make :
  ?timestamp:float ->
  ?git_rev:string ->
  ?run_id:string ->
  scale:string ->
  jobs:int ->
  kernels:(string * kernel) list ->
  unit ->
  record
(** Defaults: [timestamp] = [Unix.gettimeofday ()] (epoch seconds),
    [git_rev] = {!git_rev}[ ()], [run_id] = the ambient {!Runlog.run_id}
    (or [""]).  Kernels are sorted by name. *)

val git_rev : unit -> string
(** [git rev-parse --short HEAD], or ["unknown"] outside a git checkout. *)

val to_json : record -> Json.t

val of_json : Json.t -> (record, string) result
(** Accepts both ledger records and [BENCH_core.json] snapshots (any
    object with a [kernels] table of [{median_ns,mad_ns,min_ns,samples}]
    entries). *)

val append : path:string -> record -> unit
(** Append one record as a single JSON line (file created when missing).
    The line is written with a single [output_string] and flushed, so a
    crash mid-append leaves at most one unterminated trailing line — which
    {!read_history} skips — never a torn or interleaved record. *)

val read_history : path:string -> (record list, string) result
(** Every parseable line, in file order; blank lines skipped.  A trailing
    line without its newline that fails to parse is treated as a truncated
    append and silently dropped.  [Error] on an unreadable file or an
    unparseable {e terminated} line. *)

val load_record : string -> (record, string) result
(** Load a comparison endpoint: a [.jsonl] path yields the {e last} record
    of the history, anything else is parsed as a single-record JSON file. *)

val higher_is_better : string -> bool
(** Kernels whose name contains ["per_second"] carry steps/second rates
    rather than nanoseconds: up is good, and {!diff} inverts the
    regression direction for them.  Exposed so displays can pick the
    right unit. *)

type verdict = {
  v_kernel : string;
  v_base_ns : float;
  v_cand_ns : float;
  v_delta_percent : float;  (** (cand - base) / base * 100 *)
  v_tolerance_percent : float;  (** allowed upward delta *)
  v_regressed : bool;
}

val diff :
  ?tolerance_mads:float -> ?min_rel:float -> baseline:record -> record ->
  verdict list
(** Per-kernel comparison over the intersection of kernel names (sorted).
    A kernel regresses iff its candidate median exceeds
    [base.median + max (tolerance_mads * base.mad) (min_rel * base.median)]
    — MAD-scaled so noisy kernels get proportionate slack, with a relative
    floor for kernels whose MAD is ~0.  Kernels whose name contains
    ["per_second"] measure throughput, not latency, so the test inverts:
    they regress iff the candidate falls {e below} the baseline by more
    than the tolerance.  Defaults: [tolerance_mads = 6.0],
    [min_rel = 0.25]. *)

val any_regression : verdict list -> bool
