(** Structured trace events and pluggable sinks.

    A walk process (or the generic {!Ewalk.Observe} wrapper around one)
    pushes {!event}s into a {!sink}.  Three sinks are provided: {!null}
    (drop everything — the default, and the one the hot path is benchmarked
    against), a bounded {!ring} buffer (keep the last [k] events for
    post-mortem inspection), and {!jsonl} (one JSON object per line on an
    output channel — the [eproc trace] format).

    Events carry vertices and edges as plain integers so this library stays
    independent of the graph representation. *)

type phase = Blue | Red

type milestone = Vertices | Edges
(** Which coverage count crossed a milestone percentage. *)

type event =
  | Run_start of { name : string; n : int; m : int; start : int }
      (** Emitted once, before the first step. *)
  | Run_info of { run_id : string; parent_run_id : string option }
      (** Run provenance, emitted in the prologue (right after
          [Run_start]): the invocation's {!Runlog} id, and the parent
          run's id when this leg resumed another run's artifact.  Joins
          the trace to every other artifact stamped with the same id. *)
  | Step of { step : int; vertex : int; edge : int; blue : bool }
      (** One transition: after step [step] the walk sits at [vertex],
          having traversed [edge].  [blue] is true iff the edge was
          previously unvisited ([edge = -1] when the process does not
          report edges, e.g. a lazy walk staying put). *)
  | Phase of { step : int; kind : phase; vertex : int }
      (** A phase of [kind] begins with the transition numbered
          [step + 1], at [vertex]. *)
  | Milestone of {
      step : int;
      kind : milestone;
      percent : int;  (** 25, 50, 75 or 100 *)
      count : int;
      total : int;
    }  (** Coverage first reached [percent]% after transition [step]. *)
  | Checkpoint of { step : int }
      (** A durable snapshot of the full walk state was written after
          transition [step] (see [Ewalk_resume.Snapshot]). *)
  | Resume of { step : int }
      (** Emitted right after [Run_start] when the run continues from a
          restored snapshot: the walk already stands [step] transitions in,
          and per-step events in this trace resume at [step + 1]. *)
  | Run_end of { steps : int; covered : bool }

val prologue :
  ?resumed_at:int ->
  (event -> unit) ->
  name:string ->
  n:int ->
  m:int ->
  start:int ->
  unit
(** [prologue emit ~name ~n ~m ~start] writes a run's opening events
    through [emit]: [Run_start], then [Run_info] when a {!Runlog} run is
    current, then [Resume {step}] when [resumed_at] is [Some step].  Every
    stream and flight record opens through it. *)

val event_to_json : event -> Json.t
(** One-object encoding with a ["type"] discriminator field. *)

val event_to_string : event -> string
(** Compact single-line JSON — exactly one JSONL line, sans newline. *)

val event_of_json : Json.t -> (event, string) result
(** Inverse of {!event_to_json}: [event_of_json (event_to_json e) = Ok e]
    for every event.  Extra object fields are ignored; a missing or
    ill-typed field, or an unknown ["type"], is an [Error] naming it.  This
    is what [eproc verify-trace] and the {!Ewalk_check} replay verifier
    parse recorded JSONL streams back through. *)

val event_of_string : string -> (event, string) result
(** One JSONL line (without the newline) to an event:
    [Json.of_string] composed with {!event_of_json}. *)

val event_of_line : line:int -> string -> (event, string) result
(** {!event_of_string} with errors prefixed ["line <n>: "] so failures
    reading a file or stdin name the offending line (the JSON layer's
    character offset within the line is preserved). *)

type sink
(** Where events go.  Sinks are synchronous and not thread-safe. *)

val emit : sink -> event -> unit
val close : sink -> unit
(** Flush and release any underlying resource.  Idempotent. *)

val null : sink
(** Drops every event.  {!is_null} recognises it so instrumentation can
    skip event construction entirely. *)

val is_null : sink -> bool

val of_fun : ?close:(unit -> unit) -> (event -> unit) -> sink

val jsonl : out_channel -> sink
(** One [event_to_string] line per event.  {!close} flushes but does not
    close the channel (the caller owns it — it may be stdout). *)

val tee : sink -> sink -> sink
(** Duplicate every event to both sinks. *)

val filter : (event -> bool) -> sink -> sink
(** Forward only events satisfying the predicate ([close] passes
    through). *)

type ring
(** Bounded in-memory buffer retaining the most recent events. *)

val ring : capacity:int -> ring
(** @raise Invalid_argument if [capacity <= 0]. *)

val ring_sink : ring -> sink
val ring_length : ring -> int
(** Events currently retained (at most [capacity]). *)

val ring_seen : ring -> int
(** Total events ever emitted, including overwritten ones. *)

val ring_contents : ring -> event list
(** Oldest first. *)
