(** Crash flight recorder: per-domain rings of recent {!Trace.event}s,
    dumped as JSONL when the process dies unexpectedly.

    Recording is allocation-free after ring creation: events are stored
    decomposed into preallocated mutable slots, one fixed-size ring per
    domain ([Domain.DLS]).  The ring resets on every [Run_start], so a
    dump is always a suffix of a single run's stream; when the ring has
    wrapped, the dump opens with a synthetic [Run_start] + [Resume]
    prologue (from a pinned header and the last evicted position) in
    exactly the resumed-tail shape [Ewalk_check.Replay] verifies relaxed
    — any dump is acceptable to [eproc verify-trace --flight].

    Two recording modes, used by [eproc]:
    - {e ambient} (default while enabled): [Cover.run_until] records just
      the run boundary events — one enabled-check per run, zero per-step
      cost, so an always-on recorder costs a metrics run nothing per step;
    - {e sink wrap} ({!wrap}): every event an existing sink sees is also
      recorded (full per-step fidelity — [eproc trace]); wrapping turns
      ambient recording off so the stream is not duplicated.

    Dumps trigger via [at_exit] whenever the recorder is still {e armed}:
    injected faults ([Ewalk_resume.Faults] exits 70 at checkpoint
    boundaries), uncaught exceptions, and SIGTERM (a handler installed by
    {!enable} routes it through [exit 143]).  A run that completes
    cleanly calls {!disarm} and leaves nothing behind.  The exiting
    domain's ring is written first as [flight.jsonl] (exact — fault kills
    exit on the lane that ran the in-flight trial); other domains' rings
    follow best-effort as [flight-<id>.jsonl]. *)

val enable : ?capacity:int -> dir:string -> unit -> unit
(** Configure ring capacity (default 512 events), create [dir] if
    missing, arm the [at_exit] dump, and install the SIGTERM handler.
    Calling again re-arms but keeps the first configuration.
    @raise Invalid_argument if [capacity <= 0]. *)

val enable_from_env : unit -> (unit, string) result
(** {!enable} from [EWALK_FLIGHT_DIR] (and optional
    [EWALK_FLIGHT_CAPACITY]); [Ok ()] without arming when unset.  An
    [EWALK_FLIGHT_CAPACITY] that is non-numeric or [<= 0] is an [Error]
    naming the variable and offending value — never a silent fall back
    to the default.  [eproc] calls this at startup, next to the
    fault-spec installer, and exits 2 on [Error]. *)

val enabled : unit -> bool

val disarm : unit -> unit
(** Mark the run as cleanly completed: the exit hook will not dump. *)

val record : Trace.event -> unit
(** Record into the calling domain's ring (no-op unless enabled). *)

val wrap : Trace.sink -> Trace.sink
(** Record every event flowing through the sink (and disable ambient
    recording).  Identity when the recorder is not enabled. *)

val ambient_active : unit -> bool
(** Whether run-boundary recording from [Cover] should happen: enabled
    and not superseded by a {!wrap}ped sink. *)

val set_ambient : bool -> unit

val dump_now : unit -> string list
(** Write dumps immediately (without disarming); the paths written,
    primary first.  Test hook — crash paths dump via [at_exit]. *)
