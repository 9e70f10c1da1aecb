(** Versioned, CRC-guarded serialization of full walk state.

    A snapshot captures everything a walk process needs to continue
    bit-identically after a crash: position, step and phase counters,
    the {!Ewalk.Coverage} arrays and the exact PRNG state words.  The
    visited-edge marks of the E-process rules are not stored: they always
    equal the coverage's edge set, so restore rebuilds them from it (and
    rejects a payload whose blue steps differ from its edges seen).
    Restoring a snapshot and stepping on produces the same states, traces
    and final coverage as a run that was never interrupted — the property
    the qcheck round-trip suite enforces.

    A payload that still carries an [unvisited] section was written while
    the marks were a swap partition whose private slot order the uniform
    rule's draws indexed; it is refused as {!Mismatch} rather than
    continued under a different coupling.

    {2 File format}

    One line of JSON:
    [{"schema":"ewalk-snapshot/2","run_id":"r<16 hex>","parent_run_id":
    null,"crc32":"<8 hex digits>","payload":{...}}]
    where [crc32] is the CRC-32 of the serialized [payload] object, byte
    for byte as written.  The [schema] tag names the payload layout and is
    bumped on incompatible changes; readers reject unknown schemas rather
    than guessing.  Writes are atomic (temp file + rename in the target
    directory), so a crash mid-write leaves either the old snapshot or
    none — never a torn one; a torn or edited file fails the CRC and is
    rejected as {!Corrupt}.

    Since v2 the header also stamps the writing run's
    {!Ewalk_obs.Runlog} id (and its parent's, when the writer was itself
    a resume leg).  The id sits outside the CRC-guarded payload so walk
    state and provenance stay independently verifiable; a present but
    malformed id is rejected as {!Corrupt}.  v1 files (no [run_id]) still
    load — a stable legacy id is synthesized from the payload bytes. *)

open Ewalk_graph

val schema : string
(** ["ewalk-snapshot/2"] — what {!write} stamps.  {!read} also accepts
    ["ewalk-snapshot/1"]. *)

type walk =
  | Eprocess of Ewalk.Eprocess.t
  | Srw of Ewalk.Srw.t
  | Rotor of Ewalk.Rotor.t
  | Kernel of Ewalk_kernel.Engine.t
      (** The processes that can be snapshotted.  [Kernel] carries a
          multi-walker engine in either mode: a cooperating engine
          serializes under payload kind ["kernel"] (positions, per-walker
          step/phase counters, shared coverage and the packed PRNG bank),
          a competing engine under the v2-only kind
          ["kernel-competing"] (per-walker bit-packed visited sets as hex
          strings, plus the derived visit counters for inspectability —
          restore recomputes them by popcount and rejects disagreement,
          see [Ewalk_kernel.Engine.of_checkpoint_competing]).  Excluded:
          adversarial E-process rules and weighted walks (both carry
          state that is not plain data — see the core [checkpoint]
          functions). *)

val kind_name : walk -> string
(** The process name, e.g. ["e-process(uar)"], ["lazy-srw"]. *)

val walk_steps : walk -> int
val walk_position : walk -> int

type error =
  | Io of string  (** file unreadable / unwritable *)
  | Corrupt of string  (** torn, truncated, tampered or non-JSON file *)
  | Mismatch of string
      (** valid file, wrong world: unknown schema, wrong graph, a
          payload written under the swap-partition coupling, or one that
          fails the state validators *)

val error_to_string : error -> string

val write : path:string -> walk -> (unit, error) result
(** Serialize the walk's full state to [path], atomically: the bytes are
    written to a temp file in the same directory and renamed over [path].
    @raise Invalid_argument if the walk is not serializable (adversarial
    rule / weighted walk). *)

val read : Graph.t -> path:string -> (walk, error) result
(** Load a snapshot recorded on exactly this graph.  The CRC is verified
    before any payload field is trusted. *)

val read_with_id :
  Graph.t -> path:string -> (walk * Ewalk_obs.Runlog.t, error) result
(** Like {!read}, also yielding the writing run's provenance: the header
    [run_id]/[parent_run_id] pair, or a synthesized legacy id for v1
    files.  Resume legs use this to adopt the parent id. *)

val describe : path:string -> (string, error) result
(** CRC-verify the file and render a short human summary (kind, graph
    size, step counters) without needing the graph — what
    [eproc checkpoint-inspect] prints.  For ["kernel-competing"]
    payloads the stored per-walker visit counters are cross-checked
    against the bitset popcounts; the summary carries the verdict
    marker [counter==popcount] on success and the file is reported
    {!Corrupt} on disagreement.  A payload written under the
    swap-partition coupling is reported {!Mismatch}, as {!read} would. *)
