(** Versioned, CRC-guarded serialization of full walk state.

    A snapshot captures everything a walk process needs to continue
    bit-identically after a crash: positions, step and phase counters,
    each {!Ewalk.Coverage} — the visited set — and the exact PRNG state
    words.  Restoring a snapshot and stepping on produces the same states,
    traces and final coverage as a run that was never interrupted — the
    property the qcheck round-trip suite enforces.

    Every walk is an {!Ewalk.Engine}, and its state has one encoding.
    The payload kind says whether the engine's coverage is shared:
    ["kernel"] for a cooperating engine (one walker or many, one
    coverage) and ["kernel-competing"] for a competing one (one coverage
    per walker).  After the walker fields come, with one entry per
    coverage, the edge set ([visited]) and vertex set ([vseen]) as hex
    bitsets, their counts ([vcount], [ecount]) and the vertex and edge
    cover steps ([cover_at], [ecover_at]); then the rotor rows and the
    phase cells.

    {2 File format}

    One line of JSON:
    [{"schema":"ewalk-snapshot/3","run_id":"r<16 hex>","parent_run_id":
    null,"crc32":"<8 hex digits>","payload":{...}}]
    where [crc32] is the CRC-32 of the serialized [payload] object, byte
    for byte as written.  The [schema] tag names the payload layout and is
    bumped on incompatible changes; the reader accepts only its own
    schema and refuses any other — the /1 and /2 layouts of earlier
    builds included — as a {!Mismatch} naming it.  Writes are atomic
    (temp file + rename in the target directory), so a crash mid-write
    leaves either the old snapshot or none — never a torn one; a torn or
    edited file fails the CRC and is rejected as {!Corrupt}.

    The header also stamps the writing run's {!Ewalk_obs.Runlog} id (and
    its parent's, when the writer was itself a resume leg).  The id sits
    outside the CRC-guarded payload so walk state and provenance stay
    independently verifiable; a present but malformed id is rejected as
    {!Corrupt}.  A header with no [run_id] (a writer with no ambient run)
    still loads: a stable id is synthesized from the payload bytes. *)

open Ewalk_graph

val schema : string
(** ["ewalk-snapshot/3"] — what {!write} stamps and the only schema
    {!read} accepts. *)

type walk =
  | Eprocess of Ewalk.Eprocess.t
  | Srw of Ewalk.Srw.t
  | Rotor of Ewalk.Rotor.t
  | Kernel of Ewalk.Engine.t
      (** Every constructor carries an engine; {!write} encodes any of
          them the same way.  {!read} returns a one-walker cooperating
          engine under its view's constructor — [Eprocess] for the
          E-process rules, [Srw] for SRW and lazy SRW, [Rotor] for the
          rotor-router — and every other engine as [Kernel].  Excluded:
          adversarial E-process rules, whose closure is not plain data. *)

val engine : walk -> Ewalk.Engine.t
(** The engine any constructor carries. *)

val of_engine : Ewalk.Engine.t -> walk
(** The constructor {!read} returns the engine under. *)

type error =
  | Io of string  (** file unreadable / unwritable *)
  | Corrupt of string  (** torn, truncated, tampered or non-JSON file *)
  | Mismatch of string
      (** valid file, wrong world: another schema (named in the message),
          wrong graph, or a payload that fails the state validators — a
          stored count disagreeing with its set's popcount, a cover step
          breaking {!Ewalk.Coverage.restore}'s rules, and the rest of
          {!Ewalk.Engine.of_checkpoint}'s checks *)

val error_to_string : error -> string

val write : path:string -> walk -> (unit, error) result
(** Serialize the walk's full state to [path], atomically: the bytes are
    written to a temp file in the same directory and renamed over [path].
    @raise Invalid_argument if the walk is not serializable (an
    adversarial rule). *)

val read : Graph.t -> path:string -> (walk, error) result
(** Load a snapshot recorded on exactly this graph.  The CRC is verified
    before any payload field is trusted. *)

val read_with_id :
  Graph.t -> path:string -> (walk * Ewalk_obs.Runlog.t, error) result
(** Like {!read}, also yielding the writing run's provenance: the header
    [run_id]/[parent_run_id] pair, or a synthesized id for a header with
    none.  Resume legs use this to adopt the parent id. *)

val describe : path:string -> (string, error) result
(** CRC-verify the file and render a short human summary (kind, graph
    size, step counters, visited counts) without needing the graph — what
    [eproc checkpoint-inspect] prints.  The stored counts are
    cross-checked against the sets' popcounts, for both kinds; the
    summary carries the verdict marker [counter==popcount] on success and
    the file is reported {!Corrupt} on disagreement.  A file of another
    schema is reported {!Mismatch}, as {!read} would. *)
