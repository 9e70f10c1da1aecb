(** Registry of every named experiment (the per-experiment index of
    DESIGN.md §4). *)

type entry = {
  id : string;
  paper_item : string; (** which figure / theorem / equation it reproduces *)
  run : pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t;
  run_walkers :
    (pool:Ewalk_par.Pool.t option ->
    scale:Sweep.scale ->
    seed:int ->
    walkers:int ->
    Table.t)
    option;
      (** Present on the multi-walker experiments: the same table pinned
          to one walker count ([eproc experiment --walkers]). *)
}

val all : entry list
(** Every experiment, in DESIGN.md order. *)

val find : string -> entry option
(** Look up by id. *)

val ids : unit -> string list

val run_timed :
  ?pool:Ewalk_par.Pool.t ->
  ?walkers:int ->
  entry -> scale:Sweep.scale -> seed:int -> Table.t * float
(** Run one experiment (under an ambient {!Ewalk_obs.Prof} span
    [experiment:<id>] when profiling is enabled); returns the table and
    the wall seconds it took on the monotonic {!Ewalk_obs.Clock}.  With
    [pool], trial sweeps shard across its domains (tables stay
    bit-identical to the sequential run).  [walkers] engages the entry's [run_walkers] hook
    when it has one and is ignored otherwise. *)

val record_run :
  Ewalk_obs.Metrics.t -> entry -> table:Table.t -> seconds:float -> unit
(** Fold one finished run into a telemetry registry: bumps the
    [experiments_run] and [table_rows] counters and sets the per-experiment
    [seconds/<id>] gauge — the payload of [eproc experiment --metrics]. *)
