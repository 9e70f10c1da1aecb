(** Process-agnostic cover-time runners.

    Every walk process in this library exposes an adapter to {!process};
    experiments then measure vertex cover time, edge cover time, or
    [k]-cover time through one code path, so that all processes are compared
    under identical accounting: step 0 is the start vertex, and the cover
    time is the index of the transition that completed coverage — matching
    the paper's definition of [C_V] as expected visit time of the last
    vertex.

    When the {!Ewalk_obs.Flight} crash recorder is enabled in ambient
    mode, the [run_until_*] runners record run-boundary events
    ([Run_start]/[Resume]/[Run_end]) into the calling domain's flight
    ring — one enabled-check per run, nothing per step — so a crash dump
    names the in-flight run even with no trace sink attached.
    [run_steps] records nothing (it is the bench kernel). *)

open Ewalk_graph

type process = {
  name : string;  (** display name, e.g. ["e-process(uar)"] *)
  graph : Graph.t;
  position : unit -> Graph.vertex;
  step : unit -> unit;  (** perform one transition *)
  steps_done : unit -> int;
  coverage : Coverage.t;
}

val run_until_vertex_cover : ?cap:int -> process -> int option
(** Step until every vertex has been visited; [Some t] is the step index of
    the covering transition.  [None] if [cap] transitions (default
    [max_int]) elapsed first.  Resumable: already-performed steps count. *)

val run_until_edge_cover : ?cap:int -> process -> int option
(** Same for edge coverage. *)

val run_until :
  ?cap:int -> process -> finished:(unit -> bool) -> result:(unit -> int) ->
  int option
(** The runner under the two above: step until [finished ()] holds —
    checked before every transition — and return [Some (result ())], or
    [None] once [cap] transitions (default [max_int]) elapsed first. *)

val run_steps : process -> int -> unit
(** Perform exactly the given number of transitions. *)

val with_step_hook : process -> hook:(process -> unit) -> process
(** A view of the process that additionally calls [hook] after every
    transition — the choke point the {!Observe} instrumentation wraps.
    The underlying process is shared, not copied: stepping either view
    advances the same walk. *)

val default_cap : Graph.t -> int
(** A generous default budget, [~ 2000 n (ln n + 1) + 10^5]: several hundred
    times the expected cover time on the expander families studied here,
    while still bounding runaway walks on pathological inputs. *)
