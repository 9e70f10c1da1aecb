(** Model-based differential testing: production walks vs the naive
    {!Oracle} implementations, in full RNG lockstep, under the
    {!Invariant} monitor everywhere.

    Each case runs one (graph, seed, mode) triple to vertex cover (or a
    step cap) and cross-checks:

    - [Uar]/[Lowest]/[Highest]: production E-process and oracle consume
      identically-seeded RNG streams and must agree on the position,
      blue/red step counts at {e every} step, and on the full visited-edge
      set at the end — the production arc marks against the oracle's
      adjacency scan, bit for bit.
    - [Srw_walk] / [Rotor_walk]: full positional lockstep (and, for the
      rotor, final rotor-offset equality), with the monitor checking edge
      validity and coverage monotonicity.

    The stock suite covers the shapes the paper's theorems distinguish:
    even-degree regular graphs (where Theorem 1's linear bound and the
    blue-parity structure apply), odd-degree regular graphs, the
    hypercube, the lollipop, multigraphs with parallel edges, cycle
    unions, and a complete graph whose degree exceeds one machine word. *)

open Ewalk_graph

type mode = Uar | Lowest | Highest | Srw_walk | Rotor_walk

val mode_name : mode -> string
val all_modes : mode list

type case = {
  label : string;  (** graph family label, e.g. ["hypercube4"] *)
  graph : Graph.t;
  seed : int;
  max_steps : int;
  mode : mode;
}

val case_name : case -> string
(** ["label/mode/seed=k"] — stable identifier for reports. *)

val run_case : case -> (int, string) result
(** Run one case to cover (or [max_steps]); [Ok steps] on agreement,
    [Error message] naming the first divergence or invariant violation. *)

val stock_cases : ?seeds:int list -> ?modes:mode list -> unit -> case list
(** The cross product of the stock graph family (deterministically built)
    with [seeds] (default [[1; 2; 3]]) and [modes] (default
    {!all_modes}). *)

type report = {
  cases : int;
  graphs : int;  (** distinct graph labels *)
  seeds : int;  (** distinct seeds *)
  modes : int;  (** distinct modes *)
  steps : int;  (** total verified transitions across passing cases *)
  failures : (string * string) list;  (** [(case_name, message)] *)
}

val report_line : report -> string
(** One-line summary, e.g.
    ["verified 165 cases (11 graphs x 3 seeds x 5 modes), 81234 steps"]. *)

val run_suite : ?jobs:int -> case list -> report
(** Run every case, sharded over an {!Ewalk_par.Pool} of [jobs] domains
    (default {!Ewalk_par.Pool.default_jobs}, i.e. the [EWALK_JOBS]
    environment variable).  Case outcomes are positional, so the report is
    identical for every job count. *)

(** {1 Kernel battery}

    The multi-walker counterpart: [Ewalk_kernel.Engine] vs
    {!Oracle.Kernel} over the same stock graphs, crossed with walker
    counts and cooperating/competing modes.  Every configuration runs in
    full RNG lockstep — one engine walker-step against one oracle
    walker-step, comparing the moved walker's position and blue count
    after each, with final visited-set/vertex-count/rotor-offset
    reconciliation (per walker in competing mode) — plus per-walker
    {!Invariant} monitors wherever a stream is a self-contained single
    walk (all competing configurations, and 1-walker cooperating
    ones). *)

type kernel_case = {
  k_label : string;
  k_graph : Graph.t;
  k_seed : int;
  k_walkers : int;
  k_mode : Ewalk_kernel.Engine.mode;
  k_proc : Ewalk_kernel.Engine.proc;
  k_max_steps : int;  (** per-walker step budget *)
}

val kernel_case_name : kernel_case -> string
(** ["kernel/label/proc/mode/w=k/seed=s"] — stable identifier. *)

val run_kernel_case : kernel_case -> (int, string) result
(** Run one case to cover (shared cover in cooperating mode, first
    walker's private cover in competing mode) or the budget; [Ok steps]
    on agreement. *)

val stock_kernel_cases :
  ?walkers:int list -> ?seeds:int list -> unit -> kernel_case list
(** Stock graphs x [seeds] (default [[1; 2; 3]]) x [walkers] (default
    [[1; 4; 17]]) x all five kernel processes x both modes. *)

val run_kernel_suite : ?jobs:int -> kernel_case list -> report
(** Like {!run_suite}; [modes] counts distinct
    (process, mode, walker-count) triples. *)
