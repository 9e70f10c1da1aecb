(** Deeper-cut experiments: exact hitting-time checks of the paper's
    Section 2 lemmas, mixing decay, the Matthews bound, and the Euler-tour
    optimality gap of the E-process.

    Every experiment takes a [~pool] ([None] for the sequential path);
    trial sweeps then shard across the pool's domains with bit-identical
    tables.  [hitting_bounds] and [mixing_decay] are deterministic
    single-instance computations and always run sequentially. *)

val hitting_bounds :
  pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t
(** Lemma 6 / Corollary 9 / the return-time identity: exact [E_pi H_v]
    against [1/((1 - lambda_max) pi_v)], exact [E_pi H_S] against
    [2m/(d(S)(1 - lambda_max))], and [E_v T_v^+ = 1/pi_v]. *)

val mixing_decay :
  pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t
(** Eq. (5): measured [max |P_u^t(x) - pi_x|] against
    [max (pi_x/pi_u)^(1/2) lambda_max^t] as [t] grows (lazy walk). *)

val matthews_cover :
  pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t
(** The Matthews bound of Section 2.2's toolkit: measured SRW cover times
    against [(max E_u H_v) H_n] from exact hitting times. *)

val euler_overhead :
  pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t
(** Eq. (3)'s floor made concrete: an Euler circuit covers all edges in
    exactly [m] steps; the E-process' [C_E/m] is its online overhead over
    that offline optimum. *)

val team_speedup :
  pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t
(** Extension beyond the paper: [k] E-process walkers with shared edge
    marks (a cooperating {!Ewalk.Engine}).  Total work to cover
    stays ~2n for every [k]; the wall-clock (rounds) improves
    near-linearly in [k]. *)

val team_speedup_at :
  pool:Ewalk_par.Pool.t option ->
  scale:Sweep.scale ->
  seed:int ->
  walkers:int ->
  Table.t
(** {!team_speedup} at one chosen walker count (plus the [k=1] baseline
    row the speed-up column needs) — the [eproc experiment --walkers]
    hook. *)

val kernel_modes :
  pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t
(** The lockstep kernel's two marking disciplines side by side: total
    cooperative work to cover vs the first competing walker's own cover
    step, per walker count. *)

val kernel_modes_at :
  pool:Ewalk_par.Pool.t option ->
  scale:Sweep.scale ->
  seed:int ->
  walkers:int ->
  Table.t
(** {!kernel_modes} at one chosen walker count. *)

val coverage_profile :
  pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t
(** The whole [u(t)] curve behind the cover-time numbers: unvisited-vertex
    fractions at checkpoints [t = n, 2n, 3n, 5n, 10n] for the E-process and
    the SRW on even (d=4) and odd (d=3) random regular graphs — the
    straggler population that Section 5's coupon-collector argument is
    about. *)

val concentration :
  pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t
(** The Avin-Krishnamachari observation: cover times of edge-aware walks
    concentrate far more sharply than the SRW's (coefficient of variation
    across repeated trials). *)

val doubled_odd :
  pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t
(** A negative control that isolates Theorem 1's hypotheses: doubling every
    edge of a 3-regular graph restores even degrees, but pins [ell] at the
    constant 4 (three digons through every vertex), so the cover time
    stays [Theta(n log n)].  Even degrees alone buy nothing — the
    [ell]-goodness term does the real work. *)

val high_girth :
  pool:Ewalk_par.Pool.t option -> scale:Sweep.scale -> seed:int -> Table.t
(** Theorem 3's girth dependence, on actual high-girth even-degree
    expanders produced by the switch-boosting generator: the bound
    tightens with the girth while the measured [C_E] stays far below it
    (Corollary 4's [O(omega n)] is the binding estimate on random regular
    graphs). *)
