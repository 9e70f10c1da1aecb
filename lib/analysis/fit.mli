(** Least-squares model fitting for cover-time growth laws.

    Figure 1 distinguishes "flat" (Theta(n)) from "logarithmic"
    (Theta(n log n)) normalised cover times and quotes fitted constants like
    [0.93 n ln n] for 3-regular graphs.  This module fits the same model
    shapes: a one-parameter scale fit through arbitrary basis functions, and
    the two-parameter affine fit [a + b ln n] of the normalised cover time
    whose slope [b] is the even/odd discriminator. *)

type linear_fit = {
  intercept : float; (** a *)
  slope : float; (** b *)
  r_squared : float;
}

val affine : float array -> float array -> linear_fit
(** [affine xs ys] fits [y = a + b x] by ordinary least squares.
    @raise Invalid_argument if the arrays differ in length or have fewer
    than 2 points, or if all [xs] coincide. *)

val affine_log_x : float array -> float array -> linear_fit
(** [affine_log_x ns ys] fits [y = a + b ln n] — the Figure 1 discriminator
    applied to normalised cover times [y = C_V / n]. *)

type scale_fit = {
  c : float;  (** the fitted constant *)
  r_squared : float;
  se : float;
      (** standard error of [c]: [sqrt (Σ r² / (k - 1) / Σ f(x)²)] over
          the [k] points' residuals [r = y - c f(x)]; [c ± 1.96 se] is the
          normal-approximation 95% interval *)
}

val scale : (float -> float) -> float array -> float array -> scale_fit
(** [scale f xs ys] fits the one-parameter model [y = c f(x)] by least
    squares; used for the paper's [c n ln n] constants.
    @raise Invalid_argument as {!affine}, or if [f] vanishes on all
    points. *)

val scale_n_log_n : float array -> float array -> scale_fit
(** [scale_n_log_n ns cover_times] fits [C = c n ln n] — directly
    comparable to Figure 1's bracketed constants. *)

val scale_linear : float array -> float array -> scale_fit
(** [scale_linear ns cover_times] fits [C = c n]. *)

val r_squared_of : (float -> float) -> float array -> float array -> float
(** Coefficient of determination of an arbitrary fixed model. *)
