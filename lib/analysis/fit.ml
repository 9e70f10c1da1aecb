type linear_fit = { intercept : float; slope : float; r_squared : float }

let check_lengths xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Fit: length mismatch";
  if n < 2 then invalid_arg "Fit: need at least 2 points";
  n

let r_squared_of model xs ys =
  let n = check_lengths xs ys in
  let mu = Array.fold_left ( +. ) 0.0 ys /. float_of_int n in
  let ss_tot = ref 0.0 and ss_res = ref 0.0 in
  for i = 0 to n - 1 do
    ss_tot := !ss_tot +. ((ys.(i) -. mu) ** 2.0);
    ss_res := !ss_res +. ((ys.(i) -. model xs.(i)) ** 2.0)
  done;
  if !ss_tot = 0.0 then if !ss_res = 0.0 then 1.0 else 0.0
  else 1.0 -. (!ss_res /. !ss_tot)

let affine xs ys =
  let n = check_lengths xs ys in
  let fn = float_of_int n in
  let sx = Array.fold_left ( +. ) 0.0 xs in
  let sy = Array.fold_left ( +. ) 0.0 ys in
  let sxx = ref 0.0 and sxy = ref 0.0 in
  for i = 0 to n - 1 do
    sxx := !sxx +. (xs.(i) *. xs.(i));
    sxy := !sxy +. (xs.(i) *. ys.(i))
  done;
  let denom = (fn *. !sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Fit.affine: degenerate xs";
  let slope = ((fn *. !sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. fn in
  let r_squared = r_squared_of (fun x -> intercept +. (slope *. x)) xs ys in
  { intercept; slope; r_squared }

let affine_log_x ns ys = affine (Array.map log ns) ys

type scale_fit = { c : float; r_squared : float; se : float }

let scale f xs ys =
  let n = check_lengths xs ys in
  let sfy = ref 0.0 and sff = ref 0.0 in
  for i = 0 to n - 1 do
    let fx = f xs.(i) in
    sfy := !sfy +. (fx *. ys.(i));
    sff := !sff +. (fx *. fx)
  done;
  if !sff = 0.0 then invalid_arg "Fit.scale: model vanishes on all points";
  let c = !sfy /. !sff in
  let ss_res = ref 0.0 in
  for i = 0 to n - 1 do
    let r = ys.(i) -. (c *. f xs.(i)) in
    ss_res := !ss_res +. (r *. r)
  done;
  {
    c;
    r_squared = r_squared_of (fun x -> c *. f x) xs ys;
    se = sqrt (!ss_res /. float_of_int (n - 1) /. !sff);
  }

let scale_n_log_n ns cover = scale (fun n -> n *. log n) ns cover
let scale_linear ns cover = scale (fun n -> n) ns cover
