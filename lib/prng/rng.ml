(* The xoshiro256++ state lives in one 32-byte [Bytes.t]: words s0..s3 at
   byte offsets 0, 8, 16, 24, read and written native-endian.  The update
   is written out where a draw needs it, so the state words stay unboxed
   and a draw allocates nothing.  Bit for bit this is [Xoshiro], which the
   test suite keeps as the reference. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  t

let of_int64 seed =
  (* SplitMix64 is a bijection of a Weyl sequence: four consecutive outputs
     cannot all be zero, so the state is always valid. *)
  let sm = Splitmix.create seed in
  let s0 = Splitmix.next sm in
  let s1 = Splitmix.next sm in
  let s2 = Splitmix.next sm in
  let s3 = Splitmix.next sm in
  of_words s0 s1 s2 s3

let create ?(seed = 0x5EED) () = of_int64 (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++ [next]: advance the state, return 64 bits. *)
let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (Int64.logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t
let copy = Bytes.copy
let save t = [| get64 t 0; get64 t 8; get64 t 16; get64 t 24 |]

let restore words =
  if Array.length words <> 4 then
    invalid_arg "Rng.restore: expected 4 state words";
  if Array.for_all (fun w -> w = 0L) words then
    invalid_arg "Rng.restore: all-zero state";
  of_words words.(0) words.(1) words.(2) words.(3)

let split t =
  (* Hash two successive outputs through the SplitMix finaliser so the child
     seed is not a raw state word of the parent stream. *)
  let a = next t in
  let b = next t in
  of_int64 (Splitmix.mix (Int64.add a (Int64.mul 0x9E3779B97F4A7C15L b)))

let split_n t k = Array.init k (fun _ -> split t)

let stream t i =
  if i < 0 then invalid_arg "Rng.stream: negative index";
  if i = 0 then copy t
  else begin
    (* SplitMix jump: fold the parent's state words into a 64-bit base,
       then advance the SplitMix Weyl sequence by [i] increments and
       finalise.  Distinct [i] give distinct, decorrelated seeds; the
       parent is never advanced, so stream 0 (the parent's own copy)
       stays bit-identical to the parent. *)
    let base =
      Array.fold_left
        (fun acc w -> Splitmix.mix (Int64.add acc w))
        0L (save t)
    in
    of_int64
      (Splitmix.mix
         (Int64.add base (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int i))))
  end

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  if bound land (bound - 1) = 0 then
    (* Power of two: take low bits. *)
    Int64.to_int (next t) land (bound - 1)
  else begin
    (* Rejection sampling on the 63-bit non-negative range. *)
    let bound64 = Int64.of_int bound in
    let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound64) in
    let v = ref (Int64.logand (next t) Int64.max_int) in
    while !v >= limit do
      v := Int64.logand (next t) Int64.max_int
    done;
    Int64.to_int (Int64.rem !v bound64)
  end

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform bits scaled to [0, 1), then to [0, bound). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.to_int (next t) land 1 = 1

let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float t 1.0 < p

let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p out of (0, 1]";
  if p = 1. then 0
  else begin
    let u = float t 1.0 in
    let u = if u = 0. then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1. -. p)))
  end

let exponential t lambda =
  if lambda <= 0. then invalid_arg "Rng.exponential: lambda <= 0";
  let u = float t 1.0 in
  let u = if u = 0. then epsilon_float else u in
  -.log u /. lambda

let gaussian t =
  let rec nonzero () =
    let u = float t 1.0 in
    if u = 0. then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a =
  let b = Array.copy a in
  shuffle_in_place t b;
  b

let permutation t k =
  let a = Array.init k (fun i -> i) in
  shuffle_in_place t a;
  a

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  if 2 * k >= n then begin
    (* Dense case: partial Fisher–Yates over the whole range. *)
    let a = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = int_in t i (n - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 k
  end else begin
    (* Sparse case: rejection with a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
