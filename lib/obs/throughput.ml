(* The steps/second sampler: a small ring of (cumulative steps,
   monotonic ns) pairs fed from the observation view's drain (once
   every ~4096 steps per trial, never per step), yielding a windowed
   recent rate — what /progress serves and what the `eproc runs` views
   summarise — plus an optional JSONL spill to runs/<id>/throughput.jsonl.

   The state is process-global under one mutex: samples arrive at drain
   cadence from whichever lane drains, which is rare enough (tens of Hz
   at most, thanks to the min-gap throttle) that contention is
   unmeasurable.  The rate math lives in pure helpers over (step, ns)
   pair lists so the windowing logic is unit-testable without a clock. *)

let capacity = 4096

(* Keep at most one retained sample per this many ns, so a multi-minute
   run still spans the whole ring and the JSONL spill stays small. *)
let default_min_gap_ns = 10_000_000 (* 10 ms *)

type state = {
  mutable total : int; (* cumulative steps fed via [add] *)
  samples : (int * int) array; (* (total, mono_ns), ring *)
  mutable next : int;
  mutable seen : int;
  mutable last_sample_ns : int;
  mutable out : out_channel option;
  mutable out_path : string option;
}

let mutex = Mutex.create ()

let st =
  {
    total = 0;
    samples = Array.make capacity (0, 0);
    next = 0;
    seen = 0;
    last_sample_ns = min_int;
    out = None;
    out_path = None;
  }

let reset () =
  Mutex.lock mutex;
  st.total <- 0;
  st.next <- 0;
  st.seen <- 0;
  st.last_sample_ns <- min_int;
  (match st.out with Some oc -> close_out_noerr oc | None -> ());
  st.out <- None;
  st.out_path <- None;
  Mutex.unlock mutex

let set_output path =
  Mutex.lock mutex;
  (match st.out with Some oc -> close_out_noerr oc | None -> ());
  st.out_path <- Some path;
  (* Opened lazily at the first sample so arming the sampler in a run
     that never steps leaves no empty file behind. *)
  st.out <- None;
  Mutex.unlock mutex

let spill_locked total now =
  match st.out_path with
  | None -> ()
  | Some path -> (
      let oc =
        match st.out with
        | Some oc -> Some oc
        | None -> (
            match open_out_gen [ Open_append; Open_creat ] 0o644 path with
            | oc ->
                st.out <- Some oc;
                Some oc
            | exception Sys_error _ ->
                st.out_path <- None;
                None)
      in
      match oc with
      | None -> ()
      | Some oc -> (
          try
            output_string oc
              (Printf.sprintf "{\"step\":%d,\"mono_ns\":%d}\n" total now);
            flush oc
          with Sys_error _ -> ()))

let push_locked now =
  st.samples.(st.next) <- (st.total, now);
  st.next <- (st.next + 1) mod capacity;
  st.seen <- st.seen + 1;
  st.last_sample_ns <- now;
  spill_locked st.total now

let add k =
  if k > 0 then begin
    Mutex.lock mutex;
    st.total <- st.total + k;
    let now = Clock.now_ns () in
    (* The sentinel compare (not a subtraction) avoids overflow on the
       first sample: [now - min_int] wraps negative. *)
    if
      st.last_sample_ns = min_int
      || now - st.last_sample_ns >= default_min_gap_ns
    then push_locked now;
    Mutex.unlock mutex
  end

let samples () =
  Mutex.lock mutex;
  let len = min st.seen capacity in
  let first = if st.seen <= capacity then 0 else st.next in
  let l = List.init len (fun i -> st.samples.((first + i) mod capacity)) in
  Mutex.unlock mutex;
  l

let total_steps () =
  Mutex.lock mutex;
  let t = st.total in
  Mutex.unlock mutex;
  t

(* --- pure rate math ------------------------------------------------ *)

let rate_between (s0, t0) (s1, t1) =
  if t1 > t0 then Some (float_of_int (s1 - s0) /. (float_of_int (t1 - t0) *. 1e-9))
  else None

(* The windowed rate over [pairs] (chronological): steps between the
   oldest retained sample inside the window and the newest sample,
   divided by that span.  None until two samples span a positive
   interval. *)
let windowed_rate_of_pairs ~now_ns ~window_ns pairs =
  match List.rev pairs with
  | [] | [ _ ] -> None
  | newest :: older ->
      let cutoff = now_ns - window_ns in
      (* Walk back to the oldest sample still inside the window. *)
      let rec oldest_in best = function
        | [] -> best
        | (s, t) :: rest -> if t >= cutoff then oldest_in (s, t) rest else best
      in
      let anchor = oldest_in newest older in
      if anchor == newest then
        (* Only the newest sample is inside the window: fall back to the
           most recent adjacent pair so a stalled poll still reads the
           last known rate rather than nothing. *)
        match older with old :: _ -> rate_between old newest | [] -> None
      else rate_between anchor newest

let lifetime_rate_of_pairs pairs =
  match pairs with
  | [] | [ _ ] -> None
  | first :: rest -> rate_between first (List.nth rest (List.length rest - 1))

(* Instantaneous rates of adjacent sample pairs — what `eproc runs`
   summarises with median/MAD. *)
let rates_of_pairs pairs =
  let rec go acc = function
    | a :: (b :: _ as rest) -> (
        match rate_between a b with
        | Some r -> go (r :: acc) rest
        | None -> go acc rest)
    | _ -> List.rev acc
  in
  go [] pairs

let default_window_ns = 5_000_000_000 (* 5 s *)

let windowed_rate ?(window_ns = default_window_ns) () =
  windowed_rate_of_pairs ~now_ns:(Clock.now_ns ()) ~window_ns (samples ())

let lifetime_rate () = lifetime_rate_of_pairs (samples ())

let summary_fields () =
  let pairs = samples () in
  let opt = function None -> Json.Null | Some v -> Json.Float v in
  [
    ("steps_total", Json.Int (total_steps ()));
    ("throughput_samples", Json.Int (List.length pairs));
    ( "steps_per_second_windowed",
      opt
        (windowed_rate_of_pairs ~now_ns:(Clock.now_ns ())
           ~window_ns:default_window_ns pairs) );
    ("steps_per_second_lifetime", opt (lifetime_rate_of_pairs pairs));
  ]
