(* Thread-safety: the tick function handed out by [with_reporter] is called
   from worker domains when a sweep runs inside Ewalk_par.Pool, so every
   counter update and print happens under the reporter's mutex. *)

type t = {
  out : out_channel;
  interval_ns : int;
  total : int;
  label : string;
  started : int; (* Clock.now_ns at creation *)
  mutex : Mutex.t;
  mutable done_ : int;
  mutable next_print : int; (* the first tick prints at once *)
  mutable finished : bool;
}

let enabled () =
  match Sys.getenv_opt "EWALK_PROGRESS" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let create ?(out = stderr) ?(interval = 1.0) ~total ~label () =
  let started = Clock.now_ns () in
  {
    out;
    interval_ns = int_of_float (interval *. 1e9);
    total;
    label;
    started;
    mutex = Mutex.create ();
    done_ = 0;
    next_print = started;
    finished = false;
  }

(* Caller holds [t.mutex]. *)
let print_locked t =
  let elapsed = Clock.elapsed_s t.started in
  let pct =
    if t.total <= 0 then 100.0
    else 100.0 *. float_of_int t.done_ /. float_of_int t.total
  in
  Printf.fprintf t.out "%s: %3.0f%% (%d/%d) %.1fs\n%!" t.label pct t.done_
    t.total elapsed

let tick ?(amount = 1) t =
  Mutex.lock t.mutex;
  t.done_ <- t.done_ + amount;
  let now = Clock.now_ns () in
  if now >= t.next_print then begin
    t.next_print <- now + t.interval_ns;
    print_locked t
  end;
  Mutex.unlock t.mutex

let finish t =
  Mutex.lock t.mutex;
  if not t.finished then begin
    t.finished <- true;
    print_locked t
  end;
  Mutex.unlock t.mutex

let with_reporter ?enabled:(on = enabled ()) ~total ~label f =
  if not on then f ignore
  else begin
    let t = create ~total ~label () in
    Fun.protect ~finally:(fun () -> finish t) (fun () -> f (fun () -> tick t))
  end
