(* A spawn-once domain pool with a chunked work queue.

   Architecture: [create] spawns [jobs - 1] worker domains that block on a
   Condition until tasks appear in the shared queue.  A batch ([map_array])
   never hands one closure per element to the queue; instead it enqueues up
   to [jobs - 1] "helper" tasks that all drain the same atomic chunk cursor,
   and the calling domain drains it too.  This keeps queue traffic at
   O(jobs) per batch regardless of the array size, and means the caller
   makes progress even when every worker is busy with another batch (so
   nested batches cannot deadlock - they just degrade toward sequential). *)

exception
  Task_failed of { index : int; attempts : int; last : exn }

exception
  Task_timeout of { index : int; elapsed_s : float; timeout_s : float }

let () =
  Printexc.register_printer (function
    | Task_failed { index; attempts; last } ->
        Some
          (Printf.sprintf
             "Pool.Task_failed (element %d failed %d attempt%s; last: %s)"
             index attempts
             (if attempts = 1 then "" else "s")
             (Printexc.to_string last))
    | Task_timeout { index; elapsed_s; timeout_s } ->
        Some
          (Printf.sprintf
             "Pool.Task_timeout (element %d took %.3fs, limit %.3fs)" index
             elapsed_s timeout_s)
    | _ -> None)

(* Deterministic failure injection for the fault-tolerance tests: when set,
   the hook runs before every element execution with the executing lane's
   index and may raise to simulate a lane failure.  Installed by
   [Ewalk_resume.Faults] (which this library must not depend on), hence a
   process-global rather than a pool field. *)
let fault_injector : (lane:int -> unit) option Atomic.t = Atomic.make None
let set_fault_injector f = Atomic.set fault_injector f

let inject ~lane =
  match Atomic.get fault_injector with Some f -> f ~lane | None -> ()

type batch_state = {
  b_mutex : Mutex.t;
  b_done : Condition.t;
  mutable pending : int; (* helper tasks that have not yet finished *)
  mutable failed : (exn * Printexc.raw_backtrace) option; (* first failure *)
  mutable retryable : (int * exn) list; (* failed elements, retry mode only *)
}

(* Telemetry cell, one per lane (lane 0 = the calling domain, 1.. = spawned
   workers).  Each cell is written only by its own domain, so updates take
   no locks; readers ([stats]) should run at a quiescent point (after the
   batch returns), which is when the numbers are meaningful anyway. *)
type lane = {
  mutable busy_ns : int; (* executing batch work *)
  mutable wait_ns : int; (* blocked: queue wait (workers), barrier (caller) *)
  mutable chunks : int; (* chunks claimed from batch cursors *)
  mutable tasks_run : int; (* helper tasks (workers) / batches (caller) *)
  mutable failures : int; (* element executions that raised or timed out *)
  mutable retries : int; (* recovery re-executions performed by this lane *)
}

type lane_report = {
  busy_s : float;
  wait_s : float;
  chunks_served : int;
  tasks_served : int;
  tasks_failed : int;
  tasks_retried : int;
}

type t = {
  pool_jobs : int;
  pool_retries : int;
  pool_timeout_s : float option;
  mutex : Mutex.t;
  has_work : Condition.t;
  tasks : (int -> unit) Queue.t; (* argument: executing worker's lane *)
  lanes : lane array; (* length pool_jobs *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () =
  let hardware () = max 1 (Domain.recommended_domain_count () - 1) in
  match Sys.getenv_opt "EWALK_JOBS" with
  | None | Some "" -> hardware ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ ->
          Printf.eprintf
            "ewalk: ignoring EWALK_JOBS=%S (want a positive integer)\n%!" s;
          hardware ())

let jobs t = t.pool_jobs

(* Workers exit only once the pool is stopping AND the queue is drained, so
   helper tasks enqueued before [shutdown] always run to completion (their
   batches would otherwise wait on [pending] forever).  [lane_idx] is the
   worker's telemetry cell: time from arriving at the queue to popping a
   task (or learning the pool stopped) counts as queue wait.  Busy time is
   recorded by the task itself (see [map_array]) — it must land BEFORE the
   task signals its batch done, or a caller reading [stats] right after
   the batch could miss it. *)
let rec worker_loop t lane_idx =
  let lane = t.lanes.(lane_idx) in
  let wait_t0 = Ewalk_obs.Clock.now_ns () in
  Mutex.lock t.mutex;
  while Queue.is_empty t.tasks && not t.stopping do
    Condition.wait t.has_work t.mutex
  done;
  if Queue.is_empty t.tasks then begin
    Mutex.unlock t.mutex;
    lane.wait_ns <- lane.wait_ns + Ewalk_obs.Clock.elapsed_ns wait_t0
  end
  else begin
    let task = Queue.pop t.tasks in
    Mutex.unlock t.mutex;
    lane.wait_ns <- lane.wait_ns + Ewalk_obs.Clock.elapsed_ns wait_t0;
    (try task lane_idx with _ -> ());
    worker_loop t lane_idx
  end

let fresh_lane () =
  { busy_ns = 0; wait_ns = 0; chunks = 0; tasks_run = 0; failures = 0; retries = 0 }

let create ?(retries = 0) ?task_timeout_s ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then
    invalid_arg (Printf.sprintf "Pool.create: jobs must be >= 1 (got %d)" jobs);
  if retries < 0 then
    invalid_arg
      (Printf.sprintf "Pool.create: retries must be >= 0 (got %d)" retries);
  (match task_timeout_s with
  | Some s when not (s > 0.0) ->
      invalid_arg "Pool.create: task_timeout_s must be > 0"
  | _ -> ());
  let t =
    {
      pool_jobs = jobs;
      pool_retries = retries;
      pool_timeout_s = task_timeout_s;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      tasks = Queue.create ();
      lanes = Array.init jobs (fun _ -> fresh_lane ());
      stopping = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let submit t task =
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: submit to a shut-down pool"
  end;
  Queue.push task t.tasks;
  Condition.signal t.has_work;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  let already = t.stopping in
  t.stopping <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  if not already then begin
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?retries ?task_timeout_s ?jobs f =
  let t = create ?retries ?task_timeout_s ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One element execution: fault injection first, then the user function,
   then the (post-hoc) timeout check.  The timeout cannot interrupt a
   runaway task — OCaml domains are not preemptible — so an overlong result
   is discarded and reported as [Task_timeout], which the retry machinery
   treats like any other failure. *)
let exec_element ~timeout_s ~lane_idx ~index f x =
  inject ~lane:lane_idx;
  match timeout_s with
  | None -> f x
  | Some limit ->
      let t0 = Ewalk_obs.Clock.now_ns () in
      let r = f x in
      let elapsed_s = Ewalk_obs.Clock.ns_to_s (Ewalk_obs.Clock.elapsed_ns t0) in
      if elapsed_s > limit then
        raise (Task_timeout { index; elapsed_s; timeout_s = limit })
      else r

(* Drain chunks from a shared cursor until the input is exhausted or the
   batch is stopped.  Without retries, the first failing element stops the
   whole batch (recording the first exception); with retries, failed
   elements are collected in [state.retryable] and draining continues.
   [lane] counts the chunks this drain claims and the failures it hit. *)
let drain_chunks ~src ~dst ~f ~timeout_s ~retrying ~chunk ~cursor ~stop ~state
    ~lane ~lane_idx =
  let n = Array.length src in
  let continue_ = ref true in
  while !continue_ do
    if Atomic.get stop then continue_ := false
    else begin
      let start = Atomic.fetch_and_add cursor chunk in
      if start >= n then continue_ := false
      else begin
        lane.chunks <- lane.chunks + 1;
        let limit = min n (start + chunk) in
        let i = ref start in
        while !continue_ && !i < limit do
          (match
             exec_element ~timeout_s ~lane_idx ~index:!i f src.(!i)
           with
          | r -> dst.(!i) <- Some r
          | exception e ->
              lane.failures <- lane.failures + 1;
              if retrying then begin
                Mutex.lock state.b_mutex;
                state.retryable <- (!i, e) :: state.retryable;
                Mutex.unlock state.b_mutex
              end
              else begin
                let bt = Printexc.get_raw_backtrace () in
                Atomic.set stop true;
                Mutex.lock state.b_mutex;
                if state.failed = None then state.failed <- Some (e, bt);
                Mutex.unlock state.b_mutex;
                continue_ := false
              end);
          incr i
        done
      end
    end
  done

(* Sequential execution of one element with the full retry budget.  Used by
   the [jobs = 1] fast path and by the caller-side recovery pass after a
   parallel batch.  [attempts_done] counts executions already charged to
   this element (0 on the fast path, 1 after a parallel-lane failure). *)
let retry_element ~timeout_s ~retries ~attempts_done ~lane ~lane_idx ~index f x
    ~first_exn =
  let rec go attempt last =
    if attempt > retries + 1 then
      raise (Task_failed { index; attempts = retries + 1; last })
    else begin
      lane.retries <- lane.retries + 1;
      match exec_element ~timeout_s ~lane_idx ~index f x with
      | r -> r
      | exception e ->
          lane.failures <- lane.failures + 1;
          go (attempt + 1) e
    end
  in
  match first_exn with
  | Some e -> go (attempts_done + 1) e
  | None -> (
      (* First execution: with no retry budget, preserve the plain-map
         contract and let the original exception escape unchanged. *)
      match exec_element ~timeout_s ~lane_idx ~index f x with
      | r -> r
      | exception e ->
          lane.failures <- lane.failures + 1;
          if retries = 0 then raise e else go 2 e)

let map_array ?chunk ?retries ?task_timeout_s t f src =
  let n = Array.length src in
  (match chunk with
  | Some c when c < 1 ->
      invalid_arg (Printf.sprintf "Pool.map_array: chunk must be >= 1 (got %d)" c)
  | _ -> ());
  let retries =
    match retries with
    | Some r when r < 0 ->
        invalid_arg
          (Printf.sprintf "Pool.map_array: retries must be >= 0 (got %d)" r)
    | Some r -> r
    | None -> t.pool_retries
  in
  let timeout_s =
    match task_timeout_s with Some _ as s -> s | None -> t.pool_timeout_s
  in
  if t.pool_jobs <= 1 || n <= 1 then
    Array.mapi
      (fun i x ->
        retry_element ~timeout_s ~retries ~attempts_done:0 ~lane:t.lanes.(0)
          ~lane_idx:0 ~index:i f x ~first_exn:None)
      src
  else begin
    let chunk =
      match chunk with
      | Some c -> c
      | None -> max 1 (n / (t.pool_jobs * 4))
    in
    let retrying = retries > 0 in
    let dst = Array.make n None in
    let cursor = Atomic.make 0 in
    let stop = Atomic.make false in
    let state =
      {
        b_mutex = Mutex.create ();
        b_done = Condition.create ();
        pending = 0;
        failed = None;
        retryable = [];
      }
    in
    let nchunks = (n + chunk - 1) / chunk in
    let helpers = min (t.pool_jobs - 1) nchunks in
    state.pending <- helpers;
    for _ = 1 to helpers do
      submit t (fun lane_idx ->
          (* Record busy time / task count before the pending decrement: the
             caller may read [stats] as soon as the last decrement lands, and
             the b_mutex release below is what publishes these writes. *)
          let lane = t.lanes.(lane_idx) in
          let busy_t0 = Ewalk_obs.Clock.now_ns () in
          drain_chunks ~src ~dst ~f ~timeout_s ~retrying ~chunk ~cursor ~stop
            ~state ~lane ~lane_idx;
          lane.busy_ns <- lane.busy_ns + Ewalk_obs.Clock.elapsed_ns busy_t0;
          lane.tasks_run <- lane.tasks_run + 1;
          Mutex.lock state.b_mutex;
          state.pending <- state.pending - 1;
          if state.pending = 0 then Condition.broadcast state.b_done;
          Mutex.unlock state.b_mutex)
    done;
    let caller = t.lanes.(0) in
    let busy_t0 = Ewalk_obs.Clock.now_ns () in
    drain_chunks ~src ~dst ~f ~timeout_s ~retrying ~chunk ~cursor ~stop ~state
      ~lane:caller ~lane_idx:0;
    caller.busy_ns <- caller.busy_ns + Ewalk_obs.Clock.elapsed_ns busy_t0;
    caller.tasks_run <- caller.tasks_run + 1;
    let wait_t0 = Ewalk_obs.Clock.now_ns () in
    Mutex.lock state.b_mutex;
    while state.pending > 0 do
      Condition.wait state.b_done state.b_mutex
    done;
    let failed = state.failed in
    let to_retry = state.retryable in
    Mutex.unlock state.b_mutex;
    caller.wait_ns <- caller.wait_ns + Ewalk_obs.Clock.elapsed_ns wait_t0;
    match failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        (* Recovery pass: re-run failed elements in the caller's lane —
           by construction a different lane than the one that failed them,
           except when the caller's own drain hit the failure.  Ascending
           index order keeps the pass deterministic. *)
        List.sort (fun (i, _) (j, _) -> compare i j) to_retry
        |> List.iter (fun (i, first_exn) ->
               dst.(i) <-
                 Some
                   (retry_element ~timeout_s ~retries ~attempts_done:1
                      ~lane:caller ~lane_idx:0 ~index:i f src.(i)
                      ~first_exn:(Some first_exn)));
        Array.map
          (function Some x -> x | None -> assert false (* every index claimed *))
          dst
  end

let run t thunks =
  Array.to_list
    (map_array ~chunk:1 t (fun thunk -> thunk ()) (Array.of_list thunks))

let stats t =
  Array.map
    (fun l ->
      {
        busy_s = Ewalk_obs.Clock.ns_to_s l.busy_ns;
        wait_s = Ewalk_obs.Clock.ns_to_s l.wait_ns;
        chunks_served = l.chunks;
        tasks_served = l.tasks_run;
        tasks_failed = l.failures;
        tasks_retried = l.retries;
      })
    t.lanes

let reset_stats t =
  Array.iter
    (fun l ->
      l.busy_ns <- 0;
      l.wait_ns <- 0;
      l.chunks <- 0;
      l.tasks_run <- 0;
      l.failures <- 0;
      l.retries <- 0)
    t.lanes

let utilization_line t ~wall_s =
  let reports = stats t in
  let busy_total = Array.fold_left (fun a r -> a +. r.busy_s) 0.0 reports in
  let chunks = Array.fold_left (fun a r -> a + r.chunks_served) 0 reports in
  let util =
    if wall_s > 0.0 then
      100.0 *. busy_total /. (wall_s *. float_of_int t.pool_jobs)
    else 0.0
  in
  let lanes_txt =
    Array.to_list reports
    |> List.map (fun r -> Printf.sprintf "%.2f" r.busy_s)
    |> String.concat ","
  in
  let failed = Array.fold_left (fun a r -> a + r.tasks_failed) 0 reports in
  let retried = Array.fold_left (fun a r -> a + r.tasks_retried) 0 reports in
  (* Lane telemetry joins the rest of the run's artifacts by run id. *)
  let run =
    match Ewalk_obs.Runlog.run_id () with
    | Some id -> " run=" ^ id
    | None -> ""
  in
  Printf.sprintf
    "pool: jobs=%d wall=%.2fs busy=[%ss] utilization=%.0f%% chunks=%d%s%s"
    t.pool_jobs wall_s lanes_txt util chunks
    (if failed = 0 && retried = 0 then ""
     else Printf.sprintf " failures=%d retried=%d" failed retried)
    run
