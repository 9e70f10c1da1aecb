(* The benchmark's own clock, allocation counter and span recorder.

   Nothing here goes through Ewalk_obs.Clock or Ewalk_obs.Prof: those
   are layers under test, so timing with them would let a change to
   them move the yardstick as well as the thing measured. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Words allocated by this domain so far: minor allocations plus direct
   major allocations (promotions are not new allocation). *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
  minor_words : float;
  major_words : float;
  failed : bool;
}

let enabled = ref false
let run_id = ref ""
let origin = ref 0.
let recorded : span list ref = ref []
let next_id = ref 1

(* The serve workload records spans from two client threads, so the
   open-span stack is kept per thread and the recorder is locked. *)
let lock = Mutex.create ()
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let start ~run =
  run_id := run;
  origin := now ();
  recorded := [];
  next_id := 1;
  Hashtbl.reset stacks;
  enabled := true

let stop () = enabled := false

let open_span () =
  locked @@ fun () ->
  let tid = Thread.id (Thread.self ()) in
  let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
  let id = !next_id in
  incr next_id;
  Hashtbl.replace stacks tid (id :: stack);
  (id, match stack with p :: _ -> p | [] -> 0)

(* The innermost open span of the calling thread (0 if none), and a way
   to open spans in another thread beneath it. *)
let current () =
  locked @@ fun () ->
  match Hashtbl.find_opt stacks (Thread.id (Thread.self ())) with
  | Some (p :: _) -> p
  | Some [] | None -> 0

let with_parent parent f =
  let tid = Thread.id (Thread.self ()) in
  locked (fun () -> Hashtbl.replace stacks tid [ parent ]);
  Fun.protect ~finally:(fun () -> locked (fun () -> Hashtbl.remove stacks tid)) f

let close_span ~id ~parent ~layer ~name ~t0 ~minor0 ~major0 ~failed =
  let t1 = now () in
  let minor1, promoted1, major1 = Gc.counters () in
  locked @@ fun () ->
  let tid = Thread.id (Thread.self ()) in
  (match Hashtbl.find_opt stacks tid with
  | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
  | Some [] | None -> ());
  recorded :=
    {
      id;
      parent;
      layer;
      name;
      t0;
      t1;
      minor_words = minor1 -. minor0;
      major_words = major1 -. promoted1 -. major0;
      failed;
    }
    :: !recorded

(* [call ~layer name f] runs [f] inside a span when recording is on.  A
   raised exception, or a result [failed] judges a failure, marks the
   span failed. *)
let call ?(failed = fun _ -> false) ~layer name f =
  if not !enabled then f ()
  else begin
    let id, parent = open_span () in
    let minor0, promoted0, major0 = Gc.counters () in
    let major0 = major0 -. promoted0 in
    let t0 = now () in
    let close ~failed =
      close_span ~id ~parent ~layer ~name ~t0 ~minor0 ~major0 ~failed
    in
    match f () with
    | r ->
        close ~failed:(failed r);
        r
    | exception e ->
        close ~failed:true;
        raise e
  end

let spans () = List.rev !recorded

(* Length of the union of [(t0, t1)] intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

type totals = { busy_s : float; self_s : float; calls : int; failures : int }

(* Per-layer totals: busy time is the union of the layer's spans, self
   time sums each span's duration minus the part its children cover. *)
let totals ~layer =
  let all = spans () in
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent (s.t0, s.t1)) all;
  let mine = List.filter (fun s -> s.layer = layer) all in
  {
    busy_s = union_length (List.map (fun s -> (s.t0, s.t1)) mine);
    self_s =
      List.fold_left
        (fun acc s ->
          acc +. (s.t1 -. s.t0)
          -. union_length (Hashtbl.find_all children s.id))
        0. mine;
    calls = List.length mine;
    failures = List.length (List.filter (fun s -> s.failed) mine);
  }

let write_jsonl path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"run_id\":%S,\"id\":%d,\"parent\":%d,\"layer\":%S,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f,\"minor_words\":%.0f,\"major_words\":%.0f,\"failed\":%b}\n"
        !run_id s.id s.parent s.layer s.name (s.t0 -. !origin)
        (s.t1 -. !origin) s.minor_words s.major_words s.failed)
    (spans ())

(* Phase timings, newest first: name, traced, seconds, words. *)
let phase_log : (string * bool * float * float) list ref = ref []

(* In a traced run every phase runs twice, back to back on identical
   inputs: first with the recorder off, then on.  The difference is the
   tracing overhead, free of the warm-up a whole untraced pass ahead of
   a traced one would give the second. *)
let paired = ref false

(* [phase name ~before ~warm f]: [before] resets the phase's inputs,
   the untimed warm-up runs, the heap is collected, and [f] is timed
   under a phase span.  Only [f] is ever recorded.  Returns the last
   run's duration. *)
let phase name ?(before = ignore) ~warm f =
  let tracing = !enabled in
  let once ~traced =
    enabled := false;
    before ();
    warm ();
    Gc.compact ();
    enabled := traced;
    let w0 = allocated () and t0 = now () in
    call ~layer:"bench" name f;
    let dt = now () -. t0 in
    phase_log := (name, traced, dt, Float.round (allocated () -. w0)) :: !phase_log;
    dt
  in
  if !paired && tracing then ignore (once ~traced:false);
  once ~traced:tracing

(* [phase_slice name ~total ~rounds f r] times round [r]'s share of
   [f 0 .. f (total - 1)] as one phase; nothing when the share is empty. *)
let phase_slice name ~total ~rounds ?before ~warm f r =
  let lo = total * r / rounds and hi = total * (r + 1) / rounds in
  if hi > lo then
    ignore
      (phase name ?before ~warm (fun () ->
           for i = lo to hi - 1 do
             f i
           done))

let phase_each name ~total ?before ~warm f =
  phase_slice name ~total ~rounds:1 ?before ~warm f 0

(* Seconds and words per phase name, summed over the runs with the given
   tracing state, in first-seen order. *)
let phase_totals ~traced =
  List.fold_left
    (fun acc (name, t, s, w) ->
      if t <> traced then acc
      else
        match List.assoc_opt name acc with
        | Some (s0, w0) ->
            List.map
              (fun (k, v) -> if k = name then (k, (s0 +. s, w0 +. w)) else (k, v))
              acc
        | None -> acc @ [ (name, (s, w)) ])
    [] (List.rev !phase_log)
