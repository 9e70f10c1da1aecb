(* Thread-safety: a registry may be updated from several domains at once
   (trial sweeps run inside Ewalk_par.Pool).  Counters and gauges are
   lock-free Atomics; histograms update several fields per observation, so
   each carries its own mutex; the instrument table itself is guarded by the
   registry mutex.  [snapshot] locks only the registry and each histogram in
   turn, so it can run concurrently with updates and still serialise a
   well-formed (per-instrument-consistent) document. *)

(* A counter IS its atomic cell (no wrapper record): the hot-loop
   increment is one load plus one lock-prefixed add. *)
type counter = int Atomic.t

(* [g_seq] orders writes under parallel sweeps: [set_at ~seq] only
   overwrites a value stamped with a lower-or-equal sequence, so the final
   reading is the highest-stamped write (last-by-trial-index) no matter
   which domain ran which trial.  Plain [set] stamps [min_int] — "no
   ordering claim" — and always wins over nothing. *)
type gstate = { g_value : float; g_set : bool; g_seq : int }

type gauge = { g : gstate Atomic.t }

type histogram = {
  h_mutex : Mutex.t;
  bounds : float array; (* ascending upper bounds, exclusive of +inf *)
  bucket_counts : int array; (* length = Array.length bounds + 1 *)
  mutable h_count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

type instrument = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  t_mutex : Mutex.t;
  instruments : (string, instrument) Hashtbl.t;
}

let create () = { t_mutex = Mutex.create (); instruments = Hashtbl.create 16 }

(* The registry is name-keyed (no label dimensions), so labelled series
   are name-encoded: [with_label "blue_steps" ~key:"walker" ~value:"3"] is
   ["blue_steps_walker_3"].  The value is sanitised to the OpenMetrics
   name alphabet so the exporter never has to rewrite it. *)
let with_label name ~key ~value =
  let buf =
    Buffer.create (String.length name + String.length key + String.length value + 2)
  in
  Buffer.add_string buf name;
  Buffer.add_char buf '_';
  Buffer.add_string buf key;
  Buffer.add_char buf '_';
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' ->
          Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    value;
  Buffer.contents buf

let clash name =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered with a different kind" name)

(* Registration is find-or-create under the registry mutex, so two domains
   registering the same name concurrently get the same instrument.  [make]
   must not raise (argument validation happens before the lock). *)
let register t name ~make ~cast =
  Mutex.lock t.t_mutex;
  let instr =
    match Hashtbl.find_opt t.instruments name with
    | Some instr -> instr
    | None ->
        let fresh = make () in
        Hashtbl.add t.instruments name fresh;
        fresh
  in
  Mutex.unlock t.t_mutex;
  match cast instr with Some x -> x | None -> clash name

let counter t name =
  register t name
    ~make:(fun () -> Counter (Atomic.make 0))
    ~cast:(function Counter c -> Some c | _ -> None)

let gauge t name =
  register t name
    ~make:(fun () ->
      Gauge { g = Atomic.make { g_value = 0.0; g_set = false; g_seq = min_int } })
    ~cast:(function Gauge g -> Some g | _ -> None)

let default_buckets = Array.init 21 (fun i -> Float.of_int (1 lsl i))

let validate_buckets buckets =
  if Array.length buckets = 0 then invalid_arg "Metrics.histogram: empty buckets";
  Array.iteri
    (fun i b ->
      if i > 0 && not (b > buckets.(i - 1)) then
        invalid_arg "Metrics.histogram: buckets not increasing")
    buckets

(* Validation runs only when the name is not yet registered: retrieving an
   existing histogram ignores [buckets] entirely (it was never used on the
   retrieval path anyway).  A racing first registration is harmless — both
   domains validate, [register]'s find-or-create keeps exactly one. *)
let histogram ?(buckets = default_buckets) t name =
  let existing =
    Mutex.lock t.t_mutex;
    let v = Hashtbl.find_opt t.instruments name in
    Mutex.unlock t.t_mutex;
    v
  in
  match existing with
  | Some (Histogram h) -> h
  | Some _ -> clash name
  | None ->
      validate_buckets buckets;
      register t name
        ~make:(fun () ->
          Histogram
            {
              h_mutex = Mutex.create ();
              bounds = Array.copy buckets;
              bucket_counts = Array.make (Array.length buckets + 1) 0;
              h_count = 0;
              sum = 0.0;
              min = Float.infinity;
              max = Float.neg_infinity;
            })
        ~cast:(function Histogram h -> Some h | _ -> None)

let incr c = ignore (Atomic.fetch_and_add c 1)
let add c k = ignore (Atomic.fetch_and_add c k)
let value c = Atomic.get c

let rec set g x =
  (* Stamped lowest: a plain write replaces another plain write (or an
     unset gauge) but never a value a [set_at] writer pinned by sequence. *)
  let cur = Atomic.get g.g in
  if (not cur.g_set) || cur.g_seq = min_int then
    if
      not
        (Atomic.compare_and_set g.g cur
           { g_value = x; g_set = true; g_seq = min_int })
    then set g x

let rec set_max g x =
  let cur = Atomic.get g.g in
  if (not cur.g_set) || x > cur.g_value then
    if
      not
        (Atomic.compare_and_set g.g cur
           { g_value = x; g_set = true; g_seq = min_int })
    then set_max g x

let rec set_at g ~seq x =
  let cur = Atomic.get g.g in
  if (not cur.g_set) || seq >= cur.g_seq then
    if
      not
        (Atomic.compare_and_set g.g cur
           { g_value = x; g_set = true; g_seq = seq })
    then set_at g ~seq x

let gauge_value g = (Atomic.get g.g).g_value

let observe h x =
  let nb = Array.length h.bounds in
  let i = ref 0 in
  while !i < nb && x > h.bounds.(!i) do
    Stdlib.incr i
  done;
  Mutex.lock h.h_mutex;
  h.bucket_counts.(!i) <- h.bucket_counts.(!i) + 1;
  h.h_count <- h.h_count + 1;
  h.sum <- h.sum +. x;
  if x < h.min then h.min <- x;
  if x > h.max then h.max <- x;
  Mutex.unlock h.h_mutex

let hist_bounds h = Array.copy h.bounds

(* Batched merge of observations counted elsewhere (an Observe view's phase
   lengths): one lock round-trip for the whole batch instead of one per
   observation. *)
let hist_merge h ~bucket_counts ~count ~sum ~min ~max =
  if Array.length bucket_counts <> Array.length h.bucket_counts then
    invalid_arg "Metrics.hist_merge: bucket count mismatch";
  if count < 0 then invalid_arg "Metrics.hist_merge: negative count";
  if count > 0 then begin
    Mutex.lock h.h_mutex;
    Array.iteri
      (fun i k -> h.bucket_counts.(i) <- h.bucket_counts.(i) + k)
      bucket_counts;
    h.h_count <- h.h_count + count;
    h.sum <- h.sum +. sum;
    if min < h.min then h.min <- min;
    if max > h.max then h.max <- max;
    Mutex.unlock h.h_mutex
  end

let hist_count h =
  Mutex.lock h.h_mutex;
  let n = h.h_count in
  Mutex.unlock h.h_mutex;
  n

let hist_sum h =
  Mutex.lock h.h_mutex;
  let s = h.sum in
  Mutex.unlock h.h_mutex;
  s

let hist_json h =
  Mutex.lock h.h_mutex;
  let bucket_counts = Array.copy h.bucket_counts in
  let h_count = h.h_count and sum = h.sum and min = h.min and max = h.max in
  Mutex.unlock h.h_mutex;
  let buckets =
    List.init
      (Array.length bucket_counts)
      (fun i ->
        let le =
          if i < Array.length h.bounds then Json.Float h.bounds.(i)
          else Json.String "+inf"
        in
        Json.Obj [ ("le", le); ("count", Json.Int bucket_counts.(i)) ])
  in
  Json.Obj
    [
      ("count", Json.Int h_count);
      ("sum", Json.Float sum);
      ("min", if h_count = 0 then Json.Null else Json.Float min);
      ("max", if h_count = 0 then Json.Null else Json.Float max);
      ("buckets", Json.List buckets);
    ]

type view =
  | Counter_view of int
  | Gauge_view of float
  | Histogram_view of {
      hv_count : int;
      hv_sum : float;
      hv_buckets : (float * int) array;
      hv_inf : int;
    }

let instruments t =
  Mutex.lock t.t_mutex;
  let entries =
    Hashtbl.fold (fun name instr acc -> (name, instr) :: acc) t.instruments []
  in
  Mutex.unlock t.t_mutex;
  entries
  |> List.map (fun (name, instr) ->
         let view =
           match instr with
           | Counter c -> Counter_view (Atomic.get c)
           | Gauge g -> Gauge_view (Atomic.get g.g).g_value
           | Histogram h ->
               Mutex.lock h.h_mutex;
               let counts = Array.copy h.bucket_counts in
               let hv_count = h.h_count and hv_sum = h.sum in
               Mutex.unlock h.h_mutex;
               let nb = Array.length h.bounds in
               Histogram_view
                 {
                   hv_count;
                   hv_sum;
                   hv_buckets =
                     Array.init nb (fun i -> (h.bounds.(i), counts.(i)));
                   hv_inf = counts.(nb);
                 }
         in
         (name, view))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot t =
  Mutex.lock t.t_mutex;
  let entries =
    Hashtbl.fold (fun name instr acc -> (name, instr) :: acc) t.instruments []
  in
  Mutex.unlock t.t_mutex;
  let sorted kind =
    List.filter_map
      (fun (name, instr) ->
        match kind instr with Some j -> Some (name, j) | None -> None)
      entries
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (sorted (function
            | Counter c -> Some (Json.Int (Atomic.get c))
            | _ -> None)) );
      ( "gauges",
        Json.Obj
          (sorted (function
            | Gauge g -> Some (Json.Float (Atomic.get g.g).g_value)
            | _ -> None)) );
      ( "histograms",
        Json.Obj
          (sorted (function Histogram h -> Some (hist_json h) | _ -> None)) );
    ]

let to_json_string t = Json.to_string (snapshot t)

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json_string t);
      output_char oc '\n')
