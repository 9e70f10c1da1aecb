(* Metric collection, the attempted/failed tally, sample statistics and
   the result line. *)

(* -- sample statistics ----------------------------------------------------- *)

(* Linear interpolation between closest ranks, as numpy's default. *)
let quantile samples q =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median samples = quantile samples 0.5
let ms s = s *. 1e3

(* -- operations attempted and failed ---------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(* [check what ok] counts one checked operation; a failure is reported
   on stderr (the first few in full) and counted, never raised. *)
let check what ok =
  incr attempted;
  if not ok then begin
    incr failed;
    if !failed <= 10 then Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

let checkf ok fmt = Printf.ksprintf (fun what -> check what ok) fmt

(* VmHWM of a process, from /proc. *)
let peak_rss_mib pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> (
                  match float_of_string_opt kb with
                  | Some kb -> kb /. 1024.
                  | None -> acc)
              | [] -> acc)
          | _ -> acc)
        Float.nan
        (String.split_on_char '\n' text)

(* -- metrics ----------------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let collected : metric list ref = ref []

let add ?(samples = 1) name ~unit_ value =
  collected := { name; unit_; value; samples } :: !collected

(* [add_windowed name ~unit_ ~window ~across stat samples]: [stat] of
   every run of [window] consecutive samples (the samples past the last
   whole window are left out), and the metric is the lowest, the highest
   or the median of those values.  The host's speed swings by up to 1.7x
   over seconds to minutes (STEADINESS.md), so a whole-run median
   measures its neighbours as much as the program, while the best window
   repeats from run to run; a tail percentile, which rests on few samples
   of each window, is steadier as the median window.  Every window's
   value is printed. *)
let add_windowed name ~unit_ ~window ~across stat samples =
  let values =
    Array.init (Array.length samples / window) (fun w ->
        stat (Array.sub samples (w * window) window))
  in
  Printf.printf "windows %s:%s\n" name
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.4g") values)));
  let fold pick = if values = [||] then Float.nan else Array.fold_left pick values.(0) values in
  let value =
    match across with
    | `Lowest -> fold Float.min
    | `Highest -> fold Float.max
    | `Median -> median values
  in
  add name ~unit_ ~samples:(Array.length samples) value

let find name = List.find_opt (fun m -> m.name = name) (List.rev !collected)

(* Exact counts: they repeat exactly for a fixed seed, so a change in the
   random draws a walk consumes shows as a count, not as timing noise. *)
let counts : (string * float) list ref = ref []

let count name value =
  Printf.printf "count %s = %.0f\n%!" name value;
  counts := (name, value) :: !counts

let take_counts () =
  let c = List.rev !counts in
  counts := [];
  c

(* The covers' check and counts, shared by the workloads and the serve
   rung: the mean cover/n must lie in the band EXPERIMENTS.md records for
   d = 4 (about 1.99). *)
let covers ~n ~steps ~blue =
  let sum a = Array.fold_left ( + ) 0 a in
  let per_vertex = float_of_int (sum steps) /. float_of_int (Array.length steps * n) in
  checkf
    (per_vertex >= 1.9 && per_vertex <= 2.1)
    "mean cover/n is %.4f, outside [1.9, 2.1]" per_vertex;
  count "cover.steps" (float_of_int (sum steps));
  count "cover.blue_steps" (float_of_int (sum blue));
  count "cover.red_steps" (float_of_int (sum steps - sum blue))

let print_table ~expected =
  Printf.printf "%-42s %16s %-6s %8s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun name ->
      match find name with
      | Some m ->
          Printf.printf "%-42s %16.6g %-6s %8d\n" m.name m.value m.unit_ m.samples
      | None -> Printf.printf "%-42s %16s\n" name "missing")
    expected;
  Printf.printf "operations: attempted=%d failed=%d\n" !attempted !failed

(* The last line of stdout: one JSON object.  [expected] is the metric set
   the mode must report; a missing or non-finite value is a failure. *)
let print_result ~expected =
  List.iter
    (fun name ->
      match find name with
      | Some m when Float.is_finite m.value -> ()
      | Some _ -> checkf false "metric %s is not finite" name
      | None -> checkf false "metric %s was not measured" name)
    expected;
  let fields =
    List.filter_map
      (fun name ->
        match find name with
        | Some m when Float.is_finite m.value ->
            Some
              (Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
                 m.value m.unit_)
        | _ -> None)
      expected
  in
  let ok = !failed = 0 && !attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    ok !attempted !failed
    (String.concat ", " fields);
  ok
