module Rng = Ewalk_prng.Rng

let pair_stubs rng stubs =
  (* Pair a shuffled stub array: stub 2i with stub 2i + 1. *)
  Rng.shuffle_in_place rng stubs;
  let m = Array.length stubs / 2 in
  Array.init m (fun i -> (stubs.(2 * i), stubs.((2 * i) + 1)))

let stubs_of_degrees degrees =
  let total = Array.fold_left ( + ) 0 degrees in
  let stubs = Array.make total 0 in
  let k = ref 0 in
  Array.iteri
    (fun v d ->
      if d < 0 then invalid_arg "Gen_regular: negative degree";
      for _ = 1 to d do
        stubs.(!k) <- v;
        incr k
      done)
    degrees;
  stubs

let multigraph_of_degrees rng n degrees =
  let stubs = stubs_of_degrees degrees in
  if Array.length stubs land 1 = 1 then
    invalid_arg "Gen_regular: odd degree sum";
  Graph.of_edge_array ~n (pair_stubs rng stubs)

let pairing_multigraph rng n r =
  if n < 0 || r < 0 then invalid_arg "Gen_regular.pairing_multigraph";
  multigraph_of_degrees rng n (Array.make n r)

let reject_until ~max_attempts ~what draw accept =
  let rec go k =
    if k >= max_attempts then
      failwith (Printf.sprintf "Gen_regular: no %s sample in %d attempts" what
                  max_attempts)
    else begin
      let g = draw () in
      if accept g then g else go (k + 1)
    end
  in
  go 0

let check_regular_args name n r =
  if n < 0 || r < 0 then invalid_arg name;
  if n * r land 1 = 1 then invalid_arg (name ^ ": n * r is odd");
  if n > 0 && r >= n then invalid_arg (name ^ ": r >= n has no simple graph")

let random_regular_rejection ?(max_attempts = 10_000) rng n r =
  check_regular_args "Gen_regular.random_regular_rejection" n r;
  reject_until ~max_attempts ~what:"simple"
    (fun () -> pairing_multigraph rng n r)
    Graph.is_simple

(* A Steger–Wormald pair is suitable if its endpoints are distinct and
   not yet adjacent. *)
let suitable rows u v = u <> v && not (Graph.Rows.adjacent rows u v)

(* One Steger–Wormald construction attempt into [rows], over [stubs] (r
   per vertex): match random suitable stub pairs until every stub is
   matched (true), or stop when the remaining stubs are provably
   unmatchable (false).  Each matched pair becomes the next edge, from
   the first stub drawn to the second; nothing is allocated. *)
let steger_wormald_attempt rng rows stubs r =
  for k = 0 to Array.length stubs - 1 do
    stubs.(k) <- k / r
  done;
  Graph.Rows.clear rows;
  let live = ref (Array.length stubs) and dead = ref false in
  while !live > 0 && not !dead do
    (* Draw stub positions until a suitable pair appears; after too many
       consecutive misses, scan exhaustively to decide dead vs unlucky. *)
    let i = ref (-1) and j = ref (-1) in
    let misses = ref 0 and bound = 50 + (10 * !live) in
    while !i < 0 && !misses <= bound do
      let a = Rng.int rng !live in
      let b = Rng.int rng !live in
      if a <> b && suitable rows stubs.(a) stubs.(b) then begin
        i := a;
        j := b
      end
      else incr misses
    done;
    let a = ref 0 in
    while !i < 0 && !a < !live - 1 do
      let b = ref (!a + 1) in
      while !i < 0 && !b < !live do
        if suitable rows stubs.(!a) stubs.(!b) then begin
          i := !a;
          j := !b
        end;
        incr b
      done;
      incr a
    done;
    if !i < 0 then dead := true
    else begin
      Graph.Rows.add_edge rows stubs.(!i) stubs.(!j);
      (* Remove the larger position first so the smaller one stays
         valid. *)
      let hi, lo = if !i > !j then (!i, !j) else (!j, !i) in
      stubs.(hi) <- stubs.(!live - 1);
      decr live;
      stubs.(lo) <- stubs.(!live - 1);
      decr live
    end
  done;
  not !dead

(* Restart the construction until an attempt completes. *)
let steger_wormald ~max_attempts rng rows stubs r =
  let rec go k =
    if k >= max_attempts then
      failwith
        (Printf.sprintf "Gen_regular.random_regular: no sample in %d attempts"
           max_attempts)
    else if not (steger_wormald_attempt rng rows stubs r) then go (k + 1)
  in
  go 0

let random_regular ?(max_attempts = 1_000) rng n r =
  check_regular_args "Gen_regular.random_regular" n r;
  let rows = Graph.Rows.create ~n ~width:r in
  steger_wormald ~max_attempts rng rows (Array.make (n * r) 0) r;
  Graph.Rows.freeze rows

let random_regular_connected ?(max_attempts = 1_000) rng n r =
  if r < 2 && n > 2 then
    invalid_arg "Gen_regular.random_regular_connected: r < 2 is never connected";
  check_regular_args "Gen_regular.random_regular_connected" n r;
  (* Each draw's spent stubs are the connectivity search's stack. *)
  let rows = Graph.Rows.create ~n ~width:r and stubs = Array.make (n * r) 0 in
  let rec go k =
    if k >= max_attempts then
      failwith
        (Printf.sprintf "Gen_regular: no simple connected sample in %d attempts"
           max_attempts)
    else begin
      steger_wormald ~max_attempts rng rows stubs r;
      if Graph.Rows.connected rows ~stack:stubs then Graph.Rows.freeze rows
      else go (k + 1)
    end
  in
  go 0

let configuration_model ?(simple = false) ?(max_attempts = 10_000) rng degrees =
  let n = Array.length degrees in
  let total = Array.fold_left ( + ) 0 degrees in
  if total land 1 = 1 then
    invalid_arg "Gen_regular.configuration_model: odd degree sum";
  if simple then
    reject_until ~max_attempts ~what:"simple"
      (fun () -> multigraph_of_degrees rng n degrees)
      Graph.is_simple
  else multigraph_of_degrees rng n degrees

let cycle_union ?(max_attempts = 10_000) rng n r =
  if n < 3 || r < 1 then invalid_arg "Gen_regular.cycle_union";
  (* Draw the Hamiltonian cycles one at a time, re-drawing a cycle that
     shares an edge with the ones already placed: the per-cycle acceptance
     probability is constant for constant r, unlike whole-union
     rejection. *)
  let rows = Graph.Rows.create ~n ~width:(2 * r) in
  for _ = 1 to r do
    let rec place attempts =
      if attempts >= max_attempts then
        failwith
          (Printf.sprintf
             "Gen_regular.cycle_union: no edge-disjoint cycle in %d attempts"
             max_attempts)
      else begin
        let p = Rng.permutation rng n in
        let next i = p.((i + 1) mod n) in
        let i = ref 0 in
        while !i < n && not (Graph.Rows.adjacent rows p.(!i) (next !i)) do
          incr i
        done;
        if !i = n then
          for i = 0 to n - 1 do
            Graph.Rows.add_edge rows p.(i) (next i)
          done
        else place (attempts + 1)
      end
    in
    place 0
  done;
  Graph.Rows.freeze rows
