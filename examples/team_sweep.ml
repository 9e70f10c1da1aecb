(* Multi-robot exploration: k walkers, one shared map.

   A fleet of robots explores a network; each robot prefers corridors
   (edges) nobody has traversed yet, and they share their map.  This is the
   team extension of the E-process (DESIGN.md section 4, beyond the paper):
   k cooperating walkers of one engine, whose shared unvisited-edge marks
   mean total work stays ~2n regardless of fleet size, so the wall-clock
   time divides by k almost perfectly.

   Run with:  dune exec examples/team_sweep.exe *)

module Graph = Ewalk_graph.Graph
module Rng = Ewalk_prng.Rng

let () =
  let n = Scale.pick ~tiny:2_000 100_000 in
  let rng = Rng.create ~seed:21 () in
  let g = Ewalk_graph.Gen_regular.random_regular_connected rng n 4 in
  Printf.printf
    "exploring a random 4-regular network, n = %d, with k robots:\n\n" n;
  Printf.printf "%4s %14s %12s %12s %10s\n" "k" "total moves" "moves/n"
    "rounds/n" "speed-up";
  let base = ref nan in
  List.iter
    (fun k ->
      let rng = Rng.create ~seed:(100 + k) () in
      let team = Ewalk.Engine.create_spread Ewalk.Engine.E_uar g rng ~walkers:k in
      match Ewalk.Engine.run_to_vertex_cover team with
      | Some steps ->
          let rounds = float_of_int steps /. float_of_int k in
          if k = 1 then base := rounds;
          Printf.printf "%4d %14d %12.3f %12.3f %9.2fx\n" k steps
            (float_of_int steps /. float_of_int n)
            (rounds /. float_of_int n)
            (!base /. rounds)
      | None -> Printf.printf "%4d: hit the step cap\n" k)
    [ 1; 2; 4; 8; 16; 32 ];
  print_newline ();
  print_endline "total work is flat in k: a mark consumed by one robot is";
  print_endline "consumed for all - the fleet parallelises the E-process";
  print_endline "nearly for free until stragglers dominate."
