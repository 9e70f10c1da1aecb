open Ewalk_graph
module Rng = Ewalk_prng.Rng

(* Shared naive vertex-visit bookkeeping. *)
module Visits = struct
  type t = { seen : bool array; mutable count : int }

  let create n start =
    let seen = Array.make n false in
    seen.(start) <- true;
    { seen; count = 1 }

  let visit t v =
    if not t.seen.(v) then begin
      t.seen.(v) <- true;
      t.count <- t.count + 1
    end
end

module Eprocess = struct
  type rule = Uar | Lowest_slot | Highest_slot

  type t = {
    g : Graph.t;
    rng : Rng.t;
    rule : rule;
    visited : bool array;
    visits : Visits.t;
    mutable pos : Graph.vertex;
    mutable steps : int;
    mutable blue_steps : int;
    mutable red_steps : int;
  }

  let create ?(rule = Uar) g rng ~start =
    if Graph.n g = 0 then invalid_arg "Oracle.Eprocess.create: empty graph";
    if start < 0 || start >= Graph.n g then
      invalid_arg "Oracle.Eprocess.create: start out of range";
    {
      g;
      rng;
      rule;
      visited = Array.make (Graph.m g) false;
      visits = Visits.create (Graph.n g) start;
      pos = start;
      steps = 0;
      blue_steps = 0;
      red_steps = 0;
    }

  let position t = t.pos
  let steps t = t.steps
  let blue_steps t = t.blue_steps
  let red_steps t = t.red_steps
  let edge_visited t e = t.visited.(e)
  let visited_edges t = Array.copy t.visited
  let vertices_visited t = t.visits.Visits.count
  let all_vertices_visited t = t.visits.Visits.count = Graph.n t.g

  (* The adjacency slot offsets (in slot order) of [v] whose edge is still
     unvisited.  A blue self-loop contributes both its slots, matching the
     production [Arc_marks.live] convention. *)
  let unvisited_offsets t v =
    let deg = Graph.degree t.g v in
    let acc = ref [] in
    for i = deg - 1 downto 0 do
      if not t.visited.(Graph.neighbor_edge t.g v i) then acc := i :: !acc
    done;
    !acc

  let step t =
    let v = t.pos in
    let deg = Graph.degree t.g v in
    if deg = 0 then invalid_arg "Oracle.Eprocess.step: isolated vertex";
    let blue_offsets = unvisited_offsets t v in
    let i =
      match blue_offsets with
      | [] -> Rng.int t.rng deg (* red: plain SRW step *)
      | offsets -> (
          match t.rule with
          | Uar -> List.nth offsets (Rng.int t.rng (List.length offsets))
          | Lowest_slot -> List.hd offsets
          | Highest_slot -> List.nth offsets (List.length offsets - 1))
    in
    let e = Graph.neighbor_edge t.g v i in
    let w = Graph.neighbor t.g v i in
    t.steps <- t.steps + 1;
    if blue_offsets <> [] then begin
      t.blue_steps <- t.blue_steps + 1;
      t.visited.(e) <- true
    end
    else t.red_steps <- t.red_steps + 1;
    t.pos <- w;
    Visits.visit t.visits w
end

module Srw = struct
  type t = {
    g : Graph.t;
    rng : Rng.t;
    visits : Visits.t;
    mutable pos : Graph.vertex;
    mutable steps : int;
  }

  let create g rng ~start =
    if start < 0 || start >= Graph.n g then
      invalid_arg "Oracle.Srw.create: start out of range";
    { g; rng; visits = Visits.create (Graph.n g) start; pos = start; steps = 0 }

  let position t = t.pos
  let steps t = t.steps
  let vertices_visited t = t.visits.Visits.count

  let step t =
    let deg = Graph.degree t.g t.pos in
    if deg = 0 then invalid_arg "Oracle.Srw.step: isolated vertex";
    let w = Graph.neighbor t.g t.pos (Rng.int t.rng deg) in
    t.steps <- t.steps + 1;
    t.pos <- w;
    Visits.visit t.visits w
end

module Kernel = struct
  (* Naive multi-walker reference for the lockstep engine: a plain
     round-robin loop over per-walker [Rng.t] streams ([Rng.stream root w]
     — the same derivation [Ewalk_kernel.Packed.of_rng] uses), explicit
     bool-array visited sets (one shared row in cooperating mode, one row
     per walker in competing mode), and adjacency-order offset scans.  In
     every configuration the reference consumes the same draws as the
     engine and stays in full RNG lockstep. *)

  type mode = Cooperating | Competing
  type proc = E_uar | E_lowest | E_highest | Srw_walk | Rotor_walk

  let prefers = function
    | E_uar | E_lowest | E_highest -> true
    | Srw_walk | Rotor_walk -> false

  type t = {
    g : Graph.t;
    mode : mode;
    proc : proc;
    rngs : Rng.t array;
    pos : int array;
    visited : bool array array;
        (* cooperating: one shared row aliased at every index;
           competing: a private row per walker.  Marks every traversed
           edge (for E-process rules a red step's edge is always already
           marked, so the row doubles as the preference state). *)
    rotors : int array array; (* same aliasing convention; [||] rows otherwise *)
    visits : Visits.t array; (* same aliasing convention *)
    mutable cursor : int;
    wsteps : int array;
    wblue : int array;
    wred : int array;
  }

  let create ?(mode = Cooperating) proc g rng ~starts =
    let w = Array.length starts in
    if w = 0 then invalid_arg "Oracle.Kernel.create: no walkers";
    Array.iter
      (fun v ->
        if v < 0 || v >= Graph.n g then
          invalid_arg "Oracle.Kernel.create: start out of range")
      starts;
    let rngs = Array.init w (fun i -> Rng.stream rng i) in
    let visited =
      match mode with
      | Cooperating -> Array.make w (Array.make (Graph.m g) false)
      | Competing -> Array.init w (fun _ -> Array.make (Graph.m g) false)
    in
    let mk_rotor r =
      Array.init (Graph.n g) (fun v ->
          let deg = Graph.degree g v in
          if deg > 0 then Rng.int r deg else 0)
    in
    let rotors =
      if proc <> Rotor_walk then Array.make w [||]
      else
        match mode with
        | Cooperating -> Array.make w (mk_rotor rngs.(0))
        | Competing -> Array.init w (fun i -> mk_rotor rngs.(i))
    in
    let visits =
      match mode with
      | Cooperating ->
          let vt = Visits.create (Graph.n g) starts.(0) in
          Array.iter (fun s -> Visits.visit vt s) starts;
          Array.make w vt
      | Competing ->
          Array.init w (fun i -> Visits.create (Graph.n g) starts.(i))
    in
    {
      g;
      mode;
      proc;
      rngs;
      pos = Array.copy starts;
      visited;
      rotors;
      visits;
      cursor = 0;
      wsteps = Array.make w 0;
      wblue = Array.make w 0;
      wred = Array.make w 0;
    }

  let walkers t = Array.length t.pos
  let walker_position t w = t.pos.(w)
  let positions t = Array.copy t.pos
  let walker_steps t w = t.wsteps.(w)
  let walker_blue_steps t w = t.wblue.(w)
  let walker_red_steps t w = t.wred.(w)
  let blue_steps t = Array.fold_left ( + ) 0 t.wblue
  let steps t = Array.fold_left ( + ) 0 t.wsteps
  let visited_row t w = Array.copy t.visited.(w)
  let edge_visited t w e = t.visited.(w).(e)
  let vertices_visited t w = t.visits.(w).Visits.count
  let all_vertices_visited t w = t.visits.(w).Visits.count = Graph.n t.g
  let rotor_offset t w v = t.rotors.(w).(v)

  let unvisited_offsets t w v =
    let vis = t.visited.(w) in
    let deg = Graph.degree t.g v in
    let acc = ref [] in
    for i = deg - 1 downto 0 do
      if not vis.(Graph.neighbor_edge t.g v i) then acc := i :: !acc
    done;
    !acc

  (* Advance the cursor walker one step, round-robin. *)
  let step t =
    let w = t.cursor in
    t.cursor <- (w + 1) mod Array.length t.pos;
    let v = t.pos.(w) in
    let deg = Graph.degree t.g v in
    if deg = 0 then invalid_arg "Oracle.Kernel.step: isolated vertex";
    let rng = t.rngs.(w) in
    let blue_offsets = if prefers t.proc then unvisited_offsets t w v else [] in
    let blue = blue_offsets <> [] in
    let i =
      match t.proc with
      | E_uar | E_lowest | E_highest -> (
          match blue_offsets with
          | [] -> Rng.int rng deg
          | offs -> (
              match t.proc with
              | E_uar -> List.nth offs (Rng.int rng (List.length offs))
              | E_lowest -> List.hd offs
              | E_highest -> List.nth offs (List.length offs - 1)
              | _ -> assert false))
      | Srw_walk -> Rng.int rng deg
      | Rotor_walk ->
          let rot = t.rotors.(w) in
          let r = rot.(v) in
          rot.(v) <- (r + 1) mod deg;
          r
    in
    let e = Graph.neighbor_edge t.g v i in
    let dest = Graph.neighbor t.g v i in
    t.wsteps.(w) <- t.wsteps.(w) + 1;
    if blue then t.wblue.(w) <- t.wblue.(w) + 1
    else t.wred.(w) <- t.wred.(w) + 1;
    t.visited.(w).(e) <- true;
    t.pos.(w) <- dest;
    Visits.visit t.visits.(w) dest
end

module Rotor = struct
  type t = {
    g : Graph.t;
    offsets : int array;
    mutable pos : Graph.vertex;
    mutable steps : int;
  }

  let create ?(randomize_rotors = false) g rng ~start =
    if start < 0 || start >= Graph.n g then
      invalid_arg "Oracle.Rotor.create: start out of range";
    let offsets =
      Array.init (Graph.n g) (fun v ->
          let deg = Graph.degree g v in
          if randomize_rotors && deg > 0 then Rng.int rng deg else 0)
    in
    { g; offsets; pos = start; steps = 0 }

  let position t = t.pos
  let steps t = t.steps
  let rotor_offset t v = t.offsets.(v)

  let step t =
    let v = t.pos in
    let deg = Graph.degree t.g v in
    if deg = 0 then invalid_arg "Oracle.Rotor.step: isolated vertex";
    let i = t.offsets.(v) in
    t.offsets.(v) <- (i + 1) mod deg;
    t.steps <- t.steps + 1;
    t.pos <- Graph.neighbor t.g v i
end
