(* The distance and component searches run on one int-array queue: a
   vertex is queued once, when first reached, so [n] cells hold every
   queue, in the order a [Queue] would hold it. *)

let bfs_distances_bounded g s radius =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Array.make n 0 in
  dist.(s) <- 0;
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let d = dist.(v) in
    if d < radius then
      for p = Graph.adj_start g v to Graph.adj_stop g v - 1 do
        let w = Graph.slot_vertex g p in
        if dist.(w) < 0 then begin
          dist.(w) <- d + 1;
          queue.(!tail) <- w;
          incr tail
        end
      done
  done;
  dist

let bfs_distances g s = bfs_distances_bounded g s max_int

let distance g u v = (bfs_distances g u).(v)

let connected_components g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let next = ref 0 in
  let queue = Array.make n 0 in
  let tail = ref 0 in
  for s = 0 to n - 1 do
    if label.(s) < 0 then begin
      let c = !next in
      incr next;
      label.(s) <- c;
      let head = ref !tail in
      queue.(!tail) <- s;
      incr tail;
      while !head < !tail do
        let v = queue.(!head) in
        incr head;
        for p = Graph.adj_start g v to Graph.adj_stop g v - 1 do
          let w = Graph.slot_vertex g p in
          if label.(w) < 0 then begin
            label.(w) <- c;
            queue.(!tail) <- w;
            incr tail
          end
        done
      done
    end
  done;
  (label, !next)

let is_connected g =
  Graph.n g <= 1 ||
  (let _, k = connected_components g in
   k = 1)

let component_of g v =
  let label, _ = connected_components g in
  let c = label.(v) in
  let acc = ref [] in
  for u = Graph.n g - 1 downto 0 do
    if label.(u) = c then acc := u :: !acc
  done;
  !acc

let largest_component_vertices g =
  let label, k = connected_components g in
  if k = 0 then []
  else begin
    let size = Array.make k 0 in
    Array.iter (fun c -> size.(c) <- size.(c) + 1) label;
    let best = ref 0 in
    for c = 1 to k - 1 do
      if size.(c) > size.(!best) then best := c
    done;
    let acc = ref [] in
    for u = Graph.n g - 1 downto 0 do
      if label.(u) = !best then acc := u :: !acc
    done;
    !acc
  end

let eccentricity g v =
  let dist = bfs_distances g v in
  Array.fold_left (fun acc d -> if d > acc then d else acc) 0 dist

let diameter g =
  if Graph.n g = 0 then invalid_arg "Traversal.diameter: empty graph";
  if not (is_connected g) then
    invalid_arg "Traversal.diameter: disconnected graph";
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    let e = eccentricity g v in
    if e > !best then best := e
  done;
  !best

let farthest_from g s =
  let dist = bfs_distances g s in
  let best = ref s in
  for v = 0 to Graph.n g - 1 do
    if dist.(v) > dist.(!best) then best := v
  done;
  (!best, dist.(!best))

let diameter_lower_bound g =
  if Graph.n g = 0 then 0
  else begin
    let far, _ = farthest_from g 0 in
    let _, d = farthest_from g far in
    d
  end

let is_bipartite g =
  let n = Graph.n g in
  let colour = Array.make n (-1) in
  let queue = Queue.create () in
  let ok = ref true in
  for s = 0 to n - 1 do
    if colour.(s) < 0 then begin
      colour.(s) <- 0;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let v = Queue.take queue in
        Graph.iter_neighbors g v (fun w _ ->
            if colour.(w) < 0 then begin
              colour.(w) <- 1 - colour.(v);
              Queue.add w queue
            end
            else if colour.(w) = colour.(v) then ok := false)
      done
    end
  done;
  !ok

let dfs_preorder g s =
  let n = Graph.n g in
  let seen = Array.make n false in
  let stack = Stack.create () in
  let order = ref [] in
  Stack.push s stack;
  while not (Stack.is_empty stack) do
    let v = Stack.pop stack in
    if not seen.(v) then begin
      seen.(v) <- true;
      order := v :: !order;
      (* Push in reverse slot order so slot 0 is explored first. *)
      for i = Graph.degree g v - 1 downto 0 do
        let w = Graph.neighbor g v i in
        if not seen.(w) then Stack.push w stack
      done
    end
  done;
  List.rev !order

let spanning_forest g =
  let n = Graph.n g in
  let seen = Array.make n false in
  let queue = Queue.create () in
  let forest = ref [] in
  for s = 0 to n - 1 do
    if not seen.(s) then begin
      seen.(s) <- true;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let v = Queue.take queue in
        Graph.iter_neighbors g v (fun w e ->
            if not seen.(w) then begin
              seen.(w) <- true;
              forest := e :: !forest;
              Queue.add w queue
            end)
      done
    end
  done;
  List.rev !forest
