open Ewalk_graph

(* A region of at most [word_bits] slots starting at slot [p] is one
   little-endian 64-bit load at byte [p lsr 3], shifted right by
   [p land 7]: 7 + 56 bits fit in an OCaml int.  The buffer carries 8
   bytes of padding so that load never runs past the end. *)
let word_bits = 56

type t = {
  g : Graph.t;
  slots : int; (* 2m *)
  bits : Bytes.t;
  last_load : int; (* the highest byte offset a word load may start at *)
}

let create g =
  let slots = 2 * Graph.m g in
  let bytes = ((slots + 7) / 8) + 8 in
  { g; slots; bits = Bytes.make bytes '\000'; last_load = bytes - 8 }

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Live (clear) bits of the [width] slots from [p]; bit i is slot p+i.
   One comparison guards the unchecked load (a negative [p] shifts to a
   huge offset). *)
let[@inline] live_bits t p width =
  if p lsr 3 > t.last_load then invalid_arg "Arc_marks: slot out of range";
  let w = get64u t.bits (p lsr 3) in
  let w = if Sys.big_endian then swap64 w else w in
  lnot (Int64.to_int w) lsr (p land 7) land ((1 lsl width) - 1)

(* SWAR popcount of a word below 2^56. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x55_5555_5555_5555) in
  let x = (x land 0x33_3333_3333_3333) + ((x lsr 2) land 0x33_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f_0f0f_0f0f_0f0f in
  ((x * 0x01_0101_0101_0101) lsr 48) land 0xff

(* Index of the [k]-th set bit of [x] (which has more than [k]). *)
let rec select x k =
  if k = 0 then popcount ((x land (-x)) - 1)
  else select (x land (x - 1)) (k - 1)

let[@inline] chunk p stop = if stop - p < word_bits then stop - p else word_bits

let live t ~start ~stop =
  if stop - start <= word_bits then begin
    (* Red fast path: a fully visited region is one zero test. *)
    let w = live_bits t start (stop - start) in
    if w = 0 then 0 else popcount w
  end
  else begin
    let c = ref 0 and p = ref start in
    while !p < stop do
      let width = chunk !p stop in
      c := !c + popcount (live_bits t !p width);
      p := !p + width
    done;
    !c
  end

let rec nth_live t ~start ~stop k =
  if start >= stop || k < 0 then
    invalid_arg "Arc_marks.nth_live: no such live slot";
  let width = chunk start stop in
  let w = live_bits t start width in
  let c = if w = 0 then 0 else popcount w in
  if k < c then start + select w k
  else nth_live t ~start:(start + width) ~stop (k - c)

let first_live t ~start ~stop = nth_live t ~start ~stop 0
let last_live t ~start ~stop = nth_live t ~start ~stop (live t ~start ~stop - 1)

let marked t p =
  Char.code (Bytes.unsafe_get t.bits (p lsr 3)) land (1 lsl (p land 7)) <> 0

let set_mark t p =
  let j = p lsr 3 in
  Bytes.unsafe_set t.bits j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits j) lor (1 lsl (p land 7))))

let incident_edges t v =
  let out = ref [] in
  for p = Graph.adj_stop t.g v - 1 downto Graph.adj_start t.g v do
    if not (marked t p) then begin
      (* A self-loop owns two slots of [v]'s region: list it at its first. *)
      if Graph.slot_vertex t.g p <> v || Graph.slot_twin t.g p > p then
        out := Graph.slot_edge t.g p :: !out
    end
  done;
  Array.of_list !out

let slot_of_edge t v e =
  let stop = Graph.adj_stop t.g v in
  let rec go p =
    if p >= stop then raise Not_found
    else if (not (marked t p)) && Graph.slot_edge t.g p = e then p
    else go (p + 1)
  in
  go (Graph.adj_start t.g v)

(* The twin load checks [p]'s range before either mark is set. *)
let retire_slot t p =
  let q = Graph.slot_twin t.g p in
  set_mark t p;
  set_mark t q

let slot_retired t p =
  if p < 0 || p >= t.slots then invalid_arg "Arc_marks: slot out of range";
  marked t p

let edge_retired t e = marked t (Graph.edge_slot t.g e 0)

let bit_of bytes i = (Char.code (Bytes.get bytes (i lsr 3)) lsr (i land 7)) land 1

(* The bulk conversions pack their output a byte at a time and never
   branch on a bit: mid-walk about half the edges are retired, in no
   pattern a branch predictor could follow.  Each edge's bit is its
   arc-0 mark, read in edge order. *)
let edge_set t =
  let m = Graph.m t.g in
  let b = Bitset.create m in
  let out = Bitset.unsafe_bytes b and byte = ref 0 in
  for e = 0 to m - 1 do
    byte := !byte lor (bit_of t.bits (Graph.edge_slot t.g e 0) lsl (e land 7));
    if e land 7 = 7 || e = m - 1 then begin
      Bytes.set out (e lsr 3) (Char.unsafe_chr !byte);
      byte := 0
    end
  done;
  b

(* One pass in slot order, over the marks and the graph's edge ids
   together: each slot's mark is its edge's bit in the set. *)
let of_edge_set g b =
  if Bitset.length b <> Graph.m g then
    invalid_arg "Arc_marks.of_edge_set: set length does not match the graph";
  let t = create g and set = Bitset.unsafe_bytes b and byte = ref 0 in
  for p = 0 to t.slots - 1 do
    byte := !byte lor (bit_of set (Graph.slot_edge g p) lsl (p land 7));
    if p land 7 = 7 || p = t.slots - 1 then begin
      Bytes.set t.bits (p lsr 3) (Char.unsafe_chr !byte);
      byte := 0
    end
  done;
  t
