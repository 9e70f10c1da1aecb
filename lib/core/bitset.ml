(* Bytes-backed packed bit array.  One bit per index, LSB-first within
   each byte — the layout of each coverage's vertex set and of the
   snapshot codec. *)

type t = { len : int; bits : Bytes.t }

(* Per-byte popcount table: popcount is only ever called on recount /
   restore paths, never on the step path, so a 256-entry table is plenty. *)
let popcount_byte =
  Array.init 256 (fun b ->
      let rec go b acc = if b = 0 then acc else go (b lsr 1) (acc + (b land 1)) in
      go b 0)

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative length";
  { len; bits = Bytes.make ((len + 7) / 8) '\000' }

let length t = t.len

let check_index name t i =
  if i < 0 || i >= t.len then invalid_arg (name ^ ": index out of range")

let get t i =
  check_index "Bitset.get" t i;
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check_index "Bitset.set" t i;
  let j = i lsr 3 in
  Bytes.unsafe_set t.bits j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits j) lor (1 lsl (i land 7))))

let clear t i =
  check_index "Bitset.clear" t i;
  let j = i lsr 3 in
  Bytes.unsafe_set t.bits j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits j) land lnot (1 lsl (i land 7))))

let popcount t =
  let acc = ref 0 in
  for j = 0 to Bytes.length t.bits - 1 do
    acc := !acc + popcount_byte.(Char.code (Bytes.unsafe_get t.bits j))
  done;
  !acc

let copy t = { len = t.len; bits = Bytes.copy t.bits }
let equal a b = a.len = b.len && Bytes.equal a.bits b.bits

let fill_all t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\xff';
  (* Keep the padding bits of the last byte zero so popcount and equal
     stay exact. *)
  let tail = t.len land 7 in
  if tail <> 0 && Bytes.length t.bits > 0 then
    Bytes.set t.bits
      (Bytes.length t.bits - 1)
      (Char.chr ((1 lsl tail) - 1))

let reset t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

(* Raw byte view for the step path. *)
let unsafe_bytes t = t.bits

let of_bytes ~len bits =
  if len < 0 || Bytes.length bits <> (len + 7) / 8 then
    invalid_arg "Bitset.of_bytes: byte length does not match";
  let tail = len land 7 in
  if
    tail <> 0
    && Bytes.length bits > 0
    && Char.code (Bytes.get bits (Bytes.length bits - 1)) lsr tail <> 0
  then invalid_arg "Bitset.of_bytes: padding bits set";
  { len; bits }

(* Hex serialization, low byte first, two digits per byte — the snapshot
   codec's wire format for packed sets. *)

let to_hex t =
  let buf = Buffer.create (2 * Bytes.length t.bits) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) t.bits;
  Buffer.contents buf

let of_hex ~len s =
  let bytes = (len + 7) / 8 in
  if String.length s <> 2 * bytes then
    invalid_arg "Bitset.of_hex: hex length does not match";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bitset.of_hex: not a hex digit"
  in
  let bits = Bytes.make bytes '\000' in
  for j = 0 to bytes - 1 do
    Bytes.set bits j
      (Char.chr ((digit s.[2 * j] lsl 4) lor digit s.[(2 * j) + 1]))
  done;
  of_bytes ~len bits
