(** Packed bit arrays.

    One bit per index over [Bytes.t], LSB-first within each byte.  Used
    for the kernel engine's per-walker edge and vertex sets in their
    snapshot form ({!Arc_marks.edge_set}).  [get]/[set] are O(1);
    {!popcount} is O(len/8) and only appears on recount and restore
    paths, never on the step path. *)

type t

val create : int -> t
(** [create len]: all bits clear.  @raise Invalid_argument on [len < 0]. *)

val length : t -> int

val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit
(** @raise Invalid_argument when the index is out of range. *)

val popcount : t -> int
(** Number of set bits (table-driven, byte at a time). *)

val copy : t -> t

val equal : t -> t -> bool
(** Same length and same bits. *)

val fill_all : t -> unit
(** Set every bit (padding bits in the last byte stay clear). *)

val reset : t -> unit
(** Clear every bit. *)

val unsafe_bytes : t -> Bytes.t
(** The backing bytes, unpadded length [ceil (length/8)].  Shared, not a
    copy — the kernel engine's step loop indexes its vertex sets
    directly. *)

val of_bytes : len:int -> Bytes.t -> t
(** Adopt (share) a backing buffer.  @raise Invalid_argument if the byte
    length does not match [ceil (len/8)] or a padding bit is set. *)

val to_hex : t -> string
(** Low byte first, two lowercase digits per byte — the snapshot wire
    format. *)

val of_hex : len:int -> string -> t
(** Inverse of {!to_hex}.  @raise Invalid_argument on length mismatch,
    a non-hex digit, or a set padding bit. *)
