(** Cost vectors.

    A cost vector of length [m] holds the per-color selection costs of one
    PBQP vertex: entry [i] is the cost of assigning color [i] (a physical
    register) to the vertex.  Vectors are mutable so that graph reductions
    and RL transitions can fold edge costs into them in place. *)

type t

val make : int -> Cost.t -> t
(** [make m c] is an [m]-vector filled with [c]. *)

val init : int -> (int -> Cost.t) -> t

val zero : int -> t

val of_array : float array -> t
(** Takes a copy. @raise Invalid_argument if any entry is NaN. *)

val of_list : float list -> t

val to_array : t -> float array
(** Returns a copy. *)

val copy : t -> t

val length : t -> int

val get : t -> int -> Cost.t

val set : t -> int -> Cost.t -> unit

val blit_to_floatarray : t -> floatarray -> int -> unit
(** [blit_to_floatarray v dst pos] copies [v]'s entries into
    [dst.(pos) ..], bit for bit and without allocating — for hot loops
    that would otherwise box every entry read through {!get}.
    @raise Invalid_argument if [dst] is too short. *)

val add : t -> t -> t
(** Pointwise extended-real sum; fresh vector.
    @raise Invalid_argument on length mismatch. *)

val add_into : t -> t -> unit
(** [add_into dst src] accumulates [src] into [dst] in place. *)

val min_value : t -> Cost.t
(** Smallest entry ([inf] if the vector is empty or all-infinite). *)

val argmin : t -> int
(** Index of the smallest entry (smallest index on ties).
    @raise Invalid_argument on the empty vector. *)

val liberty : t -> int
(** Number of finite entries — the number of colors still admissible for
    this vertex (the "liberty" of Kim et al.). *)

val finite_indices : t -> int list
(** Indices of finite entries, increasing. *)

val is_all_inf : t -> bool
(** True iff no color is admissible: a dead-end vertex. *)

val equal : t -> t -> bool

val approx_equal : ?eps:float -> t -> t -> bool

val fold : (int -> Cost.t -> 'a -> 'a) -> t -> 'a -> 'a

val iteri : (int -> Cost.t -> unit) -> t -> unit

val map : (Cost.t -> Cost.t) -> t -> t

val pp : Format.formatter -> t -> unit
