(** Fixed-width bitsets.

    Wavelength sets [Λ(e)] and availability masks are bitsets indexed by
    wavelength id.  Widths are small (tens of wavelengths) but unbounded in
    principle, so the representation is an immutable [int array] of 62-bit
    words.  Updates ({!add}, {!remove}, {!union}, {!inter}, {!diff})
    allocate fresh sets, which keeps residual-network snapshots cheap to
    share; queries ({!mem}, {!cardinal}, {!subset}, {!equal}, the word
    accessors) allocate nothing.  {!iter} and {!fold} jump from set bit to
    set bit, word by word. *)

type t

val create : int -> t
(** [create width] is the empty set over universe [\[0, width)]. *)

val width : t -> int
val is_empty : t -> bool
val cardinal : t -> int

val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t

val full : int -> t
(** [full width] contains every element of the universe. *)

val of_list : int -> int list -> t
val to_list : t -> int list
val elements : t -> int list
(** Alias of [to_list]. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val subset : t -> t -> bool
val equal : t -> t -> bool

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val choose : t -> int option
(** Smallest element, if any. *)

(** {1 Word-level access}

    For allocation-free kernels that combine several sets without
    materialising the result (e.g. [Λ(e) \ used(e)] one word at a time).
    Element [i] is bit [i mod bits_per_word] of word [i / bits_per_word];
    bits at or above the width are always clear. *)

val bits_per_word : int

val nwords : t -> int
(** Number of words; equal for sets of equal width. *)

val word : t -> int -> int
(** [word t i] is the [i]-th word (bits [0 .. bits_per_word-1]). *)

val popcount : int -> int
(** Number of set bits of a word (constant time). *)

val lowest_bit : int -> int
(** Index of the lowest set bit of a non-zero word (constant time); with
    [x land (x - 1)] it walks a word's set bits in ascending order. *)

val pp : Format.formatter -> t -> unit
