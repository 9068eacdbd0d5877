(** Indexed binary min-heap over the integer keys [0 .. capacity-1].

    This is the priority queue used by every Dijkstra-style routine in the
    repository: each key (a graph node id) appears at most once, and
    [decrease] adjusts its priority in O(log n).  Keys are dense small
    integers so positions are tracked in a flat array.  A key's priority
    is read from a key-indexed [float array] when the key is queued or
    updated; that array may be the caller's own (a search's distance
    array, see {!create}), so a search loop updates a key with {!update}
    and removes the minimum with {!pop} without passing a float across a
    call boundary: no operation allocates. *)

type t

val create : ?prio:float array -> int -> t
(** [create capacity] makes an empty heap accepting keys in
    [\[0, capacity)].  With [~prio] the heap orders keys by that
    key-indexed array (length at least [capacity]) instead of a private
    one: {!insert}/{!decrease} write into it, and the caller may lower
    [prio.(k)] itself and then call {!update}.  Raises [Invalid_argument]
    if [prio] is shorter than [capacity]. *)

val is_empty : t -> bool
val cardinal : t -> int

val mem : t -> int -> bool
(** Whether the key is currently queued. *)

val priority : t -> int -> float
(** Current priority of a queued key. Raises [Not_found] otherwise. *)

val insert : t -> int -> float -> unit
(** [insert h k p] queues key [k] at priority [p].
    Raises [Invalid_argument] if [k] is already queued or out of range. *)

val decrease : t -> int -> float -> unit
(** [decrease h k p] lowers [k]'s priority to [p].
    Raises [Invalid_argument] if [k] is not queued or [p] is larger than the
    current priority. *)

val insert_or_decrease : t -> int -> float -> unit
(** Insert the key, or decrease its priority if the new one is smaller;
    no-op when the key is queued with a smaller-or-equal priority. *)

val update : t -> int -> unit
(** [update h k] after the caller lowered [k]'s entry in the [~prio]
    array: queues [k], or restores heap order if it is already queued.
    Equivalent to [insert_or_decrease h k prio.(k)] when the new priority
    is strictly smaller.  Raising the entry of a queued key breaks the
    heap.  Raises [Invalid_argument] if [k] is out of range. *)

val pop : t -> int
(** Remove the minimum-priority key and return it, or [-1] when empty.
    Its priority is still readable in the [~prio] array. *)

val clear : t -> unit
