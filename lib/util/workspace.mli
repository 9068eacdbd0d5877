(** Reusable shortest-path scratch space.

    Every Dijkstra-style search in the repository needs the same transient
    state: a distance array, a predecessor array and an indexed heap, all
    sized by the state count of the search ([n] for plain graphs, [nW] or
    [nWK] for layered wavelength graphs).  Allocating them per request is
    the dominant constant factor of a long-lived router, so a workspace
    owns them once and rents them out per search.

    Clearing is O(1): entries are stamped with a generation counter, and
    {!reset} simply bumps the generation — a reused [float array] never
    needs a full [Array.fill] on the hot path.  An entry whose stamp does
    not match the current generation reads as unset ([infinity] distance,
    [-1] predecessor).

    A workspace additionally carries an independent generation-stamped
    integer set ({!mark_reset} / {!mark} / {!marked}), used to test
    link-subset membership (the induced-subgraph refinements of the
    Section 3.3 pipeline) without building a hash table per request.

    {b Not domain-safe.}  A workspace must only ever be used by one domain
    at a time; give each worker of a parallel batch its own workspace (see
    {!Rr_core.Parallel} users).  Within a domain, searches may share one
    workspace only sequentially: starting a new search invalidates the
    previous search's state. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh workspace.  [capacity] pre-sizes the arrays (they grow on demand
    otherwise). *)

val reset : t -> int -> unit
(** [reset ws n] begins a new search over states [0 .. n-1]: grows the
    arrays if needed and logically clears distances and predecessors in
    O(1).  Raises [Invalid_argument] if [n < 0]. *)

val dist : t -> int -> float
(** Distance of a state, or [infinity] if unset since the last {!reset}. *)

val pred : t -> int -> int
(** Predecessor code of a state, or [-1] if unset. *)

val is_set : t -> int -> bool

val set : t -> int -> float -> int -> unit
(** [set ws state d p] records distance [d] and predecessor code [p]. *)

val generation : t -> int
(** Current generation, bumped by every {!reset}.  Search results that
    alias the workspace record it to detect staleness. *)

val heap : t -> Indexed_heap.t
(** The workspace's heap, emptied.  It orders keys by this workspace's
    distance array ({!dists}), so a search writes a state's distance and
    then calls {!Indexed_heap.update}; its capacity covers the states of
    the last {!reset}.  Valid until the next {!reset} that grows the
    arrays. *)

(** {1 Kernel access}

    Allocation-free search loops ([Dijkstra], [Suurballe], [Layered])
    read and write the per-state arrays directly: a float passed to or
    returned from a function in another module is boxed unless that call
    is inlined.  Entry [i] of {!dists}/{!preds} is meaningful only when
    [(stamps t).(i) = generation t]; a kernel that sets it writes all
    three arrays, as {!set} does.  The arrays are replaced when {!reset}
    grows them: fetch them after the reset. *)

val dists : t -> float array
val preds : t -> int array
val stamps : t -> int array

val floats : t -> int -> float array
(** [floats ws n]: a float scratch array of length at least [n], owned by
    the workspace and untouched by {!reset}, {!heap} and the mark set
    (e.g. Suurballe's node potentials).  Contents are unspecified until
    written; growing it (a larger [n]) discards them. *)

val ints : t -> int -> int array
(** Like {!floats}: a per-node int scratch array. *)

val ids : t -> int -> int array
(** A second int scratch array, for per-edge scratch alongside {!ints}. *)

val mark_reset : t -> int -> unit
(** Begin a new marked set over ids [0 .. n-1] (O(1) clear).  Independent
    of {!reset}: marks survive distance resets and vice versa. *)

val mark : t -> int -> unit

val unmark : t -> int -> unit
(** Remove an id from the current marked set. *)

val marked : t -> int -> bool
