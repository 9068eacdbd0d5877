(** The WDM optical network [G = (V, E, Λ)] of Section 2.

    A directed multigraph whose links each carry a wavelength set [Λ(e)]
    with per-(link, wavelength) traversal weights [w(e, λ)], and whose nodes
    each host a wavelength converter ({!Conversion.spec}).  The structure
    additionally tracks which wavelengths are currently *in use* by
    established routes, giving the residual network
    [G(V, E, Λ_avail)] and the link/network load of Eq. (2) for free.

    Structure (graph, wavelength sets, weights, converters) is immutable
    after {!create}; only usage is mutable, via {!allocate} / {!release}. *)

type t

type link_spec = {
  ls_src : int;
  ls_dst : int;
  ls_lambdas : int list;          (** wavelength ids present on the link *)
  ls_weight : int -> float;       (** traversal weight per wavelength *)
}

val create :
  n_nodes:int ->
  n_wavelengths:int ->
  links:link_spec list ->
  converters:(int -> Conversion.spec) ->
  t
(** Raises [Invalid_argument] on out-of-range endpoints/wavelengths, empty
    wavelength sets, negative weights, or an invalid converter table. *)

(** {1 Structure} *)

val graph : t -> Rr_graph.Digraph.t
(** The underlying digraph; edge ids coincide with link ids. *)

val n_nodes : t -> int
val n_links : t -> int
val n_wavelengths : t -> int
(** [W], the size of the network-wide wavelength set [Λ]. *)

val link_src : t -> int -> int
val link_dst : t -> int -> int
val find_link : t -> int -> int -> int option
(** First link [u -> v], if any. *)

val lambdas : t -> int -> Rr_util.Bitset.t
(** [Λ(e)]. *)

val weight : t -> int -> int -> float
(** [weight t e λ = w(e, λ)].  Raises [Invalid_argument] if [λ ∉ Λ(e)]. *)

val weights : t -> int -> float array
(** [weights t e] is link [e]'s row of [w(e, λ)] indexed by wavelength
    ([nan] where [λ ∉ Λ(e)]), shared, not copied: must not be mutated.
    For allocation-free kernels, which read a weight without a call that
    boxes it. *)

val converter : t -> int -> Conversion.spec
val conv_allowed : t -> int -> int -> int -> bool
val conv_cost : t -> int -> int -> int -> float option
(** [conv_cost t v λp λq = c_v(λp, λq)] when allowed. *)

val conv_successors : t -> int -> int -> int array * float array
(** [conv_successors t v λp]: the allowed conversion targets [λq ≠ λp] at
    node [v], ascending, with their costs, as parallel arrays.  Precomputed
    at {!create}; shared by {!copy}.  The arrays are owned by the network —
    callers must not mutate them. *)

(** {1 Usage, residual network, load} *)

val used : t -> int -> Rr_util.Bitset.t
val available : t -> int -> Rr_util.Bitset.t
(** [Λ_avail(e) = Λ(e) \ used(e)]. *)

val is_available : t -> int -> int -> bool
val has_available : t -> int -> bool
(** Link appears in the residual network iff some wavelength is free. *)

val allocate : t -> int -> int -> unit
(** [allocate t e λ] marks λ in use on link [e].
    Raises [Invalid_argument] if not currently available. *)

val release : t -> int -> int -> unit
(** Inverse of {!allocate}; raises if not in use. *)

val link_load : t -> int -> float
(** [ρ(e) = U(e) / N(e)] (Eq. 2). *)

val network_load : t -> float
(** [ρ = max_e ρ(e)]. *)

val total_in_use : t -> int
(** Σ_e U(e) — conservation checks in the simulator tests. *)

val copy : t -> t
(** Deep copy (usage state included) for what-if evaluation. *)

val reset_usage : t -> unit

(** {1 Failure modelling} *)

val fail_link : t -> int -> unit
(** Marks a link failed: it leaves the residual network entirely and
    {!allocate} on it raises.  Wavelength bookkeeping is preserved so
    {!repair_link} restores the previous state. *)

val repair_link : t -> int -> unit
val is_failed : t -> int -> bool

val pp : Format.formatter -> t -> unit
