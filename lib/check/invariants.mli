(** The property suite a fuzzing trial runs against an instance.

    Every check takes an {!Instance.t} and returns [None] (holds, or not
    applicable) or [Some message] (violated).  All checks are deterministic
    functions of the instance alone — the shrinker relies on this to replay
    a property while it edits the instance. *)

val check_routed_pair : Instance.t -> string option
(** Route the instance's request under its policy and verify the solution:
    {!Robust_routing.Types.validate} (chaining, residual availability,
    mutual edge-disjointness), {!Rr_wdm.Semilightpath.link_simple} on both
    paths, a backup present for every protected policy, switch-setting /
    wavelength consistency of every conversion, Eq. (1) cost re-accounting
    against an independent recomputation, and Eq. (2) load re-accounting
    through an allocate / release cycle. *)

val check_oracles : Instance.t -> string option
(** Differential check against {!Robust_routing.Exact} on small instances
    (n <= 8): Theorem 2's bound [approx <= 2 x optimal] gated on the
    conversion-cost <= adjacent-link-cost premise, optimality sanity
    ([optimal <= approx] whenever the approximation's pair is node-simple),
    and feasibility agreement under full conversion.  Skips (returns
    [None]) when the enumeration budget is exceeded. *)

val check_ilp : Instance.t -> string option
(** Second opinion: {!Robust_routing.Ilp_exact} agrees with
    {!Robust_routing.Exact} on feasibility and optimal cost (tiny
    instances; skips when the model is too large or the node budget is
    exhausted). *)

val check_weight_scale : Instance.t -> string option
(** Metamorphic: doubling every link weight and conversion cost leaves the
    routed hops identical and exactly doubles the cost (power-of-two
    scaling is float-exact, so the search's comparisons are unchanged). *)

val check_permutation : Instance.t -> string option
(** Metamorphic: {!Robust_routing.Batch.arrange} returns a permutation of
    its input, [Fifo] preserves order, and whenever two input orders
    arrange identically under [Shortest_first] the full
    [Batch.route_parallel] results coincide. *)

val check_obs_jobs : Instance.t -> string option
(** Metamorphic: enabling observability does not change routing results,
    and [Batch.route_parallel] is identical for [jobs] 1 / 2 / 4 and equal
    to the sequential two-phase [Batch.route]. *)

val check_io_roundtrip : Instance.t -> string option
(** [network -> print -> parse -> of_network] is the identity on instances
    — the guarantee that makes every shrunken repro loadable. *)

val check_aux_cache : Instance.t -> string option
(** Differential: an incremental {!Rr_wdm.Aux_cache} driven through an
    interleaved admit/release/fail/repair sequence stays byte-identical to
    a fresh [Aux.gprime] after every operation — same arcs and weight bits,
    same Suurballe pair, same end-to-end routing decision. *)

(** {1 Building blocks shared with the corpus runner} *)

val premise_theorem2 : Rr_wdm.Network.t -> bool
(** Every node's worst-case conversion cost is bounded by the cheapest
    incident link traversal (the Theorem 2 precondition). *)

val node_simple : Rr_wdm.Network.t -> Rr_wdm.Semilightpath.t -> bool

val check_batch_parallel : Instance.t -> string option
(** Differential: [Batch.route_parallel] over a persistent pool, replaying
    three interleaved admit batches (with releases and a failure-state
    flip between batches, so pool-resident shards must resync real
    deltas), is byte-identical across [jobs] 1 / 2 / 4 / 8 — same outcome
    lists, same merged obs counters and span counts (host-dependent
    [parallel.*] excluded), same final per-link residual and failure
    state.  Pools are created with [~oversubscribe:true] so multi-domain
    scheduling is exercised even on small machines. *)

val check_serve : Instance.t -> string option
(** The rr_serve pure handler is a faithful facade over the library: a
    randomized admit/release/fail/repair/query script produces responses
    byte-identical (modulo error-message text) to direct [Router.admit] /
    [Network] calls on an independent copy of the network — the server
    path adds an aux cache, a workspace pool and id bookkeeping, none of
    which may change results.  Every step also pins the snapshot text
    against the reference state, the run is restarted mid-script from
    its own snapshot (restore must resume byte-identically), and a final
    [Core.handle_round] round checks bounded-queue semantics: FIFO
    responses aligned with request positions, overflow answered [Busy]. *)

val check_survive : Instance.t -> string option
(** Survivability: a scripted failure/repair burst sequence over a mixed
    population of fully-protected, partially-protected (segment detours)
    and unprotected connections, with {!Robust_routing.Restore} run after
    every burst in ascending connection-id order.  After every step, every
    surviving working path must be link-simple, avoid every failed link
    and re-price exactly (Eq. 1); [Full] backups must stay edge-disjoint
    from their working paths; and the network's whole allocation state
    (Eq. 2) must equal a from-scratch re-allocation of the surviving
    working and protection paths onto a fresh copy of the instance
    network — restoration may never leak or double-book a wavelength. *)
