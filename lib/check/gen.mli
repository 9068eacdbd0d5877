(** Scenario sampling for the differential fuzzer.

    All sampling is driven by an explicit {!Rr_util.Rng.t}, so a (seed,
    trial) pair pins the instance exactly.  Distributions deliberately mix
    benign and adversarial territory: reference topologies next to random
    ones, full next to range-limited next to absent converters, idle next to
    heavily preloaded wavelength pools, and conversion costs that sometimes
    violate Theorem 2's premise (oracle checks re-derive the premise and
    gate themselves). *)

val instance :
  ?policies:Robust_routing.Router.policy list ->
  ?quantised:bool ->
  Rr_util.Rng.t ->
  max_n:int ->
  Instance.t
(** General-purpose scenario: 3 .. [max_n] nodes, 1 .. 4 wavelengths,
    possibly sparse wavelength sets and preload (baked residually).
    [policies] is the pool the per-trial policy is drawn from (default:
    every protected policy plus [Unprotected], excluding [Exact]).
    [quantised] (default [true]) rounds link weights and converter costs
    to positive multiples of 0.25, whose sums are exact in any order;
    [false] keeps them as drawn, so a check can see a summation-order
    change in the last place.  The random draws are the same either
    way. *)

val small_instance : Rr_util.Rng.t -> max_n:int -> Instance.t
(** Oracle-sized scenario: at most [min max_n 8] nodes and denser wavelength
    availability, so {!Robust_routing.Exact} stays affordable.  Policy is
    pinned to [Cost_approx]. *)

val tiny_instance : Rr_util.Rng.t -> Instance.t
(** ILP-sized scenario: at most 6 nodes, at most 3 wavelengths, few links. *)

val requests : Rr_util.Rng.t -> n_nodes:int -> int -> Robust_routing.Types.request list
(** [requests rng ~n_nodes k] draws [k] random valid requests. *)
