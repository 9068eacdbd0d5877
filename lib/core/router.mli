(** Unified routing facade: one entry point per policy, plus admission
    (route + validate + allocate) for the simulator. *)

type policy =
  | Cost_approx      (** Section 3.3 auxiliary-graph approximation *)
  | Load_aware       (** Section 4.1 MinCog (load only) *)
  | Load_cost        (** Section 4.2 two-phase (load then cost) *)
  | Two_step         (** remove-and-reroute baseline *)
  | First_fit        (** hop-count + first-fit RWA baseline *)
  | Most_used        (** hop-count + packing wavelength assignment *)
  | Least_used       (** hop-count + spreading wavelength assignment *)
  | Unprotected      (** single path, passive restoration *)
  | Node_protect     (** internally node-disjoint pair (extension) *)
  | Exact            (** combinatorial optimum (small instances only) *)

val all_policies : policy list
val policy_name : policy -> string
val policy_of_string : string -> policy option

val route :
  ?aux_cache:Rr_wdm.Aux_cache.t ->
  ?workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  policy ->
  source:int ->
  target:int ->
  Types.solution option
(** Compute a robust route on the residual network; no allocation.
    [workspace] supplies reusable scratch arrays to every search the policy
    runs (ignored by [Exact]); see {!Rr_util.Workspace}.  [aux_cache] is an
    incremental auxiliary-graph engine bound to [net] (see
    {!Rr_wdm.Aux_cache}): the auxiliary-graph-based policies ([Cost_approx],
    [Load_aware], [Load_cost]) then sync it and route over its views —
    byte-identical results, no per-request [G'] rebuild; other policies
    ignore it.  [obs] is threaded through the policy pipeline, recording
    per-stage spans ([stage.*]), kernel spans and counters ([kernel.*],
    [heap.*], [conv.expansions], [workspace.*]) and blocking causes
    ([route.block.*]). *)

val admit :
  ?aux_cache:Rr_wdm.Aux_cache.t ->
  ?workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  ?req:int ->
  Rr_wdm.Network.t ->
  policy ->
  source:int ->
  target:int ->
  Types.solution option
(** {!route}, then validate against the residual network and allocate all
    wavelengths of both paths ([stage.validate] / [stage.allocate] spans).
    An admitted request increments [admit.ok]; a refusal increments
    [admit.blocked].  A solution the validator rejects — an algorithm
    defect, not an operational condition — is additionally counted under
    [admit.reject.validator] and refused rather than raised, so long
    simulations survive and the defect shows up in exported metrics (the
    shipped policies keep this counter at zero).

    [req] is the request id for request-scoped observability: the whole
    admission runs inside [Obs.set_request]/[Obs.clear_request], so every
    stage span is attributable (and subject to the context's sampling
    rate), the admission outcome lands in the flight recorder as
    [journal.admit.ok] (a=source, b=target) or [journal.admit.blocked]
    (a = blocking cause: 1 no_disjoint_pair, 2 no_wavelength, 3 no_route,
    4 validator reject), and the end-to-end latency feeds the [req.admit]
    histogram plus the sliding window via [Obs.stop_admit].  Without
    [req] the same probes fire with request id -1. *)
