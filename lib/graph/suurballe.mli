(** Suurballe's algorithm: a pair of edge-disjoint paths of minimum total
    weight (Suurballe 1974, in the two-Dijkstra formulation of
    Suurballe–Tarjan).

    This is the optimisation engine behind all three auxiliary-graph
    constructions in the paper: [Find_Two_Paths] (Section 3.3.2) is exactly
    {!edge_disjoint_pair} on [G'], and Sections 4.1/4.2 run it on [G_c] /
    [G_rc].  Weights must be non-negative.

    The returned paths are simple and mutually edge-disjoint; their order is
    unspecified.  The reported cost is the exact sum of the original weights
    over both paths.  Weights are a [float array] indexed by edge id.

    {!edge_disjoint_pair} builds no graph: its second pass walks the
    residual of the frozen input in place — pass-1 distances kept as
    potentials in the workspace's {!Rr_util.Workspace.floats}, the first
    path in its mark set, and at each node [g]'s out-edges (ascending id)
    merged with the reversed first-path edge entering it at that edge's
    id.  That is the arc order of the residual graph built edge by edge,
    and every relaxation uses the same float operations, so the heap sees
    the same operation sequence and the pair is the one that graph's
    search would return (a test keeps the graph-building implementation
    as a reference and compares path pairs, ties included).  With a
    workspace it allocates only the returned paths.
    {!edge_disjoint_pair_paper} does build the transformed graph (negated
    reversed arcs, Bellman–Ford).  Both cancel opposite arcs and decompose
    the union into two paths with one shared decomposition (scratch
    arrays, no hash tables), so equal arc sets yield equal path pairs.

    All entry points accept an optional {!Rr_util.Workspace.t} and use its
    search arrays, scratch arrays and mark set (a mark set the caller
    keeps across the call is lost), so a long-lived caller reuses one set
    of scratch state.  [?obs] records a [kernel.suurballe] span around
    {!edge_disjoint_pair} plus a [kernel.dijkstra] span and heap counters
    per pass.

    All entry points raise [Invalid_argument] when [source = target], and
    on the internal invariant violation of a flow decomposition that gets
    stuck (which a correct caller never triggers). *)

val edge_disjoint_pair :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int ->
  ((int list * int list) * float) option
(** [None] when no two edge-disjoint paths exist. *)

val edge_disjoint_pair_paper :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int ->
  ((int list * int list) * float) option
(** The paper's [Find_Two_Paths] loop taken literally: two rounds of
    shortest-path search where the previous round's path edges are
    replaced by reversed arcs of *negated* weight (so Bellman–Ford is
    required), then opposite pairs cancel.  Mathematically equivalent to
    {!edge_disjoint_pair} — property-tested to agree — but a factor
    [n/log n] slower; kept for fidelity and as an independent
    cross-check. *)

val node_disjoint_pair :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int ->
  ((int list * int list) * float) option
(** Extension beyond the paper: internally-node-disjoint pair via the
    standard node-splitting reduction (protects against single *node*
    failures as well). *)
