(** Suurballe's algorithm: a pair of edge-disjoint paths of minimum total
    weight (Suurballe 1974, in the two-Dijkstra formulation of
    Suurballe–Tarjan).

    This is the optimisation engine behind all three auxiliary-graph
    constructions in the paper: [Find_Two_Paths] (Section 3.3.2) is exactly
    {!edge_disjoint_pair} on [G'], and Sections 4.1/4.2 run it on [G_c] /
    [G_rc].  Weights must be non-negative.

    The returned paths are simple and mutually edge-disjoint; their order is
    unspecified.  The reported cost is the exact sum of the original weights
    over both paths.  {!edge_disjoint_pair} and {!edge_disjoint_pair_paper}
    differ only in their second shortest-path pass; both cancel opposite
    arcs and decompose the union into two paths with one shared
    decomposition, so equal arc sets yield equal path pairs.

    All entry points accept an optional {!Rr_util.Workspace.t}, passed
    through to the underlying Dijkstra passes so a long-lived caller reuses
    one set of scratch arrays.  [?obs] records a [kernel.suurballe] span
    around {!edge_disjoint_pair} and is forwarded to the Dijkstra
    passes.

    All entry points raise [Invalid_argument] when [source = target], and
    on the internal invariant violation of a flow decomposition that gets
    stuck (which a correct caller never triggers). *)

val edge_disjoint_pair :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:(int -> float) ->
  source:int ->
  target:int ->
  ((int list * int list) * float) option
(** [None] when no two edge-disjoint paths exist. *)

val edge_disjoint_pair_paper :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:(int -> float) ->
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
  weight:(int -> float) ->
  source:int ->
  target:int ->
  ((int list * int list) * float) option
(** Extension beyond the paper: internally-node-disjoint pair via the
    standard node-splitting reduction (protects against single *node*
    failures as well). *)
