(** Single-source shortest paths with non-negative edge weights.

    The workhorse of the whole repository: the auxiliary-graph routing of
    Section 3.3 and the first pass of Suurballe's algorithm run this
    routine; Suurballe's second pass and the layered-wavelength-graph
    search run the same loop over implicit adjacency.  Uses the
    indexed binary heap from {!Rr_util.Indexed_heap}
    ([O((n + m) log n)]).

    All entry points accept an optional {!Rr_util.Workspace.t}.  With a
    workspace, the search reuses its scratch arrays instead of allocating
    fresh [O(n)] state per call — the intended mode for a long-lived
    router.  A returned {!tree} then aliases the workspace: it stays
    readable only until the workspace's next search, after which its
    accessors raise [Invalid_argument] (staleness is detected, never
    silent).  Without a workspace a private one is allocated and the tree
    remains valid indefinitely.

    Weights are a [float array] indexed by edge id (at least
    [n_edges g] long; [Invalid_argument] otherwise).  Reading a weight
    from an array costs no allocation, where an [int -> float] closure
    boxes every result; with a workspace the search loop allocates
    nothing (the heap orders by the workspace's distance array).

    With [?obs] each search records a [kernel.dijkstra] latency span,
    [heap.pop]/[heap.insert] operation counters and a
    [workspace.hit]/[workspace.miss] counter (hit = caller-supplied
    workspace reused). *)

type tree

val run :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int option ->
  tree
(** Shortest-path search; settles every node, or early-exits once [target]
    is settled.  [enabled] filters edges (default: all).  Raises
    [Invalid_argument] on a negative weight encountered during the
    search. *)

val tree :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  tree
(** Full shortest-path tree ([run] with no target). *)

val dist : tree -> int -> float
(** Distance from the source, or [infinity] if unreachable. *)

val pred_edge : tree -> int -> int
(** Incoming tree edge id, or [-1]. *)

val source : tree -> int

val workspace : tree -> Rr_util.Workspace.t
(** The workspace holding the tree's state (the caller's, or the private
    one a search without [?workspace] allocated). *)

val dists : tree -> float array
(** Materialise all distances as a fresh array (safe to keep after the
    workspace moves on). *)

val shortest_path :
  ?enabled:(int -> bool) ->
  ?obs:Rr_obs.Obs.t ->
  ?workspace:Rr_util.Workspace.t ->
  Digraph.t ->
  weight:float array ->
  source:int ->
  target:int ->
  (int list * float) option
(** Edge-id path from source to target and its length, if reachable.
    Early-exits once the target is settled. *)

val path_to : Digraph.t -> tree -> int -> int list option
(** Extract the edge-id path from the tree source to a node. *)

val path_cost : weight:float array -> int list -> float
