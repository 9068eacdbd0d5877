module Obs = Rr_obs.Obs
module Heap = Rr_util.Indexed_heap
module Workspace = Rr_util.Workspace

(* Tag for arcs of the paper variant's transformed graph: either an
   original (non-first-path) edge, or the reversal of a first-path edge. *)
type arc = Orig of int | Rev of int

(* The paper variant's transformed graph: [fill add] calls
   [add u v tag cost] once per arc, in arc-id order. *)
let transformed n fill =
  let b = Digraph.builder n in
  let arcs = ref [] in
  let costs = ref [] in
  fill (fun u v tag c ->
      ignore (Digraph.add_edge b u v);
      arcs := tag :: !arcs;
      costs := c :: !costs);
  ( Digraph.freeze b,
    Array.of_list (List.rev !arcs),
    Array.of_list (List.rev !costs) )

(* Both entry points end here.  On entry the workspace's mark set over
   [g]'s edge ids is the kept arc multiset: the first path, plus the
   second pass's forward edges, minus the first-path edges it reversed
   (opposite pairs cancel).  Decompose that balanced arc set into two s-t
   walks and simplify.  A greedy walk from s can only get stuck at t
   (every intermediate node has equal remaining in/out degree).  Each
   node's stack of kept out-edges ([head]/[next], scratch arrays of the
   workspace) is built in ascending edge-id order (not hash order): any
   order-preserving re-numbering of the edges then decomposes the same arc
   set into the same two paths — the property the incremental
   auxiliary-graph cache relies on for byte-identical routing decisions. *)
let decompose ws g ~weight ~source ~target =
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let head = Workspace.ints ws n and next = Workspace.ids ws m in
  Array.fill head 0 n (-1);
  let push e =
    let u = Digraph.src g e in
    next.(e) <- head.(u);
    head.(u) <- e
  in
  for e = m - 1 downto 0 do
    if Workspace.marked ws e then push e
  done;
  let extract () =
    let rec walk u acc =
      if u = target then List.rev acc
      else begin
        let e = head.(u) in
        if e < 0 then invalid_arg "Suurballe: internal decomposition stuck";
        head.(u) <- next.(e);
        walk (Digraph.dst g e) (e :: acc)
      end
    in
    let raw = walk source [] in
    let simple = Path.remove_loops g ~source raw in
    (* Return unused loop arcs to the pool so balance is preserved: the
       simple path's edges leave the mark set, every other walked edge is
       still marked and goes back on its node's stack. *)
    List.iter (Workspace.unmark ws) simple;
    List.iter (fun e -> if Workspace.marked ws e then push e) raw;
    simple
  in
  let q1 = extract () in
  let q2 = extract () in
  let total = Dijkstra.path_cost ~weight q1 +. Dijkstra.path_cost ~weight q2 in
  ((q1, q2), total)

let all_enabled _ = true

(* [Float.max rc 0.0], bit for bit (NaN stays NaN, -0.0 becomes 0.0),
   without a call that would box [rc]. *)
let[@inline] clamp rc = if rc > 0.0 || Float.is_nan rc then rc else 0.0

(* One relaxation of the second pass: offer [v] the distance [dv] through
   the arc coded [code] (2e for edge e forward, 2e + 1 for its
   reversal).  Same comparison and heap update as [Dijkstra.run]. *)
(* lint: no-alloc *)
let[@inline] relax dist pred stamp gen heap v dv code =
  if dv < (if stamp.(v) = gen then dist.(v) else infinity) then begin
    dist.(v) <- dv;
    pred.(v) <- code;
    stamp.(v) <- gen;
    Heap.update heap v;
    true
  end
  else false

(* Second pass, in place: Dijkstra over the residual of [g] after one unit
   of flow along the first path, without building it.  Node [u]'s
   residual out-arcs are [g]'s enabled out-edges not on the first path
   (reduced cost [w + pot u - pot v], clamped at 0, both endpoints
   reached by pass 1) plus the zero-cost reversal of the first-path edge
   entering [u] ([p1_in.(u)], or -1).  [Digraph.freeze] stores out-edges
   in ascending id order, and the reversal is merged in at its id's
   position: exactly the arc order of the residual graph built edge by
   edge, so the heap sees the same operations in the same order as a
   search over that graph.  Records what a [Dijkstra] pass records. *)
let residual_search ws g ~obs ~hit ~enabled ~weight ~pot ~p1_in ~source
    ~target =
  let t0 = Obs.start obs in
  Obs.add obs (if hit then "workspace.hit" else "workspace.miss") 1;
  let n = Digraph.n_nodes g in
  Workspace.reset ws n;
  let heap = Workspace.heap ws in
  let dist = Workspace.dists ws
  and pred = Workspace.preds ws
  and stamp = Workspace.stamps ws
  and gen = Workspace.generation ws in
  dist.(source) <- 0.0;
  pred.(source) <- -1;
  stamp.(source) <- gen;
  Heap.update heap source;
  let pops = ref 0 and inserts = ref 1 in
  let u = ref (Heap.pop heap) in
  while !u >= 0 do
    incr pops;
    let x = !u in
    if x = target then u := -1
    else begin
      let du = dist.(x) and pu = pot.(x) in
      let r = p1_in.(x) in
      let rev_pending = ref (r >= 0) in
      let edges = Digraph.out_edges g x in
      for i = 0 to Array.length edges - 1 do
        let e = edges.(i) in
        if !rev_pending && e > r then begin
          rev_pending := false;
          if relax dist pred stamp gen heap (Digraph.src g r) (du +. 0.0)
               ((2 * r) + 1)
          then incr inserts
        end;
        if enabled e && not (Workspace.marked ws e) then begin
          let v = Digraph.dst g e in
          let pv = pot.(v) in
          if pu < infinity && pv < infinity then begin
            let c = clamp (weight.(e) +. pu -. pv) in
            if relax dist pred stamp gen heap v (du +. c) (2 * e) then
              incr inserts
          end
        end
      done;
      if !rev_pending then begin
        if relax dist pred stamp gen heap (Digraph.src g r) (du +. 0.0)
             ((2 * r) + 1)
        then incr inserts
      end;
      u := Heap.pop heap
    end
  done;
  Obs.add obs "heap.pop" !pops;
  Obs.add obs "heap.insert" !inserts;
  Obs.stop obs "kernel.dijkstra" t0

let edge_disjoint_pair ?enabled ?(obs = Obs.null) ?workspace g ~weight ~source
    ~target =
  if source = target then invalid_arg "Suurballe: source = target";
  let t0 = Obs.start obs in
  let finish r =
    Obs.stop obs "kernel.suurballe" t0;
    r
  in
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let enabled = match enabled with None -> all_enabled | Some f -> f in
  let t1 = Dijkstra.tree ~enabled ~obs ?workspace g ~weight ~source in
  let ws = Dijkstra.workspace t1 in
  (* Pass-1 distances become the potentials; pass 2 reuses the search
     arrays. *)
  let pot = Workspace.floats ws n in
  let dist = Workspace.dists ws
  and stamp = Workspace.stamps ws
  and gen = Workspace.generation ws in
  for v = 0 to n - 1 do
    pot.(v) <- (if stamp.(v) = gen then dist.(v) else infinity)
  done;
  (* lint: float-eq — infinity is an exact unreached sentinel *)
  if pot.(target) = infinity then finish None
  else begin
    (* Mark the first path's edges and note each path node's in-edge. *)
    let pred = Workspace.preds ws in
    let p1_in = Workspace.ints ws n in
    Array.fill p1_in 0 n (-1);
    Workspace.mark_reset ws m;
    let v = ref target in
    while !v <> source do
      let e = pred.(!v) in
      Workspace.mark ws e;
      p1_in.(!v) <- e;
      v := Digraph.src g e
    done;
    residual_search ws g ~obs ~hit:(Option.is_some workspace) ~enabled ~weight
      ~pot ~p1_in ~source ~target;
    if not (Workspace.is_set ws target) then finish None
    else begin
      (* Cancel: forward edges of the second path join the mark set,
         reversed first-path edges leave it. *)
      let pred = Workspace.preds ws in
      let v = ref target in
      while !v <> source do
        let code = pred.(!v) in
        let e = code asr 1 in
        if code land 1 = 0 then begin
          Workspace.mark ws e;
          v := Digraph.src g e
        end
        else begin
          Workspace.unmark ws e;
          v := Digraph.dst g e
        end
      done;
      finish (Some (decompose ws g ~weight ~source ~target))
    end
  end

let edge_disjoint_pair_paper ?enabled ?obs ?workspace g ~weight ~source ~target =
  if source = target then invalid_arg "Suurballe: source = target";
  let n = Digraph.n_nodes g in
  let enabled = match enabled with None -> all_enabled | Some f -> f in
  let ws = match workspace with Some ws -> ws | None -> Workspace.create () in
  match
    Dijkstra.shortest_path ~enabled ?obs ~workspace:ws g ~weight ~source ~target
  with
  | None -> None
  | Some (p1, _) ->
    Workspace.mark_reset ws (Digraph.n_edges g);
    List.iter (Workspace.mark ws) p1;
    (* G'² of the pseudo-code: previous path edges reversed, weights
       negated (the residual graph of a one-unit flow). *)
    let h, arc_tag, arc_cost =
      transformed n (fun add ->
          for e = 0 to Digraph.n_edges g - 1 do
            if enabled e then
              if Workspace.marked ws e then
                add (Digraph.dst g e) (Digraph.src g e) (Rev e) (-.weight.(e))
              else add (Digraph.src g e) (Digraph.dst g e) (Orig e) weight.(e)
          done)
    in
    (match
       Bellman_ford.shortest_path h ~weight:(fun a -> arc_cost.(a)) ~source ~target
     with
     | None -> None
     | Some (p2', _) ->
       List.iter
         (fun a ->
           match arc_tag.(a) with
           | Orig e -> Workspace.mark ws e
           | Rev e -> Workspace.unmark ws e)
         p2';
       Some (decompose ws g ~weight ~source ~target))

let node_disjoint_pair ?enabled ?obs ?workspace g ~weight ~source ~target =
  if source = target then invalid_arg "Suurballe: source = target";
  let enabled = match enabled with None -> all_enabled | Some f -> f in
  let n = Digraph.n_nodes g in
  (* Split each node v into v_in = v and v_out = v + n, with a zero-cost
     internal arc; original edge (u,v) becomes (u_out, v_in). *)
  let b = Digraph.builder (2 * n) in
  (* Internal arcs first: node v's internal arc has id v. *)
  for v = 0 to n - 1 do
    ignore (Digraph.add_edge b v (v + n))
  done;
  let orig_of = Array.make (n + Digraph.n_edges g) (-1) in
  for e = 0 to Digraph.n_edges g - 1 do
    if enabled e then begin
      let u = Digraph.src g e and v = Digraph.dst g e in
      let id = Digraph.add_edge b (u + n) v in
      orig_of.(id) <- e
    end
  done;
  let h = Digraph.freeze b in
  let w =
    Array.init (Digraph.n_edges h) (fun e ->
        if e < n then 0.0 else weight.(orig_of.(e)))
  in
  (* Route from s_out to t_in so the endpoints' internal arcs are not
     (incorrectly) required to be disjoint. *)
  match
    edge_disjoint_pair h ?obs ?workspace ~weight:w ~source:(source + n) ~target
  with
  | None -> None
  | Some ((p1, p2), _) ->
    let strip p = List.filter_map (fun e -> if e < n then None else Some orig_of.(e)) p in
    let q1 = strip p1 and q2 = strip p2 in
    let total = Dijkstra.path_cost ~weight q1 +. Dijkstra.path_cost ~weight q2 in
    Some ((q1, q2), total)
