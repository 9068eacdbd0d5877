(* Tag for arcs of the transformed graph used in the second Dijkstra pass:
   either an original (non-tree-path) edge under reduced cost, or the
   zero-cost reversal of a first-path edge. *)
type arc = Orig of int | Rev of int

module Obs = Rr_obs.Obs

(* The transformed graph of the second shortest-path pass: [fill add]
   calls [add u v tag cost] once per arc, in arc-id order. *)
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

(* Both entry points end here.  Cancel opposite pairs between the first
   path [on_p1] and the second-pass path [p2'] (over the transformed
   graph's arcs [arc_tag]), keeping the union as an arc multiset; then
   decompose that balanced arc set into two s-t walks and simplify.  A
   greedy walk from s can only get stuck at t (every intermediate node has
   equal remaining in/out degree).  Adjacency is built in ascending edge-id order (not
   Hashtbl.iter order, which depends on the hash of the ids): any
   order-preserving re-numbering of the edges then decomposes the same arc
   set into the same two paths — the property the incremental
   auxiliary-graph cache relies on for byte-identical routing decisions. *)
let decompose g ~weight ~source ~target ~on_p1 ~arc_tag p2' =
  let kept = Hashtbl.copy on_p1 in
  List.iter
    (fun a ->
      match arc_tag.(a) with
      | Orig e -> Hashtbl.replace kept e ()
      | Rev e -> Hashtbl.remove kept e)
    p2';
  let n = Digraph.n_nodes g in
  let adj = Array.make n [] in
  for e = Digraph.n_edges g - 1 downto 0 do
    if Hashtbl.mem kept e then
      adj.(Digraph.src g e) <- e :: adj.(Digraph.src g e)
  done;
  let extract () =
    let rec walk u acc =
      if u = target then List.rev acc
      else
        match adj.(u) with
        | [] -> invalid_arg "Suurballe: internal decomposition stuck"
        | e :: rest ->
          adj.(u) <- rest;
          walk (Digraph.dst g e) (e :: acc)
    in
    let raw = walk source [] in
    let simple = Path.remove_loops g ~source raw in
    (* Return unused loop arcs to the pool so balance is preserved. *)
    let used = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace used e ()) simple;
    List.iter
      (fun e ->
        if not (Hashtbl.mem used e) then
          adj.(Digraph.src g e) <- e :: adj.(Digraph.src g e))
      raw;
    simple
  in
  let q1 = extract () in
  let q2 = extract () in
  let total = Path.cost ~weight q1 +. Path.cost ~weight q2 in
  ((q1, q2), total)

let edge_disjoint_pair ?enabled ?(obs = Obs.null) ?workspace g ~weight ~source
    ~target =
  if source = target then invalid_arg "Suurballe: source = target";
  let t0 = Obs.start obs in
  let finish r =
    Obs.stop obs "kernel.suurballe" t0;
    r
  in
  let n = Digraph.n_nodes g in
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
  let t1 = Dijkstra.tree ~enabled ~obs ?workspace g ~weight ~source in
  match Dijkstra.path_to g t1 target with
  | None -> finish None
  | Some p1 ->
    let on_p1 = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace on_p1 e ()) p1;
    (* Transformed graph: reduced costs, first path reversed.  [t1] is
       only read here, before the second pass reuses the workspace. *)
    let h, arc_tag, arc_cost =
      transformed n (fun add ->
          for e = 0 to Digraph.n_edges g - 1 do
            if enabled e then begin
              let u = Digraph.src g e and v = Digraph.dst g e in
              if Hashtbl.mem on_p1 e then add v u (Rev e) 0.0
              else begin
                let du = Dijkstra.dist t1 u and dv = Dijkstra.dist t1 v in
                if du < infinity && dv < infinity then begin
                  let rc = weight e +. du -. dv in
                  (* Clamp tiny negatives from float rounding. *)
                  add u v (Orig e) (Float.max rc 0.0)
                end
                (* Edges touching unreachable nodes cannot lie on any s-t
                   path. *)
              end
            end
          done)
    in
    (match
       Dijkstra.shortest_path h ~obs ?workspace
         ~weight:(fun e -> arc_cost.(e))
         ~source ~target
     with
     | None -> finish None
     | Some (p2', _) ->
       finish (Some (decompose g ~weight ~source ~target ~on_p1 ~arc_tag p2')))

let edge_disjoint_pair_paper ?enabled ?obs ?workspace g ~weight ~source ~target =
  if source = target then invalid_arg "Suurballe: source = target";
  let n = Digraph.n_nodes g in
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
  match Dijkstra.shortest_path ~enabled ?obs ?workspace g ~weight ~source ~target with
  | None -> None
  | Some (p1, _) ->
    let on_p1 = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace on_p1 e ()) p1;
    (* G'² of the pseudo-code: previous path edges reversed, weights
       negated (the residual graph of a one-unit flow). *)
    let h, arc_tag, arc_cost =
      transformed n (fun add ->
          for e = 0 to Digraph.n_edges g - 1 do
            if enabled e then
              if Hashtbl.mem on_p1 e then
                add (Digraph.dst g e) (Digraph.src g e) (Rev e) (-.weight e)
              else add (Digraph.src g e) (Digraph.dst g e) (Orig e) (weight e)
          done)
    in
    (match
       Bellman_ford.shortest_path h ~weight:(fun a -> arc_cost.(a)) ~source ~target
     with
     | None -> None
     | Some (p2', _) ->
       Some (decompose g ~weight ~source ~target ~on_p1 ~arc_tag p2'))

let node_disjoint_pair ?enabled ?obs ?workspace g ~weight ~source ~target =
  if source = target then invalid_arg "Suurballe: source = target";
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
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
  let w e = if e < n then 0.0 else weight orig_of.(e) in
  (* Route from s_out to t_in so the endpoints' internal arcs are not
     (incorrectly) required to be disjoint. *)
  match
    edge_disjoint_pair h ?obs ?workspace ~weight:w ~source:(source + n) ~target
  with
  | None -> None
  | Some ((p1, p2), _) ->
    let strip p = List.filter_map (fun e -> if e < n then None else Some orig_of.(e)) p in
    let q1 = strip p1 and q2 = strip p2 in
    let total = Path.cost ~weight q1 +. Path.cost ~weight q2 in
    Some ((q1, q2), total)
