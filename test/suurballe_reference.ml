(* Reference Suurballe for the tie-breaking oracle: the graph-building
   implementation [Rr_graph.Suurballe.edge_disjoint_pair] replaced.  The
   second pass materialises the transformed graph [h] (reduced costs,
   first path reversed, arcs added in edge-id order) and runs a plain
   Dijkstra over it; the cancel-and-decompose step uses hash tables and
   per-node edge lists.  The in-place version must return the same path
   pair, not merely the same total. *)

module Digraph = Rr_graph.Digraph
module Dijkstra = Rr_graph.Dijkstra
module Path = Rr_graph.Path

type arc = Orig of int | Rev of int

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
        | [] -> invalid_arg "reference: decomposition stuck"
        | e :: rest ->
          adj.(u) <- rest;
          walk (Digraph.dst g e) (e :: acc)
    in
    let raw = walk source [] in
    let simple = Path.remove_loops g ~source raw in
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
  let cost = Path.cost ~weight:(Array.get weight) in
  ((q1, q2), cost q1 +. cost q2)

let edge_disjoint_pair ?enabled g ~weight ~source ~target =
  let n = Digraph.n_nodes g in
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
  let t1 = Dijkstra.tree ~enabled g ~weight ~source in
  match Dijkstra.path_to g t1 target with
  | None -> None
  | Some p1 ->
    let on_p1 = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace on_p1 e ()) p1;
    let h, arc_tag, arc_cost =
      transformed n (fun add ->
          for e = 0 to Digraph.n_edges g - 1 do
            if enabled e then begin
              let u = Digraph.src g e and v = Digraph.dst g e in
              if Hashtbl.mem on_p1 e then add v u (Rev e) 0.0
              else begin
                let du = Dijkstra.dist t1 u and dv = Dijkstra.dist t1 v in
                if du < infinity && dv < infinity then
                  add u v (Orig e) (Float.max (weight.(e) +. du -. dv) 0.0)
              end
            end
          done)
    in
    (match Dijkstra.shortest_path h ~weight:arc_cost ~source ~target with
     | None -> None
     | Some (p2', _) ->
       Some (decompose g ~weight ~source ~target ~on_p1 ~arc_tag p2'))
