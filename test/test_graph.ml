(* Unit and property tests for Rr_graph. *)

module Digraph = Rr_graph.Digraph
module Dijkstra = Rr_graph.Dijkstra
module Bellman_ford = Rr_graph.Bellman_ford
module Traversal = Rr_graph.Traversal
module Suurballe = Rr_graph.Suurballe
module Flow = Rr_graph.Flow
module Path = Rr_graph.Path
module Rng = Rr_util.Rng

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

(* A random connected-ish weighted digraph for property tests. *)
let random_graph seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 10 in
  let b = Digraph.builder n in
  let weights = ref [] in
  (* Random chain guarantees some reachability structure. *)
  for v = 0 to n - 2 do
    ignore (Digraph.add_edge b v (v + 1));
    weights := (1.0 +. Rng.float rng 9.0) :: !weights
  done;
  let extra = Rng.int rng (3 * n) in
  for _ = 1 to extra do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      ignore (Digraph.add_edge b u v);
      weights := (1.0 +. Rng.float rng 9.0) :: !weights
    end
  done;
  let g = Digraph.freeze b in
  let w = Array.of_list (List.rev !weights) in
  (g, w)

(* ------------------------------------------------------------------ *)
(* Digraph                                                              *)

let test_digraph_build () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2); (0, 2); (2, 0) ] in
  check Alcotest.int "nodes" 3 (Digraph.n_nodes g);
  check Alcotest.int "edges" 4 (Digraph.n_edges g);
  check Alcotest.(pair int int) "endpoints" (0, 1) (Digraph.endpoints g 0);
  check Alcotest.int "out degree" 2 (Digraph.out_degree g 0);
  check Alcotest.int "in degree" 2 (Digraph.in_degree g 2);
  check Alcotest.int "max out degree" 2 (Digraph.max_out_degree g)

let test_digraph_edge_ids_in_order () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  check Alcotest.int "src of edge 1" 1 (Digraph.src g 1);
  check Alcotest.int "dst of edge 2" 3 (Digraph.dst g 2)

let test_digraph_parallel_edges () =
  let g = Digraph.of_edges 2 [ (0, 1); (0, 1) ] in
  check Alcotest.int "two parallel edges" 2 (Array.length (Digraph.out_edges g 0))

let test_digraph_reverse () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2) ] in
  let r = Digraph.reverse g in
  check Alcotest.(pair int int) "reversed edge" (1, 0) (Digraph.endpoints r 0);
  check Alcotest.int "same edge count" 2 (Digraph.n_edges r)

let test_digraph_bounds () =
  let b = Digraph.builder 2 in
  Alcotest.check_raises "endpoint out of range"
    (Invalid_argument "Digraph.add_edge: endpoint out of range") (fun () ->
      ignore (Digraph.add_edge b 0 2))

(* ------------------------------------------------------------------ *)
(* Dijkstra                                                             *)

(* Fixture: the classic diamond. *)
let diamond () =
  (* 0->1 (1), 0->2 (4), 1->2 (2), 1->3 (6), 2->3 (3) *)
  let g = Digraph.of_edges 4 [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ] in
  let w = [| 1.0; 4.0; 2.0; 6.0; 3.0 |] in
  (g, w)

let test_dijkstra_diamond () =
  let g, w = diamond () in
  match Dijkstra.shortest_path g ~weight:w ~source:0 ~target:3 with
  | None -> Alcotest.fail "path expected"
  | Some (path, cost) ->
    check Alcotest.(float 1e-9) "cost" 6.0 cost;
    check Alcotest.(list int) "edge ids 0->1->2->3" [ 0; 2; 4 ] path

let test_dijkstra_unreachable () =
  let g = Digraph.of_edges 3 [ (0, 1) ] in
  check Alcotest.(option (pair (list int) (float 0.0))) "unreachable" None
    (Dijkstra.shortest_path g ~weight:[| 1.0 |] ~source:0 ~target:2)

let test_dijkstra_filtered () =
  let g, w = diamond () in
  (* disable the cheap 0->1 edge *)
  match Dijkstra.shortest_path ~enabled:(fun e -> e <> 0) g ~weight:w ~source:0 ~target:3 with
  | None -> Alcotest.fail "path expected"
  | Some (_, cost) -> check Alcotest.(float 1e-9) "detour cost" 7.0 cost

let test_dijkstra_negative_rejected () =
  let g = Digraph.of_edges 2 [ (0, 1) ] in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Dijkstra: negative edge weight") (fun () ->
      ignore (Dijkstra.tree g ~weight:[| -1.0 |] ~source:0))

let prop_dijkstra_vs_bellman_ford =
  QCheck.Test.make ~name:"dijkstra = bellman-ford on random graphs" ~count:150
    QCheck.small_int (fun seed ->
      let g, w = random_graph seed in
      let n = Digraph.n_nodes g in
      let t = Dijkstra.tree g ~weight:w ~source:0 in
      let r = Bellman_ford.run g ~weight:(Array.get w) ~source:0 in
      let ok = ref true in
      for v = 0 to n - 1 do
        if Float.abs (Dijkstra.dist t v -. r.dist.(v)) > 1e-6 then ok := false
      done;
      !ok)

let prop_dijkstra_path_cost_consistent =
  QCheck.Test.make ~name:"extracted path cost equals dist" ~count:150
    QCheck.small_int (fun seed ->
      let g, w = random_graph seed in
      let n = Digraph.n_nodes g in
      let t = Dijkstra.tree g ~weight:w ~source:0 in
      let ok = ref true in
      for v = 1 to n - 1 do
        match Dijkstra.path_to g t v with
        | None -> if Dijkstra.dist t v <> infinity then ok := false
        | Some p ->
          if not (Path.is_valid g ~source:0 ~target:v p) then ok := false;
          if Float.abs (Dijkstra.path_cost ~weight:w p -. Dijkstra.dist t v) > 1e-6 then
            ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Bellman-Ford                                                         *)

let test_bf_negative_edge () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let w = [| 4.0; -2.0; 3.0 |] in
  match Bellman_ford.shortest_path g ~weight:(fun e -> w.(e)) ~source:0 ~target:2 with
  | None -> Alcotest.fail "path expected"
  | Some (_, c) -> check Alcotest.(float 1e-9) "negative edge ok" 2.0 c

let test_bf_negative_cycle () =
  let g = Digraph.of_edges 2 [ (0, 1); (1, 0) ] in
  let w = [| 1.0; -3.0 |] in
  let r = Bellman_ford.run g ~weight:(fun e -> w.(e)) ~source:0 in
  checkb "cycle detected" true r.negative_cycle

(* ------------------------------------------------------------------ *)
(* Traversal                                                            *)

let test_bfs_dist () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let d = Traversal.bfs_dist g ~source:0 in
  check Alcotest.(array int) "hop distances" [| 0; 1; 1; 2 |] d

let test_strongly_connected () =
  let cyc = Digraph.of_edges 3 [ (0, 1); (1, 2); (2, 0) ] in
  checkb "cycle strong" true (Traversal.is_strongly_connected cyc);
  let chain = Digraph.of_edges 3 [ (0, 1); (1, 2) ] in
  checkb "chain not strong" false (Traversal.is_strongly_connected chain);
  checkb "chain weak" true (Traversal.weakly_connected chain)

let test_topological () =
  let dag = Digraph.of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  (match Traversal.topological_order dag with
   | None -> Alcotest.fail "dag has topo order"
   | Some order ->
     let pos = Array.make 4 0 in
     List.iteri (fun i v -> pos.(v) <- i) order;
     checkb "edges forward" true
       (Digraph.fold_edges (fun _ u v acc -> acc && pos.(u) < pos.(v)) dag true));
  let cyc = Digraph.of_edges 2 [ (0, 1); (1, 0) ] in
  check Alcotest.(option (list int)) "cycle has none" None (Traversal.topological_order cyc)

let test_scc () =
  (* two 2-cycles joined by a one-way edge *)
  let g = Digraph.of_edges 4 [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 2) ] in
  let comp, n = Traversal.scc g in
  check Alcotest.int "two components" 2 n;
  checkb "0,1 together" true (comp.(0) = comp.(1));
  checkb "2,3 together" true (comp.(2) = comp.(3));
  checkb "separate" true (comp.(0) <> comp.(2))

(* ------------------------------------------------------------------ *)
(* Path utilities                                                       *)

let test_path_remove_loops () =
  (* walk 0->1->2->1->3: cycle 1->2->1 must go *)
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 1); (1, 3) ] in
  let walk = [ 0; 1; 2; 3 ] in
  let simple = Path.remove_loops g ~source:0 walk in
  check Alcotest.(list int) "loop removed" [ 0; 3 ] simple;
  checkb "simple" true (Path.is_simple g ~source:0 simple)

let test_path_validity () =
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2) ] in
  checkb "valid" true (Path.is_valid g ~source:0 ~target:2 [ 0; 1 ]);
  checkb "wrong order" false (Path.is_valid g ~source:0 ~target:2 [ 1; 0 ]);
  checkb "wrong target" false (Path.is_valid g ~source:0 ~target:1 [ 0; 1 ]);
  checkb "empty to self" true (Path.is_valid g ~source:1 ~target:1 [])

(* ------------------------------------------------------------------ *)
(* Suurballe                                                            *)

(* The classic trap topology: greedy shortest path blocks the only
   disjoint pair. *)
let trap () =
  (* nodes: s=0, a=1, b=2, t=3
     s->a (1), a->t (1)        cheap path uses the middle
     s->b (2), b->t (2)
     a->b (0.5)
     The shortest s-t path is s->a->t (2). Two disjoint paths must be
     s->a->b->t? no — disjoint pair: (s->a, a->t) and (s->b, b->t): both
     exist and are disjoint; make the trap real: remove direct a->t and
     force sharing. Use the standard example instead:
     s->a(1) a->b(1) b->t(1)   spine
     s->b(3), a->t(3)          detours *)
  let g = Digraph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (0, 2); (1, 3) ] in
  let w = [| 1.0; 1.0; 1.0; 3.0; 3.0 |] in
  (g, w)

let test_suurballe_trap () =
  let g, w = trap () in
  match Suurballe.edge_disjoint_pair g ~weight:w ~source:0 ~target:3 with
  | None -> Alcotest.fail "disjoint pair expected"
  | Some ((p1, p2), cost) ->
    check Alcotest.(float 1e-9) "total cost" 8.0 cost;
    checkb "disjoint" true (Path.edge_disjoint p1 p2);
    checkb "p1 valid" true (Path.is_valid g ~source:0 ~target:3 p1);
    checkb "p2 valid" true (Path.is_valid g ~source:0 ~target:3 p2)

let test_suurballe_greedy_would_fail () =
  (* In the trap graph, removing the shortest path's edges disconnects
     s from t: the two-step heuristic fails while Suurballe succeeds. *)
  let g, w = trap () in
  match Dijkstra.shortest_path g ~weight:w ~source:0 ~target:3 with
  | None -> Alcotest.fail "shortest path expected"
  | Some (p1, _) ->
    let blocked = Hashtbl.create 4 in
    List.iter (fun e -> Hashtbl.replace blocked e ()) p1;
    let enabled e = not (Hashtbl.mem blocked e) in
    check Alcotest.(option (pair (list int) (float 0.0))) "greedy second fails" None
      (Dijkstra.shortest_path ~enabled g ~weight:w ~source:0 ~target:3)

let test_suurballe_no_pair () =
  (* a single bridge: no two edge-disjoint paths *)
  let g = Digraph.of_edges 3 [ (0, 1); (1, 2) ] in
  check
    Alcotest.(option (pair (pair (list int) (list int)) (float 0.0)))
    "no pair" None
    (Suurballe.edge_disjoint_pair g ~weight:[| 1.0; 1.0 |] ~source:0 ~target:2)

let test_suurballe_parallel_edges () =
  let g = Digraph.of_edges 2 [ (0, 1); (0, 1) ] in
  match Suurballe.edge_disjoint_pair g ~weight:[| 1.0; 2.0 |] ~source:0 ~target:1 with
  | None -> Alcotest.fail "parallel pair expected"
  | Some ((p1, p2), cost) ->
    check Alcotest.(float 1e-9) "cost" 3.0 cost;
    checkb "disjoint" true (Path.edge_disjoint p1 p2)

let prop_suurballe_matches_min_cost_flow =
  QCheck.Test.make ~name:"suurballe total = min-cost 2-flow" ~count:200
    QCheck.small_int (fun seed ->
      let g, w = random_graph seed in
      let n = Digraph.n_nodes g in
      let target = n - 1 in
      let s = Suurballe.edge_disjoint_pair g ~weight:w ~source:0 ~target in
      let f = Flow.min_cost_disjoint_pair g ~weight:(Array.get w) ~source:0 ~target in
      match (s, f) with
      | None, None -> true
      | Some ((p1, p2), c), Some c' ->
        Path.edge_disjoint p1 p2
        && Path.is_valid g ~source:0 ~target p1
        && Path.is_valid g ~source:0 ~target p2
        && Float.abs (c -. c') < 1e-6
      | _ -> false)

let prop_paper_variant_agrees =
  QCheck.Test.make
    ~name:"paper-literal Find_Two_Paths = potentials Suurballe" ~count:200
    QCheck.small_int (fun seed ->
      let g, w = random_graph (seed + 4000) in
      let target = Digraph.n_nodes g - 1 in
      match
        ( Suurballe.edge_disjoint_pair g ~weight:w ~source:0 ~target,
          Suurballe.edge_disjoint_pair_paper g ~weight:w ~source:0 ~target )
      with
      | None, None -> true
      | Some ((a1, a2), ca), Some ((b1, b2), cb) ->
        Float.abs (ca -. cb) < 1e-6
        && Path.edge_disjoint a1 a2 && Path.edge_disjoint b1 b2
        && Path.is_valid g ~source:0 ~target b1
        && Path.is_valid g ~source:0 ~target b2
      | _ -> false)

(* Tie-breaking oracle: on random multigraphs (parallel edges, self-loops)
   with random [enabled] masks and small integer weights, which make cost
   ties common, the in-place second pass must return exactly the path
   pair and total of the graph-building reference — with a fresh and with
   a reused workspace. *)
let prop_suurballe_same_pair_as_reference =
  let ws = Rr_util.Workspace.create () in
  QCheck.Test.make ~name:"in-place suurballe = transformed-graph reference pair"
    ~count:5000 QCheck.int (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 30 in
      let pairs =
        List.init (Rng.int rng (6 * n)) (fun _ -> (Rng.int rng n, Rng.int rng n))
      in
      let g = Digraph.of_edges n pairs in
      let m = Digraph.n_edges g in
      let weight = Array.init m (fun _ -> float_of_int (Rng.int rng 3)) in
      let mask = Array.init m (fun _ -> Rng.int rng 5 > 0) in
      let enabled e = mask.(e) in
      let source = Rng.int rng n in
      let target = (source + 1 + Rng.int rng (n - 1)) mod n in
      let expected =
        Suurballe_reference.edge_disjoint_pair ~enabled g ~weight ~source ~target
      in
      expected = Suurballe.edge_disjoint_pair ~enabled g ~weight ~source ~target
      && expected
         = Suurballe.edge_disjoint_pair ~enabled ~workspace:ws g ~weight ~source
             ~target)

let prop_node_disjoint_internally =
  QCheck.Test.make ~name:"node-disjoint pair shares no internal node" ~count:150
    QCheck.small_int (fun seed ->
      let g, w = random_graph seed in
      let n = Digraph.n_nodes g in
      let target = n - 1 in
      match Suurballe.node_disjoint_pair g ~weight:w ~source:0 ~target with
      | None -> true
      | Some ((p1, p2), _) ->
        let internal p =
          match Path.nodes g ~source:0 p with
          | [] -> []
          | ns -> List.filteri (fun i _ -> i > 0 && i < List.length ns - 1) ns
        in
        let i1 = internal p1 and i2 = internal p2 in
        Path.is_valid g ~source:0 ~target p1
        && Path.is_valid g ~source:0 ~target p2
        && List.for_all (fun v -> not (List.mem v i2)) i1)

(* ------------------------------------------------------------------ *)
(* Flow                                                                 *)

let test_max_flow_fixture () =
  (* two disjoint unit paths plus a bottleneck *)
  let g = Digraph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3); (1, 2) ] in
  let v, _ = Flow.max_flow g ~capacity:(fun _ -> 1) ~source:0 ~target:3 in
  check Alcotest.int "max flow" 2 v

let test_max_flow_capacities () =
  let g = Digraph.of_edges 2 [ (0, 1) ] in
  let v, flow = Flow.max_flow g ~capacity:(fun _ -> 7) ~source:0 ~target:1 in
  check Alcotest.int "value" 7 v;
  check Alcotest.int "edge flow" 7 flow.(0)

let test_min_cost_flow_prefers_cheap () =
  (* ship 1 unit; expensive direct vs cheap two-hop *)
  let g = Digraph.of_edges 3 [ (0, 2); (0, 1); (1, 2) ] in
  let w = [| 10.0; 1.0; 1.0 |] in
  match Flow.min_cost_flow g ~weight:(fun e -> w.(e)) ~capacity:(fun _ -> 1)
          ~source:0 ~target:2 ~amount:1 with
  | None -> Alcotest.fail "feasible"
  | Some (flow, cost) ->
    check Alcotest.(float 1e-9) "cost" 2.0 cost;
    check Alcotest.int "direct unused" 0 flow.(0)

let test_min_cost_flow_infeasible () =
  let g = Digraph.of_edges 2 [ (0, 1) ] in
  check
    Alcotest.(option (pair (array int) (float 0.0)))
    "amount too large" None
    (Flow.min_cost_flow g ~weight:(fun _ -> 1.0) ~capacity:(fun _ -> 1)
       ~source:0 ~target:1 ~amount:2)

let test_disjoint_paths_count () =
  let g = Digraph.of_edges 4 [ (0, 1); (1, 3); (0, 2); (2, 3); (0, 3) ] in
  check Alcotest.int "three disjoint" 3 (Flow.disjoint_paths_count g ~source:0 ~target:3)

let suite =
  [
    ( "graph.digraph",
      [
        Alcotest.test_case "build" `Quick test_digraph_build;
        Alcotest.test_case "edge ids in order" `Quick test_digraph_edge_ids_in_order;
        Alcotest.test_case "parallel edges" `Quick test_digraph_parallel_edges;
        Alcotest.test_case "reverse" `Quick test_digraph_reverse;
        Alcotest.test_case "bounds" `Quick test_digraph_bounds;
      ] );
    ( "graph.dijkstra",
      [
        Alcotest.test_case "diamond" `Quick test_dijkstra_diamond;
        Alcotest.test_case "unreachable" `Quick test_dijkstra_unreachable;
        Alcotest.test_case "filtered" `Quick test_dijkstra_filtered;
        Alcotest.test_case "rejects negative" `Quick test_dijkstra_negative_rejected;
        qtest prop_dijkstra_vs_bellman_ford;
        qtest prop_dijkstra_path_cost_consistent;
      ] );
    ( "graph.bellman_ford",
      [
        Alcotest.test_case "negative edge" `Quick test_bf_negative_edge;
        Alcotest.test_case "negative cycle" `Quick test_bf_negative_cycle;
      ] );
    ( "graph.traversal",
      [
        Alcotest.test_case "bfs dist" `Quick test_bfs_dist;
        Alcotest.test_case "strong connectivity" `Quick test_strongly_connected;
        Alcotest.test_case "topological" `Quick test_topological;
        Alcotest.test_case "scc" `Quick test_scc;
      ] );
    ( "graph.path",
      [
        Alcotest.test_case "remove loops" `Quick test_path_remove_loops;
        Alcotest.test_case "validity" `Quick test_path_validity;
      ] );
    ( "graph.suurballe",
      [
        Alcotest.test_case "trap fixture" `Quick test_suurballe_trap;
        Alcotest.test_case "greedy fails on trap" `Quick test_suurballe_greedy_would_fail;
        Alcotest.test_case "no pair" `Quick test_suurballe_no_pair;
        Alcotest.test_case "parallel edges" `Quick test_suurballe_parallel_edges;
        qtest prop_suurballe_matches_min_cost_flow;
        qtest prop_paper_variant_agrees;
        qtest prop_suurballe_same_pair_as_reference;
        qtest prop_node_disjoint_internally;
      ] );
    ( "graph.flow",
      [
        Alcotest.test_case "max flow fixture" `Quick test_max_flow_fixture;
        Alcotest.test_case "capacities" `Quick test_max_flow_capacities;
        Alcotest.test_case "min cost prefers cheap" `Quick test_min_cost_flow_prefers_cheap;
        Alcotest.test_case "infeasible amount" `Quick test_min_cost_flow_infeasible;
        Alcotest.test_case "disjoint count" `Quick test_disjoint_paths_count;
      ] );
  ]
