(* Tests for the performance layer: workspace-pooled searches must return
   exactly what their allocating counterparts do, and the parallel batch
   engine must be indistinguishable from its sequential twin. *)

module Net = Rr_wdm.Network
module Conv = Rr_wdm.Conversion
module Layered = Rr_wdm.Layered
module RR = Robust_routing
module Types = RR.Types
module Rng = Rr_util.Rng
module Workspace = Rr_util.Workspace

let checkb = Alcotest.(check bool)
let qtest = QCheck_alcotest.to_alcotest

let random_net ?(n = 8) ?(w = 3) ?(density = 1.0) seed =
  let rng = Rng.create seed in
  let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n ~degree:3 in
  Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w ~lambda_density:density topo

let preload rng net fraction =
  for e = 0 to Net.n_links net - 1 do
    Rr_util.Bitset.iter
      (fun l -> if Rng.uniform rng < fraction then Net.allocate net e l)
      (Net.lambdas net e)
  done

let random_requests rng net k =
  List.init k (fun _ ->
      let s, d =
        Rr_sim.Workload.random_pair rng ~n_nodes:(Net.n_nodes net)
      in
      { Types.src = s; dst = d })

(* Structural equality of batch results; covers paths, wavelengths, order
   and the aggregate statistics. *)
let same_result (a : RR.Batch.result) (b : RR.Batch.result) = a = b

(* ------------------------------------------------------------------ *)
(* Workspace pooling                                                    *)

let prop_pooled_layered_matches =
  QCheck.Test.make ~name:"pooled layered search = unpooled (100 queries)"
    ~count:10 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 9000) in
      let net = random_net ~w:4 (seed + 9000) in
      preload rng net 0.3;
      let n = Net.n_nodes net in
      let ws = Workspace.create () in
      let ok = ref true in
      for _ = 1 to 100 do
        let s = Rng.int rng n in
        let t = Rng.int rng n in
        if s <> t then begin
          let fresh = Layered.optimal net ~source:s ~target:t in
          let pooled = Layered.optimal ~workspace:ws net ~source:s ~target:t in
          if fresh <> pooled then ok := false
        end
      done;
      !ok)

let prop_pooled_router_matches =
  QCheck.Test.make ~name:"pooled Router.route = unpooled, all policies"
    ~count:15 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 9100) in
      let net = random_net ~w:3 (seed + 9100) in
      preload rng net 0.25;
      let n = Net.n_nodes net in
      let ws = Workspace.create () in
      let ok = ref true in
      List.iter
        (fun policy ->
          for _ = 1 to 5 do
            let s = Rng.int rng n and t = Rng.int rng n in
            if s <> t then begin
              let fresh = RR.Router.route net policy ~source:s ~target:t in
              let pooled =
                RR.Router.route ~workspace:ws net policy ~source:s ~target:t
              in
              if fresh <> pooled then ok := false
            end
          done)
        [
          RR.Router.Cost_approx; RR.Router.Load_aware; RR.Router.Load_cost;
          RR.Router.Two_step; RR.Router.First_fit; RR.Router.Unprotected;
          RR.Router.Node_protect;
        ];
      !ok)

let test_workspace_stale_tree_raises () =
  let g =
    let b = Rr_graph.Digraph.builder 3 in
    ignore (Rr_graph.Digraph.add_edge b 0 1);
    ignore (Rr_graph.Digraph.add_edge b 1 2);
    Rr_graph.Digraph.freeze b
  in
  let ws = Workspace.create () in
  let weight = Array.make (Rr_graph.Digraph.n_edges g) 1.0 in
  let t1 = Rr_graph.Dijkstra.tree ~workspace:ws g ~weight ~source:0 in
  checkb "fresh tree readable" true (Rr_graph.Dijkstra.dist t1 2 = 2.0);
  let _t2 = Rr_graph.Dijkstra.tree ~workspace:ws g ~weight ~source:1 in
  Alcotest.check_raises "stale tree raises"
    (Invalid_argument "Dijkstra: tree is stale (its workspace ran another search)")
    (fun () -> ignore (Rr_graph.Dijkstra.dist t1 2))

let test_workspace_growth_preserves_isolation () =
  (* A workspace grown mid-stream must not resurrect entries stamped
     before the growth. *)
  let ws = Workspace.create ~capacity:2 () in
  Workspace.reset ws 2;
  Workspace.set ws 1 5.0 7;
  Workspace.reset ws 64;
  checkb "old entry invisible after growth" true (Workspace.dist ws 1 = infinity);
  checkb "fresh slots unset" true (not (Workspace.is_set ws 63));
  Workspace.set ws 63 1.5 3;
  checkb "write after growth" true (Workspace.dist ws 63 = 1.5)

(* ------------------------------------------------------------------ *)
(* Allocation gate: the cached admission path                           *)

(* The bench's perf NSFNET: range-1 converters, a [load] share of every
   link's wavelengths in use. *)
let perf_nsfnet ~w ~load seed =
  let rng = Rng.create seed in
  let net =
    Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w
      ~converter:(fun _ -> Conv.Range (1, 200.0))
      Rr_topo.Reference.nsfnet
  in
  preload rng net load;
  net

(* Mean minor words per [Router.admit ~workspace ?aux_cache Cost_approx]
   call over [rounds] admissions after [warmup], on a dynamic stream:
   every admitted connection is held until eight newer ones are up, so
   each sync sees the links of one admission and one release change. *)
let minor_words_per_admit ?aux_cache net ~warmup ~rounds =
  let ws = Workspace.create () in
  let rng = Rng.create 91 in
  let held = Queue.create () in
  let words = ref 0.0 in
  for i = 1 to warmup + rounds do
    let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:(Net.n_nodes net) in
    let before = Gc.minor_words () in
    let sol =
      RR.Router.admit ?aux_cache ~workspace:ws net RR.Router.Cost_approx
        ~source:s ~target:d
    in
    let after = Gc.minor_words () in
    if i > warmup then words := !words +. (after -. before);
    Option.iter (fun x -> Queue.push x held) sol;
    if Queue.length held > 8 then Types.release net (Queue.pop held)
  done;
  !words /. float_of_int rounds

(* One bound for both widths: the steady-state cached admit allocates
   only the solution it returns and the allocation's fresh [used] sets,
   so a per-wavelength (O(W)) allocation anywhere on the path would show
   as the W=64 run exceeding what W=16 needs. *)
let admit_words_bound = 1500.0

let test_cached_admit_allocation () =
  List.iter
    (fun w ->
      let net = perf_nsfnet ~w ~load:0.5 53 in
      let aux_cache = Rr_wdm.Aux_cache.create net in
      let words = minor_words_per_admit ~aux_cache net ~warmup:40 ~rounds:200 in
      if words > admit_words_bound then
        Alcotest.failf "W=%d: %.0f minor words per cached admit (bound %.0f)" w
          words admit_words_bound)
    [ 16; 64 ]

(* The same meter on the uncached rebuild path (G' rebuilt per request)
   must exceed the bound: the gate can fire. *)
let test_rebuild_path_exceeds_bound () =
  let net = perf_nsfnet ~w:16 ~load:0.5 53 in
  let words = minor_words_per_admit net ~warmup:10 ~rounds:60 in
  if words <= admit_words_bound then
    Alcotest.failf "rebuild path: %.0f minor words per admit, not above %.0f"
      words admit_words_bound

(* ------------------------------------------------------------------ *)
(* Conversion successor lists                                           *)

let prop_conv_successors_match_dense =
  QCheck.Test.make ~name:"conv successors = dense cost scan" ~count:100
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 9200) in
      let w = 2 + Rng.int rng 6 in
      let spec =
        match Rng.int rng 4 with
        | 0 -> Conv.No_conversion
        | 1 -> Conv.Full (Rng.uniform rng)
        | 2 -> Conv.Range (Rng.int rng w, Rng.uniform rng)
        | _ ->
          Conv.Table
            (Array.init w (fun p ->
                 Array.init w (fun q ->
                     if p = q then Some 0.0
                     else if Rng.uniform rng < 0.5 then Some (Rng.uniform rng)
                     else None)))
      in
      let succ = Conv.successors spec ~n_wavelengths:w in
      let ok = ref true in
      for p = 0 to w - 1 do
        let qs, cs = succ.(p) in
        if Array.length qs <> Array.length cs then ok := false;
        (* Every listed pair is allowed at the listed cost, ascending. *)
        Array.iteri
          (fun i q ->
            if q = p then ok := false;
            if i > 0 && qs.(i - 1) >= q then ok := false;
            match Conv.cost spec p q with
            | Some c -> if c <> cs.(i) then ok := false
            | None -> ok := false)
          qs;
        (* Every allowed pair is listed. *)
        let listed = Array.to_list qs in
        for q = 0 to w - 1 do
          if q <> p then
            match Conv.cost spec p q with
            | Some _ -> if not (List.mem q listed) then ok := false
            | None -> if List.mem q listed then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Batch: arrange cache, speculative engine, parallel determinism       *)

let prop_arrange_sorted =
  QCheck.Test.make ~name:"arrange shortest-first ascending after BFS cache"
    ~count:50 QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 9300) in
      let net = random_net (seed + 9300) in
      preload rng net 0.3;
      let reqs = random_requests rng net 30 in
      let hop req =
        let d =
          Rr_graph.Traversal.bfs_dist
            ~enabled:(fun e -> Net.has_available net e)
            (Net.graph net) ~source:req.Types.src
        in
        let h = d.(req.Types.dst) in
        if h < 0 then max_int else h
      in
      let check_order order cmp =
        let arranged = RR.Batch.arrange net order reqs in
        List.length arranged = List.length reqs
        && fst
             (List.fold_left
                (fun (ok, prev) r ->
                  let h = hop r in
                  ((ok && cmp prev h), h))
                (true, match order with RR.Batch.Longest_first -> max_int | _ -> 0)
                arranged)
      in
      check_order RR.Batch.Shortest_first (fun a b -> a <= b)
      && check_order RR.Batch.Longest_first (fun a b -> a >= b))

let prop_route_parallel_identical =
  QCheck.Test.make ~name:"route_parallel ~jobs:4 = sequential route" ~count:20
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed + 9400) in
      let net = random_net ~n:10 ~w:3 (seed + 9400) in
      preload rng net 0.2;
      let reqs = random_requests rng net 25 in
      let seq = RR.Batch.route (Net.copy net) RR.Router.Cost_approx reqs in
      let par =
        RR.Batch.route_parallel ~jobs:4 (Net.copy net) RR.Router.Cost_approx reqs
      in
      same_result seq par)

let test_route_parallel_jobs_invariant () =
  let rng = Rng.create 4242 in
  let net = random_net ~n:10 ~w:4 4242 in
  preload rng net 0.25;
  let reqs = random_requests rng net 30 in
  List.iter
    (fun policy ->
      let base = RR.Batch.route (Net.copy net) policy reqs in
      List.iter
        (fun jobs ->
          let r = RR.Batch.route_parallel ~jobs (Net.copy net) policy reqs in
          checkb
            (Printf.sprintf "%s jobs=%d" (RR.Router.policy_name policy) jobs)
            true (same_result base r))
        [ 1; 2; 4 ])
    [ RR.Router.Cost_approx; RR.Router.Load_cost; RR.Router.First_fit ]

let test_route_parallel_shared_pool () =
  (* A long-lived pool reused across batches behaves like per-call pools. *)
  let rng = Rng.create 777 in
  let net1 = random_net ~n:9 777 in
  let net2 = random_net ~n:9 778 in
  preload rng net1 0.2;
  let reqs1 = random_requests rng net1 20 in
  let reqs2 = random_requests rng net2 20 in
  RR.Parallel.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun (net, reqs) ->
          let seq = RR.Batch.route (Net.copy net) RR.Router.Two_step reqs in
          let par =
            RR.Batch.route_parallel ~pool (Net.copy net) RR.Router.Two_step reqs
          in
          checkb "pooled batch identical" true (same_result seq par))
        [ (net1, reqs1); (net2, reqs2) ])

let test_route_orders_identical_across_jobs () =
  let rng = Rng.create 31337 in
  let net = random_net ~n:10 31337 in
  preload rng net 0.3;
  let reqs = random_requests rng net 25 in
  List.iter
    (fun order ->
      let seq = RR.Batch.route ~order (Net.copy net) RR.Router.Unprotected reqs in
      let par =
        RR.Batch.route_parallel ~order ~jobs:4 (Net.copy net)
          RR.Router.Unprotected reqs
      in
      checkb (RR.Batch.order_name order) true (same_result seq par))
    [
      RR.Batch.Fifo; RR.Batch.Shortest_first; RR.Batch.Longest_first;
      RR.Batch.Random 5;
    ]

let test_route_admissions_validate () =
  (* The speculative engine must leave the network in a state consistent
     with its reported outcomes. *)
  let rng = Rng.create 99 in
  let net = random_net ~n:10 ~w:3 99 in
  preload rng net 0.2;
  let reqs = random_requests rng net 30 in
  let before = Net.total_in_use net in
  let r = RR.Batch.route_parallel ~jobs:2 net RR.Router.Cost_approx reqs in
  let consumed =
    List.fold_left
      (fun acc o ->
        match o.RR.Batch.solution with
        | Some sol ->
          let count p = List.length p.Rr_wdm.Semilightpath.hops in
          acc + count sol.Types.primary
          + (match sol.Types.backup with Some b -> count b | None -> 0)
        | None -> acc)
      0 r.RR.Batch.outcomes
  in
  checkb "wavelength conservation" true
    (Net.total_in_use net = before + consumed);
  checkb "admitted + dropped = batch" true
    (r.RR.Batch.admitted + r.RR.Batch.dropped = List.length reqs)

let test_batch_total_cost_is_admission_sum () =
  (* [total_cost] is accumulated at each allocation point; since link and
     conversion costs are immutable, re-summing [Types.total_cost] over
     the admitted outcomes in processing order must reproduce it bit for
     bit — for all three batch engines. *)
  let rng = Rng.create 555 in
  let net = random_net ~n:10 ~w:3 555 in
  preload rng net 0.2;
  let reqs = random_requests rng net 30 in
  List.iter
    (fun (name, engine) ->
      let n = Net.copy net in
      let r = engine n reqs in
      let sum =
        List.fold_left
          (fun acc o ->
            match o.RR.Batch.solution with
            | Some sol -> acc +. Types.total_cost n sol
            | None -> acc)
          0.0 r.RR.Batch.outcomes
      in
      checkb (name ^ ": total_cost = per-admission sum") true
        (r.RR.Batch.total_cost = sum))
    [
      ("process", fun n reqs -> RR.Batch.process n RR.Router.Cost_approx reqs);
      ("route", fun n reqs -> RR.Batch.route n RR.Router.Cost_approx reqs);
      ( "route_parallel",
        fun n reqs ->
          RR.Batch.route_parallel ~jobs:4 n RR.Router.Cost_approx reqs );
    ]

let test_shard_resync_across_mutations () =
  (* Pool-resident shards are resynced, not rebuilt, when the same live
     network comes back with a different residual state.  Interleave
     batches with releases and failure flips and demand every round stays
     identical to a fresh sequential run. *)
  let rng = Rng.create 2024 in
  let net = random_net ~n:10 ~w:4 2024 in
  preload rng net 0.2;
  let m = Net.n_links net in
  RR.Parallel.with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      for round = 0 to 3 do
        let reqs = random_requests rng net 12 in
        let seq = RR.Batch.route (Net.copy net) RR.Router.Load_cost reqs in
        let par = RR.Batch.route_parallel ~pool net RR.Router.Load_cost reqs in
        checkb (Printf.sprintf "round %d identical" round) true
          (same_result seq par);
        (* Mutate the live network so the next resync has a real delta. *)
        List.iteri
          (fun i o ->
            match o.RR.Batch.solution with
            | Some sol when i mod 2 = 0 -> Types.release net sol
            | _ -> ())
          par.RR.Batch.outcomes;
        let e = round * 5 mod m in
        if Net.is_failed net e then Net.repair_link net e
        else Net.fail_link net e
      done)

(* ------------------------------------------------------------------ *)
(* Parallel pool plumbing                                               *)

let test_parallel_map_basic () =
  RR.Parallel.with_pool ~jobs:4 (fun pool ->
      let arr = Array.init 100 Fun.id in
      let out =
        RR.Parallel.map pool ~worker:(fun i -> i) ~f:(fun _ x -> x * x) arr
      in
      checkb "squares" true (out = Array.init 100 (fun i -> i * i)))

let test_parallel_exception_propagates () =
  RR.Parallel.with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "worker failure re-raised" (Failure "boom")
        (fun () ->
          ignore
            (RR.Parallel.map pool ~worker:(fun i -> i)
               ~f:(fun _ x -> if x = 7 then failwith "boom" else x)
               (Array.init 16 Fun.id)));
      (* The pool survives a failed job. *)
      let out =
        RR.Parallel.map pool ~worker:(fun i -> i) ~f:(fun _ x -> x + 1)
          (Array.init 8 Fun.id)
      in
      checkb "pool reusable after failure" true
        (out = Array.init 8 (fun i -> i + 1)))

let test_parallel_map_shared_cursor () =
  (* The shared-cursor scheduler must evaluate [f] exactly once per index
     and return the results in index order, on an empty array and under
     a skewed per-item cost, with more workers than the host may have. *)
  RR.Parallel.with_pool ~oversubscribe:true ~jobs:4 (fun pool ->
      let n = 257 in
      let arr = Array.init n Fun.id in
      let run f =
        let calls = Array.init n (fun _ -> Atomic.make 0) in
        let out =
          RR.Parallel.map pool
            ~worker:(fun _ -> ())
            ~f:(fun () x ->
              Atomic.incr calls.(x);
              f x)
            arr
        in
        (out, Array.for_all (fun c -> Atomic.get c = 1) calls)
      in
      let out, once = run (fun x -> (x * 3) + 1) in
      checkb "index order" true (out = Array.map (fun x -> (x * 3) + 1) arr);
      checkb "each index evaluated once" true once;
      checkb "empty array" true
        (RR.Parallel.map pool ~worker:(fun _ -> ()) ~f:(fun () x -> x) [||]
        = [||]);
      let skewed, once =
        run (fun x ->
            if x < 64 then begin
              (* the first indices are expensive: while they run, the
                 other workers drain the rest of the array *)
              let s = ref 0 in
              for i = 1 to 20_000 do
                s := !s + i
              done;
              ignore !s
            end;
            x)
      in
      checkb "skewed workload exact" true (skewed = arr);
      checkb "skewed: each index evaluated once" true once)

let test_parallel_slot_state_persists () =
  (* Typed per-worker slots survive across map calls on the same pool. *)
  let counter_slot : int ref RR.Parallel.slot = RR.Parallel.slot () in
  RR.Parallel.with_pool ~oversubscribe:true ~jobs:3 (fun pool ->
      let touch () =
        ignore
          (RR.Parallel.map pool
             ~worker:(fun w ->
               let r =
                 match
                   RR.Parallel.get_state pool counter_slot ~worker:w
                 with
                 | Some r -> r
                 | None ->
                   let r = ref 0 in
                   RR.Parallel.set_state pool counter_slot ~worker:w r;
                   r
               in
               incr r;
               r)
             ~f:(fun _ x -> x)
             (Array.init 12 Fun.id))
      in
      touch ();
      touch ();
      touch ();
      let total = ref 0 in
      for w = 0 to RR.Parallel.size pool - 1 do
        match RR.Parallel.get_state pool counter_slot ~worker:w with
        | Some r -> total := !total + !r
        | None -> ()
      done;
      checkb "each worker's slot saw all three calls" true
        (!total = 3 * RR.Parallel.size pool))

let test_parallel_clamp_and_defaults () =
  let module Obs = Rr_obs.Obs in
  let recommended = RR.Parallel.recommended_jobs () in
  (* Requesting more workers than the machine recommends clamps the pool
     and records the event — no silent oversubscription. *)
  let obs = Obs.create () in
  let p = RR.Parallel.create ~obs ~jobs:(recommended + 3) () in
  checkb "pool clamped to recommended" true
    (RR.Parallel.size p = recommended);
  checkb "clamp recorded" true
    (Rr_obs.Metrics.counter (Obs.metrics obs) "parallel.oversubscribed" = 1);
  RR.Parallel.shutdown p;
  (* ~oversubscribe:true opts out of the clamp (and of the counter). *)
  let obs2 = Obs.create () in
  RR.Parallel.with_pool ~obs:obs2 ~oversubscribe:true
    ~jobs:(recommended + 1) (fun pool ->
      checkb "oversubscribe honored" true
        (RR.Parallel.size pool = recommended + 1));
  checkb "no clamp counted when opted out" true
    (Rr_obs.Metrics.counter (Obs.metrics obs2) "parallel.oversubscribed" = 0);
  checkb "default_jobs = recommended with ceiling 8" true
    (RR.Parallel.default_jobs () = min 8 recommended)

(* [recommended_jobs] is one memoized read of
   [Domain.recommended_domain_count]: the default width and the
   oversubscription clamp must agree on a single stable machine width
   for the process lifetime, including when read concurrently. *)
let test_recommended_jobs_memoized () =
  let first = RR.Parallel.recommended_jobs () in
  for _ = 1 to 100 do
    checkb "repeated reads are stable" true
      (RR.Parallel.recommended_jobs () = first)
  done;
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> RR.Parallel.recommended_jobs ()))
  in
  List.iter
    (fun d ->
      checkb "concurrent reads agree" true (Domain.join d = first))
    domains;
  checkb "default_jobs derives from the memoized width" true
    (RR.Parallel.default_jobs () = min 8 first)

let suite =
  [
    ( "perf.workspace",
      [
        qtest prop_pooled_layered_matches;
        qtest prop_pooled_router_matches;
        Alcotest.test_case "stale tree raises" `Quick
          test_workspace_stale_tree_raises;
        Alcotest.test_case "growth isolation" `Quick
          test_workspace_growth_preserves_isolation;
        qtest prop_conv_successors_match_dense;
      ] );
    ( "perf.alloc",
      [
        Alcotest.test_case "cached admit within bound at W=16 and W=64" `Quick
          test_cached_admit_allocation;
        Alcotest.test_case "rebuild path exceeds the bound" `Quick
          test_rebuild_path_exceeds_bound;
      ] );
    ( "perf.batch",
      [
        qtest prop_arrange_sorted;
        qtest prop_route_parallel_identical;
        Alcotest.test_case "jobs invariance" `Quick
          test_route_parallel_jobs_invariant;
        Alcotest.test_case "shared pool" `Quick test_route_parallel_shared_pool;
        Alcotest.test_case "orders identical" `Quick
          test_route_orders_identical_across_jobs;
        Alcotest.test_case "conservation" `Quick test_route_admissions_validate;
        Alcotest.test_case "total_cost is admission sum" `Quick
          test_batch_total_cost_is_admission_sum;
        Alcotest.test_case "shard resync across mutations" `Quick
          test_shard_resync_across_mutations;
      ] );
    ( "perf.parallel",
      [
        Alcotest.test_case "map basic" `Quick test_parallel_map_basic;
        Alcotest.test_case "exception propagation" `Quick
          test_parallel_exception_propagates;
        Alcotest.test_case "map shared cursor" `Quick
          test_parallel_map_shared_cursor;
        Alcotest.test_case "slot state persists" `Quick
          test_parallel_slot_state_persists;
        Alcotest.test_case "clamp and defaults" `Quick
          test_parallel_clamp_and_defaults;
        Alcotest.test_case "recommended_jobs memoized" `Quick
          test_recommended_jobs_memoized;
      ] );
  ]
