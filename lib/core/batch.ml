module Net = Rr_wdm.Network
module Obs = Rr_obs.Obs
module Bitset = Rr_util.Bitset

type order =
  | Fifo
  | Shortest_first
  | Longest_first
  | Random of int

type outcome = {
  request : Types.request;
  solution : Types.solution option;
}

type result = {
  outcomes : outcome list;
  admitted : int;
  dropped : int;
  total_cost : float;
  final_load : float;
}

let order_name = function
  | Fifo -> "fifo"
  | Shortest_first -> "shortest-first"
  | Longest_first -> "longest-first"
  | Random _ -> "random"

let in_range net v = v >= 0 && v < Net.n_nodes net

let valid net req =
  in_range net req.Types.src && in_range net req.Types.dst
  && req.Types.src <> req.Types.dst

let arrange net order requests =
  match order with
  | Fifo -> requests
  | Shortest_first | Longest_first ->
    (* One BFS per distinct source, not per request: batch workloads
       typically repeat sources, and each BFS is O(n + m). *)
    let trees = Hashtbl.create 8 in
    let dist_from src =
      match Hashtbl.find_opt trees src with
      | Some d -> d
      | None ->
        let d =
          Rr_graph.Traversal.bfs_dist
            ~enabled:(fun e -> Net.has_available net e)
            (Net.graph net) ~source:src
        in
        Hashtbl.add trees src d;
        d
    in
    (* An endpoint out of range keys as unreachable, without a BFS: such
       requests are dropped later, never raised on. *)
    let keyed =
      List.map
        (fun r ->
          let h =
            if in_range net r.Types.src && in_range net r.Types.dst then
              (dist_from r.Types.src).(r.Types.dst)
            else -1
          in
          ((if h < 0 then max_int else h), r))
        requests
    in
    let cmp (a, _) (b, _) =
      match order with Longest_first -> compare b a | _ -> compare a b
    in
    List.map snd (List.stable_sort cmp keyed)
  | Random seed ->
    let arr = Array.of_list requests in
    Rr_util.Rng.shuffle (Rr_util.Rng.create seed) arr;
    Array.to_list arr

(* The in-order walk every engine ends in: [admit i req] handles the
   [i]-th request on the live network, allocating what it admits.  Request
   ids are batch positions, so stage spans and journal events recorded
   during turn [i] are attributable to [ordered]'s [i]-th request. *)
let walk net ordered admit =
  let total = ref 0.0 in
  let outcomes =
    List.mapi
      (fun i req ->
        let solution = admit i req in
        (* Cost snapshot at the admission point: later admissions mutate
           the network, and the sum must be over each solution's cost as
           admitted. *)
        (match solution with
        | Some sol -> total := !total +. Types.total_cost net sol
        | None -> ());
        { request = req; solution })
      ordered
  in
  let admitted = List.length (List.filter (fun o -> Option.is_some o.solution) outcomes) in
  {
    outcomes;
    admitted;
    dropped = List.length outcomes - admitted;
    total_cost = !total;
    final_load = Net.network_load net;
  }

let process ?(order = Fifo) ?obs net policy requests =
  (* One incremental auxiliary-graph engine for the whole sequential
     sweep: each admission's sync recomputes only the links the previous
     allocation touched. *)
  let cache = Rr_wdm.Aux_cache.create net in
  walk net (arrange net order requests) (fun i req ->
      if valid net req then
        Router.admit ~aux_cache:cache ?obs ~req:i net policy
          ~source:req.Types.src ~target:req.Types.dst
      else None)

(* ------------------------------------------------------------------ *)
(* Speculative two-phase batch engine.

   Phase A routes every request read-only against a snapshot of the
   network as it stood when the batch arrived — requests do not see each
   other, so the phase parallelises perfectly.  Phase B commits the batch
   in order on the live network (validate each speculative solution,
   allocate it if it still holds, recompute it on the live network
   otherwise).  A request that found no route against the snapshot is
   dropped outright — admissions only consume resources, so a request
   infeasible on the snapshot is also infeasible on the live network.

   Phase B never depends on how Phase A was executed, so [route] and
   [route_parallel] produce identical results by construction. *)

(* Callers run this in the scope of the request's batch position
   ([Obs.set_request]): phase-A spans carry it so a request's speculation
   is attributable even after the worker forks are merged (ids survive
   [Obs.merge]). *)
let speculate_one ~obs snapshot cache ws policy rq =
  if valid snapshot rq then
    Router.route ~aux_cache:cache ~workspace:ws ~obs snapshot policy
      ~source:rq.Types.src ~target:rq.Types.dst
  else None

(* ------------------------------------------------------------------ *)
(* Pool-resident worker shards.

   A shard is one worker's complete speculation state: a private network
   snapshot, the incremental auxiliary-graph engine bound to it, and a
   scratch workspace.  Building one costs a deep network copy plus a full
   [Aux_cache.create] — orders of magnitude more than routing a single
   request — so shards live in the pool's typed state slots and survive
   across [route_parallel] calls.  Reacquiring a shard for the same live
   network only replays the residual-state delta (per-link bitset diff,
   then an [Aux_cache.sync] that recomputes the touched links); a shard
   bound to a different network is rebuilt in full.

   Worker 0's shard also carries phase B's engine: [sh_commit], an
   [Aux_cache] bound to the live network itself, built on the first
   fallback against that network and afterwards only synced by
   [Router.admit].  Worker 0 is the calling domain and the pool is idle
   during phase B, so the commit walk may use it (and [sh_ws]) there. *)

type shard = {
  sh_snap : Net.t;                    (* worker-private snapshot *)
  sh_cache : Rr_wdm.Aux_cache.t;      (* bound to [sh_snap] *)
  sh_ws : Rr_util.Workspace.t;
  sh_live : Net.t;                    (* the live network mirrored *)
  sh_commit : Rr_wdm.Aux_cache.t Lazy.t;  (* bound to [sh_live] *)
}

let shard_slot : shard Parallel.slot = Parallel.slot ()

let fresh_shard live =
  let snap = Net.copy live in
  {
    sh_snap = snap;
    sh_cache = Rr_wdm.Aux_cache.create snap;
    sh_ws = Rr_util.Workspace.create ();
    sh_live = live;
    sh_commit = lazy (Rr_wdm.Aux_cache.create live);
  }

(* Replay the live network's residual state onto the snapshot link by
   link: releases for wavelengths freed since the last sync, allocations
   for ones consumed, failure flags last (a link failed on both sides can
   still have drifted usage — repair, patch, re-fail). *)
let resync_shard sh =
  let live = sh.sh_live and snap = sh.sh_snap in
  for e = 0 to Net.n_links live - 1 do
    let live_failed = Net.is_failed live e in
    let ul = Net.used live e and us = Net.used snap e in
    let drifted = (ul != us) && not (Bitset.equal ul us) in
    if Net.is_failed snap e && (drifted || not live_failed) then
      Net.repair_link snap e;
    if drifted then begin
      Bitset.iter (fun l -> Net.release snap e l) (Bitset.diff us ul);
      Bitset.iter (fun l -> Net.allocate snap e l) (Bitset.diff ul us)
    end;
    if live_failed && not (Net.is_failed snap e) then Net.fail_link snap e
  done;
  ignore (Rr_wdm.Aux_cache.sync sh.sh_cache : Rr_wdm.Aux_cache.sync_stats)

let shard_for ?(obs = Obs.null) pool live w =
  match Parallel.get_state pool shard_slot ~worker:w with
  | Some sh when sh.sh_live == live ->
    let t0 = Obs.start obs in
    resync_shard sh;
    Obs.stop obs "parallel.shard_resync" t0;
    sh
  | _ ->
    let sh = fresh_shard live in
    Parallel.set_state pool shard_slot ~worker:w sh;
    sh

(* Phase B's engine on a pool: worker 0's shard, which phase A has just
   bound to [live] (an empty batch binds nothing, but has no fallback
   either). *)
let commit_engine pool live =
  let sh =
    match Parallel.get_state pool shard_slot ~worker:0 with
    | Some sh when sh.sh_live == live -> sh
    | _ -> shard_for pool live 0
  in
  (Lazy.force sh.sh_commit, sh.sh_ws)

(* Phase B.  [specs.(k)] is the phase-A solution of [ordered]'s [k]-th
   request.  [engine] is the live-network cache and workspace for
   re-routes, forced only on the slow path: batches whose speculations
   all hold never touch it. *)
let apply ~obs ~engine net policy ordered (specs : Types.solution option array)
    =
  let t_commit = Obs.start obs in
  let result =
    walk net ordered (fun k req ->
        match specs.(k) with
        | None -> None
        | Some sol -> (
          match Types.validate net req sol with
          | Ok () ->
            Types.allocate net sol;
            Some sol
          | Error _ ->
            Obs.add obs "batch.conflict.fallbacks" 1;
            Obs.event obs ~a:k "journal.batch.fallback";
            let cache, ws = Lazy.force engine in
            Router.admit ~aux_cache:cache ~workspace:ws ~obs ~req:k net policy
              ~source:req.Types.src ~target:req.Types.dst))
  in
  Obs.stop obs "stage.commit" t_commit;
  result

let route ?(order = Fifo) ?(obs = Obs.null) net policy requests =
  let ordered = arrange net order requests in
  let snapshot = Net.copy net in
  let cache = Rr_wdm.Aux_cache.create snapshot in
  let ws = Rr_util.Workspace.create () in
  let speculative =
    Array.of_list
      (List.mapi
         (fun i req ->
           Obs.set_request obs i;
           let sol = speculate_one ~obs snapshot cache ws policy req in
           Obs.clear_request obs;
           sol)
         ordered)
  in
  (* No pool to park an engine on: the live-network cache is built per
     call, and only if a speculation fails. *)
  apply ~obs
    ~engine:(lazy (Rr_wdm.Aux_cache.create net, ws))
    net policy ordered speculative

let route_parallel ?(order = Fifo) ?pool ?jobs ?(obs = Obs.null) net policy
    requests =
  let ordered = arrange net order requests in
  let run_with p =
    let size = Parallel.size p in
    (* Each worker records into a private fork (tid = worker index + 1,
       the parent keeping tid 0); the forks are merged back in worker
       order after the join, so the combined registry is independent of
       how the scheduler interleaved requests across workers.  All metric
       merges are integer sums/maxes, so merged totals equal a sequential
       run's. *)
    let forks =
      if Obs.enabled obs then
        Array.init size (fun i -> Obs.fork obs ~tid:(i + 1))
      else Array.make size Obs.null
    in
    let reqs = Array.of_list (List.mapi (fun i req -> (i, req)) ordered) in
    let speculative =
      Parallel.map p
        ~worker:(fun i -> (shard_for ~obs:forks.(i) p net i, forks.(i)))
        ~f:(fun (sh, fork) (i, req) ->
          Obs.set_request fork i;
          let t0 = Obs.start fork in
          let sol =
            speculate_one ~obs:fork sh.sh_snap sh.sh_cache sh.sh_ws policy req
          in
          Obs.stop fork "parallel.speculate" t0;
          Obs.clear_request fork;
          sol)
        reqs
    in
    if Obs.enabled obs then Array.iter (fun f -> Obs.merge ~into:obs f) forks;
    apply ~obs ~engine:(lazy (commit_engine p net)) net policy ordered
      speculative
  in
  match pool with
  | Some p -> run_with p
  | None ->
    let jobs =
      match jobs with Some j -> j | None -> Parallel.default_jobs ()
    in
    if jobs < 1 then
      invalid_arg "Batch.route_parallel: jobs must be at least 1";
    Parallel.with_pool ~obs ~jobs run_with
