(* Regenerates the NSFNET corpus entries under test/corpus/.

   The PERF-ROUTING scenarios (NSFNET, W = 16, range-1 converters at cost
   200, random preload) are the workloads that historically exposed the
   chained-conversion and link-repeating admission bugs.  The preload is
   baked into the instance here — saturated wavelengths simply disappear
   from the link's lambda set — so each corpus file is a plain,
   self-contained Network_io text that the fuzzer replays against every
   ordered node pair (request=all).

   Usage: dune exec tools/gen_corpus/gen_corpus.exe [DIR]   (default
   test/corpus).

   With [--decisions FILE] ([-] for stdout) it writes the policy-decision
   pin instead: a seeded admit/release stream replayed through
   [Router.admit] for every auxiliary-graph policy, with and without an
   [Aux_cache] and a [Workspace], on NSFNET and on a 30-node random
   network — one line per operation (outcome, cost as a hex float,
   primary and backup hops) — followed by [Mincog.min_bottleneck] and
   [Approx_cost.route_detailed] figures for fixed pairs, and then by a
   batch section: seeded batch streams through [Batch.route] and
   [Batch.route_parallel] (jobs 1 and 2, each on one persistent pool),
   one line per request and one per batch, then by the policy replays
   and pair figures on NSFNET at W = 64 with [Range (2, 0.1)] converters,
   and last by the same on NSFNET at W = 24 with jittered per-wavelength
   weights and [Range (1, 0.1)] converters, which shows last-place changes
   in the auxiliary graph's weights.
   The test suite regenerates it and diffs against
   test/corpus/policy_decisions.txt. *)

module Rng = Rr_util.Rng
module Net = Rr_wdm.Network
module Conv = Rr_wdm.Conversion

let preload_links rng net preload =
  for e = 0 to Net.n_links net - 1 do
    Rr_util.Bitset.iter
      (fun l -> if Rng.uniform rng < preload then Net.allocate net e l)
      (Net.lambdas net e)
  done

let perf_net ~preload seed =
  let rng = Rng.create seed in
  let net =
    Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:16
      ~converter:(fun _ -> Conv.Range (1, 200.0))
      Rr_topo.Reference.nsfnet
  in
  preload_links rng net preload;
  net

let all_pairs_repro ~case inst =
  Rr_check.Instance.to_repro ~case inst
  |> String.split_on_char '\n'
  |> List.map (fun line ->
         if String.starts_with ~prefix:"# rr-check request=" line then
           "# rr-check request=all"
         else line)
  |> String.concat "\n"

module RR = Robust_routing
module Router = RR.Router
module Types = RR.Types

let hops (p : Rr_wdm.Semilightpath.t) =
  String.concat ","
    (List.map
       (fun (h : Rr_wdm.Semilightpath.hop) ->
         Printf.sprintf "%d:%d" h.edge h.lambda)
       p.hops)

let solution_text net (sol : Types.solution) =
  Printf.sprintf "cost=%h p=%s b=%s" (Types.total_cost net sol)
    (hops sol.primary)
    (match sol.backup with Some b -> hops b | None -> "-")

let random_net () =
  let rng = Rng.create 31 in
  let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n:30 ~degree:4 in
  let net =
    Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:8 ~lambda_density:0.7
      ~weight_jitter:0.2 topo
  in
  preload_links rng net 0.3;
  net

let decision_nets () =
  [ ("nsfnet", perf_net ~preload:0.4 47); ("random30", random_net ()) ]

(* NSFNET at W = 64 with range-2 converters at a cost that is not a binary
   fraction: the conversion means sum [c] once per non-identity pair, and
   that sum is not [float k *. c] for every k. *)
let wide_net () =
  let rng = Rng.create 64 in
  let net =
    Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:64
      ~converter:(fun _ -> Conv.Range (2, 0.1))
      Rr_topo.Reference.nsfnet
  in
  preload_links rng net 0.5;
  net

(* NSFNET at W = 24 with per-wavelength link weights jittered by ±30%
   and range-1 converters at cost 0.1: no weight, traversal mean or
   conversion mean is a binary fraction, so a change in the order of any
   sum the auxiliary graph takes moves its last place.  Link lengths are
   in units of 10^4 km (0.06 to 0.28), on the scale of the conversion
   cost: against kilometres a last-place change in a conversion mean is
   lost in the pair weights printed by [pair_figures] (seeded with
   [float k *. c] for the k-fold sum, it changed none of them; here it
   changes four lines). *)
let jitter_net () =
  let rng = Rng.create 65 in
  let nsfnet = Rr_topo.Reference.nsfnet in
  let topo =
    {
      nsfnet with
      Rr_topo.Fitout.t_links =
        List.map
          (fun (u, v, km) -> (u, v, km *. 1e-4))
          nsfnet.Rr_topo.Fitout.t_links;
    }
  in
  let net =
    Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:24 ~weight_jitter:0.3
      ~converter:(fun _ -> Conv.Range (1, 0.1))
      topo
  in
  preload_links rng net 0.4;
  net

let policies =
  Router.[ Cost_approx; Load_aware; Load_cost; Node_protect ]

(* (with Aux_cache, with Workspace) *)
let modes = [ (false, false); (false, true); (true, false); (true, true) ]

let scratch net ~cached ~pooled =
  ( (if cached then Some (Rr_wdm.Aux_cache.create net) else None),
    if pooled then Some (Rr_util.Workspace.create ()) else None )

(* One seeded stream per network: [`Admit (s, t)] or [`Release r], where
   the r-th held connection (mod the number held) is released. *)
let stream net =
  let rng = Rng.create 5 in
  let n = Net.n_nodes net in
  List.init 200 (fun _ ->
      if Rng.uniform rng < 0.8 then begin
        let s = Rng.int rng n in
        let t = (s + 1 + Rng.int rng (n - 1)) mod n in
        `Admit (s, t)
      end
      else `Release (Rng.int rng 1_000_000))

let replay out name base policy ~cached ~pooled =
  let net = Net.copy base in
  let aux_cache, workspace = scratch net ~cached ~pooled in
  let held = ref [] in
  List.iteri
    (fun i op ->
      let line =
        match op with
        | `Admit (source, target) -> (
          match
            Router.admit ?aux_cache ?workspace net policy ~source ~target
          with
          | Some sol ->
            held := !held @ [ sol ];
            Printf.sprintf "admit %d->%d ok %s" source target
              (solution_text net sol)
          | None -> Printf.sprintf "admit %d->%d blocked" source target)
        | `Release r -> (
          match !held with
          | [] -> "release none"
          | l ->
            let k = r mod List.length l in
            Types.release net (List.nth l k);
            held := List.filteri (fun j _ -> j <> k) l;
            Printf.sprintf "release %d" k)
      in
      Printf.fprintf out "%s %s cache=%b ws=%b op=%d %s\n" name
        (Router.policy_name policy) cached pooled i line)
    (stream base)

let pair_figures out name net =
  let n = Net.n_nodes net in
  List.iter
    (fun (s, t) ->
      let source = s mod n and target = t mod n in
      List.iter
        (fun (cached, pooled) ->
          let aux_cache, workspace = scratch net ~cached ~pooled in
          let tag =
            Printf.sprintf "%s %d->%d cache=%b ws=%b" name source target cached
              pooled
          in
          (match
             RR.Mincog.min_bottleneck ?aux_cache ?workspace net ~source ~target
           with
           | Some (b, sol) ->
             Printf.fprintf out "%s min_bottleneck=%h %s\n" tag b
               (solution_text net sol)
           | None -> Printf.fprintf out "%s min_bottleneck=none\n" tag);
          match
            RR.Approx_cost.route_detailed ?aux_cache ?workspace net ~source
              ~target
          with
          | Some d ->
            Printf.fprintf out "%s aux_weight=%h refined_cost=%h %s\n" tag
              d.RR.Approx_cost.aux_weight d.refined_cost
              (solution_text net d.solution)
          | None -> Printf.fprintf out "%s route_detailed=none\n" tag)
        modes)
    [ (0, 1); (0, 13); (3, 9); (5, 11); (7, 2); (12, 4); (1, 28); (17, 22) ]

(* Batch streams: [n_batches] seeded batches of [size] requests.  Between
   two batches some held connections are released and a link is failed
   (or the last failed one repaired), so a persistent pool's shards
   resync a real delta and later speculations go stale (fallbacks). *)
let n_batches = 4

let batch_stream net ~size =
  let rng = Rng.create (1000 + size) in
  let n = Net.n_nodes net in
  List.init n_batches (fun _ ->
      List.init size (fun _ ->
          let s = Rng.int rng n in
          { Types.src = s; dst = (s + 1 + Rng.int rng (n - 1)) mod n }))

let replay_batches out tag base ~size ~order engine =
  let net = Net.copy base in
  let rng = Rng.create (2000 + size) in
  let held = ref [] in
  let failed = ref None in
  List.iteri
    (fun bi reqs ->
      let obs = Rr_obs.Obs.create () in
      let (r : RR.Batch.result) = engine ~order ~obs net reqs in
      List.iteri
        (fun i (o : RR.Batch.outcome) ->
          let rq = o.request in
          Printf.fprintf out "%s batch=%d pos=%d %d->%d %s\n" tag bi i rq.src
            rq.dst
            (match o.solution with
            | Some sol ->
              held := sol :: !held;
              "ok " ^ solution_text net sol
            | None -> "dropped"))
        r.outcomes;
      Printf.fprintf out
        "%s batch=%d admitted=%d dropped=%d total_cost=%h final_load=%h \
         fallbacks=%d\n"
        tag bi r.admitted r.dropped r.total_cost r.final_load
        (Rr_obs.Metrics.counter (Rr_obs.Obs.metrics obs)
           "batch.conflict.fallbacks");
      held :=
        List.filter
          (fun sol ->
            if Rng.uniform rng < 0.5 then (Types.release net sol; false)
            else true)
          !held;
      match !failed with
      | Some e ->
        Net.repair_link net e;
        failed := None
      | None ->
        let e = Rng.int rng (Net.n_links net) in
        Net.fail_link net e;
        failed := Some e)
    (batch_stream base ~size)

let write_batch_decisions out =
  let policy = Router.Cost_approx in
  RR.Parallel.with_pool ~jobs:1 (fun pool1 ->
      RR.Parallel.with_pool ~oversubscribe:true ~jobs:2 (fun pool2 ->
          let engines =
            [
              ("route", fun ~order ~obs net reqs ->
                  RR.Batch.route ~order ~obs net policy reqs);
              ("parallel1", fun ~order ~obs net reqs ->
                  RR.Batch.route_parallel ~order ~pool:pool1 ~obs net policy
                    reqs);
              ("parallel2", fun ~order ~obs net reqs ->
                  RR.Batch.route_parallel ~order ~pool:pool2 ~obs net policy
                    reqs);
            ]
          in
          List.iter
            (fun preload ->
              let base = perf_net ~preload 47 in
              List.iter
                (fun size ->
                  List.iter
                    (fun order ->
                      List.iter
                        (fun (ename, engine) ->
                          let tag =
                            Printf.sprintf "batch p%02.0f size=%d order=%s %s"
                              (100.0 *. preload) size
                              (RR.Batch.order_name order) ename
                          in
                          replay_batches out tag base ~size ~order engine)
                        engines)
                    RR.Batch.[ Fifo; Longest_first ])
                [ 8; 24; 64 ])
            [ 0.25; 0.5 ]))

let write_net_decisions out (name, net) =
  List.iter
    (fun policy ->
      List.iter
        (fun (cached, pooled) -> replay out name net policy ~cached ~pooled)
        modes)
    policies;
  pair_figures out name net

let write_decisions out =
  List.iter (write_net_decisions out) (decision_nets ());
  write_batch_decisions out;
  write_net_decisions out ("nsfnet64", wide_net ());
  write_net_decisions out ("jitter24", jitter_net ())

let write_corpus dir =
  List.iter
    (fun (seed, preload) ->
      let net = perf_net ~preload seed in
      let inst =
        Rr_check.Instance.of_network net ~source:0 ~target:1
          ~policy:Robust_routing.Router.Cost_approx
      in
      let file =
        Printf.sprintf "%s/nsfnet_seed%d_p%02.0f.wdm" dir seed (100.0 *. preload)
      in
      let oc = open_out file in
      output_string oc (all_pairs_repro ~case:"route" inst);
      close_out oc;
      Printf.printf "wrote %s (%d links usable)\n%!" file
        (Array.length inst.Rr_check.Instance.links))
    [ (47, 0.4); (47, 0.5); (48, 0.4); (48, 0.5); (53, 0.5) ]

let () =
  match Array.to_list Sys.argv with
  | [ _; "--decisions"; "-" ] -> write_decisions stdout
  | [ _; "--decisions"; file ] ->
    let oc = open_out file in
    write_decisions oc;
    close_out oc
  | [ _ ] -> write_corpus "test/corpus"
  | [ _; dir ] -> write_corpus dir
  | _ ->
    prerr_endline "usage: gen_corpus [DIR | --decisions FILE]";
    exit 2
