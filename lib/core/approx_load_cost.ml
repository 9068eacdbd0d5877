module Aux = Rr_wdm.Auxiliary
module Obs = Rr_obs.Obs

type result = Mincog.result = {
  theta : float;
  bottleneck : float;
  solution : Types.solution;
}

let route ?aux_cache ?base ?resolution ?workspace ?(obs = Obs.null) net ~source
    ~target =
  (* Phase 1 syncs the cache; the network is untouched between phases, so
     the G_rc view below needs no second sync. *)
  match
    Mincog.route ?aux_cache ?base ?resolution ?workspace ~obs net ~source
      ~target
  with
  | None -> None
  | Some phase1 ->
    let theta = phase1.theta in
    let aux, enabled =
      match aux_cache with
      | Some cache ->
        let aux, enabled = Rr_wdm.Aux_cache.grc_view cache ~theta ~source ~target in
        (aux, Some enabled)
      | None ->
        let t0 = Obs.start obs in
        let aux = Aux.grc net ~theta ~source ~target in
        Obs.stop obs "stage.aux_graph" t0;
        (aux, None)
    in
    (match
       Approx_cost.find_two_paths ?workspace ~obs ?enabled net aux ~source
         ~target
     with
     | Ok d ->
       Some { theta; bottleneck = Mincog.bottleneck net d; solution = d.solution }
     | Error _ ->
       (* ϑ was feasible in phase 1, so G_rc (same topology as G_c) must
          admit a pair; fall back to the phase-1 routes defensively. *)
       Some phase1)
