module Aux = Rr_wdm.Auxiliary
module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module Obs = Rr_obs.Obs

let route ?workspace ?(obs = Obs.null) net ~source ~target =
  let t0 = Obs.start obs in
  let aux = Aux.gprime_gated net ~source ~target in
  Obs.stop obs "stage.aux_graph" t0;
  match Approx_cost.find_two_paths ?workspace ~obs net aux ~source ~target with
  | Ok d -> Some d.solution
  | Error Approx_cost.No_disjoint_pair ->
    Obs.add obs "route.block.no_disjoint_pair" 1;
    None
  | Error Approx_cost.No_wavelength ->
    Obs.add obs "route.block.no_wavelength" 1;
    None

let internal_nodes net p =
  match Slp.links p with
  | [] -> []
  | links ->
    (* every link head except the final one *)
    let rec go = function
      | [ _ ] | [] -> []
      | e :: rest -> Net.link_dst net e :: go rest
    in
    go links

let node_disjoint net sol =
  match sol.Types.backup with
  | None -> true
  | Some b ->
    let i1 = internal_nodes net sol.Types.primary in
    let i2 = internal_nodes net b in
    List.for_all (fun v -> not (List.exists (Int.equal v) i2)) i1
