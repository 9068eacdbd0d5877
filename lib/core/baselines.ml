module Net = Rr_wdm.Network
module Layered = Rr_wdm.Layered
module Slp = Rr_wdm.Semilightpath
module Obs = Rr_obs.Obs

(* Layered optima are walks; screen out the rare non-link-simple ones so
   baselines never hand the admission validator an invalid path (see
   {!Slp.link_simple}). *)
let simple_only = function
  | Some (p, _) when not (Slp.link_simple p) -> None
  | r -> r

let two_step ?workspace ?(obs = Obs.null) net ~source ~target =
  match simple_only (Layered.optimal ~obs ?workspace net ~source ~target) with
  | None -> None
  | Some (p1, _) ->
    let link_enabled =
      match workspace with
      | Some ws ->
        Rr_util.Workspace.mark_reset ws (Net.n_links net);
        List.iter (Rr_util.Workspace.mark ws) (Slp.links p1);
        fun e -> not (Rr_util.Workspace.marked ws e)
      | None ->
        let used = Hashtbl.create 16 in
        List.iter (fun e -> Hashtbl.replace used e ()) (Slp.links p1);
        fun e -> not (Hashtbl.mem used e)
    in
    (match
       simple_only
         (Layered.optimal ~obs ?workspace net ~link_enabled ~source ~target)
     with
     | None -> None
     | Some (p2, _) -> Some { Types.primary = p1; backup = Some p2 })

let unprotected ?workspace ?(obs = Obs.null) net ~source ~target =
  match simple_only (Layered.optimal ~obs ?workspace net ~source ~target) with
  | None -> None
  | Some (p, _) -> Some { Types.primary = p; backup = None }

(* Hop-count shortest route; wavelengths assigned greedily afterwards in a
   caller-supplied preference order (first-fit = identity order, most-used
   = packing order, least-used = spreading order; cf. the adaptive RWA
   heuristics of Mokhtar & Azizoglu, the paper's ref [16]). *)
let greedy_path ?workspace ?obs net ~prefer ~link_enabled ~source ~target =
  let g = Net.graph net in
  let enabled e = link_enabled e && Net.has_available net e in
  match
    Rr_graph.Dijkstra.shortest_path ~enabled ?obs ?workspace g
      ~weight:(Array.make (Rr_graph.Digraph.n_edges g) 1.0)
      ~source ~target
  with
  | None -> None
  | Some (links, _) ->
    (* Keep the current wavelength while available; otherwise the most
       preferred available wavelength reachable by an allowed conversion. *)
    let rec assign current acc = function
      | [] -> Some (List.rev acc)
      | e :: rest ->
        let avail = Net.available net e in
        let v = Net.link_src net e in
        let choose =
          match current with
          | Some l when Rr_util.Bitset.mem avail l -> Some l
          | Some l ->
            List.find_opt
              (fun l' ->
                Rr_util.Bitset.mem avail l' && Net.conv_allowed net v l l')
              (prefer ())
          | None -> List.find_opt (Rr_util.Bitset.mem avail) (prefer ())
        in
        (match choose with
         | None -> None
         | Some l -> assign (Some l) ({ Slp.edge = e; lambda = l } :: acc) rest)
    in
    (match assign None [] links with
     | None -> None
     | Some hops -> Some ({ Slp.hops }, links))

let greedy_pair ?workspace ?obs net ~prefer ~source ~target =
  match
    greedy_path ?workspace ?obs net ~prefer
      ~link_enabled:(fun _ -> true)
      ~source ~target
  with
  | None -> None
  | Some (p1, links1) ->
    let used = Hashtbl.create 16 in
    List.iter (fun e -> Hashtbl.replace used e ()) links1;
    let link_enabled e = not (Hashtbl.mem used e) in
    (match greedy_path ?workspace ?obs net ~prefer ~link_enabled ~source ~target with
     | None -> None
     | Some (p2, _) -> Some { Types.primary = p1; backup = Some p2 })

let first_fit ?workspace ?obs net ~source ~target =
  let order = List.init (Net.n_wavelengths net) Fun.id in
  greedy_pair ?workspace ?obs net ~prefer:(fun () -> order) ~source ~target

let most_used_fit ?workspace ?obs net ~source ~target =
  greedy_pair ?workspace ?obs net
    ~prefer:(fun () -> Rr_wdm.Usage.most_used_order net)
    ~source ~target

let least_used_fit ?workspace ?obs net ~source ~target =
  greedy_pair ?workspace ?obs net
    ~prefer:(fun () -> Rr_wdm.Usage.least_used_order net)
    ~source ~target
