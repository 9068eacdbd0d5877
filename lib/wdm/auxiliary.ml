module Bitset = Rr_util.Bitset
module Digraph = Rr_graph.Digraph

type arc_kind =
  | Traverse of int
  | Convert of int
  | Source_tap of int
  | Sink_tap of int
  | Gate of int
  | Connect of int

type t = {
  graph : Digraph.t;
  weight : float array;
  kind : arc_kind array;
  source : int;
  sink : int;
  out_node : int -> int;
  in_node : int -> int;
}

(* Mean conversion cost at [v] over allowed pairs (λa ∈ avail_in, λb ∈
   avail_out), identity pairs included at cost 0; [None] when no pair is
   allowed.  Closed forms for the common converter kinds keep auxiliary
   construction out of the per-request hot path's W² loop. *)
let mean_conversion net v avail_in avail_out =
  let spec = Network.converter net v in
  match spec with
  | Conversion.No_conversion ->
    if Bitset.is_empty (Bitset.inter avail_in avail_out) then None else Some 0.0
  | Conversion.Full c ->
    let a = Bitset.cardinal avail_in and b = Bitset.cardinal avail_out in
    if a = 0 || b = 0 then None
    else begin
      let common = Bitset.cardinal (Bitset.inter avail_in avail_out) in
      let k = float_of_int (a * b) in
      Some (c *. (k -. float_of_int common) /. k)
    end
  | Conversion.Range _ | Conversion.Table _ ->
    let k = ref 0 and sum = ref 0.0 in
    Bitset.iter
      (fun la ->
        Bitset.iter
          (fun lb ->
            match Conversion.cost spec la lb with
            | Some c ->
              incr k;
              sum := !sum +. c
            | None -> ())
          avail_out)
      avail_in;
    if !k = 0 then None else Some (!sum /. float_of_int !k)

(* Shared constructor: [included] filters links, [traverse_weight] prices
   the per-link arc, [convert_weight] prices (or suppresses) conversion
   arcs. *)
let build net ~source ~target ~included ~traverse_weight ~convert_weight =
  let g = Network.graph net in
  let n = Network.n_nodes net in
  let m = Network.n_links net in
  if source = target then invalid_arg "Auxiliary: source = target";
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Auxiliary: node out of range";
  let out_node e = 2 * e in
  let in_node e = (2 * e) + 1 in
  let s' = 2 * m in
  let t'' = (2 * m) + 1 in
  let b = Digraph.builder ((2 * m) + 2) in
  let weights = ref [] in
  let kinds = ref [] in
  let add u v w k =
    ignore (Digraph.add_edge b u v);
    weights := w :: !weights;
    kinds := k :: !kinds
  in
  (* Traversal arcs. *)
  for e = 0 to m - 1 do
    if included e then add (out_node e) (in_node e) (traverse_weight e) (Traverse e)
  done;
  (* Conversion arcs at every node. *)
  for v = 0 to n - 1 do
    let ins = Digraph.in_edges g v and outs = Digraph.out_edges g v in
    Array.iter
      (fun e ->
        if included e then
          Array.iter
            (fun e' ->
              if included e' && e <> e' then
                match convert_weight v e e' with
                | Some w -> add (in_node e) (out_node e') w (Convert v)
                | None -> ())
            outs)
      ins
  done;
  (* Source and sink taps. *)
  Array.iter
    (fun e -> if included e then add s' (out_node e) 0.0 (Source_tap e))
    (Digraph.out_edges g source);
  Array.iter
    (fun e -> if included e then add (in_node e) t'' 0.0 (Sink_tap e))
    (Digraph.in_edges g target);
  {
    graph = Digraph.freeze b;
    weight = Array.of_list (List.rev !weights);
    kind = Array.of_list (List.rev !kinds);
    source = s';
    sink = t'';
    out_node;
    in_node;
  }

let mean_traverse_over_avail net e =
  let avail = Network.available net e in
  let k = Bitset.cardinal avail in
  let sum = Bitset.fold (fun l acc -> acc +. Network.weight net e l) avail 0.0 in
  sum /. float_of_int k

let gprime net ~source ~target =
  let included e = Network.has_available net e in
  let convert_weight v e e' =
    mean_conversion net v (Network.available net e) (Network.available net e')
  in
  build net ~source ~target ~included
    ~traverse_weight:(mean_traverse_over_avail net)
    ~convert_weight

let gc net ~theta ?(base = 16.0) ~source ~target () =
  if base <= 1.0 then invalid_arg "Auxiliary.gc: base must exceed 1";
  let included e = Network.has_available net e && Network.link_load net e < theta in
  let traverse_weight e =
    let n_e = float_of_int (Bitset.cardinal (Network.lambdas net e)) in
    let u_e = float_of_int (Bitset.cardinal (Network.used net e)) in
    (base ** ((u_e +. 1.0) /. n_e)) -. (base ** (u_e /. n_e))
  in
  let convert_weight v e e' =
    match
      mean_conversion net v (Network.available net e) (Network.available net e')
    with
    | Some _ -> Some 0.0 (* G_c only scores congestion, not cost *)
    | None -> None
  in
  build net ~source ~target ~included ~traverse_weight ~convert_weight

let grc net ~theta ~source ~target =
  let included e = Network.has_available net e && Network.link_load net e < theta in
  let traverse_weight e =
    (* Paper: Σ_{λ ∈ Λ_avail(e)} w(e,λ) / N(e). *)
    let avail = Network.available net e in
    let sum = Bitset.fold (fun l acc -> acc +. Network.weight net e l) avail 0.0 in
    sum /. float_of_int (Bitset.cardinal (Network.lambdas net e))
  in
  let convert_weight v e e' =
    mean_conversion net v (Network.available net e) (Network.available net e')
  in
  build net ~source ~target ~included ~traverse_weight ~convert_weight

let gprime_gated net ~source ~target =
  let g = Network.graph net in
  let n = Network.n_nodes net in
  let m = Network.n_links net in
  if source = target then invalid_arg "Auxiliary: source = target";
  let included e = Network.has_available net e in
  let out_node e = 2 * e in
  let in_node e = (2 * e) + 1 in
  let gate_in v = (2 * m) + (2 * v) in
  let gate_out v = (2 * m) + (2 * v) + 1 in
  let s' = (2 * m) + (2 * n) in
  let t'' = (2 * m) + (2 * n) + 1 in
  let b = Digraph.builder ((2 * m) + (2 * n) + 2) in
  let weights = ref [] in
  let kinds = ref [] in
  let add u v w k =
    ignore (Digraph.add_edge b u v);
    weights := w :: !weights;
    kinds := k :: !kinds
  in
  for e = 0 to m - 1 do
    if included e then
      add (out_node e) (in_node e) (mean_traverse_over_avail net e) (Traverse e)
  done;
  (* Per node: mean conversion cost over all feasible (in-link, out-link)
     wavelength pairs, charged on a single gate arc so that edge-disjoint
     auxiliary paths transit each intermediate node at most once. *)
  for v = 0 to n - 1 do
    let ins = Digraph.in_edges g v and outs = Digraph.out_edges g v in
    let total = ref 0.0 and count = ref 0 in
    let connected_in = Hashtbl.create 4 and connected_out = Hashtbl.create 4 in
    Array.iter
      (fun e ->
        if included e then
          Array.iter
            (fun e' ->
              if included e' && e <> e' then
                match
                  mean_conversion net v (Network.available net e)
                    (Network.available net e')
                with
                | Some w ->
                  total := !total +. w;
                  incr count;
                  Hashtbl.replace connected_in e ();
                  Hashtbl.replace connected_out e' ()
                | None -> ())
            outs)
      ins;
    if !count > 0 then begin
      add (gate_in v) (gate_out v) (!total /. float_of_int !count) (Gate v);
      (* Connect arcs in ascending edge-id order: Hashtbl.iter order
         depends on the hash of the ids, so a re-numbering of the edges
         would permute the arcs and with them any cost-tied routing
         decision. *)
      let sorted_keys tbl =
        (* lint: ordered — keys are sorted before use *)
        Hashtbl.fold (fun e () acc -> e :: acc) tbl [] |> List.sort Int.compare
      in
      List.iter
        (fun e -> add (in_node e) (gate_in v) 0.0 (Connect v))
        (sorted_keys connected_in);
      List.iter
        (fun e' -> add (gate_out v) (out_node e') 0.0 (Connect v))
        (sorted_keys connected_out)
    end
  done;
  Array.iter
    (fun e -> if included e then add s' (out_node e) 0.0 (Source_tap e))
    (Digraph.out_edges g source);
  Array.iter
    (fun e -> if included e then add (in_node e) t'' 0.0 (Sink_tap e))
    (Digraph.in_edges g target);
  {
    graph = Digraph.freeze b;
    weight = Array.of_list (List.rev !weights);
    kind = Array.of_list (List.rev !kinds);
    source = s';
    sink = t'';
    out_node;
    in_node;
  }

let links_of_path t path =
  List.filter_map
    (fun a -> match t.kind.(a) with Traverse e -> Some e | _ -> None)
    path

let disjoint_pair ?obs ?workspace ?enabled t =
  Rr_graph.Suurballe.edge_disjoint_pair ?enabled ?obs ?workspace t.graph
    ~weight:t.weight
    ~source:t.source ~target:t.sink

let stats t =
  let traversal = ref 0 and conversion = ref 0 in
  Array.iter
    (fun k ->
      match k with
      | Traverse _ -> incr traversal
      | Convert _ | Gate _ -> incr conversion
      | Source_tap _ | Sink_tap _ | Connect _ -> ())
    t.kind;
  (Digraph.n_nodes t.graph, !traversal, !conversion)
