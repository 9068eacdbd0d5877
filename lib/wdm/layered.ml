module Bitset = Rr_util.Bitset
module Heap = Rr_util.Indexed_heap
module Workspace = Rr_util.Workspace
module Obs = Rr_obs.Obs

(* Each (node, wavelength) layer point is split into an arrival state
   (just landed at v carrying λ, conversion opportunity unspent) and a
   departure state (committed to leave v on λ):

     arr(v,λ) = 2(vW + λ)      dep(v,λ) = 2(vW + λ) + 1

   with super source 2nW and super sink 2nW + 1.  Arrival states connect
   to departure states by a zero-cost identity arc (keep λ) or one
   conversion arc per allowed target wavelength; departure states carry
   the traversal arcs.  The split admits AT MOST ONE conversion per node
   visit — without it, Dijkstra could chain two conversion arcs at one
   node (λ14 → λ13 → λ12 with range-1 converters) and the reconstructed
   hop list would show a direct λ14 → λ12 change that
   {!Semilightpath.validate} correctly rejects.  Rather than
   materialising the layered digraph we run Dijkstra directly over
   implicit adjacency, which saves the O(nW²) construction per request.

   Predecessors are stored as ints so the search can run in a reusable
   {!Workspace} (whose pred array is unboxed):
     -2        seeded from the super source (departure states at [source])
     2e        arrival via link e, same λ
     2x + 1    at a departure state (or the sink): x is the predecessor
               arrival state's λ ([optimal]) or its packed (λ, k)
               ([optimal_bounded]); x = own λ means no conversion
   The workspace's unset value -1 doubles as "no predecessor". *)

let p_start = -2
let p_traverse e = 2 * e
let p_convert x = (2 * x) + 1

(* Offer [state] the distance [d] with predecessor code [p]: the
   comparison and heap update of a Dijkstra relaxation, on the
   workspace's arrays directly so no float is boxed per call. *)
(* lint: no-alloc *)
let[@inline] relax dist pred stamp gen heap state d p =
  if d < (if stamp.(state) = gen then dist.(state) else infinity) then begin
    dist.(state) <- d;
    pred.(state) <- p;
    stamp.(state) <- gen;
    Heap.update heap state;
    true
  end
  else false

let optimal ?(link_enabled = fun _ -> true) ?(obs = Obs.null) ?workspace net
    ~source ~target =
  let t_kernel = Obs.start obs in
  let n = Network.n_nodes net in
  let w = Network.n_wavelengths net in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Layered.optimal: node out of range";
  if source = target then invalid_arg "Layered.optimal: source = target";
  let n_states = (2 * n * w) + 2 in
  let super_source = 2 * n * w in
  let super_sink = super_source + 1 in
  let arr v l = 2 * ((v * w) + l) in
  let dep v l = (2 * ((v * w) + l)) + 1 in
  let ws =
    match workspace with
    | Some ws ->
      Obs.add obs "workspace.hit" 1;
      ws
    | None ->
      Obs.add obs "workspace.miss" 1;
      Workspace.create ~capacity:n_states ()
  in
  Workspace.reset ws n_states;
  let heap = Workspace.heap ws in
  let dist = Workspace.dists ws
  and pred = Workspace.preds ws
  and stamp = Workspace.stamps ws
  and gen = Workspace.generation ws in
  let pops = ref 0 and inserts = ref 0 and convs = ref 0 in
  let[@inline] offer state d p =
    if relax dist pred stamp gen heap state d p then incr inserts
  in
  offer super_source 0.0 p_start;
  let graph = Network.graph net in
  let settled_sink = ref false in
  while (not !settled_sink) && not (Heap.is_empty heap) do
    let state = Heap.pop heap in
    let d = dist.(state) in
    incr pops;
    if state = super_sink then settled_sink := true
    else if state = super_source then begin
      (* Leave the source on any available wavelength of any outgoing
         link; the traversal arc itself is taken below from dep(s, λ). *)
      let outs = Rr_graph.Digraph.out_edges graph source in
      for i = 0 to Array.length outs - 1 do
        let e = outs.(i) in
        if link_enabled e then
          for l = 0 to w - 1 do
            if Network.is_available net e l then offer (dep source l) d p_start
          done
      done
    end
    else if state land 1 = 1 then begin
      (* Departure state: traversal arcs only. *)
      let s2 = state asr 1 in
      let v = s2 / w and l = s2 mod w in
      let outs = Rr_graph.Digraph.out_edges graph v in
      for i = 0 to Array.length outs - 1 do
        let e = outs.(i) in
        if link_enabled e && Network.is_available net e l then
          offer
            (arr (Network.link_dst net e) l)
            (d +. (Network.weights net e).(l))
            (p_traverse e)
      done
    end
    else begin
      (* Arrival state: finish at the target, or spend / skip the one
         conversion opportunity this visit grants. *)
      let s2 = state asr 1 in
      let v = s2 / w and l = s2 mod w in
      if v = target then offer super_sink d (p_convert l)
      else begin
        offer (dep v l) d (p_convert l);
        (* Conversion arcs at v (not at the source: a fresh transmitter
           can start on any wavelength directly). *)
        if v <> source then begin
          let qs, cs = Network.conv_successors net v l in
          convs := !convs + Array.length qs;
          for i = 0 to Array.length qs - 1 do
            offer (dep v qs.(i)) (d +. cs.(i)) (p_convert l)
          done
        end
      end
    end
  done;
  let result =
    (* lint: float-eq — infinity is an exact unreached sentinel *)
    if Workspace.dist ws super_sink = infinity then None
    else begin
      (* Reconstruct hops by walking predecessors back from the sink:
         arrival states contribute their incoming hop, departure states
         jump back to the arrival state they converted (or passed) from. *)
      let rec back state acc =
        let p = Workspace.pred ws state in
        if p = -1 then invalid_arg "Layered.optimal: broken predecessor chain"
        else if p = p_start then acc
        else if p land 1 = 0 then begin
          let e = p asr 1 in
          let l = (state asr 1) mod w in
          let u = Network.link_src net e in
          back (dep u l) ({ Semilightpath.edge = e; lambda = l } :: acc)
        end
        else begin
          let l_prev = p asr 1 in
          let v = if state = super_sink then target else (state asr 1) / w in
          back (arr v l_prev) acc
        end
      in
      let p_sink = Workspace.pred ws super_sink in
      let hops =
        if p_sink >= 0 && p_sink land 1 = 1 then
          back (arr target (p_sink asr 1)) []
        else invalid_arg "Layered.optimal: sink without wavelength"
      in
      Some ({ Semilightpath.hops }, Workspace.dist ws super_sink)
    end
  in
  Obs.add obs "heap.pop" !pops;
  Obs.add obs "heap.insert" !inserts;
  Obs.add obs "conv.expansions" !convs;
  Obs.stop obs "kernel.layered" t_kernel;
  result

let optimal_cost ?link_enabled ?obs ?workspace net ~source ~target =
  Option.map snd (optimal ?link_enabled ?obs ?workspace net ~source ~target)

(* Budget-extended layered search: arrival/departure states additionally
   carry the conversions used so far, packed as
   2*(((v*W)+λ)*(K+1) + k) (+1 for departure), with the same super
   source/sink trick as [optimal].  Conversion arcs consume one unit of
   budget; the identity arc is free. *)
let optimal_bounded ?(link_enabled = fun _ -> true) ?(obs = Obs.null) ?workspace
    net ~max_conversions ~source ~target =
  let t_kernel = Obs.start obs in
  if max_conversions < 0 then invalid_arg "Layered.optimal_bounded: negative budget";
  let n = Network.n_nodes net in
  let w = Network.n_wavelengths net in
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Layered.optimal_bounded: node out of range";
  if source = target then invalid_arg "Layered.optimal_bounded: source = target";
  let kk = max_conversions + 1 in
  let n_states = (2 * n * w * kk) + 2 in
  let super_source = 2 * n * w * kk in
  let super_sink = super_source + 1 in
  let arr v l k = 2 * ((((v * w) + l) * kk) + k) in
  let dep v l k = (2 * ((((v * w) + l) * kk) + k)) + 1 in
  let ws =
    match workspace with
    | Some ws ->
      Obs.add obs "workspace.hit" 1;
      ws
    | None ->
      Obs.add obs "workspace.miss" 1;
      Workspace.create ~capacity:n_states ()
  in
  Workspace.reset ws n_states;
  let heap = Workspace.heap ws in
  let dist = Workspace.dists ws
  and pred = Workspace.preds ws
  and stamp = Workspace.stamps ws
  and gen = Workspace.generation ws in
  let pops = ref 0 and inserts = ref 0 and convs = ref 0 in
  let[@inline] offer state d p =
    if relax dist pred stamp gen heap state d p then incr inserts
  in
  offer super_source 0.0 p_start;
  let graph = Network.graph net in
  let settled_sink = ref false in
  while (not !settled_sink) && not (Heap.is_empty heap) do
    let state = Heap.pop heap in
    let d = dist.(state) in
    incr pops;
    if state = super_sink then settled_sink := true
    else if state = super_source then begin
      let outs = Rr_graph.Digraph.out_edges graph source in
      for i = 0 to Array.length outs - 1 do
        let e = outs.(i) in
        if link_enabled e then
          for l = 0 to w - 1 do
            if Network.is_available net e l then offer (dep source l 0) d p_start
          done
      done
    end
    else if state land 1 = 1 then begin
      let s2 = state asr 1 in
      let vl = s2 / kk and k = s2 mod kk in
      let v = vl / w and l = vl mod w in
      let outs = Rr_graph.Digraph.out_edges graph v in
      for i = 0 to Array.length outs - 1 do
        let e = outs.(i) in
        if link_enabled e && Network.is_available net e l then
          offer
            (arr (Network.link_dst net e) l k)
            (d +. (Network.weights net e).(l))
            (p_traverse e)
      done
    end
    else begin
      let s2 = state asr 1 in
      let vl = s2 / kk and k = s2 mod kk in
      let v = vl / w and l = vl mod w in
      if v = target then offer super_sink d (p_convert ((l * kk) + k))
      else begin
        offer (dep v l k) d (p_convert ((l * kk) + k));
        if v <> source && k < max_conversions then begin
          let qs, cs = Network.conv_successors net v l in
          convs := !convs + Array.length qs;
          for i = 0 to Array.length qs - 1 do
            offer (dep v qs.(i) (k + 1)) (d +. cs.(i))
              (p_convert ((l * kk) + k))
          done
        end
      end
    end
  done;
  let result =
    (* lint: float-eq — infinity is an exact unreached sentinel *)
    if Workspace.dist ws super_sink = infinity then None
    else begin
      (* Converted preds carry the packed (λ, k) of the predecessor
         arrival state. *)
      let rec back state acc =
        let p = Workspace.pred ws state in
        if p = -1 then
          invalid_arg "Layered.optimal_bounded: broken predecessor chain"
        else if p = p_start then acc
        else if p land 1 = 0 then begin
          let e = p asr 1 in
          let s2 = state asr 1 in
          let vl = s2 / kk and k = s2 mod kk in
          let l = vl mod w in
          let u = Network.link_src net e in
          back (dep u l k) ({ Semilightpath.edge = e; lambda = l } :: acc)
        end
        else begin
          let lk = p asr 1 in
          let l_prev = lk / kk and k_prev = lk mod kk in
          let v = if state = super_sink then target else (state asr 1) / kk / w in
          back (arr v l_prev k_prev) acc
        end
      in
      let p_sink = Workspace.pred ws super_sink in
      let hops =
        if p_sink >= 0 && p_sink land 1 = 1 then begin
          let lk = p_sink asr 1 in
          let l_last = lk / kk and k_last = lk mod kk in
          back (arr target l_last k_last) []
        end
        else invalid_arg "Layered.optimal_bounded: sink without wavelength"
      in
      Some ({ Semilightpath.hops }, Workspace.dist ws super_sink)
    end
  in
  Obs.add obs "heap.pop" !pops;
  Obs.add obs "heap.insert" !inserts;
  Obs.add obs "conv.expansions" !convs;
  Obs.stop obs "kernel.layered_bounded" t_kernel;
  result

let assign_on_path net links =
  match links with
  | [] -> invalid_arg "Layered.assign_on_path: empty path"
  | first :: _ ->
    (* Chain check. *)
    ignore
      (List.fold_left
         (fun u e ->
           if Network.link_src net e <> u then
             invalid_arg "Layered.assign_on_path: links do not chain";
           Network.link_dst net e)
         (Network.link_src net first) links);
    let w = Network.n_wavelengths net in
    let links_a = Array.of_list links in
    let k = Array.length links_a in
    (* dp.(i).(λ) = best cost of the prefix ending with link i on λ. *)
    let dp = Array.make_matrix k w infinity in
    let choice = Array.make_matrix k w (-1) in
    Bitset.iter
      (fun l -> dp.(0).(l) <- Network.weight net links_a.(0) l)
      (Network.available net links_a.(0));
    for i = 1 to k - 1 do
      let e = links_a.(i) in
      let v = Network.link_src net e in
      Bitset.iter
        (fun l ->
          let we = Network.weight net e l in
          for lp = 0 to w - 1 do
            if dp.(i - 1).(lp) < infinity then
              match Network.conv_cost net v lp l with
              | Some c ->
                let cand = dp.(i - 1).(lp) +. c +. we in
                if cand < dp.(i).(l) then begin
                  dp.(i).(l) <- cand;
                  choice.(i).(l) <- lp
                end
              | None -> ()
          done)
        (Network.available net e)
    done;
    let best_l = ref (-1) and best = ref infinity in
    for l = 0 to w - 1 do
      if dp.(k - 1).(l) < !best then begin
        best := dp.(k - 1).(l);
        best_l := l
      end
    done;
    if !best_l < 0 then None
    else begin
      let lambdas = Array.make k 0 in
      let rec back i l =
        lambdas.(i) <- l;
        if i > 0 then back (i - 1) choice.(i).(l)
      in
      back (k - 1) !best_l;
      let hops =
        Array.to_list
          (Array.mapi (fun i e -> { Semilightpath.edge = e; lambda = lambdas.(i) }) links_a)
      in
      Some ({ Semilightpath.hops }, !best)
    end
