module Workspace = Rr_util.Workspace
module Obs = Rr_obs.Obs
module Heap = Rr_util.Indexed_heap

(* The tree aliases the workspace that ran the search; [gen] detects reuse
   of the workspace by a later search so stale reads raise instead of
   returning garbage. *)
type tree = {
  ws : Workspace.t;
  gen : int;
  n : int;
  source : int;
}

let check t =
  if Workspace.generation t.ws <> t.gen then
    invalid_arg "Dijkstra: tree is stale (its workspace ran another search)"

let dist t v =
  check t;
  if v < 0 || v >= t.n then invalid_arg "Dijkstra.dist: node out of range";
  Workspace.dist t.ws v

let pred_edge t v =
  check t;
  if v < 0 || v >= t.n then invalid_arg "Dijkstra.pred_edge: node out of range";
  Workspace.pred t.ws v

let source t = t.source
let workspace t = t.ws

let dists t =
  check t;
  Array.init t.n (Workspace.dist t.ws)

let all_enabled _ = true

let run ?(enabled = all_enabled) ?(obs = Obs.null) ?workspace g ~weight
    ~source ~target =
  let n = Digraph.n_nodes g in
  if source < 0 || source >= n then invalid_arg "Dijkstra: source out of range";
  if Array.length weight < Digraph.n_edges g then
    invalid_arg "Dijkstra: weight array shorter than the edge count";
  let t0 = Obs.start obs in
  let ws =
    match workspace with
    | Some ws ->
      Obs.add obs "workspace.hit" 1;
      ws
    | None ->
      Obs.add obs "workspace.miss" 1;
      Workspace.create ~capacity:n ()
  in
  Workspace.reset ws n;
  let heap = Workspace.heap ws in
  let dist = Workspace.dists ws
  and pred = Workspace.preds ws
  and stamp = Workspace.stamps ws
  and gen = Workspace.generation ws in
  let target = match target with Some t -> t | None -> -1 in
  dist.(source) <- 0.0;
  pred.(source) <- -1;
  stamp.(source) <- gen;
  Heap.update heap source;
  (* The popped key's priority is its entry in [dist]: the heap orders by
     that array, so no float crosses a call boundary and the loop does
     not allocate. *)
  let pops = ref 0 and inserts = ref 1 in
  let u = ref (Heap.pop heap) in
  while !u >= 0 do
    incr pops;
    let x = !u in
    if x = target then u := -1
    else begin
      let du = dist.(x) in
      let edges = Digraph.out_edges g x in
      for i = 0 to Array.length edges - 1 do
        let e = edges.(i) in
        if enabled e then begin
          let w = weight.(e) in
          if w < 0.0 then invalid_arg "Dijkstra: negative edge weight";
          let v = Digraph.dst g e in
          let dv = du +. w in
          if dv < (if stamp.(v) = gen then dist.(v) else infinity) then begin
            dist.(v) <- dv;
            pred.(v) <- e;
            stamp.(v) <- gen;
            Heap.update heap v;
            incr inserts
          end
        end
      done;
      u := Heap.pop heap
    end
  done;
  Obs.add obs "heap.pop" !pops;
  Obs.add obs "heap.insert" !inserts;
  Obs.stop obs "kernel.dijkstra" t0;
  { ws; gen; n; source }

let tree ?enabled ?obs ?workspace g ~weight ~source =
  run ?enabled ?obs ?workspace g ~weight ~source ~target:None

let path_to g t node =
  (* lint: float-eq — infinity is an exact unreached sentinel *)
  if dist t node = infinity then None
  else begin
    let rec collect v acc =
      if v = t.source then acc
      else begin
        let e = pred_edge t v in
        collect (Digraph.src g e) (e :: acc)
      end
    in
    Some (collect node [])
  end

let path_cost ~weight path =
  List.fold_left (fun acc e -> acc +. weight.(e)) 0.0 path

let shortest_path ?enabled ?obs ?workspace g ~weight ~source ~target =
  let t = run ?enabled ?obs ?workspace g ~weight ~source ~target:(Some target) in
  match path_to g t target with
  | None -> None
  | Some p -> Some (p, dist t target)
