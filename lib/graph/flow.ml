(* Residual network shared by both solvers: arc 2e is edge e forward,
   arc 2e+1 its reverse. *)

type residual = {
  g : Digraph.t;
  cap : int array;          (* residual capacity per arc *)
  cost : float array;       (* cost per arc (reverse = negated) *)
  adj : int array array;    (* node -> arc ids *)
}

let arc_dst r a =
  let e = a / 2 in
  if a land 1 = 0 then Digraph.dst r.g e else Digraph.src r.g e

let build ?enabled g ~weight ~capacity =
  let n = Digraph.n_nodes g and m = Digraph.n_edges g in
  let enabled = match enabled with None -> fun _ -> true | Some f -> f in
  let cap = Array.make (2 * m) 0 in
  let cost = Array.make (2 * m) 0.0 in
  let deg = Array.make n 0 in
  for e = 0 to m - 1 do
    if enabled e then begin
      cap.(2 * e) <- capacity e;
      cost.(2 * e) <- weight e;
      cost.((2 * e) + 1) <- -.weight e;
      deg.(Digraph.src g e) <- deg.(Digraph.src g e) + 1;
      deg.(Digraph.dst g e) <- deg.(Digraph.dst g e) + 1
    end
  done;
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let pos = Array.make n 0 in
  for e = 0 to m - 1 do
    if enabled e then begin
      let u = Digraph.src g e and v = Digraph.dst g e in
      adj.(u).(pos.(u)) <- 2 * e;
      pos.(u) <- pos.(u) + 1;
      adj.(v).(pos.(v)) <- (2 * e) + 1;
      pos.(v) <- pos.(v) + 1
    end
  done;
  { g; cap; cost; adj }

let max_flow ?enabled g ~capacity ~source ~target =
  let r = build ?enabled g ~weight:(fun _ -> 0.0) ~capacity in
  let n = Digraph.n_nodes g in
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    (* BFS for an augmenting path. *)
    let pred = Array.make n (-1) in
    let seen = Array.make n false in
    seen.(source) <- true;
    let q = Queue.create () in
    Queue.push source q;
    while (not (Queue.is_empty q)) && not seen.(target) do
      let u = Queue.pop q in
      Array.iter
        (fun a ->
          if r.cap.(a) > 0 then begin
            let v = arc_dst r a in
            if not seen.(v) then begin
              seen.(v) <- true;
              pred.(v) <- a;
              Queue.push v q
            end
          end)
        r.adj.(u)
    done;
    if not seen.(target) then continue := false
    else begin
      (* Bottleneck then augment. *)
      let rec bottleneck v acc =
        if v = source then acc
        else begin
          let a = pred.(v) in
          let u = arc_dst r (a lxor 1) in
          bottleneck u (min acc r.cap.(a))
        end
      in
      let f = bottleneck target max_int in
      let rec push v =
        if v <> source then begin
          let a = pred.(v) in
          r.cap.(a) <- r.cap.(a) - f;
          r.cap.(a lxor 1) <- r.cap.(a lxor 1) + f;
          push (arc_dst r (a lxor 1))
        end
      in
      push target;
      total := !total + f
    end
  done;
  let m = Digraph.n_edges g in
  let flow = Array.init m (fun e -> r.cap.((2 * e) + 1)) in
  (!total, flow)

let min_cost_flow ?enabled g ~weight ~capacity ~source ~target ~amount =
  let r = build ?enabled g ~weight ~capacity in
  let n = Digraph.n_nodes g in
  let potential = Array.make n 0.0 in
  let shipped = ref 0 in
  let total_cost = ref 0.0 in
  let feasible = ref true in
  while !shipped < amount && !feasible do
    (* Dijkstra over reduced costs. *)
    let dist = Array.make n infinity in
    let pred = Array.make n (-1) in
    let heap = Rr_util.Indexed_heap.create n in
    dist.(source) <- 0.0;
    Rr_util.Indexed_heap.insert heap source 0.0;
    let rec loop () =
      let u = Rr_util.Indexed_heap.pop heap in
      if u >= 0 then begin
        let du = dist.(u) in
        Array.iter
          (fun a ->
            if r.cap.(a) > 0 then begin
              let v = arc_dst r a in
              let rc = r.cost.(a) +. potential.(u) -. potential.(v) in
              let rc = Float.max rc 0.0 in
              let dv = du +. rc in
              if dv < dist.(v) then begin
                dist.(v) <- dv;
                pred.(v) <- a;
                Rr_util.Indexed_heap.insert_or_decrease heap v dv
              end
            end)
          r.adj.(u);
        loop ()
      end
    in
    loop ();
    if Float.equal dist.(target) infinity then feasible := false
    else begin
      for v = 0 to n - 1 do
        if dist.(v) < infinity then potential.(v) <- potential.(v) +. dist.(v)
      done;
      let rec bottleneck v acc =
        if v = source then acc
        else begin
          let a = pred.(v) in
          bottleneck (arc_dst r (a lxor 1)) (min acc r.cap.(a))
        end
      in
      let f = min (bottleneck target max_int) (amount - !shipped) in
      let rec push v =
        if v <> source then begin
          let a = pred.(v) in
          r.cap.(a) <- r.cap.(a) - f;
          r.cap.(a lxor 1) <- r.cap.(a lxor 1) + f;
          total_cost := !total_cost +. (float_of_int f *. r.cost.(a));
          push (arc_dst r (a lxor 1))
        end
      in
      push target;
      shipped := !shipped + f
    end
  done;
  if !shipped < amount then None
  else begin
    let m = Digraph.n_edges g in
    let flow = Array.init m (fun e -> r.cap.((2 * e) + 1)) in
    Some (flow, !total_cost)
  end

let disjoint_paths_count ?enabled g ~source ~target =
  fst (max_flow ?enabled g ~capacity:(fun _ -> 1) ~source ~target)

let min_cost_disjoint_pair ?enabled g ~weight ~source ~target =
  match
    min_cost_flow ?enabled g ~weight ~capacity:(fun _ -> 1) ~source ~target ~amount:2
  with
  | None -> None
  | Some (_, c) -> Some c
