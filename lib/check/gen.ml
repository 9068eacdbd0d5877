module Rng = Rr_util.Rng
module Net = Rr_wdm.Network
module Conv = Rr_wdm.Conversion
module Bitset = Rr_util.Bitset
module Router = Robust_routing.Router

(* Quantise to quarters so weights survive text round-trips bit-exactly,
   shrink toward 1.0 in few steps, and make cost comparisons robust. *)
let quantise w = Float.max 0.25 (Float.round (w *. 4.0) /. 4.0)

(* With [~quantised:false] drawn weights and costs are kept as drawn
   (positive, mostly not binary fractions, printed exactly by
   [Network_io]).  Sums of quarters are exact, so two summation orders
   agree on them; on unquantised values they differ in the last place,
   which is what a differential check of summation order must see. *)
let weight ~quantised w = if quantised then quantise w else w

let default_policies =
  [
    Router.Cost_approx;
    Router.Cost_approx;
    Router.Cost_approx;  (* the approximation stack gets the lion's share *)
    Router.Load_aware;
    Router.Load_cost;
    Router.Two_step;
    Router.First_fit;
    Router.Most_used;
    Router.Least_used;
    Router.Node_protect;
    Router.Unprotected;
  ]

let topology rng ~n =
  match Rng.int rng 7 with
  | 0 -> Rr_topo.Reference.ring (max 3 n)
  | 1 ->
    let r = 2 + Rng.int rng 2 in
    let c = max 2 (n / r) in
    Rr_topo.Reference.grid r c
  | 2 -> Rr_topo.Reference.star (max 3 n)
  | 3 -> Rr_topo.Random_topo.degree_bounded ~rng ~n:(max 4 n) ~degree:(2 + Rng.int rng 2)
  | 4 -> Rr_topo.Random_topo.erdos_renyi ~rng ~n:(max 3 n) ~p:(0.35 +. Rng.float rng 0.4)
  | 5 -> Rr_topo.Random_topo.waxman ~rng ~n:(max 3 n) ()
  | _ -> if n >= 9 then Rr_topo.Reference.torus 3 3 else Rr_topo.Reference.ring (max 3 n)

let converter_table ~quantised rng topo ~n_nodes ~w =
  (* Cheapest incident base weight per node, for premise-relative costs. *)
  let min_incident = Array.make n_nodes infinity in
  List.iter
    (fun (u, v, wt) ->
      let wt = weight ~quantised wt in
      if wt < min_incident.(u) then min_incident.(u) <- wt;
      if wt < min_incident.(v) then min_incident.(v) <- wt)
    topo.Rr_topo.Fitout.t_links;
  let cost v =
    let base = if min_incident.(v) = infinity then 1.0 else min_incident.(v) in
    (* 0.7: respect Theorem 2's premise; otherwise deliberately break it. *)
    let scale = if Rng.uniform rng < 0.7 then Rng.float rng 1.0 else 1.0 +. Rng.float rng 2.0 in
    weight ~quantised (scale *. base) |> fun c ->
    if Rng.uniform rng < 0.2 then 0.0 else c
  in
  let mode = Rng.int rng 4 in
  Array.init n_nodes (fun v ->
      let m = if mode = 3 then Rng.int rng 3 else mode in
      match m with
      | 0 -> Conv.Full (cost v)
      | 1 -> Conv.No_conversion
      | _ -> if w <= 1 then Conv.No_conversion else Conv.Range (1 + Rng.int rng (w - 1), cost v))

let fitted ?(dense = false) ?(quantised = true) rng ~w topo =
  let density = if dense || Rng.bool rng then 1.0 else 0.5 +. Rng.float rng 0.5 in
  let conv =
    converter_table ~quantised rng topo ~n_nodes:topo.Rr_topo.Fitout.t_nodes ~w
  in
  let topo =
    {
      topo with
      Rr_topo.Fitout.t_links =
        List.map
          (fun (u, v, wt) -> (u, v, weight ~quantised wt))
          topo.Rr_topo.Fitout.t_links;
    }
  in
  Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w ~lambda_density:density
    ~converter:(fun v -> conv.(v))
    topo

let preload rng net =
  if Rng.uniform rng < 0.45 then begin
    let p = Rng.float rng 0.6 in
    for e = 0 to Net.n_links net - 1 do
      Bitset.iter
        (fun l -> if Rng.uniform rng < p then Net.allocate net e l)
        (Net.lambdas net e)
    done
  end

let request rng ~n_nodes =
  let s = Rng.int rng n_nodes in
  let d = Rng.int rng (n_nodes - 1) in
  let d = if d >= s then d + 1 else d in
  (s, d)

let requests rng ~n_nodes k =
  List.init k (fun _ ->
      let s, d = request rng ~n_nodes in
      { Robust_routing.Types.src = s; dst = d })

let instance ?(policies = default_policies) ?quantised rng ~max_n =
  let n = 3 + Rng.int rng (max 1 (max_n - 2)) in
  let w = 1 + Rng.int rng 4 in
  let topo = topology rng ~n in
  let net = fitted ?quantised rng ~w topo in
  preload rng net;
  let n_nodes = Net.n_nodes net in
  let s, d = request rng ~n_nodes in
  let policy = Rng.pick rng (Array.of_list policies) in
  Instance.of_network net ~source:s ~target:d ~policy

let small_instance rng ~max_n =
  let cap = min max_n 8 in
  let n = 3 + Rng.int rng (max 1 (cap - 2)) in
  let w = 1 + Rng.int rng 3 in
  let topo = topology rng ~n in
  let net = fitted ~dense:true rng ~w topo in
  if Rng.uniform rng < 0.3 then preload rng net;
  let n_nodes = Net.n_nodes net in
  let s, d = request rng ~n_nodes in
  Instance.of_network net ~source:s ~target:d ~policy:Router.Cost_approx

let tiny_instance rng =
  (* Sized for the ILP oracle: every extra node multiplies the
     branch-and-bound tableau work, so stay at <= 5 nodes, <= 2 lambdas. *)
  let n = 3 + Rng.int rng 3 in
  let w = 1 + Rng.int rng 2 in
  let topo =
    match Rng.int rng 3 with
    | 0 -> Rr_topo.Reference.ring n
    | 1 -> Rr_topo.Random_topo.degree_bounded ~rng ~n:(max 4 n) ~degree:2
    | _ -> Rr_topo.Reference.grid 2 2
  in
  let net = fitted ~dense:true rng ~w topo in
  let n_nodes = Net.n_nodes net in
  let s, d = request rng ~n_nodes in
  Instance.of_network net ~source:s ~target:d ~policy:Router.Cost_approx
