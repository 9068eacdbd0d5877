module Bitset = Rr_util.Bitset
module Digraph = Rr_graph.Digraph

type link_spec = {
  ls_src : int;
  ls_dst : int;
  ls_lambdas : int list;
  ls_weight : int -> float;
}

type t = {
  graph : Digraph.t;
  n_wavelengths : int;
  lambdas : Bitset.t array;         (* per link: Λ(e) *)
  weights : float array array;      (* per link: weight per wavelength (nan if absent) *)
  converters : Conversion.spec array;
  conv_succ : (int array * float array) array array;
      (* per node, per λp: allowed λq ≠ λp (ascending) with costs *)
  mutable used : Bitset.t array;    (* per link: wavelengths in use *)
  failed : bool array;
}

let create ~n_nodes ~n_wavelengths ~links ~converters =
  if n_nodes <= 0 then invalid_arg "Network.create: n_nodes must be positive";
  if n_wavelengths <= 0 then invalid_arg "Network.create: n_wavelengths must be positive";
  let m = List.length links in
  let b = Digraph.builder n_nodes in
  List.iter (fun ls -> ignore (Digraph.add_edge b ls.ls_src ls.ls_dst)) links;
  let graph = Digraph.freeze b in
  let lambdas = Array.make m (Bitset.create n_wavelengths) in
  let weights = Array.make m [||] in
  List.iteri
    (fun e ls ->
      if List.is_empty ls.ls_lambdas then invalid_arg "Network.create: link with empty Λ(e)";
      List.iter
        (fun l ->
          if l < 0 || l >= n_wavelengths then
            invalid_arg "Network.create: wavelength out of range")
        ls.ls_lambdas;
      lambdas.(e) <- Bitset.of_list n_wavelengths ls.ls_lambdas;
      let w = Array.make n_wavelengths nan in
      List.iter
        (fun l ->
          let x = ls.ls_weight l in
          if x < 0.0 then invalid_arg "Network.create: negative link weight";
          w.(l) <- x)
        ls.ls_lambdas;
      weights.(e) <- w)
    links;
  let conv = Array.init n_nodes converters in
  Array.iteri
    (fun v spec ->
      match Conversion.validate spec ~n_wavelengths with
      | Ok () -> ()
      | Error e ->
        invalid_arg (Printf.sprintf "Network.create: converter at node %d: %s" v e))
    conv;
  {
    graph;
    n_wavelengths;
    lambdas;
    weights;
    converters = conv;
    conv_succ = Array.map (fun spec -> Conversion.successors spec ~n_wavelengths) conv;
    used = Array.init m (fun _ -> Bitset.create n_wavelengths);
    failed = Array.make m false;
  }

let graph t = t.graph
let n_nodes t = Digraph.n_nodes t.graph
let n_links t = Digraph.n_edges t.graph
let n_wavelengths t = t.n_wavelengths
let link_src t e = Digraph.src t.graph e
let link_dst t e = Digraph.dst t.graph e

let find_link t u v =
  let edges = Digraph.out_edges t.graph u in
  let rec go i =
    if i >= Array.length edges then None
    else if Digraph.dst t.graph edges.(i) = v then Some edges.(i)
    else go (i + 1)
  in
  go 0

let lambdas t e = t.lambdas.(e)

let weight t e l =
  if not (Bitset.mem t.lambdas.(e) l) then
    invalid_arg "Network.weight: wavelength not on link";
  t.weights.(e).(l)

let weights t e = t.weights.(e)

let converter t v = t.converters.(v)
let conv_allowed t v p q = Conversion.allowed t.converters.(v) p q
let conv_cost t v p q = Conversion.cost t.converters.(v) p q
let conv_successors t v p = t.conv_succ.(v).(p)

let used t e = t.used.(e)

let available t e =
  if t.failed.(e) then Bitset.create t.n_wavelengths
  else Bitset.diff t.lambdas.(e) t.used.(e)

(* Both sit in the layered search's inner loop: test directly instead of
   materialising the (allocating) difference set. *)
let is_available t e l =
  (not t.failed.(e)) && Bitset.mem t.lambdas.(e) l && not (Bitset.mem t.used.(e) l)

let has_available t e =
  (not t.failed.(e)) && not (Bitset.subset t.lambdas.(e) t.used.(e))

let allocate t e l =
  if t.failed.(e) then invalid_arg "Network.allocate: link failed";
  if not (Bitset.mem t.lambdas.(e) l) then
    invalid_arg "Network.allocate: wavelength not on link";
  if Bitset.mem t.used.(e) l then invalid_arg "Network.allocate: wavelength in use";
  t.used.(e) <- Bitset.add t.used.(e) l

let release t e l =
  if not (Bitset.mem t.used.(e) l) then
    invalid_arg "Network.release: wavelength not in use";
  t.used.(e) <- Bitset.remove t.used.(e) l

let link_load t e =
  float_of_int (Bitset.cardinal t.used.(e))
  /. float_of_int (Bitset.cardinal t.lambdas.(e))

let network_load t =
  let rho = ref 0.0 in
  for e = 0 to n_links t - 1 do
    rho := Float.max !rho (link_load t e)
  done;
  !rho

let total_in_use t =
  let s = ref 0 in
  for e = 0 to n_links t - 1 do
    s := !s + Bitset.cardinal t.used.(e)
  done;
  !s

let copy t =
  {
    t with
    used = Array.map (fun u -> u) t.used;
    failed = Array.copy t.failed;
  }

let reset_usage t =
  for e = 0 to n_links t - 1 do
    t.used.(e) <- Bitset.create t.n_wavelengths
  done

let fail_link t e = t.failed.(e) <- true
let repair_link t e = t.failed.(e) <- false
let is_failed t e = t.failed.(e)

let pp fmt t =
  Format.fprintf fmt "@[<v>WDM network: %d nodes, %d links, W=%d" (n_nodes t)
    (n_links t) t.n_wavelengths;
  for e = 0 to n_links t - 1 do
    Format.fprintf fmt "@,  link %d: %d -> %d  Λ=%a used=%a%s" e (link_src t e)
      (link_dst t e) Bitset.pp t.lambdas.(e) Bitset.pp t.used.(e)
      (if t.failed.(e) then " FAILED" else "")
  done;
  Format.fprintf fmt "@]"
