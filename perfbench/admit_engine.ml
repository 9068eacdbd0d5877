(* One pass of an admit/release op stream, run two ways on the same
   network: through the production entry point [Router.admit ~aux_cache
   ~workspace ~obs], or composed from the public stage calls with each
   stage timed (the traced run).  A pass ends with every connection
   released, so the network is back at its preload and passes repeat. *)

module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module Aux = Rr_wdm.Auxiliary
module Aux_cache = Rr_wdm.Aux_cache
module Layered = Rr_wdm.Layered
module Workspace = Rr_util.Workspace
module Types = Robust_routing.Types
module Router = Robust_routing.Router
module W = Workload
module S = Util.Samples

type env = {
  net : Net.t;
  preload_used : int;
  cache : Aux_cache.t;
  ws : Workspace.t;
  ops : W.op array;
  mutable next_req : int;  (** request ids, assigned as the daemon does *)
}

let make_env net ~preload_used ops =
  {
    net;
    preload_used;
    cache = Aux_cache.create net;
    ws = Workspace.create ();
    ops;
    next_req = 0;
  }

(* Shared pass skeleton: [admit id src dst] performs one admission and
   returns the solution; releases and the books are handled here.  The
   books are checked halfway through and at the end of the pass. *)
let run_pass env ~admit ~release ~line =
  let live = Hashtbl.create 64 in
  let in_use = ref env.preload_used in
  let half = Array.length env.ops / 2 in
  Array.iteri
    (fun i op ->
      if i = half then
        W.check_books ~what:"mid-pass" env.net ~expected:!in_use;
      match op with
      | W.Admit { id; src; dst } ->
        let r = admit id src dst in
        (match r with
         | Some sol ->
           W.check_disjoint id sol;
           in_use := !in_use + W.footprint_size sol;
           Hashtbl.replace live id sol
         | None -> ());
        line id r
      | W.Release id -> (
        match Hashtbl.find_opt live id with
        | Some sol ->
          release sol;
          in_use := !in_use - W.footprint_size sol;
          Hashtbl.remove live id
        | None -> ()))
    env.ops;
  W.check_books ~what:"end of pass" env.net ~expected:!in_use

(* Latency samples of one configuration of [Router.admit]. *)
type timing = {
  lat : Util.Passes.t;  (** us per admit call, per pass *)
  rel : Util.Passes.t;  (** us per release, per pass *)
  mutable words : float;  (** minor words inside the admit calls *)
  mutable admits : int;
  mutable releases : int;
}

let timing () =
  {
    lat = Util.Passes.create ();
    rel = Util.Passes.create ();
    words = 0.;
    admits = 0;
    releases = 0;
  }

(* Seconds of one pass's admits and releases, each at its fastest. *)
let op_seconds tm =
  (Util.Passes.sum_of_mins tm.lat +. Util.Passes.sum_of_mins tm.rel) /. 1e6

(* A pass through [Router.admit]; returns the pass's decision lines. *)
let router_pass env ~obs tm =
  let b = Buffer.create 65536 in
  Util.Passes.start tm.lat;
  Util.Passes.start tm.rel;
  run_pass env
    ~admit:(fun _ src dst ->
      let rid = env.next_req in
      env.next_req <- rid + 1;
      let w0 = Gc.minor_words () in
      let t0 = Util.now_ns () in
      let r =
        Router.admit ~aux_cache:env.cache ~workspace:env.ws ~obs ~req:rid env.net
          Router.Cost_approx ~source:src ~target:dst
      in
      let dt = Util.now_ns () - t0 in
      tm.words <- tm.words +. (Gc.minor_words () -. w0);
      Util.Passes.add tm.lat (Util.us_of_ns dt);
      tm.admits <- tm.admits + 1;
      r)
    ~release:(fun sol ->
      let t0 = Util.now_ns () in
      Types.release env.net sol;
      Util.Passes.add tm.rel (Util.us_of_ns (Util.now_ns () - t0));
      tm.releases <- tm.releases + 1)
    ~line:(fun id r -> W.decision_line b env.net id r);
  b

(* ------------------------------------------------------------------ *)
(* The composed pipeline: the stage calls [Approx_cost.route_detailed]
   and [Router.admit] make, in the same order and with the same
   arguments, each timed from here. *)

type stages = {
  mutable admits : int;
  mutable total_ns : int;  (** whole composed admission *)
  mutable sync_ns : int;  (** Aux_cache.sync + gprime_view *)
  mutable sync_words : float;
  mutable syncs : int;
  mutable touched : int;
  mutable recomputed : int;
  mutable full_rebuilds : int;
  mutable pair_ns : int;
  mutable pair_words : float;
  mutable pairs : int;
  mutable induce_ns : int;
  mutable refine_ns : int;
  mutable refine_words : float;
  mutable nonsimple : int;
  mutable validate_ns : int;
  mutable allocate_ns : int;
  mutable release_ns : int;
  mutable releases : int;
  mutable blocked_pair : int;
  mutable blocked_wave : int;
  mutable blocked_validator : int;
}

let stages () =
  {
    admits = 0; total_ns = 0; sync_ns = 0; sync_words = 0.; syncs = 0;
    touched = 0; recomputed = 0; full_rebuilds = 0; pair_ns = 0;
    pair_words = 0.; pairs = 0; induce_ns = 0; refine_ns = 0;
    refine_words = 0.; nonsimple = 0; validate_ns = 0; allocate_ns = 0;
    release_ns = 0; releases = 0; blocked_pair = 0; blocked_wave = 0;
    blocked_validator = 0;
  }

let span name ~parent ~req t0 t1 =
  ignore (Util.Spans.record ~name ~parent ~req t0 t1 : int)

(* Sync the cache and run [view] (the request's G' view, or nothing when a
   batch syncs once for many requests), timed together. *)
let sync_view st ~obs ~parent ~req cache ~view =
  let w0 = Gc.minor_words () in
  let t0 = Util.now_ns () in
  let ss = Aux_cache.sync ~obs cache in
  let v = view () in
  let t1 = Util.now_ns () in
  st.sync_words <- st.sync_words +. (Gc.minor_words () -. w0);
  st.sync_ns <- st.sync_ns + (t1 - t0);
  st.syncs <- st.syncs + 1;
  st.touched <- st.touched + ss.Aux_cache.touched;
  st.recomputed <- st.recomputed + ss.Aux_cache.recomputed_arcs;
  if ss.Aux_cache.full_rebuild then st.full_rebuilds <- st.full_rebuilds + 1;
  span "aux_cache.sync" ~parent ~req t0 t1;
  v

let refine_one st ~obs ws net ~source ~target links =
  Workspace.mark_reset ws (Net.n_links net);
  List.iter (Workspace.mark ws) links;
  match
    Layered.optimal net ~link_enabled:(Workspace.marked ws) ~obs ~workspace:ws
      ~source ~target
  with
  | Some (p, _) when not (Slp.link_simple p) ->
    st.nonsimple <- st.nonsimple + 1;
    None
  | r -> r

(* Route one request on [view] (no validation or allocation): Suurballe,
   induce, refine.  [None] with the blocking stage counted. *)
let route_on_view st ~obs ~parent ~req ws net (aux, enabled) ~source ~target =
  let w0 = Gc.minor_words () in
  let t0 = Util.now_ns () in
  let pair = Aux.disjoint_pair ~obs ~workspace:ws ~enabled aux in
  let t1 = Util.now_ns () in
  st.pair_words <- st.pair_words +. (Gc.minor_words () -. w0);
  st.pair_ns <- st.pair_ns + (t1 - t0);
  st.pairs <- st.pairs + 1;
  span "auxiliary.disjoint_pair" ~parent ~req t0 t1;
  match pair with
  | None ->
    st.blocked_pair <- st.blocked_pair + 1;
    None
  | Some ((p1, p2), _) -> (
    let t0 = Util.now_ns () in
    let links1 = Aux.links_of_path aux p1 in
    let links2 = Aux.links_of_path aux p2 in
    let t1 = Util.now_ns () in
    st.induce_ns <- st.induce_ns + (t1 - t0);
    span "auxiliary.induce" ~parent ~req t0 t1;
    let w0 = Gc.minor_words () in
    let t0 = Util.now_ns () in
    let r1 = refine_one st ~obs ws net ~source ~target links1 in
    let r2 = refine_one st ~obs ws net ~source ~target links2 in
    let t1 = Util.now_ns () in
    st.refine_words <- st.refine_words +. (Gc.minor_words () -. w0);
    st.refine_ns <- st.refine_ns + (t1 - t0);
    span "layered.refine" ~parent ~req t0 t1;
    match (r1, r2) with
    | Some (sl1, c1), Some (sl2, c2) ->
      let primary, backup = if c1 <= c2 then (sl1, sl2) else (sl2, sl1) in
      Some { Types.primary; backup = Some backup }
    | _ ->
      st.blocked_wave <- st.blocked_wave + 1;
      None)

let composed_admit env st ~obs ~req ~source ~target =
  let t_root = Util.now_ns () in
  let root = Util.Spans.open_ ~name:"admit" ~req t_root in
  let view =
    sync_view st ~obs ~parent:root ~req env.cache ~view:(fun () ->
        Aux_cache.gprime_view env.cache ~source ~target)
  in
  let result =
    match
      route_on_view st ~obs ~parent:root ~req env.ws env.net view ~source
        ~target
    with
    | None -> None
    | Some sol -> (
      let t0 = Util.now_ns () in
      let verdict =
        Types.validate env.net { Types.src = source; dst = target } sol
      in
      let t1 = Util.now_ns () in
      st.validate_ns <- st.validate_ns + (t1 - t0);
      span "types.validate" ~parent:root ~req t0 t1;
      match verdict with
      | Error _ ->
        st.blocked_validator <- st.blocked_validator + 1;
        None
      | Ok () ->
        let t0 = Util.now_ns () in
        Types.allocate env.net sol;
        let t1 = Util.now_ns () in
        st.allocate_ns <- st.allocate_ns + (t1 - t0);
        span "types.allocate" ~parent:root ~req t0 t1;
        Some sol)
  in
  let t_end = Util.now_ns () in
  Util.Spans.close root t_end;
  st.total_ns <- st.total_ns + (t_end - t_root);
  st.admits <- st.admits + 1;
  result

let composed_pass env ~obs st =
  let b = Buffer.create 65536 in
  run_pass env
    ~admit:(fun _ src dst ->
      let req = env.next_req in
      env.next_req <- req + 1;
      composed_admit env st ~obs ~req ~source:src ~target:dst)
    ~release:(fun sol ->
      let t0 = Util.now_ns () in
      Types.release env.net sol;
      let t1 = Util.now_ns () in
      st.release_ns <- st.release_ns + (t1 - t0);
      st.releases <- st.releases + 1;
      span "types.release" ~parent:(-1) ~req:(-1) t0 t1)
    ~line:(fun id r -> W.decision_line b env.net id r);
  b

(* Per-admit means of the stages; these add up to the composed admit. *)
let per_admit st ns = if st.admits = 0 then 0. else Util.us_of_ns ns /. float_of_int st.admits

let stage_sum_us st =
  per_admit st
    (st.sync_ns + st.pair_ns + st.induce_ns + st.refine_ns + st.validate_ns
   + st.allocate_ns)

(* GC activity across a set of passes. *)
type gc_acc = {
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable promoted : float;
  mutable ops : int;
}

let gc_acc () = { minor_collections = 0; major_collections = 0; promoted = 0.; ops = 0 }

let with_gc acc ~ops f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  acc.minor_collections <-
    acc.minor_collections + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  acc.major_collections <-
    acc.major_collections + (g1.Gc.major_collections - g0.Gc.major_collections);
  acc.promoted <- acc.promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  acc.ops <- acc.ops + ops;
  r
