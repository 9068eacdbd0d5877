module Bitset = Rr_util.Bitset
module Digraph = Rr_graph.Digraph
module Obs = Rr_obs.Obs

type sync_stats = {
  touched : int;
  recomputed_arcs : int;
  full_rebuild : bool;
}

(* Accumulators of the word-level kernels below. *)
type scratch = {
  acc : float array;      (* one cell: the running sum *)
  cnt : int array;        (* one cell: the running count *)
  out_words : int array;  (* Λ_out \ used_out of the current conversion *)
}

let scratch net =
  {
    acc = [| 0.0 |];
    cnt = [| 0 |];
    out_words =
      Array.make (Bitset.nwords (Bitset.create (Network.n_wavelengths net))) 0;
  }

type t = {
  net : Network.t;
  aux_graph : Digraph.t;   (* superset of any residual G', 2m+2 nodes *)
  kind : Auxiliary.arc_kind array;
  a_in : int array;        (* per arc: governing in-side physical link *)
  a_out : int array;       (* per arc: governing out-side physical link *)
  active : bool array;     (* residual inclusion (+ request taps) per arc *)
  w_prime : float array;   (* G'  weights *)
  w_rc : float array;      (* G_rc weights (conversion entries = G') *)
  w_gc : float array;      (* G_c  weights (conversion entries = 0)   *)
  mutable gc_base : float;
  (* per-link arc ids and incidence *)
  trav_arc : int array;
  src_tap : int array;
  snk_tap : int array;
  conv_of : int array array;  (* conversion arcs with link e as in or out *)
  (* residual fingerprints *)
  link_ok : bool array;
  seen_used : Bitset.t array;
  seen_failed : bool array;
  (* dedup stamp for conversion-arc recomputation within one sync *)
  arc_epoch : int array;
  mutable epoch : int;
  (* request overlay *)
  mutable cur_source : int;
  mutable cur_target : int;
  pass : bool array;       (* per-link theta filter, scratch for gc/grc *)
  scr : scratch;           (* accumulators of the word-level kernels *)
  mutable stats : sync_stats;
}

let network t = t.net

let last_stats t = t.stats

(* Word-level kernels.  Residual sets are read as [Λ(e) land lnot used(e)]
   one word at a time instead of materialising [Network.available] and
   [Bitset.inter]; sums and counts accumulate in the one-cell arrays of a
   [scratch] (a float array write never boxes, a float ref captured by an
   iteration closure boxes on every addition).  Each walks the set bits
   in ascending order and makes the same additions in the same order as
   the set-based definitions, so the weights are bit-identical. *)
(* lint: no-alloc *)
let avail_word lam used i = Bitset.word lam i land lnot (Bitset.word used i)

(* Highest bit index of word [i] inside a width-[width] set. *)
(* lint: no-alloc *)
let top_bit width i =
  min (Bitset.bits_per_word - 1) (width - 1 - (i * Bitset.bits_per_word))

(* Residual traversal sum: acc = Σ_{λ ∈ Λ(e) \ used(e)} w(e, λ),
   ascending, as [Bitset.fold] over [Network.available]; returns the
   count. *)
(* lint: no-alloc *)
let avail_weight_sum s net e =
  let lam = Network.lambdas net e and used = Network.used net e in
  let w = Network.weights net e in
  s.acc.(0) <- 0.0;
  s.cnt.(0) <- 0;
  for i = 0 to Bitset.nwords lam - 1 do
    let x = avail_word lam used i in
    if x <> 0 then begin
      s.cnt.(0) <- s.cnt.(0) + Bitset.popcount x;
      for b = 0 to top_bit (Bitset.width lam) i do
        if x land (1 lsl b) <> 0 then
          s.acc.(0) <- s.acc.(0) +. w.((i * Bitset.bits_per_word) + b)
      done
    end
  done;
  s.cnt.(0)

(* lint: no-alloc *)
let rec inter_count li ui lo uo i c =
  if i >= Bitset.nwords li then c
  else
    inter_count li ui lo uo (i + 1)
      (c + Bitset.popcount (avail_word li ui i land avail_word lo uo i))

(* Count the pair (·, λb) at cost [c] if λb is available on the out-link. *)
(* lint: no-alloc *)
let[@inline] take_pair s lb c =
  if
    s.out_words.(lb / Bitset.bits_per_word)
    land (1 lsl (lb mod Bitset.bits_per_word))
    <> 0
  then begin
    s.acc.(0) <- s.acc.(0) +. c;
    s.cnt.(0) <- s.cnt.(0) + 1
  end

(* lint: no-alloc *)
let rec first_above qs la i =
  if i >= Array.length qs || qs.(i) > la then i else first_above qs la (i + 1)

(* The pairs of in-wavelength [la] at a [Range]/[Table] converter: its
   successors ascending, with the identity pair (λa, λa) merged in at its
   sorted position ([Conversion.cost] is [Some 0.0] on the diagonal for
   every spec). *)
(* lint: no-alloc *)
let conv_from s net v la =
  let qs, cs = Network.conv_successors net v la in
  let p = first_above qs la 0 in
  for i = 0 to p - 1 do
    take_pair s qs.(i) cs.(i)
  done;
  take_pair s la 0.0;
  for i = p to Array.length qs - 1 do
    take_pair s qs.(i) cs.(i)
  done

(* Mean conversion cost at [v] over residual wavelength pairs (λa ∈
   Λ_in \ used_in, λb ∈ Λ_out \ used_out), identical bit for bit to
   {!Auxiliary.mean_conversion} on the materialised sets: written to
   acc, [false] when no pair is allowed.  [Range]/[Table] converters use
   the precomputed successor lists: per available in-wavelength the
   allowed out-wavelengths are enumerated ascending (identity merged in
   at its sorted position), which is exactly the subsequence of the fresh
   construction's dense [avail_in x avail_out] loop that contributes to
   the sum — same additions, same order, same bits — at O(|avail| * d)
   instead of O(W^2). *)
(* lint: no-alloc *)
let conversion_mean s net v li ui lo uo =
  match Network.converter net v with
  | Conversion.No_conversion ->
    if inter_count li ui lo uo 0 0 = 0 then false
    else begin
      s.acc.(0) <- 0.0;
      true
    end
  | Conversion.Full c ->
    let a = inter_count li ui li ui 0 0 and b = inter_count lo uo lo uo 0 0 in
    if a = 0 || b = 0 then false
    else begin
      let common = inter_count li ui lo uo 0 0 in
      let k = float_of_int (a * b) in
      s.acc.(0) <- c *. (k -. float_of_int common) /. k;
      true
    end
  | Conversion.Range _ | Conversion.Table _ ->
    s.acc.(0) <- 0.0;
    s.cnt.(0) <- 0;
    for i = 0 to Bitset.nwords lo - 1 do
      s.out_words.(i) <- avail_word lo uo i
    done;
    for i = 0 to Bitset.nwords li - 1 do
      let x = avail_word li ui i in
      if x <> 0 then
        for b = 0 to top_bit (Bitset.width li) i do
          if x land (1 lsl b) <> 0 then
            conv_from s net v ((i * Bitset.bits_per_word) + b)
        done
    done;
    if s.cnt.(0) = 0 then false
    else begin
      s.acc.(0) <- s.acc.(0) /. float_of_int s.cnt.(0);
      true
    end

let[@inline] gc_weight t e =
  let net = t.net in
  let n_e = float_of_int (Bitset.cardinal (Network.lambdas net e)) in
  let u_e = float_of_int (Bitset.cardinal (Network.used net e)) in
  (t.gc_base ** ((u_e +. 1.0) /. n_e)) -. (t.gc_base ** (u_e /. n_e))

(* Recompute one conversion arc (weight + activity) against the current
   residual state; deduplicated per sync by the epoch stamp. *)
let recompute_conv t recomputed a =
  if t.arc_epoch.(a) <> t.epoch then begin
    t.arc_epoch.(a) <- t.epoch;
    incr recomputed;
    let e_in = t.a_in.(a) and e_out = t.a_out.(a) in
    if t.link_ok.(e_in) && t.link_ok.(e_out) then begin
      let v = match t.kind.(a) with Auxiliary.Convert v -> v | _ -> assert false in
      let net = t.net in
      if
        conversion_mean t.scr net v (Network.lambdas net e_in)
          (Network.used net e_in) (Network.lambdas net e_out)
          (Network.used net e_out)
      then begin
        t.w_prime.(a) <- t.scr.acc.(0);
        t.w_rc.(a) <- t.scr.acc.(0);
        t.active.(a) <- true
      end
      else t.active.(a) <- false
    end
    else t.active.(a) <- false
  end

(* Phase 1 of a recompute: inclusion flag, traversal weights under all
   three graphs, and tap activity for the current request overlay.  Must
   run for every changed link BEFORE any conversion arc is recomputed —
   a conversion arc reads the [link_ok] of BOTH its endpoints, and the
   epoch stamp deduplicates its recomputation, so evaluating it against a
   stale neighbour flag would stick until that link next changes. *)
let refresh_link t recomputed e =
  let net = t.net in
  let ok = Network.has_available net e in
  t.link_ok.(e) <- ok;
  let ta = t.trav_arc.(e) in
  t.active.(ta) <- ok;
  if ok then begin
    incr recomputed;
    (* [has_available] holds, so the residual set is [Λ(e) \ used(e)]. *)
    let k = avail_weight_sum t.scr net e in
    let sum = t.scr.acc.(0) in
    t.w_prime.(ta) <- sum /. float_of_int k;
    t.w_rc.(ta) <- sum /. float_of_int (Bitset.cardinal (Network.lambdas net e));
    t.w_gc.(ta) <- gc_weight t e
  end;
  t.active.(t.src_tap.(e)) <- ok && Network.link_src net e = t.cur_source;
  t.active.(t.snk_tap.(e)) <- ok && Network.link_dst net e = t.cur_target

(* Phase 2: the conversion arcs incident to a changed link. *)
let refresh_conv_of t recomputed e =
  let arcs = t.conv_of.(e) in
  for i = 0 to Array.length arcs - 1 do
    recompute_conv t recomputed arcs.(i)
  done

let create net =
  let g = Network.graph net in
  let n = Network.n_nodes net in
  let m = Network.n_links net in
  let out_node e = 2 * e in
  let in_node e = (2 * e) + 1 in
  let s' = 2 * m in
  let t'' = (2 * m) + 1 in
  let b = Digraph.builder ((2 * m) + 2) in
  let kinds = ref [] and ins = ref [] and outs = ref [] in
  let add u v k e_in e_out =
    let id = Digraph.add_edge b u v in
    kinds := k :: !kinds;
    ins := e_in :: !ins;
    outs := e_out :: !outs;
    id
  in
  let trav_arc = Array.make m (-1) in
  let src_tap = Array.make m (-1) in
  let snk_tap = Array.make m (-1) in
  let conv_lists = Array.make m [] in
  let scr = scratch net in
  let nothing_used = Bitset.create (Network.n_wavelengths net) in
  (* Same group order as the fresh constructors (see Auxiliary.build). *)
  for e = 0 to m - 1 do
    trav_arc.(e) <- add (out_node e) (in_node e) (Auxiliary.Traverse e) e e
  done;
  for v = 0 to n - 1 do
    let in_e = Digraph.in_edges g v and out_e = Digraph.out_edges g v in
    Array.iter
      (fun e ->
        Array.iter
          (fun e' ->
            if e <> e' then
              (* Structural feasibility over the full wavelength sets: a
                 superset of feasibility under any residual state (removing
                 wavelengths can only remove allowed pairs). *)
              if
                conversion_mean scr net v (Network.lambdas net e) nothing_used
                  (Network.lambdas net e') nothing_used
              then begin
                let a = add (in_node e) (out_node e') (Auxiliary.Convert v) e e' in
                conv_lists.(e) <- a :: conv_lists.(e);
                conv_lists.(e') <- a :: conv_lists.(e')
              end)
          out_e)
      in_e
  done;
  for e = 0 to m - 1 do
    src_tap.(e) <- add s' (out_node e) (Auxiliary.Source_tap e) e e
  done;
  for e = 0 to m - 1 do
    snk_tap.(e) <- add (in_node e) t'' (Auxiliary.Sink_tap e) e e
  done;
  let graph = Digraph.freeze b in
  let n_arcs = Digraph.n_edges graph in
  let t =
    {
      net;
      aux_graph = graph;
      kind = Array.of_list (List.rev !kinds);
      a_in = Array.of_list (List.rev !ins);
      a_out = Array.of_list (List.rev !outs);
      active = Array.make n_arcs false;
      w_prime = Array.make n_arcs 0.0;
      w_rc = Array.make n_arcs 0.0;
      w_gc = Array.make n_arcs 0.0;
      gc_base = 16.0;
      trav_arc;
      src_tap;
      snk_tap;
      conv_of = Array.map (fun l -> Array.of_list (List.rev l)) conv_lists;
      link_ok = Array.make m false;
      seen_used = Array.init m (fun e -> Network.used net e);
      seen_failed = Array.init m (fun e -> Network.is_failed net e);
      (* -1 so the initial full computation below is not deduplicated away *)
      arc_epoch = Array.make n_arcs (-1);
      epoch = 0;
      cur_source = -1;
      cur_target = -1;
      pass = Array.make m false;
      scr;
      stats = { touched = 0; recomputed_arcs = 0; full_rebuild = false };
    }
  in
  let recomputed = ref 0 in
  for e = 0 to m - 1 do
    refresh_link t recomputed e
  done;
  for e = 0 to m - 1 do
    refresh_conv_of t recomputed e
  done;
  t

let sync ?(obs = Obs.null) t =
  let t0 = Obs.start obs in
  let m = Network.n_links t.net in
  t.epoch <- t.epoch + 1;
  let touched = ref [] and n_touched = ref 0 in
  for e = m - 1 downto 0 do
    let u = Network.used t.net e in
    let f = Network.is_failed t.net e in
    let changed =
      f <> t.seen_failed.(e)
      || (u != t.seen_used.(e) && not (Bitset.equal u t.seen_used.(e)))
    in
    t.seen_used.(e) <- u;
    t.seen_failed.(e) <- f;
    if changed then begin
      touched := e :: !touched;
      incr n_touched
    end
  done;
  let recomputed = ref 0 in
  let full = 2 * !n_touched > m in
  if full then begin
    for e = 0 to m - 1 do
      refresh_link t recomputed e
    done;
    for e = 0 to m - 1 do
      refresh_conv_of t recomputed e
    done
  end
  else begin
    List.iter (fun e -> refresh_link t recomputed e) !touched;
    List.iter (fun e -> refresh_conv_of t recomputed e) !touched
  end;
  t.stats <-
    { touched = !n_touched; recomputed_arcs = !recomputed; full_rebuild = full };
  if Obs.enabled obs then begin
    Obs.add obs (if full then "aux.cache.rebuild" else "aux.cache.hit") 1;
    if full then Obs.event obs ~a:!n_touched "journal.aux.rebuild";
    if !n_touched > 0 then Obs.add obs "aux.cache.links_touched" !n_touched
  end;
  Obs.stop obs "stage.aux_delta" t0;
  t.stats

(* Swap the request overlay: tap activity tracks (source, target) and the
   current per-link inclusion flags. *)
let clear_taps active taps links =
  for i = 0 to Array.length links - 1 do
    active.(taps.(links.(i))) <- false
  done

let set_request t ~source ~target =
  let net = t.net in
  let n = Network.n_nodes net in
  if source = target then invalid_arg "Auxiliary: source = target";
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Auxiliary: node out of range";
  let g = Network.graph net in
  if t.cur_source >= 0 then
    clear_taps t.active t.src_tap (Digraph.out_edges g t.cur_source);
  if t.cur_target >= 0 then
    clear_taps t.active t.snk_tap (Digraph.in_edges g t.cur_target);
  t.cur_source <- source;
  t.cur_target <- target;
  let outs = Digraph.out_edges g source in
  for i = 0 to Array.length outs - 1 do
    let e = outs.(i) in
    t.active.(t.src_tap.(e)) <- t.link_ok.(e)
  done;
  let ins = Digraph.in_edges g target in
  for i = 0 to Array.length ins - 1 do
    let e = ins.(i) in
    t.active.(t.snk_tap.(e)) <- t.link_ok.(e)
  done

let aux_of t weight =
  {
    Auxiliary.graph = t.aux_graph;
    weight;
    kind = t.kind;
    source = 2 * Network.n_links t.net;
    sink = (2 * Network.n_links t.net) + 1;
    out_node = (fun e -> 2 * e);
    in_node = (fun e -> (2 * e) + 1);
  }

let gprime_view t ~source ~target =
  set_request t ~source ~target;
  let active = t.active in
  (aux_of t t.w_prime, fun a -> active.(a))

let theta_pass t theta =
  let net = t.net in
  for e = 0 to Network.n_links net - 1 do
    t.pass.(e) <- t.link_ok.(e) && Network.link_load net e < theta
  done

let gc_view t ~theta ?(base = 16.0) ~source ~target () =
  if base <= 1.0 then invalid_arg "Auxiliary.gc: base must exceed 1";
  if not (Float.equal base t.gc_base) then begin
    t.gc_base <- base;
    for e = 0 to Network.n_links t.net - 1 do
      if t.link_ok.(e) then t.w_gc.(t.trav_arc.(e)) <- gc_weight t e
    done
  end;
  set_request t ~source ~target;
  theta_pass t theta;
  let active = t.active and pass = t.pass in
  let a_in = t.a_in and a_out = t.a_out in
  (aux_of t t.w_gc, fun a -> active.(a) && pass.(a_in.(a)) && pass.(a_out.(a)))

let grc_view t ~theta ~source ~target =
  set_request t ~source ~target;
  theta_pass t theta;
  let active = t.active and pass = t.pass in
  let a_in = t.a_in and a_out = t.a_out in
  (aux_of t t.w_rc, fun a -> active.(a) && pass.(a_in.(a)) && pass.(a_out.(a)))

let conv_arcs_incident t links =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Array.iter (fun a -> Hashtbl.replace seen a ()) t.conv_of.(e))
    links;
  Hashtbl.length seen
