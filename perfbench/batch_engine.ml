(* Periodic batches through [Batch.route_parallel] on one persistent
   [Parallel] pool, and the reference the outcomes are checked against:
   the documented batch semantics re-implemented here over the uncached
   [Router] path. *)

module Net = Rr_wdm.Network
module Types = Robust_routing.Types
module Router = Robust_routing.Router
module Batch = Robust_routing.Batch
module W = Workload

let order = Batch.Longest_first

let requests reqs =
  Array.to_list (Array.map (fun (_, src, dst) -> { Types.src; dst }) reqs)

(* Map outcomes (in processing order) back to stream ids: the k-th
   outcome for a (src, dst) pair belongs to the k-th such request, since
   the arrangement is a stable sort. *)
let ids_of_outcomes reqs (outcomes : Batch.outcome list) =
  let taken = Array.make (Array.length reqs) false in
  List.map
    (fun (o : Batch.outcome) ->
      let rec find i =
        if i >= Array.length reqs then failwith "batch outcome matches no request"
        else
          let _, s, d = reqs.(i) in
          if (not taken.(i)) && s = o.Batch.request.Types.src
             && d = o.Batch.request.Types.dst
          then begin
            taken.(i) <- true;
            let id, _, _ = reqs.(i) in
            (id, o.Batch.solution)
          end
          else find (i + 1)
      in
      find 0)
    outcomes

(* Longest-first arrangement: descending hop distance on the residual
   network, unreachable pairs first, stable among equals. *)
let arrange net reqs =
  let n = Net.n_nodes net in
  let dist_from src =
    let d = Array.make n (-1) in
    let q = Queue.create () in
    d.(src) <- 0;
    Queue.add src q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      for e = 0 to Net.n_links net - 1 do
        if Net.link_src net e = u && Net.has_available net e then begin
          let v = Net.link_dst net e in
          if d.(v) < 0 then begin
            d.(v) <- d.(u) + 1;
            Queue.add v q
          end
        end
      done
    done;
    d
  in
  let keyed =
    Array.to_list
      (Array.map
         (fun ((_, src, dst) as r) ->
           let h = (dist_from src).(dst) in
           ((if h < 0 then max_int else h), r))
         reqs)
  in
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare b a) keyed)

type ref_outcome = {
  r_id : int;
  spec : Types.solution option;  (** phase-A route on the batch-entry snapshot *)
  final : Types.solution option;
  useful : bool;  (** the speculative solution was committed as it stood *)
}

(* One batch under the documented semantics: route every request on a
   snapshot of the batch-entry network, then commit in order, keeping a
   speculative solution that still validates and re-admitting one that an
   earlier admission invalidated; requests with no route on the snapshot
   are dropped.  Mutates [net] like the engine does. *)
let reference_batch net reqs =
  let ordered = arrange net reqs in
  let snap = Net.copy net in
  let specs =
    List.map
      (fun (id, src, dst) ->
        (id, src, dst, Router.route snap Router.Cost_approx ~source:src ~target:dst))
      ordered
  in
  List.map
    (fun (id, src, dst, spec) ->
      match spec with
      | None -> { r_id = id; spec; final = None; useful = false }
      | Some sol -> (
        match Types.validate net { Types.src; dst } sol with
        | Ok () ->
          Types.allocate net sol;
          { r_id = id; spec; final = Some sol; useful = true }
        | Error _ ->
          let final = Router.admit net Router.Cost_approx ~source:src ~target:dst in
          { r_id = id; spec; final; useful = false }))
    specs

(* Shared pass skeleton over a batch stream: [route reqs] routes one
   batch and returns (id, solution) in processing order. *)
let run_pass net ~preload_used bops ~route ~release =
  let b = Buffer.create 65536 in
  let live = Hashtbl.create 64 in
  let in_use = ref preload_used in
  let half = Array.length bops / 2 in
  Array.iteri
    (fun i bop ->
      if i = half then W.check_books ~what:"mid-pass" net ~expected:!in_use;
      match bop with
      | W.Batch reqs ->
        List.iter
          (fun (id, r) ->
            (match r with
             | Some sol ->
               W.check_disjoint id sol;
               in_use := !in_use + W.footprint_size sol;
               Hashtbl.replace live id sol
             | None -> ());
            W.decision_line b net id r)
          (route reqs)
      | W.Drop id -> (
        match Hashtbl.find_opt live id with
        | Some sol ->
          release sol;
          in_use := !in_use - W.footprint_size sol;
          Hashtbl.remove live id
        | None -> ()))
    bops;
  W.check_books ~what:"end of pass" net ~expected:!in_use;
  b

(* The reference over one pass: decision lines, and per batch the
   speculative solutions and useful-speculation count. *)
let reference_pass net ~preload_used bops =
  let specs = Hashtbl.create 64 in
  let useful = ref 0 and requests = ref 0 in
  let batch_no = ref 0 in
  let b =
    run_pass net ~preload_used bops
      ~route:(fun reqs ->
        let outs = reference_batch net reqs in
        Hashtbl.replace specs !batch_no (List.map (fun o -> (o.r_id, o.spec)) outs);
        incr batch_no;
        List.iter
          (fun o ->
            incr requests;
            if o.useful then incr useful)
          outs;
        List.map (fun o -> (o.r_id, o.final)) outs)
      ~release:(Types.release net)
  in
  (b, specs, float_of_int !useful /. float_of_int (max 1 !requests))

type timing = {
  batch : Util.Passes.t;  (** ms per batch call, per pass *)
  rel : Util.Passes.t;  (** us per release, per pass *)
  mutable words : float;
  mutable requests : int;
  mutable releases : int;
}

let timing () =
  {
    batch = Util.Passes.create ();
    rel = Util.Passes.create ();
    words = 0.;
    requests = 0;
    releases = 0;
  }

(* Seconds of one pass's batches and releases, each at its fastest. *)
let op_seconds tm =
  (Util.Passes.sum_of_mins tm.batch /. 1e3)
  +. (Util.Passes.sum_of_mins tm.rel /. 1e6)

(* A pass routing each batch with [engine] (after the untimed [before]);
   minor words are counted in every domain (Gc.quick_stat sums them), i.e.
   the caller plus the pool's workers. *)
let timed_pass ?(before = ignore) net ~preload_used bops (tm : timing) engine =
  Util.Passes.start tm.batch;
  Util.Passes.start tm.rel;
  run_pass net ~preload_used bops
    ~route:(fun reqs ->
      before reqs;
      let rl = requests reqs in
      let w0 = (Gc.quick_stat ()).Gc.minor_words in
      let t0 = Util.now_ns () in
      let r = engine net rl in
      let dt = Util.now_ns () - t0 in
      tm.words <- tm.words +. ((Gc.quick_stat ()).Gc.minor_words -. w0);
      Util.Passes.add tm.batch (float_of_int dt /. 1e6);
      tm.requests <- tm.requests + Array.length reqs;
      ids_of_outcomes reqs r.Batch.outcomes)
    ~release:(fun sol ->
      let t0 = Util.now_ns () in
      Types.release net sol;
      Util.Passes.add tm.rel (Util.us_of_ns (Util.now_ns () - t0));
      tm.releases <- tm.releases + 1)

let parallel pool ?obs net rl =
  Batch.route_parallel ~order ~pool ?obs net Router.Cost_approx rl

let sequential net rl = Batch.route ~order net Router.Cost_approx rl
