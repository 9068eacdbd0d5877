type policy =
  | Cost_approx
  | Load_aware
  | Load_cost
  | Two_step
  | First_fit
  | Most_used
  | Least_used
  | Unprotected
  | Node_protect
  | Exact

let all_policies =
  [
    Cost_approx; Load_aware; Load_cost; Two_step; First_fit; Most_used;
    Least_used; Unprotected; Node_protect; Exact;
  ]

let policy_name = function
  | Cost_approx -> "cost-approx"
  | Load_aware -> "load-aware"
  | Load_cost -> "load-cost"
  | Two_step -> "two-step"
  | First_fit -> "first-fit"
  | Most_used -> "most-used"
  | Least_used -> "least-used"
  | Unprotected -> "unprotected"
  | Node_protect -> "node-protect"
  | Exact -> "exact"

let policy_of_string s =
  List.find_opt (fun p -> String.equal (policy_name p) s) all_policies

module Obs = Rr_obs.Obs

let route ?aux_cache ?workspace ?(obs = Obs.null) net policy ~source ~target =
  let result =
    match policy with
    | Cost_approx ->
      Approx_cost.route ?aux_cache ?workspace ~obs net ~source ~target
    | Load_aware ->
      Option.map
        (fun r -> r.Mincog.solution)
        (Mincog.route ?aux_cache ?workspace ~obs net ~source ~target)
    | Load_cost ->
      Option.map
        (fun r -> r.Approx_load_cost.solution)
        (Approx_load_cost.route ?aux_cache ?workspace ~obs net ~source ~target)
    | Two_step -> Baselines.two_step ?workspace ~obs net ~source ~target
    | First_fit -> Baselines.first_fit ?workspace ~obs net ~source ~target
    | Most_used -> Baselines.most_used_fit ?workspace ~obs net ~source ~target
    | Least_used -> Baselines.least_used_fit ?workspace ~obs net ~source ~target
    | Unprotected -> Baselines.unprotected ?workspace ~obs net ~source ~target
    | Node_protect -> Node_protect.route ?workspace ~obs net ~source ~target
    | Exact ->
      (* The exact enumerative solver has no Dijkstra-shaped scratch state. *)
      ignore workspace;
      Option.map fst (Exact.route net ~source ~target)
  in
  (* The pipeline policies count their own blocking causes above; the
     baselines and the exact solver block as one opaque step. *)
  (match (result, policy) with
   | None, (Two_step | First_fit | Most_used | Least_used | Unprotected | Exact)
     ->
     Obs.add obs "route.block.no_route" 1
   | _ -> ());
  result

(* Journal payload codes for [journal.admit.blocked]: which blocking
   cause fired.  Detected by diffing the [route.block.*] counters around
   the route call — cheap (three hash lookups per enabled admission) and
   it keeps the cause attribution consistent with the counters. *)
let cause_no_disjoint_pair = 1
let cause_no_wavelength = 2
let cause_no_route = 3
let cause_validator = 4

let admit ?aux_cache ?workspace ?(obs = Obs.null) ?req net policy ~source
    ~target =
  (match req with Some id -> Obs.set_request obs id | None -> ());
  let t_admit = Obs.start obs in
  let live = Obs.enabled obs in
  let m = Obs.metrics obs in
  let module M = Rr_obs.Metrics in
  let b_pair = if live then M.counter m "route.block.no_disjoint_pair" else 0 in
  let b_wave = if live then M.counter m "route.block.no_wavelength" else 0 in
  let b_route = if live then M.counter m "route.block.no_route" else 0 in
  let finish result =
    Obs.stop_admit obs t_admit;
    (match req with Some _ -> Obs.clear_request obs | None -> ());
    result
  in
  match route ?aux_cache ?workspace ~obs net policy ~source ~target with
  | None ->
    Obs.add obs "admit.blocked" 1;
    if live then begin
      let cause =
        if M.counter m "route.block.no_disjoint_pair" > b_pair then
          cause_no_disjoint_pair
        else if M.counter m "route.block.no_wavelength" > b_wave then
          cause_no_wavelength
        else if M.counter m "route.block.no_route" > b_route then
          cause_no_route
        else 0
      in
      Obs.event obs ~a:cause "journal.admit.blocked"
    end;
    finish None
  | Some sol -> (
    let t0 = Obs.start obs in
    let verdict = Types.validate net { Types.src = source; dst = target } sol in
    Obs.stop obs "stage.validate" t0;
    match verdict with
    | Error e ->
      (* A policy handed us a path the model rejects.  Historically this
         was a [failwith]; counting it as a blocked request keeps the
         simulator alive and makes the defect observable as a non-zero
         [admit.reject.validator] (zero under the shipped policies — the
         layered arrival/departure split plus the link-simplicity screens
         close the known classes). *)
      ignore e;
      Obs.add obs "admit.reject.validator" 1;
      Obs.add obs "admit.blocked" 1;
      Obs.event obs ~a:cause_validator "journal.admit.blocked";
      Obs.anomaly obs "validator-reject";
      finish None
    | Ok () ->
      let t0 = Obs.start obs in
      Types.allocate net sol;
      Obs.stop obs "stage.allocate" t0;
      Obs.add obs "admit.ok" 1;
      Obs.event obs ~a:source ~b:target "journal.admit.ok";
      finish (Some sol))
