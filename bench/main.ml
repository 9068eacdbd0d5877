(* Benchmark / experiment harness.

   One section per experiment in DESIGN.md §5.  Every section prints an
   aligned table; `--only <id>` restricts to one section, `--fast` shrinks
   instance counts (used by CI smoke runs), `--csv <dir>` additionally
   dumps machine-readable tables.

     FIG-1           auxiliary-graph construction (paper Figure 1)
     THM-1           running-time scaling of the Section 3.3 algorithm
     THM-2           approximation ratio vs exact (bound: 2)
     LEM-2           refinement improvement over the raw auxiliary pair
     THM-3           MinCog load ratio vs exact bottleneck (bound: 3)
     SYN-BLK         blocking probability vs offered load
     SYN-LOAD        network load and reconfiguration counts per policy
     SYN-RST         restoration under fibre cuts, active vs passive
     SYN-NODE        whole-node outages, edge- vs node-disjoint backups
     SYN-SHR         dedicated vs shared backup protection
     SYN-RWA         wavelength-assignment strategies under continuity
     SYN-BATCH       Section 2 batch admission, ordering effect
     ABL-BASE        G_c exponent base sweep
     ABL-JITTER      assumption (ii) violation vs approximation ratio
     ABL-CONV        converter availability vs blocking
     ABL-RECONF      reconfiguration debt per admission policy
     ILP-X           paper ILP vs combinatorial exact cross-check
     SURV            availability under correlated failures, full vs
                     partial path protection (gated) *)

module Net = Rr_wdm.Network
module Aux = Rr_wdm.Auxiliary
module Slp = Rr_wdm.Semilightpath
module RR = Robust_routing
module Types = RR.Types
module Router = RR.Router
module Rng = Rr_util.Rng
module Table = Rr_util.Table
module Stats = Rr_util.Stats

let fast = ref false
let max_jobs = ref 8
let only = ref None
let csv_dir = ref None
let json_path = ref None

(* Theorem-bound gate: sections that validate a proved bound record a
   violation here instead of merely printing "VIOLATED"; the process then
   exits 1 so CI fails when an approximation guarantee regresses. *)
let bound_violations = ref []
let record_violation fmt =
  Printf.ksprintf (fun m -> bound_violations := m :: !bound_violations) fmt

(* The survivability section leaves its JSON fragment here; perf-routing
   owns the --json file and embeds the fragment so the availability
   floors land in BENCH_routing.json next to the perf gates. *)
let surv_json : string option ref = ref None

(* With --csv <dir>, every table is also written as <dir>/<slug>.csv. *)
let csv_tables : (string * string list * string list list) list ref = ref []

let record_csv ~slug ~header rows = csv_tables := (slug, header, rows) :: !csv_tables

let flush_csv () =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (slug, header, rows) ->
        let path = Filename.concat dir (slug ^ ".csv") in
        Rr_util.Csv_out.save path ~header rows;
        Printf.printf "csv: wrote %s\n" path)
      (List.rev !csv_tables);
    csv_tables := []

(* ------------------------------------------------------------------ *)
(* Bechamel helper: nanoseconds per run of [fn].                        *)

let measure_ns fn =
  let open Bechamel in
  let test = Test.make ~name:"t" (Staged.stage fn) in
  let quota = if !fast then Time.millisecond 100. else Time.millisecond 400. in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Analyze.OLS.estimates v with Some (e :: _) -> e | _ -> acc)
    results nan

let ns_cell ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f µs" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* ------------------------------------------------------------------ *)
(* FIG-1                                                                *)

let fig1_network () =
  let link ?(lambdas = [ 0; 1 ]) u v =
    { Net.ls_src = u; ls_dst = v; ls_lambdas = lambdas; ls_weight = (fun _ -> 1.0) }
  in
  Net.create ~n_nodes:4 ~n_wavelengths:2
    ~links:[ link 0 1; link 1 3; link 0 2 ~lambdas:[ 0 ]; link 2 3 ~lambdas:[ 1 ]; link 1 2 ]
    ~converters:(fun _ -> Rr_wdm.Conversion.Full 0.5)

let run_fig1 () =
  print_endline "== FIG-1: residual network G and auxiliary graph G' ==";
  let net = fig1_network () in
  Format.printf "%a@.@." Net.pp net;
  let aux = Aux.gprime net ~source:0 ~target:3 in
  let nodes, traversal, conversion = Aux.stats aux in
  let t =
    Table.create ~title:"auxiliary graph G' (source 0, target 3)"
      ~header:[ "quantity"; "value"; "expected (paper construction)" ]
  in
  Table.add_row t
    [ "edge-nodes incl. s'/t''"; string_of_int nodes; "2m + 2 = 12" ];
  Table.add_row t [ "traversal arcs"; string_of_int traversal; "m = 5" ];
  Table.add_row t
    [ "conversion arcs"; string_of_int conversion; "Σ_v in(v)·out(v) with feasible pair = 4" ];
  Table.print t;
  (match Aux.disjoint_pair aux with
   | None -> print_endline "no disjoint pair (unexpected)"
   | Some ((p1, p2), w) ->
     let l1 = Aux.links_of_path aux p1 and l2 = Aux.links_of_path aux p2 in
     Printf.printf
       "Suurballe on G': pair of physical routes %s and %s, aux weight %.3f\n"
       (String.concat "," (List.map string_of_int l1))
       (String.concat "," (List.map string_of_int l2))
       w);
  (match RR.Approx_cost.route net ~source:0 ~target:3 with
   | None -> print_endline "approx route: none"
   | Some sol ->
     Format.printf "refined robust route:@.%a@.@." (Types.pp net) sol)

(* ------------------------------------------------------------------ *)
(* THM-1                                                                *)

let run_thm1 () =
  let sizes =
    if !fast then [ (25, 4); (50, 8) ]
    else
      [ (50, 4); (100, 4); (200, 4); (400, 4); (100, 8); (200, 8); (100, 16); (200, 16) ]
  in
  let t =
    Table.create
      ~title:
        "THM-1: Section 3.3 algorithm wall-clock per request (degree-4 \
         random WANs; bound O(nd + nW² + m log n + nW log nW))"
      ~header:[ "n"; "links m"; "W"; "time/request"; "ns / m" ]
  in
  List.iter
    (fun (n, w) ->
      let rng = Rng.create (1000 + n + w) in
      let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n ~degree:4 in
      let net = Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w topo in
      let m = Net.n_links net in
      let pairs =
        Array.init 16 (fun _ -> Rr_sim.Workload.random_pair rng ~n_nodes:n)
      in
      let i = ref 0 in
      let ns =
        measure_ns (fun () ->
            let s, d = pairs.(!i land 15) in
            incr i;
            ignore (RR.Approx_cost.route net ~source:s ~target:d))
      in
      Table.add_row t
        [
          string_of_int n;
          string_of_int m;
          string_of_int w;
          ns_cell ns;
          Printf.sprintf "%.1f" (ns /. float_of_int m);
        ])
    sizes;
  Table.print t;
  print_endline
    "  (near-constant ns/m at fixed W shows the predicted quasi-linear\n\
    \   scaling in the graph size; the W-dependent terms are lower-order\n\
    \   at WAN scale)\n"

(* ------------------------------------------------------------------ *)
(* THM-2 / LEM-2                                                        *)

let ratio_instances () =
  let specs =
    if !fast then [ (6, 2, 20); (7, 3, 20) ]
    else [ (6, 2, 60); (7, 3, 60); (8, 3, 60); (8, 4, 40) ]
  in
  specs

let run_thm2 () =
  let t =
    Table.create
      ~title:
        "THM-2: approximation ratio (approx cost / exact cost); proved bound 2"
      ~header:
        [ "n"; "W"; "instances"; "solved"; "mean"; "p90"; "max"; "bound ok" ]
  in
  List.iter
    (fun (n, w, count) ->
      let ratios = ref [] in
      for seed = 1 to count do
        let rng = Rng.create ((n * 10_000) + (w * 100) + seed) in
        let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n ~degree:3 in
        let net = Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w topo in
        let target = n - 1 in
        match
          ( RR.Exact.route net ~source:0 ~target,
            RR.Approx_cost.route_detailed net ~source:0 ~target )
        with
        | Some (_, opt), Some d when opt > 0.0 ->
          ratios := (d.refined_cost /. opt) :: !ratios
        | _ -> ()
      done;
      match !ratios with
      | [] -> ()
      | rs ->
        let s = Stats.summarize rs in
        Table.add_row t
          [
            string_of_int n;
            string_of_int w;
            string_of_int count;
            string_of_int s.n;
            Printf.sprintf "%.4f" s.mean;
            Printf.sprintf "%.4f" s.p90;
            Printf.sprintf "%.4f" s.max;
            (if s.max <= 2.0 +. 1e-9 then "yes"
             else begin
               record_violation "THM-2: ratio %.4f > 2 (n=%d W=%d)" s.max n w;
               "VIOLATED"
             end);
          ])
    (ratio_instances ());
  Table.print t

let run_lem2 () =
  let t =
    Table.create
      ~title:
        "LEM-2: refinement gain — C(P1')+C(P2') vs auxiliary pair weight \
         ω(P1)+ω(P2)"
      ~header:[ "n"; "W"; "instances"; "mean gain"; "max gain"; "never worse" ]
  in
  List.iter
    (fun (n, w, count) ->
      let gains = ref [] in
      let never_worse = ref true in
      for seed = 1 to count do
        let rng = Rng.create ((n * 31_000) + (w * 173) + seed) in
        let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n ~degree:3 in
        let net = Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w topo in
        match RR.Approx_cost.route_detailed net ~source:0 ~target:(n - 1) with
        | None -> ()
        | Some d ->
          if d.refined_cost > d.aux_weight +. 1e-6 then never_worse := false;
          gains := ((d.aux_weight -. d.refined_cost) /. d.aux_weight) :: !gains
      done;
      match !gains with
      | [] -> ()
      | gs ->
        let s = Stats.summarize gs in
        Table.add_row t
          [
            string_of_int n;
            string_of_int w;
            string_of_int s.n;
            Table.cell_pct s.mean;
            Table.cell_pct s.max;
            (if !never_worse then "yes" else "NO");
          ])
    (ratio_instances ());
  Table.print t

(* ------------------------------------------------------------------ *)
(* THM-3                                                                *)

let run_thm3 () =
  let t =
    Table.create
      ~title:
        "THM-3: MinCog achieved bottleneck load vs exact optimum; proved \
         ratio < 3"
      ~header:
        [ "n"; "W"; "preload"; "solved"; "mean ratio"; "max ratio"; "bound ok" ]
  in
  let specs =
    if !fast then [ (8, 4, 0.3, 20) ]
    else [ (8, 4, 0.2, 50); (8, 4, 0.4, 50); (10, 6, 0.3, 50); (10, 6, 0.5, 50) ]
  in
  List.iter
    (fun (n, w, preload, count) ->
      let ratios = ref [] in
      for seed = 1 to count do
        let rng = Rng.create ((n * 77_000) + seed) in
        let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n ~degree:3 in
        let net = Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w topo in
        for e = 0 to Net.n_links net - 1 do
          Rr_util.Bitset.iter
            (fun l -> if Rng.uniform rng < preload then Net.allocate net e l)
            (Net.lambdas net e)
        done;
        match
          ( RR.Mincog.route net ~source:0 ~target:(n - 1),
            RR.Mincog.min_bottleneck net ~source:0 ~target:(n - 1) )
        with
        | Some r, Some (bstar, _) when bstar > 1e-9 ->
          ratios := (r.bottleneck /. bstar) :: !ratios
        | Some r, Some (_, _) ->
          (* optimum 0: the algorithm should find a zero-load pair too *)
          ratios := (if r.bottleneck <= 1e-9 then 1.0 else 2.0) :: !ratios
        | _ -> ()
      done;
      match !ratios with
      | [] -> ()
      | rs ->
        let s = Stats.summarize rs in
        Table.add_row t
          [
            string_of_int n;
            string_of_int w;
            Table.cell_pct preload;
            string_of_int s.n;
            Printf.sprintf "%.4f" s.mean;
            Printf.sprintf "%.4f" s.max;
            (if s.max < 3.0 then "yes"
             else begin
               record_violation "THM-3: load ratio %.4f >= 3 (n=%d W=%d)" s.max
                 n w;
               "VIOLATED"
             end);
          ])
    specs;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Synthetic dynamic-traffic evaluation                                 *)

let sim_policies =
  [ Router.Cost_approx; Router.Load_cost; Router.Two_step; Router.First_fit ]

let nsfnet_net seed w =
  Rr_topo.Fitout.fit_out ~rng:(Rng.create seed) ~n_wavelengths:w
    Rr_topo.Reference.nsfnet

let run_syn_blocking () =
  let loads = if !fast then [ 20.0; 60.0 ] else [ 10.0; 20.0; 40.0; 60.0; 80.0 ] in
  let duration = if !fast then 150.0 else 400.0 in
  let t =
    Table.create
      ~title:
        "SYN-BLK: blocking probability vs offered load (NSFNET, W=8, \
         mean holding 10)"
      ~header:
        ("Erlang"
        :: List.map Router.policy_name sim_policies)
  in
  let csv_rows = ref [] in
  List.iter
    (fun erlang ->
      let values =
        List.map
          (fun policy ->
            let net = nsfnet_net 7 8 in
            let wl =
              Rr_sim.Workload.make ~arrival_rate:(erlang /. 10.0) ~mean_holding:10.0
            in
            let cfg =
              { (Rr_sim.Simulator.default_config policy wl) with duration; seed = 97 }
            in
            let r = Rr_sim.Simulator.run net cfg in
            Rr_sim.Metrics.blocking_probability r.counters)
          sim_policies
      in
      csv_rows :=
        (Printf.sprintf "%.0f" erlang :: List.map Rr_util.Csv_out.of_float values)
        :: !csv_rows;
      Table.add_row t (Printf.sprintf "%.0f" erlang :: List.map Table.cell_pct values))
    loads;
  record_csv ~slug:"syn_blocking"
    ~header:("erlang" :: List.map Router.policy_name sim_policies)
    (List.rev !csv_rows);
  Table.print t;
  print_endline
    "  (first-fit routes by hop count and so consumes the fewest\n\
    \   wavelengths per connection; the cost-optimising policies accept\n\
    \   longer, cheaper-by-weight routes and trade some blocking for\n\
    \   cost — unprotected policies are excluded because they consume\n\
    \   half the resources of a protected connection)\n"

(* Fraction of simulated time the network load sat at or above [threshold],
   from the load change-point trace. *)
let time_above_threshold trace ~duration ~threshold =
  let rec go acc = function
    | (t0, v) :: ((t1, _) :: _ as rest) ->
      go (if v >= threshold then acc +. (t1 -. t0) else acc) rest
    | [ (t0, v) ] -> if v >= threshold then acc +. (duration -. t0) else acc
    | [] -> acc
  in
  go 0.0 trace /. duration

let run_syn_load () =
  let duration = if !fast then 150.0 else 400.0 in
  let threshold = 0.9 in
  let seeds = if !fast then [ 131 ] else [ 131; 271; 653 ] in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "SYN-LOAD: network load and reconfiguration triggers (NSFNET, W=8, \
            25 Erlang hotspot traffic, threshold 0.9, %d-seed averages)"
           (List.length seeds))
      ~header:
        [
          "policy"; "mean ρ"; "peak ρ"; "reconfigs"; "time ρ>=0.9";
          "admitted"; "mean cost";
        ]
  in
  List.iter
    (fun policy ->
      let runs =
        List.map
          (fun seed ->
            let net = nsfnet_net 7 8 in
            let wl = Rr_sim.Workload.make ~arrival_rate:2.5 ~mean_holding:10.0 in
            let cfg =
              {
                (Rr_sim.Simulator.default_config policy wl) with
                duration;
                seed;
                reconfig_threshold = threshold;
                hotspots = Some ([ 5; 8 ], 0.6);
              }
            in
            Rr_sim.Simulator.run net cfg)
          seeds
      in
      let avg f = Stats.mean (List.map f runs) in
      Table.add_row t
        [
          Router.policy_name policy;
          Printf.sprintf "%.3f" (avg (fun r -> r.Rr_sim.Simulator.mean_load));
          Printf.sprintf "%.3f" (avg (fun r -> r.Rr_sim.Simulator.peak_load));
          Printf.sprintf "%.1f"
            (avg (fun r -> float_of_int r.Rr_sim.Simulator.counters.reconfigurations));
          Table.cell_pct
            (avg (fun r ->
                 time_above_threshold r.Rr_sim.Simulator.load_trace ~duration ~threshold));
          Printf.sprintf "%.0f"
            (avg (fun r -> float_of_int r.Rr_sim.Simulator.counters.admitted));
          Printf.sprintf "%.0f"
            (avg (fun r -> Rr_sim.Metrics.mean_admitted_cost r.Rr_sim.Simulator.counters));
        ])
    [ Router.Cost_approx; Router.Load_aware; Router.Load_cost; Router.First_fit ];
  Table.print t;
  print_endline
    "  (load-aware routing keeps the maximum link load lower for longer,\n\
    \   deferring and reducing threshold crossings — the reconfigurations\n\
    \   the paper's Section 4 aims to avoid)\n"

let run_syn_restore () =
  let duration = if !fast then 200.0 else 500.0 in
  let t =
    Table.create
      ~title:
        "SYN-RST: single-link failure restoration (NSFNET, W=8, failure \
         rate 0.05, repair 30)"
      ~header:
        [
          "policy";
          "failures";
          "switchovers";
          "passive re-routes";
          "dropped";
          "restoration success";
        ]
  in
  List.iter
    (fun policy ->
      let net = nsfnet_net 9 8 in
      let wl = Rr_sim.Workload.make ~arrival_rate:2.0 ~mean_holding:15.0 in
      let cfg =
        {
          (Rr_sim.Simulator.default_config policy wl) with
          duration;
          seed = 77;
          failure_rate = 0.05;
          repair_time = 30.0;
        }
      in
      let r = Rr_sim.Simulator.run net cfg in
      Table.add_row t
        [
          Router.policy_name policy;
          string_of_int r.counters.failures_injected;
          string_of_int r.counters.restorations_ok;
          string_of_int r.counters.passive_reroutes_ok;
          string_of_int r.dropped;
          Table.cell_pct (Rr_sim.Metrics.restoration_success r.counters);
        ])
    [ Router.Cost_approx; Router.Load_cost; Router.Two_step; Router.Unprotected ];
  Table.print t;
  print_endline
    "  (protected policies restore by instant backup switch-over; the\n\
    \   unprotected baseline must re-route passively and drops when the\n\
    \   residual network is exhausted — Section 1's activate vs passive)\n"

(* ------------------------------------------------------------------ *)
(* SYN-NODE: node outages, edge- vs node-disjoint protection            *)

let run_syn_node () =
  let duration = if !fast then 200.0 else 600.0 in
  let t =
    Table.create
      ~title:
        "SYN-NODE: whole-node outages (NSFNET, W=8, node failure rate \
         0.04, repair 25; extension)"
      ~header:
        [
          "policy"; "reprovision"; "node outages"; "switchovers";
          "passive re-routes"; "endpoint losses"; "transit drops";
          "restoration success";
        ]
  in
  List.iter
    (fun (policy, reprovision) ->
      let net = nsfnet_net 11 8 in
      let wl = Rr_sim.Workload.make ~arrival_rate:2.0 ~mean_holding:15.0 in
      let cfg =
        {
          (Rr_sim.Simulator.default_config policy wl) with
          duration;
          seed = 57;
          node_failure_rate = 0.04;
          repair_time = 25.0;
          reprovision_backup = reprovision;
        }
      in
      let r = Rr_sim.Simulator.run net cfg in
      Table.add_row t
        [
          Router.policy_name policy;
          (if reprovision then "yes" else "no");
          string_of_int r.node_failures;
          string_of_int r.counters.restorations_ok;
          string_of_int r.counters.passive_reroutes_ok;
          string_of_int r.counters.endpoint_losses;
          string_of_int (r.dropped - r.counters.endpoint_losses);
          Table.cell_pct (Rr_sim.Metrics.restoration_success r.counters);
        ])
    [
      (Router.Cost_approx, false);
      (Router.Node_protect, false);
      (Router.Node_protect, true);
    ];
  Table.print t;
  print_endline
    "  (endpoint losses are unsurvivable by any scheme and dominate node\n\
    \   outages; for transit traffic both policies restore by switchover\n\
    \   here because on a biconnected WAN the min-cost edge-disjoint pair\n\
    \   is usually node-disjoint already — node-protect *guarantees* it,\n\
    \   and re-provisioning restores protection after the switch)\n"

(* ------------------------------------------------------------------ *)
(* SYN-SHR: dedicated vs shared backup protection                       *)

let run_syn_sharing () =
  let duration = if !fast then 150.0 else 400.0 in
  let t =
    Table.create
      ~title:
        "SYN-SHR: dedicated vs shared backup protection (NSFNET, W=8, \
         Poisson traffic; extension, cf. paper ref [15])"
      ~header:
        [
          "scheme"; "Erlang"; "offered"; "admitted"; "blocking";
          "mean backup λ held"; "sharing ratio";
        ]
  in
  let erlangs = if !fast then [ 30.0 ] else [ 20.0; 30.0; 40.0 ] in
  List.iter
    (fun erlang ->
      List.iter
        (fun shared ->
          let net = nsfnet_net 15 8 in
          let rng = Rng.create 4242 in
          let wl = Rr_sim.Workload.make ~arrival_rate:(erlang /. 10.0) ~mean_holding:10.0 in
          let sp = Rr_sim.Shared_protection.create net in
          let offered = ref 0 and admitted = ref 0 in
          let cap_samples = ref [] in
          let ratio_samples = ref [] in
          let dedicated_held = ref 0 in
          (* simple arrival/departure loop on the sharing manager *)
          let q = Rr_sim.Event_queue.create () in
          Rr_sim.Event_queue.schedule q (Rr_sim.Workload.interarrival rng wl) `Arrival;
          let next_id = ref 0 in
          let dedicated_backups : (int, Rr_wdm.Semilightpath.t) Hashtbl.t =
            Hashtbl.create 64
          in
          let finished = ref false in
          while not !finished do
            match Rr_sim.Event_queue.next q with
            | None -> finished := true
            | Some (time, _) when time > duration -> finished := true
            | Some (time, ev) -> (
              match ev with
              | `Arrival ->
                incr offered;
                let s, d =
                  Rr_sim.Workload.random_pair rng ~n_nodes:(Net.n_nodes net)
                in
                (match RR.Approx_cost.route net ~source:s ~target:d with
                 | Some { Types.primary; backup = Some b } ->
                   let id = !next_id in
                   incr next_id;
                   let ok =
                     if shared then
                       Rr_sim.Shared_protection.admit sp ~conn:id ~primary
                         ~backup_links:(Slp.links b)
                       <> None
                     else begin
                       (* dedicated: allocate both paths exclusively *)
                       try
                         Types.allocate net { Types.primary; backup = Some b };
                         Hashtbl.replace dedicated_backups id b;
                         (* remember primary for release *)
                         Hashtbl.replace dedicated_backups (-id - 1)
                           primary;
                         dedicated_held := !dedicated_held + Slp.length b;
                         true
                       with Invalid_argument _ -> false
                     end
                   in
                   if ok then begin
                     incr admitted;
                     let hold = Rr_sim.Workload.holding rng wl in
                     Rr_sim.Event_queue.schedule q (time +. hold) (`Departure id)
                   end
                 | _ -> ());
                cap_samples :=
                  (if shared then
                     float_of_int (Rr_sim.Shared_protection.backup_capacity sp)
                   else float_of_int !dedicated_held)
                  :: !cap_samples;
                if shared then
                  ratio_samples := Rr_sim.Shared_protection.sharing_ratio sp :: !ratio_samples;
                Rr_sim.Event_queue.schedule q
                  (time +. Rr_sim.Workload.interarrival rng wl)
                  `Arrival
              | `Departure id ->
                if shared then Rr_sim.Shared_protection.release sp ~conn:id
                else begin
                  match
                    ( Hashtbl.find_opt dedicated_backups id,
                      Hashtbl.find_opt dedicated_backups (-id - 1) )
                  with
                  | Some b, Some p ->
                    Types.release net { Types.primary = p; backup = Some b };
                    dedicated_held := !dedicated_held - Slp.length b;
                    Hashtbl.remove dedicated_backups id;
                    Hashtbl.remove dedicated_backups (-id - 1)
                  | _ -> ()
                end)
          done;
          (* dedicated scheme: count backup wavelengths as Σ backup hops *)
          let mean_backup =
            match !cap_samples with [] -> 0.0 | s -> Stats.mean s
          in
          let ratio =
            if shared then
              match !ratio_samples with [] -> 1.0 | s -> Stats.mean s
            else 1.0
          in
          Table.add_row t
            [
              (if shared then "shared" else "dedicated");
              Printf.sprintf "%.0f" erlang;
              string_of_int !offered;
              string_of_int !admitted;
              Table.cell_pct
                (if !offered = 0 then 0.0
                 else float_of_int (!offered - !admitted) /. float_of_int !offered);
              Printf.sprintf "%.1f" mean_backup;
              Printf.sprintf "%.2f" ratio;
            ])
        [ false; true ])
    erlangs;
  Table.print t;
  print_endline
    "  (sharing backups across link-disjoint primaries cuts the capacity\n\
    \   reserved for protection and admits more traffic)\n"

(* ------------------------------------------------------------------ *)
(* SYN-RWA: wavelength-assignment strategy (no converters, where it     *)
(* matters; cf. paper ref [16])                                         *)

let run_syn_rwa () =
  let duration = if !fast then 150.0 else 400.0 in
  let t =
    Table.create
      ~title:
        "SYN-RWA: wavelength-assignment strategy under wavelength \
         continuity (NSFNET, W=8, no converters)"
      ~header:[ "assignment"; "Erlang"; "blocking"; "admitted" ]
  in
  let erlangs = if !fast then [ 30.0 ] else [ 20.0; 30.0; 40.0 ] in
  List.iter
    (fun erlang ->
      List.iter
        (fun policy ->
          let net =
            Rr_topo.Fitout.fit_out ~rng:(Rng.create 21) ~n_wavelengths:8
              ~converter:(fun _ -> Rr_wdm.Conversion.No_conversion)
              Rr_topo.Reference.nsfnet
          in
          let wl =
            Rr_sim.Workload.make ~arrival_rate:(erlang /. 10.0) ~mean_holding:10.0
          in
          let cfg =
            { (Rr_sim.Simulator.default_config policy wl) with duration; seed = 87 }
          in
          let r = Rr_sim.Simulator.run net cfg in
          Table.add_row t
            [
              Router.policy_name policy;
              Printf.sprintf "%.0f" erlang;
              Table.cell_pct (Rr_sim.Metrics.blocking_probability r.counters);
              string_of_int r.counters.admitted;
            ])
        [ Router.First_fit; Router.Most_used; Router.Least_used ])
    erlangs;
  Table.print t;
  print_endline
    "  (with wavelength continuity and greedy keep-current assignment,\n\
    \   each protected pair needs end-to-end free wavelengths on two\n\
    \   disjoint routes, so spreading (least-used) preserves whole\n\
    \   wavelengths and blocks least, while packing exhausts them; the\n\
    \   packing advantage reported for single unprotected lightpaths\n\
    \   with exhaustive per-wavelength routing does not transfer)\n"

(* ------------------------------------------------------------------ *)
(* SYN-CLASS: service classes and preemption                            *)

let run_syn_class () =
  let duration = if !fast then 150.0 else 400.0 in
  let t =
    Table.create
      ~title:
        "SYN-CLASS: service classes (30% premium / 30% best-effort) with \
         and without preemption (NSFNET, W=4, 30 Erlang; extension)"
      ~header:
        [
          "scenario"; "premium blocking"; "standard blocking";
          "best-effort blocking"; "preemptions"; "evictions lost";
        ]
  in
  let blocking r k =
    match
      List.find_opt (fun s -> s.Rr_sim.Simulator.cls = k) r.Rr_sim.Simulator.class_stats
    with
    | Some s when s.Rr_sim.Simulator.cls_offered > 0 ->
      Table.cell_pct
        (float_of_int s.Rr_sim.Simulator.cls_blocked
        /. float_of_int s.Rr_sim.Simulator.cls_offered)
    | _ -> "-"
  in
  (* with classes + preemption *)
  let net = nsfnet_net 23 4 in
  let wl = Rr_sim.Workload.make ~arrival_rate:3.0 ~mean_holding:10.0 in
  let cfg =
    {
      (Rr_sim.Simulator.default_config Router.Cost_approx wl) with
      duration;
      seed = 37;
      class_mix = Some (0.3, 0.3);
    }
  in
  let r = Rr_sim.Simulator.run net cfg in
  Table.add_row t
    [
      "classes + preemption";
      blocking r Rr_sim.Simulator.Premium;
      blocking r Rr_sim.Simulator.Standard;
      blocking r Rr_sim.Simulator.Best_effort;
      string_of_int r.preemptions;
      string_of_int r.preempted_lost;
    ];
  (* uniform single class, same load, for reference *)
  let r0 =
    Rr_sim.Simulator.run net
      { (Rr_sim.Simulator.default_config Router.Cost_approx wl) with duration; seed = 37 }
  in
  Table.add_row t
    [
      "uniform (no classes)";
      "-";
      blocking r0 Rr_sim.Simulator.Standard;
      "-";
      string_of_int r0.preemptions;
      string_of_int r0.preempted_lost;
    ];
  Table.print t;
  print_endline
    "  (premium preempts best-effort capacity when blocked, cutting its\n\
    \   blocking well below the all-protected uniform baseline; best-\n\
    \   effort admits easily — single unprotected path — but pays through\n\
    \   evictions, some of which cannot re-route and are lost)\n"

(* ------------------------------------------------------------------ *)
(* SYN-BATCH: Section 2's periodic batch admission, ordering effect     *)

let run_syn_batch () =
  let batches = if !fast then 10 else 30 in
  let batch_size = 24 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "SYN-BATCH: batch admission (Section 2 discipline): %d batches of \
            %d requests, NSFNET W=4"
           batches batch_size)
      ~header:[ "ordering"; "mean admitted"; "mean batch cost"; "mean final ρ" ]
  in
  List.iter
    (fun order ->
      let admitted = ref [] and costs = ref [] and loads = ref [] in
      for b = 1 to batches do
        let net = nsfnet_net 3 4 in
        let rng = Rng.create (900 + b) in
        let reqs =
          List.init batch_size (fun _ ->
              let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:14 in
              { Types.src = s; dst = d })
        in
        let r = RR.Batch.process ~order net Router.Cost_approx reqs in
        admitted := float_of_int r.RR.Batch.admitted :: !admitted;
        costs := r.RR.Batch.total_cost :: !costs;
        loads := r.RR.Batch.final_load :: !loads
      done;
      Table.add_row t
        [
          RR.Batch.order_name order;
          Printf.sprintf "%.2f" (Stats.mean !admitted);
          Printf.sprintf "%.0f" (Stats.mean !costs);
          Printf.sprintf "%.3f" (Stats.mean !loads);
        ])
    [ RR.Batch.Fifo; RR.Batch.Shortest_first; RR.Batch.Longest_first; RR.Batch.Random 17 ];
  Table.print t;
  print_endline
    "  (the paper processes each batch in arrival order; shortest-first\n\
    \   packs more connections into the same wavelength budget)\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)

let run_abl_base () =
  let t =
    Table.create
      ~title:
        "ABL-BASE: G_c exponent base `a` vs achieved bottleneck ratio \
         (MinCog, preloaded degree-3 WANs)"
      ~header:[ "base a"; "instances"; "mean ratio"; "max ratio" ]
  in
  let count = if !fast then 15 else 40 in
  List.iter
    (fun base ->
      let ratios = ref [] in
      for seed = 1 to count do
        let rng = Rng.create ((seed * 97) + 11) in
        let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n:10 ~degree:3 in
        let net = Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:6 topo in
        for e = 0 to Net.n_links net - 1 do
          Rr_util.Bitset.iter
            (fun l -> if Rng.uniform rng < 0.4 then Net.allocate net e l)
            (Net.lambdas net e)
        done;
        match
          ( RR.Mincog.route ~base net ~source:0 ~target:9,
            RR.Mincog.min_bottleneck net ~source:0 ~target:9 )
        with
        | Some r, Some (bstar, _) when bstar > 1e-9 ->
          ratios := (r.bottleneck /. bstar) :: !ratios
        | _ -> ()
      done;
      match !ratios with
      | [] -> ()
      | rs ->
        let s = Stats.summarize rs in
        Table.add_row t
          [
            Printf.sprintf "%.1f" base;
            string_of_int s.n;
            Printf.sprintf "%.4f" s.mean;
            Printf.sprintf "%.4f" s.max;
          ])
    [ 1.5; 2.0; 4.0; 16.0; 64.0 ];
  Table.print t;
  print_endline
    "  (the exponential congestion penalty is insensitive to the base\n\
    \   once a >> 1: any strongly convex weight separates load levels)\n"

let run_abl_jitter () =
  let t =
    Table.create
      ~title:
        "ABL-JITTER: violating assumption (ii) — per-wavelength weight \
         jitter vs approximation ratio"
      ~header:[ "jitter"; "instances"; "mean"; "p90"; "max"; "<= 2?" ]
  in
  let count = if !fast then 20 else 50 in
  List.iter
    (fun jitter ->
      let ratios = ref [] in
      for seed = 1 to count do
        let rng = Rng.create ((seed * 131) + 7) in
        let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n:7 ~degree:3 in
        let net =
          Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:3 ~weight_jitter:jitter topo
        in
        match
          ( RR.Exact.route net ~source:0 ~target:6,
            RR.Approx_cost.route_detailed net ~source:0 ~target:6 )
        with
        | Some (_, opt), Some d when opt > 0.0 ->
          ratios := (d.refined_cost /. opt) :: !ratios
        | _ -> ()
      done;
      match !ratios with
      | [] -> ()
      | rs ->
        let s = Stats.summarize rs in
        Table.add_row t
          [
            Table.cell_pct jitter;
            string_of_int s.n;
            Printf.sprintf "%.4f" s.mean;
            Printf.sprintf "%.4f" s.p90;
            Printf.sprintf "%.4f" s.max;
            (if s.max <= 2.0 +. 1e-9 then "yes" else "no");
          ])
    [ 0.0; 0.2; 0.5; 0.9 ];
  Table.print t;
  print_endline
    "  (Theorem 2's premise assumes wavelength-independent link weights;\n\
    \   jitter degrades the averaged auxiliary weights, but the measured\n\
    \   ratio stays far below the bound)\n"

let run_abl_converters () =
  let duration = if !fast then 120.0 else 300.0 in
  let t =
    Table.create
      ~title:
        "ABL-CONV: converter availability vs blocking (NSFNET, W=8, 30 \
         Erlang, cost-approx)"
      ~header:
        [ "nodes with converters"; "blocking"; "admitted"; "mean cost" ]
  in
  List.iter
    (fun fraction ->
      let rng_conv = Rng.create 1234 in
      let converter v =
        ignore v;
        if Rng.uniform rng_conv < fraction then Rr_wdm.Conversion.Full 300.0
        else Rr_wdm.Conversion.No_conversion
      in
      let net =
        Rr_topo.Fitout.fit_out ~rng:(Rng.create 5) ~n_wavelengths:8 ~converter
          Rr_topo.Reference.nsfnet
      in
      let wl = Rr_sim.Workload.make ~arrival_rate:3.0 ~mean_holding:10.0 in
      let cfg =
        {
          (Rr_sim.Simulator.default_config Router.Cost_approx wl) with
          duration;
          seed = 61;
        }
      in
      let r = Rr_sim.Simulator.run net cfg in
      Table.add_row t
        [
          Table.cell_pct fraction;
          Table.cell_pct (Rr_sim.Metrics.blocking_probability r.counters);
          string_of_int r.counters.admitted;
          Printf.sprintf "%.0f" (Rr_sim.Metrics.mean_admitted_cost r.counters);
        ])
    [ 0.0; 0.25; 0.5; 1.0 ];
  Table.print t;
  print_endline
    "  (with no converters, wavelength continuity fragments the residual\n\
    \   network and blocking rises — why the paper models conversion at\n\
    \   all; full conversion recovers the relaxed behaviour)\n"

(* ------------------------------------------------------------------ *)
(* ABL-BUDGET: conversion budget K vs blocking (bounded layered search) *)

let run_abl_budget () =
  let t =
    Table.create
      ~title:
        "ABL-BUDGET: conversion budget K vs per-request feasibility on a \
         loaded network (NSFNET, W=4, range-1 converters, 45% preload)"
      ~header:
        [ "max conversions K"; "feasible"; "of requests"; "mean cost (common set)" ]
  in
  let trials = if !fast then 150 else 400 in
  let budgets = [ Some 0; Some 1; Some 2; None ] in
  (* Evaluate every budget against the SAME residual network and request,
     so the comparison isolates the budget itself. *)
  let feasible = Hashtbl.create 4 in
  let cost_common = Hashtbl.create 4 in
  let common = ref 0 in
  for trial = 1 to trials do
    let rng = Rng.create (5000 + trial) in
    let net =
      Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:4
        ~converter:(fun _ -> Rr_wdm.Conversion.Range (1, 200.0))
        Rr_topo.Reference.nsfnet
    in
    for e = 0 to Net.n_links net - 1 do
      Rr_util.Bitset.iter
        (fun l -> if Rng.uniform rng < 0.45 then Net.allocate net e l)
        (Net.lambdas net e)
    done;
    let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:14 in
    let results =
      List.map
        (fun budget ->
          let r =
            match budget with
            | None -> Rr_wdm.Layered.optimal net ~source:s ~target:d
            | Some k ->
              Rr_wdm.Layered.optimal_bounded net ~max_conversions:k ~source:s
                ~target:d
          in
          (budget, r))
        budgets
    in
    List.iter
      (fun (budget, r) ->
        if r <> None then
          Hashtbl.replace feasible budget
            (1 + Option.value ~default:0 (Hashtbl.find_opt feasible budget)))
      results;
    if List.for_all (fun (_, r) -> r <> None) results then begin
      incr common;
      List.iter
        (fun (budget, r) ->
          match r with
          | Some (_, c) ->
            Hashtbl.replace cost_common budget
              (c +. Option.value ~default:0.0 (Hashtbl.find_opt cost_common budget))
          | None -> ())
        results
    end
  done;
  List.iter
    (fun budget ->
      let f = Option.value ~default:0 (Hashtbl.find_opt feasible budget) in
      let c = Option.value ~default:0.0 (Hashtbl.find_opt cost_common budget) in
      Table.add_row t
        [
          (match budget with None -> "unbounded" | Some k -> string_of_int k);
          string_of_int f;
          string_of_int trials;
          (if !common = 0 then "-" else Printf.sprintf "%.0f" (c /. float_of_int !common));
        ])
    budgets;
  Table.print t;
  print_endline
    "  (strict wavelength continuity (K=0) loses requests the converters\n\
    \   could have served; a single conversion recovers most of the gap —\n\
    \   the classic sparse-converter-benefit curve, measured per request\n\
    \   on identical residual networks)\n"

(* ------------------------------------------------------------------ *)
(* ABL-RECONF: how much reconfiguration each admission policy leaves    *)
(* on the table                                                         *)

let run_abl_reconfigure () =
  let t =
    Table.create
      ~title:
        "ABL-RECONF: reconfiguration debt after admission (NSFNET, W=8, \
         30 random requests; moves needed to re-balance with the Section \
         4.2 re-router)"
      ~header:
        [
          "admission policy"; "trials"; "mean ρ before"; "mean ρ after";
          "mean moves"; "mean attempts";
        ]
  in
  let trials = if !fast then 6 else 20 in
  List.iter
    (fun policy ->
      let before = ref [] and after = ref [] in
      let moves = ref [] and attempts = ref [] in
      for trial = 1 to trials do
        let net = nsfnet_net 13 8 in
        let rng = Rng.create (3000 + trial) in
        let conns = ref [] in
        let id = ref 0 in
        for _ = 1 to 30 do
          let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:14 in
          match Router.admit net policy ~source:s ~target:d with
          | Some sol ->
            incr id;
            conns := (!id, sol) :: !conns
          | None -> ()
        done;
        let o = RR.Reconfigure.reduce_load net !conns in
        before := o.RR.Reconfigure.initial_load :: !before;
        after := o.RR.Reconfigure.final_load :: !after;
        moves := float_of_int (List.length o.RR.Reconfigure.moves) :: !moves;
        attempts := float_of_int o.RR.Reconfigure.attempted :: !attempts
      done;
      Table.add_row t
        [
          Router.policy_name policy;
          string_of_int trials;
          Printf.sprintf "%.3f" (Stats.mean !before);
          Printf.sprintf "%.3f" (Stats.mean !after);
          Printf.sprintf "%.2f" (Stats.mean !moves);
          Printf.sprintf "%.1f" (Stats.mean !attempts);
        ])
    [ Router.Cost_approx; Router.Load_aware; Router.Load_cost; Router.First_fit ];
  Table.print t;
  print_endline
    "  (cost-only admission concentrates routes and leaves re-balancing\n\
    \   work; admitting with the load-aware weights means the re-router\n\
    \   finds little left to improve — the paper's core argument, stated\n\
    \   as reconfiguration debt)\n"

(* ------------------------------------------------------------------ *)
(* PROV: static provisioning — sequential vs local search               *)

let run_prov () =
  let trials = if !fast then 6 else 20 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "PROV: static provisioning of 16 demands (NSFNET, W=4, %d \
            trials): sequential vs local search"
           trials)
      ~header:
        [
          "method"; "objective"; "mean served"; "mean cost"; "mean final ρ";
          "mean improvement steps";
        ]
  in
  let runs =
    [
      ("sequential", `Seq, "-");
      ("local search", `Ls, "total cost");
      ("local search", `Ls_load, "load, then cost");
    ]
  in
  List.iter
    (fun (name, kind, obj_name) ->
      let served = ref [] and cost = ref [] and rho = ref [] and iters = ref [] in
      for trial = 1 to trials do
        let net = nsfnet_net 29 4 in
        let rng = Rng.create (7000 + trial) in
        let reqs =
          List.init 16 (fun _ ->
              let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:14 in
              { Types.src = s; dst = d })
        in
        let plan =
          match kind with
          | `Seq -> RR.Provisioning.sequential net reqs
          | `Ls -> RR.Provisioning.local_search net reqs
          | `Ls_load ->
            RR.Provisioning.local_search
              ~objective:RR.Provisioning.Min_load_then_cost net reqs
        in
        served := float_of_int plan.RR.Provisioning.served :: !served;
        cost := plan.RR.Provisioning.total_cost :: !cost;
        rho := plan.RR.Provisioning.network_load :: !rho;
        iters := float_of_int plan.RR.Provisioning.iterations :: !iters
      done;
      Table.add_row t
        [
          name;
          obj_name;
          Printf.sprintf "%.2f" (Stats.mean !served);
          Printf.sprintf "%.0f" (Stats.mean !cost);
          Printf.sprintf "%.3f" (Stats.mean !rho);
          Printf.sprintf "%.2f" (Stats.mean !iters);
        ])
    runs;
  Table.print t;
  print_endline
    "  (pairwise ruin-and-recreate recovers demands the one-pass online\n\
    \   discipline blocked — served count rises; total cost grows with it\n\
    \   because it sums over more served demands — the static design\n\
    \   setting of the paper's refs [17], [3])\n"

(* ------------------------------------------------------------------ *)
(* PERF-ROUTING: workspace pooling and the parallel batch engine        *)

(* The pooling workload stresses what pooling removes: per-request O(nW)
   array allocation.  NSFNET with a wide wavelength set and sparse
   (range-1) converters keeps the search itself cheap relative to the
   scratch state it needs. *)
let perf_net ?(w = 64) ?(preload = 0.25) seed =
  let rng = Rng.create seed in
  let net =
    Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w
      ~converter:(fun _ -> Rr_wdm.Conversion.Range (1, 200.0))
      Rr_topo.Reference.nsfnet
  in
  for e = 0 to Net.n_links net - 1 do
    Rr_util.Bitset.iter
      (fun l -> if Rng.uniform rng < preload then Net.allocate net e l)
      (Net.lambdas net e)
  done;
  net

(* Batch engine scaling curve: steady-state batches against a live
   network.  Every timed iteration routes the batch and then releases
   everything it admitted, restoring the pre-batch residual state
   exactly — so a persistent pool's shards see only the batch's own
   delta and the curve measures the engine, not one-off setup.  The
   sequential baseline [Batch.route] pays a fresh snapshot + aux-cache
   build per call; that is exactly the cost pool-resident shards
   amortize, on top of phase-A parallelism.  Memoized: the standalone
   [batch_scaling] section (what CI runs with --jobs 2 on the
   multi-core runner) and the full perf-routing report share one
   measurement. *)
let batch_scaling_cache = ref None

let batch_scaling_measurements () =
  match !batch_scaling_cache with
  | Some r -> r
  | None ->
    let batch_net = perf_net ~w:16 47 in
    let g = Net.graph batch_net in
    let rng = Rng.create 43 in
    let pairs =
      Array.init 16 (fun _ ->
          Rr_graph.Digraph.endpoints g
            (Rng.int rng (Rr_graph.Digraph.n_edges g)))
    in
    let i = ref 0 in
    let next_pair () =
      let p = pairs.(!i land 15) in
      incr i;
      p
    in
    let batch_reqs =
      List.init (if !fast then 8 else 24) (fun _ ->
          let s, d = next_pair () in
          { Types.src = s; dst = d })
    in
    let restore (r : RR.Batch.result) =
      List.iter
        (fun (o : RR.Batch.outcome) ->
          match o.RR.Batch.solution with
          | Some sol -> Types.release batch_net sol
          | None -> ())
        r.RR.Batch.outcomes
    in
    let reference =
      let r = RR.Batch.route batch_net Router.Cost_approx batch_reqs in
      restore r;
      r
    in
    let seq_ns =
      measure_ns (fun () ->
          restore (RR.Batch.route batch_net Router.Cost_approx batch_reqs))
    in
    let recommended = RR.Parallel.recommended_jobs () in
    (* Floors are keyed on the pool's *effective* worker count (requests
       above [recommended_jobs] clamp, see Parallel.create), so the gate
       is as strict as the runner allows: the full >=3.0x tentpole floor
       on an 8-core machine, graceful on smaller CI runners, and a pure
       no-regression bound (0.85x of sequential) when only one domain is
       available. *)
    let floor_for effective =
      if effective >= 8 then 3.0
      else if effective >= 4 then 2.0
      else if effective >= 2 then 1.3
      else 0.85
    in
    let scaling_points =
      List.filter (fun j -> j <= !max_jobs) [ 1; 2; 4; 8 ]
    in
    let curve =
      List.map
        (fun j ->
          RR.Parallel.with_pool ~jobs:j (fun pool ->
              let effective = RR.Parallel.size pool in
              (* Identity first (this run also warms the pool's shards):
                 the parallel engine must be byte-identical to the
                 sequential reference at every point on the curve. *)
              let r =
                RR.Batch.route_parallel ~pool batch_net Router.Cost_approx
                  batch_reqs
              in
              let identical = r = reference in
              restore r;
              let ns =
                measure_ns (fun () ->
                    restore
                      (RR.Batch.route_parallel ~pool batch_net
                         Router.Cost_approx batch_reqs))
              in
              let sp = if ns > 0.0 then seq_ns /. ns else nan in
              let floor = floor_for effective in
              ( j, effective, ns, sp, floor, identical,
                identical && sp >= floor )))
        scaling_points
    in
    let batch_ok = List.for_all (fun (_, _, _, _, _, _, ok) -> ok) curve in
    record_csv ~slug:"batch_scaling"
      ~header:
        [ "jobs"; "effective_jobs"; "ns"; "speedup"; "floor"; "identical";
          "ok" ]
      (List.map
         (fun (j, e, ns, sp, fl, id, ok) ->
           [
             string_of_int j; string_of_int e; Printf.sprintf "%.1f" ns;
             Printf.sprintf "%.3f" sp; Printf.sprintf "%.2f" fl;
             string_of_bool id; string_of_bool ok;
           ])
         curve);
    let r = (batch_net, batch_reqs, seq_ns, recommended, curve, batch_ok) in
    batch_scaling_cache := Some r;
    r

let run_batch_scaling () =
  let _, batch_reqs, seq_ns, recommended, curve, batch_ok =
    batch_scaling_measurements ()
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "BATCH-SCALING: x%d steady-state batches (NSFNET, W=16 at 25%% \
            preload), sequential baseline %s"
           (List.length batch_reqs) (ns_cell seq_ns))
      ~header:
        [ "jobs"; "effective"; "ns/batch"; "speedup"; "floor"; "identical";
          "gate" ]
  in
  List.iter
    (fun (j, e, ns, sp, fl, id, ok) ->
      Table.add_row t
        [
          string_of_int j; string_of_int e; ns_cell ns;
          Printf.sprintf "%.2fx" sp; Printf.sprintf "%.2fx" fl;
          (if id then "yes" else "NO"); (if ok then "OK" else "FAIL");
        ])
    curve;
  Table.print t;
  Printf.printf "  batch scaling gate (recommended_jobs=%d, cap %d): [%s]\n"
    recommended !max_jobs
    (if batch_ok then "OK" else "FAIL");
  if not batch_ok then begin
    List.iter
      (fun (j, e, _, sp, fl, id, ok) ->
        if not ok then
          Printf.printf
            "  BATCH GATE FAILED: jobs=%d effective=%d %s, speedup %.3f \
             (floor %.2f)\n"
            j e
            (if id then "identical" else "DIVERGED from sequential")
            sp fl)
      curve;
    exit 1
  end

let run_perf_routing () =
  let w = 64 in
  let net = perf_net ~w ~preload:0.5 41 in
  let rng = Rng.create 43 in
  (* Short-haul requests (adjacent node pairs): the search early-exits at
     the sink, so per-request scratch allocation is the dominant cost the
     pool is meant to remove. *)
  let g = Net.graph net in
  let pairs =
    Array.init 16 (fun _ ->
        Rr_graph.Digraph.endpoints g (Rng.int rng (Rr_graph.Digraph.n_edges g)))
  in
  let i = ref 0 in
  let next_pair () =
    let p = pairs.(!i land 15) in
    incr i;
    p
  in
  (* Layered kernel: the O(nW) search at the bottom of every policy. *)
  let layered workspace () =
    let s, d = next_pair () in
    ignore (Rr_wdm.Layered.optimal ?workspace net ~source:s ~target:d)
  in
  let layered_unpooled = measure_ns (layered None) in
  let ws = Rr_util.Workspace.create () in
  let layered_pooled = measure_ns (layered (Some ws)) in
  (* Full Section 3.3 pipeline (auxiliary graph + Suurballe + refine). *)
  let pipeline workspace () =
    let s, d = next_pair () in
    ignore (RR.Approx_cost.route ?workspace net ~source:s ~target:d)
  in
  let pipeline_unpooled = measure_ns (pipeline None) in
  let pipeline_pooled = measure_ns (pipeline (Some ws)) in
  let speedup a b = if b > 0.0 then a /. b else nan in
  (* Batch engine scaling: the shared steady-state curve (see
     [batch_scaling_measurements]) — measured once, memoized, also
     exposed as the standalone [batch_scaling] section. *)
  let batch_net, batch_reqs, seq_ns, recommended, curve, batch_ok =
    batch_scaling_measurements ()
  in
  (* Conflict-rate sweep (EXPERIMENTS.md): how often the in-order commit
     finds a speculative solution invalidated by an earlier admission and
     falls back to a live re-route, as the batch grows and the network
     fills up.  The counter is a function of the batch alone, so the
     cheap sequential engine measures it. *)
  let conflict_rows =
    List.concat_map
      (fun size ->
        List.map
          (fun preload ->
            let cnet = perf_net ~w:16 ~preload 61 in
            let creqs =
              List.init size (fun _ ->
                  let s, d = next_pair () in
                  { Types.src = s; dst = d })
            in
            let cobs = Rr_obs.Obs.create () in
            let r = RR.Batch.route ~obs:cobs cnet Router.Cost_approx creqs in
            let c name = Rr_obs.Metrics.counter (Rr_obs.Obs.metrics cobs) name in
            (size, preload, r.RR.Batch.admitted, c "batch.conflict.fallbacks"))
          [ 0.25; 0.5 ])
      (if !fast then [ 8; 24 ] else [ 8; 24; 64 ])
  in
  record_csv ~slug:"batch_conflicts"
    ~header:
      [ "batch_size"; "preload"; "admitted"; "fallbacks" ]
    (List.map
       (fun (size, preload, adm, fb) ->
         [
           string_of_int size; Printf.sprintf "%.2f" preload;
           string_of_int adm; string_of_int fb;
         ])
       conflict_rows);
  (* Incremental auxiliary-graph engine: replay one seeded dynamic
     admit/release stream twice — rebuilding G' per request vs syncing a
     persistent Aux_cache — and demand byte-identical decisions.  The
     stream is a function of the rng and of the decisions themselves, so
     equal decision lists certify the two engines walked the same ops. *)
  let aux_ops = if !fast then 60 else 200 in
  let aux_base = perf_net ~w ~preload:0.5 53 in
  let aux_replay ~cached base =
    let net = Net.copy base in
    let cache =
      if cached then Some (Rr_wdm.Aux_cache.create net) else None
    in
    let rng = Rng.create 71 in
    let active = ref [] in
    let decisions = ref [] in
    let touched = ref [] in
    for _ = 1 to aux_ops do
      if Rng.uniform rng < 0.65 || !active = [] then begin
        let s, d =
          Rr_sim.Workload.random_pair rng ~n_nodes:(Net.n_nodes net)
        in
        let sol =
          Router.admit ?aux_cache:cache net Router.Cost_approx ~source:s
            ~target:d
        in
        (match sol with Some x -> active := x :: !active | None -> ());
        decisions := sol :: !decisions;
        match cache with
        | Some c -> touched := (Rr_wdm.Aux_cache.last_stats c).touched :: !touched
        | None -> ()
      end
      else begin
        let i = Rng.int rng (List.length !active) in
        Types.release net (List.nth !active i);
        active := List.filteri (fun j _ -> j <> i) !active
      end
    done;
    (!decisions, !touched)
  in
  let rebuild_decisions, _ = aux_replay ~cached:false aux_base in
  let cached_decisions, aux_touched = aux_replay ~cached:true aux_base in
  let aux_identical = rebuild_decisions = cached_decisions in
  let aux_rebuild_ns =
    measure_ns (fun () -> ignore (aux_replay ~cached:false aux_base))
  in
  let aux_cached_ns =
    measure_ns (fun () -> ignore (aux_replay ~cached:true aux_base))
  in
  let aux_speedup = speedup aux_rebuild_ns aux_cached_ns in
  let aux_ok = aux_identical && aux_speedup >= 3.0 in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "PERF-ROUTING: workspace pooling and parallel batch (NSFNET, \
            W=%d kernel at 50%% preload / W=16 batch at 25%%, range-1 \
            converters)"
           w)
      ~header:[ "benchmark"; "unpooled/seq"; "pooled/parallel"; "speedup" ]
  in
  Table.add_row t
    [
      "layered kernel"; ns_cell layered_unpooled; ns_cell layered_pooled;
      Printf.sprintf "%.2fx" (speedup layered_unpooled layered_pooled);
    ];
  Table.add_row t
    [
      "sec-3.3 pipeline"; ns_cell pipeline_unpooled; ns_cell pipeline_pooled;
      Printf.sprintf "%.2fx" (speedup pipeline_unpooled pipeline_pooled);
    ];
  List.iter
    (fun (j, e, ns, sp, _, _, _) ->
      Table.add_row t
        [
          Printf.sprintf "batch x%d jobs=%d (eff %d)" (List.length batch_reqs)
            j e;
          ns_cell seq_ns; ns_cell ns; Printf.sprintf "%.2fx" sp;
        ])
    curve;
  Table.add_row t
    [
      Printf.sprintf "aux engine x%d ops" aux_ops;
      ns_cell aux_rebuild_ns; ns_cell aux_cached_ns;
      Printf.sprintf "%.2fx" aux_speedup;
    ];
  Table.print t;
  Printf.printf
    "  (pooling reuses one set of O(nW) scratch arrays across requests;\n\
    \   batch rows run steady-state batches on a live network through one\n\
    \   persistent pool per point — Batch.route rebuilds its snapshot per\n\
    \   call, route_parallel resyncs pool-resident shards; the aux row\n\
    \   replays one dynamic admit/release stream rebuilding G' per request\n\
    \   vs syncing a persistent cache)\n";
  List.iter
    (fun (j, e, _, sp, fl, id, ok) ->
      Printf.printf
        "  batch scaling: jobs=%d effective=%d speedup %.2fx (floor %.2fx), \
         %s  [%s]\n"
        j e sp fl
        (if id then "byte-identical to sequential" else "DIVERGED")
        (if ok then "OK" else "FAIL"))
    curve;
  Printf.printf "  batch scaling gate (recommended_jobs=%d, cap %d): [%s]\n"
    recommended !max_jobs
    (if batch_ok then "OK" else "FAIL");
  let ct =
    Table.create
      ~title:
        "in-order commit: fallbacks vs batch size and preload (NSFNET, \
         W=16)"
      ~header:[ "batch"; "preload"; "admitted"; "fallbacks" ]
  in
  List.iter
    (fun (size, preload, adm, fb) ->
      Table.add_row ct
        [
          string_of_int size; Printf.sprintf "%.2f" preload;
          string_of_int adm; string_of_int fb;
        ])
    conflict_rows;
  Table.print ct;
  (* Links-touched histogram: how local a dynamic operation really is. *)
  let aux_buckets = [ (0, 0); (1, 2); (3, 4); (5, 8); (9, 16); (17, max_int) ] in
  let bucket_label (lo, hi) =
    if hi = max_int then Printf.sprintf "%d+" lo
    else if lo = hi then string_of_int lo
    else Printf.sprintf "%d-%d" lo hi
  in
  let ht =
    Table.create
      ~title:
        (Printf.sprintf
           "aux engine: links touched per sync (%d admissions, m=%d links)"
           (List.length aux_touched)
           (Net.n_links aux_base))
      ~header:[ "links touched"; "syncs"; "share" ]
  in
  List.iter
    (fun (lo, hi) ->
      let c = List.length (List.filter (fun x -> x >= lo && x <= hi) aux_touched) in
      Table.add_row ht
        [
          bucket_label (lo, hi);
          string_of_int c;
          Table.cell_pct
            (float_of_int c /. float_of_int (max 1 (List.length aux_touched)));
        ])
    aux_buckets;
  Table.print ht;
  Printf.printf "  aux engine: decisions %s, speedup %.2fx (floor 3.0x)  [%s]\n"
    (if aux_identical then "byte-identical to rebuild" else "DIVERGED")
    aux_speedup
    (if aux_ok then "OK" else "FAIL");
  (* ---- observability: per-stage breakdown ---------------------------- *)
  let module Obs = Rr_obs.Obs in
  let module OM = Rr_obs.Metrics in
  (* Admit a fresh copy of the batch workload under an enabled context, on
     the production path (a persistent Aux_cache and Workspace, as the
     daemon and the batch engine admit), and read the Section 3.3 stage
     histograms back out of the registry.  The minor words allocated
     inside the admit calls are metered alongside. *)
  let obs = Obs.create () in
  let breakdown_reqs =
    List.concat (List.init (if !fast then 4 else 8) (fun _ -> batch_reqs))
  in
  let words_per_cached_admit =
    let obs_net = Net.copy batch_net in
    let obs_ws = Rr_util.Workspace.create () in
    let obs_cache = Rr_wdm.Aux_cache.create obs_net in
    let words = ref 0.0 in
    List.iter
      (fun r ->
        let before = Gc.minor_words () in
        ignore
          (Router.admit ~aux_cache:obs_cache ~workspace:obs_ws ~obs obs_net
             Router.Cost_approx ~source:r.Types.src ~target:r.Types.dst);
        words := !words +. (Gc.minor_words () -. before))
      breakdown_reqs;
    !words /. float_of_int (List.length breakdown_reqs)
  in
  let items = OM.items (Obs.metrics obs) in
  let prefixed pre name =
    String.length name > String.length pre
    && String.sub name 0 (String.length pre) = pre
  in
  let stage_rows =
    List.filter_map
      (fun (name, v) ->
        match v with
        | OM.Histogram h when prefixed "stage." name -> Some (name, h)
        | _ -> None)
      items
  in
  let total_stage_ns =
    List.fold_left (fun acc (_, h) -> acc + h.OM.sum_ns) 0 stage_rows
  in
  let bt =
    Table.create
      ~title:
        (Printf.sprintf
           "per-stage latency, cached cost-approx admission of %d requests \
            (Aux_cache + Workspace, enabled obs)"
           (List.length breakdown_reqs))
      ~header:[ "stage"; "calls"; "total"; "mean"; "share" ]
  in
  List.iter
    (fun (name, h) ->
      Table.add_row bt
        [
          name;
          string_of_int h.OM.count;
          ns_cell (float_of_int h.OM.sum_ns);
          ns_cell (OM.mean_ns h);
          Printf.sprintf "%.1f%%"
            (100.0 *. float_of_int h.OM.sum_ns
            /. float_of_int (max 1 total_stage_ns));
        ])
    stage_rows;
  Table.print bt;
  Printf.printf
    "  minor words per cached admit: %.0f (same admissions, enabled obs)\n"
    words_per_cached_admit;
  let ctr name = OM.counter (Obs.metrics obs) name in
  Printf.printf
    "  admissions: ok %d, blocked %d (no-disjoint-pair %d, no-wavelength %d,\n\
    \   validator-reject %d, non-simple refinements screened %d)\n"
    (ctr "admit.ok") (ctr "admit.blocked")
    (ctr "route.block.no_disjoint_pair")
    (ctr "route.block.no_wavelength")
    (ctr "admit.reject.validator")
    (ctr "refine.nonsimple");
  (* ---- instrumentation-overhead gate (CI) ---------------------------- *)
  (* Disabled contexts must be invisible: a probe on Obs.null is a pointer
     load and a branch, and the per-request probe load must stay under 3%%
     of the un-instrumented admission.  Enabling the full stack — metrics,
     flight-recorder journal, 1-in-8 sampled tracing and a 1 s sliding
     latency window — may cost at most 10%% on the steady-state admit
     bench (admit one request, release it, repeat: state-neutral rounds).
     Measured numbers are printed either way; a failed gate re-measures
     once (timer noise) and then fails the run. *)
  let spans_per_req =
    let total =
      List.fold_left
        (fun acc (_, v) ->
          match v with OM.Histogram h -> acc + h.OM.count | _ -> acc)
        0 items
    in
    float_of_int total /. float_of_int (List.length breakdown_reqs)
  in
  let probe_ns =
    (* One start/stop pair plus two counter increments on the disabled
       context — the probe mix a kernel call makes — 64x per timed run to
       rise above timer resolution. *)
    measure_ns (fun () ->
        for _ = 1 to 64 do
          let t0 = Obs.start Obs.null in
          Obs.add Obs.null "heap.pop" 1;
          Obs.add Obs.null "heap.insert" 1;
          Obs.stop Obs.null "kernel.dijkstra" t0
        done)
    /. 64.0
  in
  let gate_net = Net.copy net in
  let admit_round ?obs ?req () =
    let s, d = next_pair () in
    match
      Router.admit ~workspace:ws ?obs ?req gate_net Router.Cost_approx
        ~source:s ~target:d
    with
    | Some sol -> Types.release gate_net sol
    | None -> ()
  in
  let measure_gate () =
    let disabled_ns = measure_ns (fun () -> admit_round ()) in
    let live = Obs.create ~sample:8 ~window_ns:1_000_000_000 () in
    let rid = ref 0 in
    let enabled_ns =
      measure_ns (fun () ->
          let r = !rid in
          incr rid;
          admit_round ~obs:live ~req:r ())
    in
    let disabled_share = spans_per_req *. 3.0 *. probe_ns /. disabled_ns in
    let enabled_ratio = enabled_ns /. disabled_ns in
    (disabled_ns, enabled_ns, disabled_share, enabled_ratio, live)
  in
  let gate_ok (_, _, share, ratio, _) = share <= 0.03 && ratio <= 1.10 in
  let first = measure_gate () in
  let verdict = if gate_ok first then first else measure_gate () in
  let disabled_ns, enabled_ns, disabled_share, enabled_ratio, live = verdict in
  let obs_gate_ok = gate_ok verdict in
  Printf.printf
    "  obs overhead: probe %.1f ns, %.0f spans/request -> disabled %.2f%% \
     of %s (limit 3%%);\n\
    \   enabled admit (journal + 1-in-8 trace + window) %s = %.3fx disabled \
     (limit 1.10x)  [%s]\n"
    probe_ns spans_per_req
    (100.0 *. disabled_share)
    (ns_cell disabled_ns) (ns_cell enabled_ns) enabled_ratio
    (if obs_gate_ok then "OK" else "FAIL");
  let win_count, win_p50, win_p99 =
    match Obs.window live with
    | Some win ->
      let now = Obs.now_ns () in
      ( Rr_obs.Window.count win ~now_ns:now,
        Rr_obs.Window.quantile_ns win ~now_ns:now 0.5,
        Rr_obs.Window.quantile_ns win ~now_ns:now 0.99 )
    | None -> (0, 0, 0)
  in
  Printf.printf
    "  recent admit latency (1 s window): %d samples, p50 %s, p99 %s; \
     journal dropped %d, trace dropped %d\n"
    win_count
    (ns_cell (float_of_int win_p50))
    (ns_cell (float_of_int win_p99))
    (OM.counter (Obs.metrics live) "journal.dropped")
    (OM.counter (Obs.metrics live) "trace.dropped");
  if not obs_gate_ok then
    Printf.printf
      "  OBS GATE FAILED: disabled share %.2f%% (max 3%%), enabled ratio \
       %.3f (max 1.10)\n"
      (100.0 *. disabled_share) enabled_ratio;
  (* ---- service-path gate: daemon vs library over loopback ------------ *)
  (* The same Poisson op script is replayed twice: once through the
     rr_serve daemon over a real loopback socket in blocking lockstep
     (every admission round trip timed), once by direct library calls on
     an identical network copy.  The admit outcomes must match exactly —
     the daemon is a transport, not a policy — and the socket path must
     hold a steady-state throughput floor.  Like the obs gate, a failed
     first measurement is retried once: loopback latency shares the
     machine with the rest of CI. *)
  let module Sv = Rr_serve.Server in
  let module Sc = Rr_serve.Core in
  let module Lg = Rr_serve.Loadgen in
  let serve_requests = if !fast then 120 else 400 in
  let serve_floor_rps = 500.0 in
  let measure_serve () =
    let snet = perf_net ~w:16 ~preload:0.25 71 in
    let ref_net = Net.copy snet in
    let sobs = Obs.create ~window_ns:1_000_000_000 () in
    let server = Sv.create ~port:0 (Sc.create ~obs:sobs snet) in
    let sdom = Domain.spawn (fun () -> Sv.run server) in
    let ops =
      Lg.script ~seed:71 ~n_nodes:(Net.n_nodes ref_net)
        ~requests:serve_requests
        (Rr_sim.Workload.make ~arrival_rate:20.0 ~mean_holding:1.0)
    in
    let lr = Lg.run ~shutdown:true ~port:(Sv.port server) ops in
    Domain.join sdom;
    (* Direct-library replay of the same script on the untouched copy. *)
    let sols = Array.make (max 1 serve_requests) None in
    let direct = Array.make (max 1 serve_requests) "blocked" in
    let ai = ref 0 in
    Array.iter
      (fun op ->
        match op with
        | Lg.Op_admit { src; dst } -> (
          let i = !ai in
          incr ai;
          match
            Router.admit ~workspace:ws ref_net Router.Cost_approx
              ~source:src ~target:dst
          with
          | Some sol ->
            sols.(i) <- Some sol;
            direct.(i) <- "admitted"
          | None -> ())
        | Lg.Op_release { admit } -> (
          match sols.(admit) with
          | Some sol ->
            Types.release ref_net sol;
            sols.(admit) <- None
          | None -> ()))
      ops;
    let identical =
      Array.length lr.Lg.lg_outcomes = !ai
      &&
      let ok = ref true in
      Array.iteri
        (fun i o -> if not (String.equal o direct.(i)) then ok := false)
        lr.Lg.lg_outcomes;
      !ok
    in
    let dropped = OM.counter (Obs.metrics sobs) "journal.dropped" in
    (lr, identical, dropped)
  in
  let serve_pass (lr, identical, _) =
    identical && Lg.throughput_rps lr >= serve_floor_rps
  in
  let serve_first = measure_serve () in
  let serve_verdict =
    if serve_pass serve_first then serve_first else measure_serve ()
  in
  let serve_report, serve_identical, serve_dropped = serve_verdict in
  let serve_ok = serve_pass serve_verdict in
  let serve_p50 = Lg.quantile_ns serve_report 0.5 in
  let serve_p99 = Lg.quantile_ns serve_report 0.99 in
  let serve_rps = Lg.throughput_rps serve_report in
  Printf.printf
    "  serve: %d requests over loopback: %d admitted, %d blocked, %d \
     errors; admit p50 %s, p99 %s, %.0f req/s (floor %.0f); outcomes %s, \
     journal dropped %d  [%s]\n"
    serve_report.Lg.lg_requests serve_report.Lg.lg_admitted
    serve_report.Lg.lg_blocked serve_report.Lg.lg_errors
    (ns_cell (float_of_int serve_p50))
    (ns_cell (float_of_int serve_p99))
    serve_rps serve_floor_rps
    (if serve_identical then "identical to library" else "DIVERGED")
    serve_dropped
    (if serve_ok then "OK" else "FAIL");
  (* The legacy "batch" JSON key reports the top point of the curve. *)
  let top_jobs, top_eff, top_ns, top_sp, _, _, _ =
    List.nth curve (List.length curve - 1)
  in
  (match !json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc
      "{\n\
      \  \"benchmark\": \"perf-routing\",\n\
      \  \"workload\": {\n\
      \    \"topology\": \"nsfnet\",\n\
      \    \"kernel_wavelengths\": %d,\n\
      \    \"batch_wavelengths\": 16,\n\
      \    \"converters\": \"range-1\",\n\
      \    \"kernel_preload\": 0.5,\n\
      \    \"batch_preload\": 0.25,\n\
      \    \"batch_size\": %d\n\
      \  },\n\
      \  \"layered_kernel\": { \"unpooled_ns\": %.1f, \"pooled_ns\": %.1f, \
       \"speedup\": %.3f },\n\
      \  \"approx_pipeline\": { \"unpooled_ns\": %.1f, \"pooled_ns\": %.1f, \
       \"speedup\": %.3f },\n\
      \  \"batch\": { \"jobs\": %d, \"effective_jobs\": %d, \
       \"sequential_ns\": %.1f, \"parallel_ns\": %.1f, \"speedup\": %.3f },\n\
      \  \"acceptance\": { \"pooled_speedup_floor\": 1.3, \"achieved\": \
       %.3f, \"ok\": %b },\n"
      w (List.length batch_reqs) layered_unpooled layered_pooled
      (speedup layered_unpooled layered_pooled)
      pipeline_unpooled pipeline_pooled
      (speedup pipeline_unpooled pipeline_pooled)
      top_jobs top_eff seq_ns top_ns top_sp
      (speedup layered_unpooled layered_pooled)
      (speedup layered_unpooled layered_pooled >= 1.3);
    Printf.fprintf oc
      "  \"batch_scaling\": { \"workload\": \"steady-state live-net, \
       release-admitted restore\", \"batch_size\": %d, \
       \"sequential_ns\": %.1f, \"recommended_jobs\": %d, \"jobs_cap\": %d, \
       \"points\": ["
      (List.length batch_reqs) seq_ns recommended !max_jobs;
    List.iteri
      (fun i (j, e, ns, sp, fl, id, ok) ->
        Printf.fprintf oc
          "%s\n    { \"jobs\": %d, \"effective_jobs\": %d, \"ns\": %.1f, \
           \"speedup\": %.3f, \"floor\": %.2f, \
           \"identical_to_sequential\": %b, \"ok\": %b }"
          (if i > 0 then "," else "")
          j e ns sp fl id ok)
      curve;
    Printf.fprintf oc " ], \"ok\": %b },\n" batch_ok;
    Printf.fprintf oc "  \"batch_conflicts\": [";
    List.iteri
      (fun i (size, preload, adm, fb) ->
        Printf.fprintf oc
          "%s\n    { \"batch_size\": %d, \"preload\": %.2f, \"admitted\": \
           %d, \"fallbacks\": %d }"
          (if i > 0 then "," else "")
          size preload adm fb)
      conflict_rows;
    Printf.fprintf oc " ],\n";
    Printf.fprintf oc
      "  \"aux_cache\": { \"ops\": %d, \"rebuild_ns\": %.1f, \
       \"cached_ns\": %.1f, \"speedup\": %.3f, \"speedup_floor\": 3.0, \
       \"identical_decisions\": %b, \"ok\": %b,\n\
      \    \"links_touched\": {"
      aux_ops aux_rebuild_ns aux_cached_ns aux_speedup aux_identical aux_ok;
    List.iteri
      (fun i b ->
        let lo, hi = b in
        let c =
          List.length (List.filter (fun x -> x >= lo && x <= hi) aux_touched)
        in
        Printf.fprintf oc "%s %S: %d" (if i > 0 then "," else "")
          (bucket_label b) c)
      aux_buckets;
    Printf.fprintf oc " } },\n";
    Printf.fprintf oc "  \"stages\": {";
    List.iteri
      (fun i (name, h) ->
        Printf.fprintf oc "%s\n    %S: { \"count\": %d, \"sum_ns\": %d, \
                           \"mean_ns\": %.1f }"
          (if i > 0 then "," else "")
          name h.OM.count h.OM.sum_ns (OM.mean_ns h))
      stage_rows;
    Printf.fprintf oc "\n  },\n";
    Printf.fprintf oc
      "  \"stages_path\": \"aux_cache\",\n\
      \  \"minor_words_per_cached_admit\": %.1f,\n"
      words_per_cached_admit;
    Printf.fprintf oc
      "  \"admission\": { \"ok\": %d, \"blocked\": %d, \
       \"no_disjoint_pair\": %d, \"no_wavelength\": %d, \
       \"validator_reject\": %d, \"refine_nonsimple\": %d },\n"
      (ctr "admit.ok") (ctr "admit.blocked")
      (ctr "route.block.no_disjoint_pair")
      (ctr "route.block.no_wavelength")
      (ctr "admit.reject.validator")
      (ctr "refine.nonsimple");
    Printf.fprintf oc
      "  \"serve\": { \"workload\": \"poisson loadgen over loopback, \
       blocking lockstep\", \"requests\": %d, \"admitted\": %d, \
       \"blocked\": %d, \"errors\": %d, \"journal_dropped\": %d, \
       \"p50_ns\": %d, \"p99_ns\": %d, \"throughput_rps\": %.1f, \
       \"throughput_floor_rps\": %.1f, \"identical_to_library\": %b, \
       \"ok\": %b },\n"
      serve_report.Lg.lg_requests serve_report.Lg.lg_admitted
      serve_report.Lg.lg_blocked serve_report.Lg.lg_errors serve_dropped
      serve_p50 serve_p99 serve_rps serve_floor_rps serve_identical
      serve_ok;
    Printf.fprintf oc
      "  \"obs_gate\": { \"workload\": \"steady-state admit+release\", \
       \"probe_ns\": %.2f, \"spans_per_request\": %.1f, \
       \"disabled_ns\": %.1f, \"enabled_ns\": %.1f, \
       \"disabled_share\": %.4f, \"disabled_share_max\": 0.03, \
       \"enabled_ratio\": %.4f, \"enabled_ratio_max\": 1.10, \
       \"trace_sample\": 8, \"window_ns\": 1000000000, \
       \"window_count\": %d, \"window_p50_ns\": %d, \"window_p99_ns\": %d, \
       \"ok\": %b },\n"
      probe_ns spans_per_req disabled_ns enabled_ns disabled_share
      enabled_ratio win_count win_p50 win_p99 obs_gate_ok;
    (match !surv_json with
     | Some frag -> Printf.fprintf oc "  \"survivability\": %s\n}\n" frag
     | None -> Printf.fprintf oc "  \"survivability\": null\n}\n");
    close_out oc;
    Printf.printf "json: wrote %s\n" path);
  if not aux_ok then
    Printf.printf
      "  AUX GATE FAILED: decisions %s, speedup %.3f (floor 3.0)\n"
      (if aux_identical then "identical" else "DIVERGED")
      aux_speedup;
  if not batch_ok then
    List.iter
      (fun (j, e, _, sp, fl, id, ok) ->
        if not ok then
          Printf.printf
            "  BATCH GATE FAILED: jobs=%d effective=%d %s, speedup %.3f \
             (floor %.2f)\n"
            j e
            (if id then "identical" else "DIVERGED from sequential")
            sp fl)
      curve;
  if not serve_ok then
    Printf.printf
      "  SERVE GATE FAILED: outcomes %s, %.0f req/s (floor %.0f)\n"
      (if serve_identical then "identical" else "DIVERGED from library")
      serve_rps serve_floor_rps;
  if not (obs_gate_ok && aux_ok && batch_ok && serve_ok) then exit 1

(* ------------------------------------------------------------------ *)
(* ILP-X                                                                *)

let run_ilp_cross () =
  let t =
    Table.create
      ~title:"ILP-X: paper integer program (Eqs. 3-21) vs combinatorial exact"
      ~header:[ "instance"; "vars"; "constraints"; "ILP obj"; "exact obj"; "match" ]
  in
  let instances =
    [
      ("ring4 W2", Rr_topo.Reference.ring 4, 2, 0, 2);
      ("ring5 W2", Rr_topo.Reference.ring 5, 2, 0, 2);
      ("grid2x3 W2", Rr_topo.Reference.grid 2 3, 2, 0, 5);
    ]
  in
  List.iter
    (fun (name, topo, w, s, d) ->
      let rng = Rng.create 5 in
      let net = Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:w topo in
      let nv, nc = RR.Ilp_exact.model_size net ~source:s ~target:d in
      let ilp = RR.Ilp_exact.route net ~source:s ~target:d in
      let exact = RR.Exact.route net ~source:s ~target:d in
      match (ilp, exact) with
      | Some (_, a), Some (_, b) ->
        Table.add_row t
          [
            name;
            string_of_int nv;
            string_of_int nc;
            Printf.sprintf "%.3f" a;
            Printf.sprintf "%.3f" b;
            (if Float.abs (a -. b) < 1e-5 then "yes" else "NO");
          ]
      | _ ->
        Table.add_row t [ name; string_of_int nv; string_of_int nc; "-"; "-"; "infeasible" ])
    instances;
  Table.print t

(* ------------------------------------------------------------------ *)
(* SURV: availability under correlated failures, full vs partial        *)

let run_survivability () =
  let duration = if !fast then 150.0 else 400.0 in
  let seed = 19 in
  let m = Net.n_links (nsfnet_net 9 8) in
  (* Hardened conduits: every third fibre is trenched (failure rate 0);
     the rest cut independently.  The same rate vector drives partial
     protection's exposure set, so detours cover exactly the fibres that
     can actually fail on their own. *)
  let rates = Array.init m (fun e -> if e mod 3 = 0 then 0.0 else 0.002) in
  let repairs = Array.make m (1.0 /. 25.0) in
  let scenarios = [ ("independent", `Indep); ("srlg", `Srlg); ("regional", `Regional) ] in
  let schemes = [ ("full", `Full); ("partial", `Partial); ("unprotected", `Unprot) ] in
  let simulate scen scheme =
    let net = nsfnet_net 9 8 in
    let policy =
      match scheme with `Unprot -> Router.Unprotected | _ -> Router.Cost_approx
    in
    let wl = Rr_sim.Workload.make ~arrival_rate:2.0 ~mean_holding:15.0 in
    let cfg =
      {
        (Rr_sim.Simulator.default_config policy wl) with
        duration;
        seed;
        link_fail_rates = Some (Array.copy rates);
        link_repair_rates = Some (Array.copy repairs);
        reprovision_backup = (scheme <> `Unprot);
        partial_protection =
          (match scheme with
           | `Partial -> Some (RR.Partial_protect.exposure_of_rates rates)
           | `Full | `Unprot -> None);
      }
    in
    let cfg =
      match scen with
      | `Indep -> cfg
      | `Srlg ->
        let groups =
          RR.Srlg.conduits_of_topology ~rng:(Rng.create (seed + 7)) net
            ~conduits:8
        in
        { cfg with srlg = Some (groups, 0.005) }
      | `Regional -> { cfg with regional = Some (0.002, 1) }
    in
    Rr_sim.Simulator.run net cfg
  in
  let t =
    Table.create
      ~title:
        "SURV: availability per protection scheme (NSFNET, W=8, hardened \
         conduits, per-link cuts + correlated scenarios; gated)"
      ~header:
        [
          "scenario"; "scheme"; "availability"; "lost Erlang-time";
          "backup λ-links"; "restoration"; "admitted"; "dropped";
        ]
  in
  let csv_rows = ref [] in
  let results =
    List.map
      (fun (sname, scen) ->
        let rows =
          List.map
            (fun (pname, scheme) ->
              let r = simulate scen scheme in
              Table.add_row t
                [
                  sname;
                  pname;
                  Printf.sprintf "%.6f" r.Rr_sim.Simulator.availability;
                  Printf.sprintf "%.1f" r.Rr_sim.Simulator.lost_time;
                  string_of_int r.Rr_sim.Simulator.backup_hops_reserved;
                  Table.cell_pct
                    (Rr_sim.Metrics.restoration_success r.counters);
                  string_of_int r.counters.admitted;
                  string_of_int r.dropped;
                ];
              csv_rows :=
                [
                  sname;
                  pname;
                  Printf.sprintf "%.6f" r.Rr_sim.Simulator.availability;
                  Printf.sprintf "%.3f" r.Rr_sim.Simulator.lost_time;
                  string_of_int r.Rr_sim.Simulator.backup_hops_reserved;
                  Printf.sprintf "%.4f"
                    (Rr_sim.Metrics.restoration_success r.counters);
                ]
                :: !csv_rows;
              (pname, scheme, r))
            schemes
        in
        (sname, rows))
      scenarios
  in
  record_csv ~slug:"survivability"
    ~header:
      [
        "scenario"; "scheme"; "availability"; "lost_erlang_time";
        "backup_wavelength_links"; "restoration_success";
      ]
    (List.rev !csv_rows);
  Table.print t;
  let find rows s = match List.find_opt (fun (_, k, _) -> k = s) rows with
    | Some (_, _, r) -> r
    | None -> assert false
  in
  (* Gate 1 (the capacity claim): on at least one scenario, partial
     protection reserves strictly fewer backup wavelength-links than the
     full edge-disjoint pairs while both schemes carry traffic. *)
  let fewer_on =
    List.filter_map
      (fun (sname, rows) ->
        let full = find rows `Full and part = find rows `Partial in
        if
          full.Rr_sim.Simulator.backup_hops_reserved > 0
          && part.Rr_sim.Simulator.backup_hops_reserved
             < full.Rr_sim.Simulator.backup_hops_reserved
          && part.counters.admitted > 0
        then Some sname
        else None)
      results
  in
  if fewer_on = [] then
    record_violation
      "SURV: partial protection never reserved fewer backup \
       wavelength-links than full protection (expected on >=1 scenario)";
  (* Gate 2 (the protection claim): against independent cuts, both
     protected schemes must beat the unprotected baseline's availability,
     and full protection must clear an absolute floor. *)
  let avail_floor = 0.98 in
  let indep = List.assoc "independent" results in
  let fu = find indep `Full and pa = find indep `Partial
  and un = find indep `Unprot in
  let protected_beats_unprotected =
    fu.Rr_sim.Simulator.availability >= un.Rr_sim.Simulator.availability
    && pa.Rr_sim.Simulator.availability >= un.Rr_sim.Simulator.availability
  in
  if not protected_beats_unprotected then
    record_violation
      "SURV: a protected scheme fell below the unprotected baseline's \
       availability under independent cuts (full %.6f, partial %.6f, \
       unprotected %.6f)"
      fu.Rr_sim.Simulator.availability pa.Rr_sim.Simulator.availability
      un.Rr_sim.Simulator.availability;
  if fu.Rr_sim.Simulator.availability < avail_floor then
    record_violation
      "SURV: full protection availability %.6f under independent cuts is \
       below the %.2f floor"
      fu.Rr_sim.Simulator.availability avail_floor;
  let surv_ok = fewer_on <> [] && protected_beats_unprotected
                && fu.Rr_sim.Simulator.availability >= avail_floor in
  (* JSON fragment for BENCH_routing.json (embedded by perf-routing). *)
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{ \"workload\": \"nsfnet W=8, hardened conduits, per-link cuts \
        rate 0.002 + srlg/regional scenarios\",\n\
        \    \"duration\": %.0f, \"scenarios\": [" duration);
  List.iteri
    (fun i (sname, rows) ->
      Buffer.add_string buf (if i > 0 then "," else "");
      Buffer.add_string buf (Printf.sprintf "\n    { \"name\": %S, \"schemes\": [" sname);
      List.iteri
        (fun j (pname, _, r) ->
          Buffer.add_string buf
            (Printf.sprintf
               "%s\n      { \"scheme\": %S, \"availability\": %.6f, \
                \"lost_erlang_time\": %.3f, \"backup_wavelength_links\": \
                %d, \"restoration_success\": %.4f, \"admitted\": %d, \
                \"dropped\": %d }"
               (if j > 0 then "," else "")
               pname r.Rr_sim.Simulator.availability
               r.Rr_sim.Simulator.lost_time
               r.Rr_sim.Simulator.backup_hops_reserved
               (Rr_sim.Metrics.restoration_success r.counters)
               r.counters.admitted r.dropped))
        rows;
      Buffer.add_string buf " ] }")
    results;
  Buffer.add_string buf
    (Printf.sprintf
       " ],\n\
        \    \"gates\": { \"partial_fewer_backup_links_on\": [%s], \
        \"availability_floor\": %.2f, \"full_availability\": %.6f, \
        \"ok\": %b } }"
       (String.concat ", " (List.map (Printf.sprintf "%S") fewer_on))
       avail_floor fu.Rr_sim.Simulator.availability surv_ok);
  surv_json := Some (Buffer.contents buf);
  print_endline
    "  (partial protection reserves detours only for the failure-exposed\n\
    \   sub-segments of each primary, so it banks fewer backup\n\
    \   wavelength-links than full edge-disjoint pairs at comparable\n\
    \   availability against independent cuts; correlated SRLG and\n\
    \   regional outages erode it faster because they can also fell the\n\
    \   hardened fibres its exposure model trusts)\n"

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("fig1", run_fig1);
    ("thm1", run_thm1);
    ("thm2", run_thm2);
    ("lem2", run_lem2);
    ("thm3", run_thm3);
    ("syn-blocking", run_syn_blocking);
    ("syn-load", run_syn_load);
    ("syn-restore", run_syn_restore);
    ("syn-node", run_syn_node);
    ("syn-sharing", run_syn_sharing);
    ("syn-rwa", run_syn_rwa);
    ("syn-batch", run_syn_batch);
    ("syn-class", run_syn_class);
    ("abl-base", run_abl_base);
    ("abl-jitter", run_abl_jitter);
    ("abl-converters", run_abl_converters);
    ("abl-budget", run_abl_budget);
    ("abl-reconfigure", run_abl_reconfigure);
    ("prov", run_prov);
    ("ilp-cross", run_ilp_cross);
    ("batch_scaling", run_batch_scaling);
    ("survivability", run_survivability);
    ("perf-routing", run_perf_routing);
  ]

(* Bad usage exits 2 with a usage line, mirroring the `rr check` CLI
   contract; a failed measurement gate exits 1. *)
let usage_exit fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf
        "main.exe: %s\n\
         usage: main.exe [--fast] [--only SECTION] [--csv DIR] [--json FILE] \
         [--jobs N]\n\
         sections: %s\n"
        msg
        (String.concat ", " (List.map fst sections));
      exit 2)
    fmt

let () =
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      parse rest
    | "--only" :: v :: rest when String.length v > 0 && v.[0] <> '-' ->
      only := Some v;
      parse rest
    | "--csv" :: v :: rest when String.length v > 0 && v.[0] <> '-' ->
      csv_dir := Some v;
      parse rest
    | "--json" :: v :: rest when String.length v > 0 && v.[0] <> '-' ->
      json_path := Some v;
      parse rest
    | "--jobs" :: v :: rest when String.length v > 0 && v.[0] <> '-' -> (
      match int_of_string_opt v with
      | Some n when n >= 1 ->
        max_jobs := n;
        parse rest
      | _ -> usage_exit "--jobs expects a positive integer, got '%s'" v)
    | ("--only" | "--csv" | "--json" | "--jobs") :: _ as flag_and_rest ->
      usage_exit "option '%s' requires a value" (List.hd flag_and_rest)
    | a :: _ -> usage_exit "unknown option '%s'" a
  in
  parse (List.tl (Array.to_list Sys.argv));
  let chosen =
    match !only with
    | None -> sections
    | Some id -> List.filter (fun (name, _) -> name = id) sections
  in
  (match !only with
   | Some id when chosen = [] -> usage_exit "unknown section '%s'" id
   | _ -> ());
  List.iter
    (fun (name, f) ->
      Printf.printf "\n######## %s ########\n\n%!" name;
      f ())
    chosen;
  flush_csv ();
  if !bound_violations <> [] then begin
    List.iter (Printf.eprintf "BOUND VIOLATED: %s\n") (List.rev !bound_violations);
    exit 1
  end
