(* The repository benchmark: one workload per run, end-to-end metrics
   (--trace 0) or per-layer metrics from a traced run (--trace 1), with the
   output checks described in README.md.  The last line of standard output
   is the JSON result; exit status 1 when any check failed. *)

module W = Workload
module AE = Admit_engine
module SC = Serve_client
module BE = Batch_engine
module S = Util.Samples
module Obs = Rr_obs.Obs
module Net = Rr_wdm.Network
module Parallel = Robust_routing.Parallel

(* The traced run asserts that the admit stages add up to the traced
   [Router.admit] within this share of it (README.md). *)
let remainder_share = 0.10

(* Set-ups timed per run; the median is reported. *)
let setup_repeats = 31

let end_to_end =
  [
    ("setup_s", "s"); ("admit_p50_us", "us"); ("admit_p99_us", "us");
    ("admits_per_s", "1/s"); ("batch_p50_ms", "ms"); ("batch_p90_ms", "ms");
    ("minor_words_per_admit", "words"); ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("aux_cache.sync_us", "us"); ("aux_cache.sync_minor_words", "words");
    ("aux_cache.links_touched", "count"); ("aux_cache.recomputed_arcs", "count");
    ("aux_cache.full_rebuilds", "count"); ("auxiliary.disjoint_pair_us", "us");
    ("auxiliary.disjoint_pair_minor_words", "words"); ("auxiliary.induce_us", "us");
    ("layered.refine_us", "us"); ("layered.refine_minor_words", "words");
    ("refine.nonsimple", "count"); ("types.validate_us", "us");
    ("types.allocate_us", "us"); ("types.release_us", "us");
    ("router.admit_us", "us"); ("router.remainder_us", "us");
    ("router.blocked.no_disjoint_pair", "count");
    ("router.blocked.no_wavelength", "count");
    ("router.blocked.validator", "count"); ("obs.overhead_pct", "%");
    ("protocol.decode_us", "us"); ("protocol.encode_us", "us");
    ("core.handle_us", "us"); ("core.overhead_us", "us");
    ("server.wire_us", "us"); ("batch.route_parallel_ms", "ms");
    ("batch.route_ms", "ms"); ("batch.parallel_speedup", "x");
    ("batch.arrange_us", "us"); ("batch.conflict.components", "count");
    ("batch.conflict.parallel_commits", "count");
    ("batch.conflict.fallbacks", "count");
    ("batch.speculation_useful_ratio", "ratio");
    ("parallel.effective_jobs", "count");
    ("gc.minor_collections_per_op", "count"); ("gc.major_collections", "count");
    ("gc.promoted_words_per_op", "words"); ("trace.overhead_pct", "%");
  ]

type opts = {
  workload : W.name;
  seed : int;
  seconds : float;
  trace : bool;
  expected : W.expected;
  spans_dir : string option;
  commit : string;
  inject : string option;
}

let daemon_obs () = Obs.create ~window_ns:1_000_000_000 ()
let injected o what = o.inject = Some what
let leak o = injected o "leak"
let deadline o = Util.now_ns () + int_of_float (o.seconds *. 1e9)

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)

let check_fingerprint o =
  let density = if injected o "fingerprint" then Some 0.98 else None in
  let got = W.fingerprint ?density o.workload in
  match List.assoc_opt (W.to_string o.workload) o.expected.W.fingerprints with
  | Some want when String.equal want got -> ()
  | Some want ->
    Util.fail "workload fingerprint %s differs from the pinned %s: an input \
               generator drifted" got want
  | None -> Util.fail "no pinned fingerprint for %s" (W.to_string o.workload)

(* The reference digest for this seed: pinned in expected.txt, or made
   now by the uncached rebuild path on a twin network. *)
let reference_digest o ~wire ops =
  match
    List.assoc_opt (W.to_string o.workload, o.seed) o.expected.W.references
  with
  | Some d when not wire -> d
  | _ ->
    let net, _ = W.network o.workload ~seed:o.seed in
    W.digest (W.reference_admit_lines ~wire net ops)

(* A validator reject is a routing defect, refused and counted by
   [Router.admit] rather than raised. *)
let check_validator obs =
  let n = Rr_obs.Metrics.counter (Obs.metrics obs) "admit.reject.validator" in
  if n > 0 then Util.fail "%d admissions were rejected by the validator" n

let check_digests ~what ~want digests =
  List.iteri
    (fun i got ->
      if not (String.equal got want) then
        Util.fail "%s pass %d: decision digest %s differs from the reference %s"
          what i got want)
    digests

(* The seeded digest defect corrupts the first measured pass. *)
let maybe_corrupt o b = if injected o "digest" then Buffer.add_string b "corrupt"

let div a b = if b = 0 then 0. else a /. float_of_int b

(* End-to-end latency of an admit stream: per-admit minimums over the
   passes; the "batch" of the admit workloads is any 16 consecutive
   admits. *)
let admit_latency (tm : AE.timing) =
  let best = Util.Passes.item_mins tm.lat in
  let groups = Array.map (fun us -> us /. 1e3) (Util.window_sums best W.batch_size) in
  [
    ("admit_p50_us", Util.percentile best 0.5);
    ("admit_p99_us", Util.percentile best 0.99);
    ( "admits_per_s",
      Util.admit_rate ~admits_per_pass:(Array.length best) ~op_seconds:(AE.op_seconds tm) );
    ("batch_p50_ms", Util.percentile groups 0.5);
    ("batch_p90_ms", Util.percentile groups 0.9);
  ]

(* ------------------------------------------------------------------ *)
(* admit-rand200-w64 and the in-process half of serve's traced run      *)

let admit_stream o =
  let n_nodes = Net.n_nodes (W.structure o.workload) in
  W.stream o.workload ~n_nodes ~seed:o.seed

let run_admit o =
  let ops = admit_stream o in
  let setup = Util.Setup.create () in
  let make () =
    let net, used = W.network ~leak:(leak o) o.workload ~seed:o.seed in
    (AE.make_env net ~preload_used:used ops, daemon_obs ())
  in
  let env, obs = Util.Setup.time setup make in
  let warm = AE.router_pass env ~obs (AE.timing ()) in
  let tm = AE.timing () in
  let digests = ref [ W.digest warm ] in
  let stop = deadline o in
  Util.Setup.schedule setup ~k:(setup_repeats - 1) ~stop;
  while Util.now_ns () < stop do
    let b = AE.router_pass env ~obs tm in
    if List.length !digests = 1 then maybe_corrupt o b;
    digests := W.digest b :: !digests;
    Util.Setup.tick setup ~teardown:ignore make
  done;
  Util.Setup.finish setup ~teardown:ignore make;
  let rss = Util.peak_rss_mb () in
  check_validator obs;
  check_digests ~what:"admit" ~want:(reference_digest o ~wire:false ops)
    (List.rev !digests);
  ( [
      ("setup_s", Util.Setup.median setup);
      ("minor_words_per_admit", div tm.words tm.admits);
      ("peak_rss_mb", rss);
    ]
    @ admit_latency tm,
    tm.admits + tm.releases,
    None )

(* Traced admit stages: each round runs one pass composed from the stage
   calls, one through [Router.admit] with the daemon's Obs and one with
   [Obs.null], all on the same network (a pass leaves it as it found it),
   plus [extra] (serve's in-process replay and wire passes).  Every pass
   must produce the reference decisions.  Returns the layer metrics, the
   ops attempted and the timing of the [Router.admit] passes. *)
let traced_admit o env ~want ~extra =
  let obs_a = daemon_obs () and obs_b = daemon_obs () in
  let st = AE.stages () in
  let tm_b = AE.timing () and tm_c = AE.timing () in
  let gc = AE.gc_acc () in
  ignore (AE.router_pass env ~obs:obs_b (AE.timing ()) : Buffer.t);
  let rounds = ref 0 in
  let stop = deadline o in
  while Util.now_ns () < stop do
    let check what b =
      if !rounds = 0 then maybe_corrupt o b;
      check_digests ~what ~want [ W.digest b ]
    in
    check "composed" (AE.composed_pass env ~obs:obs_a st);
    let ops = Array.length env.AE.ops in
    check "router"
      (AE.with_gc gc ~ops (fun () -> AE.router_pass env ~obs:obs_b tm_b));
    check "router (Obs.null)" (AE.router_pass env ~obs:Obs.null tm_c);
    extra ();
    incr rounds
  done;
  check_validator obs_b;
  if st.AE.blocked_validator > 0 then
    Util.fail "%d composed admissions were rejected by the validator"
      st.AE.blocked_validator;
  let admit_us = Util.Passes.mean tm_b.lat in
  let stages_us = AE.stage_sum_us st in
  let remainder = admit_us -. stages_us in
  if Float.abs remainder > remainder_share *. admit_us then
    Util.fail "layer reconciliation: stages sum to %.2f us, router.admit is \
               %.2f us (remainder above %.0f%%)" stages_us admit_us
      (100. *. remainder_share);
  let per_pass n = div (float_of_int n) !rounds in
  let composed_us = AE.per_admit st st.AE.total_ns in
  let p50 tm = Util.percentile (Util.Passes.item_mins tm.AE.lat) 0.5 in
  let p50_b = p50 tm_b and p50_c = p50 tm_c in
  ( [
      ("aux_cache.sync_us", AE.per_admit st st.AE.sync_ns);
      ("aux_cache.sync_minor_words", div st.AE.sync_words st.AE.syncs);
      ("aux_cache.links_touched", div (float_of_int st.AE.touched) st.AE.syncs);
      ("aux_cache.recomputed_arcs", div (float_of_int st.AE.recomputed) st.AE.syncs);
      ("aux_cache.full_rebuilds", per_pass st.AE.full_rebuilds);
      ("auxiliary.disjoint_pair_us", AE.per_admit st st.AE.pair_ns);
      ("auxiliary.disjoint_pair_minor_words", div st.AE.pair_words st.AE.pairs);
      ("auxiliary.induce_us", AE.per_admit st st.AE.induce_ns);
      ("layered.refine_us", AE.per_admit st st.AE.refine_ns);
      ("layered.refine_minor_words", div st.AE.refine_words st.AE.admits);
      ("refine.nonsimple", per_pass st.AE.nonsimple);
      ("types.validate_us", AE.per_admit st st.AE.validate_ns);
      ("types.allocate_us", AE.per_admit st st.AE.allocate_ns);
      ("types.release_us", div (Util.us_of_ns st.AE.release_ns) st.AE.releases);
      ("router.admit_us", admit_us);
      ("router.remainder_us", remainder);
      ("router.blocked.no_disjoint_pair", per_pass st.AE.blocked_pair);
      ("router.blocked.no_wavelength", per_pass st.AE.blocked_wave);
      ("router.blocked.validator", per_pass st.AE.blocked_validator);
      ("obs.overhead_pct", 100. *. (p50_b -. p50_c) /. p50_c);
      ("gc.minor_collections_per_op", div (float_of_int gc.AE.minor_collections) gc.AE.ops);
      ("gc.major_collections", float_of_int gc.AE.major_collections);
      ("gc.promoted_words_per_op", div gc.AE.promoted gc.AE.ops);
      ("trace.overhead_pct", 100. *. (composed_us -. admit_us) /. admit_us);
    ],
    (st.AE.admits + st.AE.releases + tm_b.admits + tm_b.releases + tm_c.admits
   + tm_c.releases),
    tm_b )

let run_admit_traced o =
  let ops = admit_stream o in
  let net, used = W.network ~leak:(leak o) o.workload ~seed:o.seed in
  let env = AE.make_env net ~preload_used:used ops in
  let want = reference_digest o ~wire:false ops in
  let layers, attempted, _ = traced_admit o env ~want ~extra:ignore in
  (layers, attempted, None)

(* ------------------------------------------------------------------ *)
(* serve-nsfnet-w64                                                     *)

let run_serve o =
  let ops = admit_stream o in
  let setup = Util.Setup.create () in
  let start () = SC.start ~leak:(leak o) o.workload ~seed:o.seed in
  let d = Util.Setup.time setup start in
  let warm = SC.wire_pass d ops (AE.timing ()) in
  let tm = AE.timing () in
  let digests = ref [ W.digest warm ] in
  let teardown d = ignore (SC.stop d : float) in
  let stop = deadline o in
  Util.Setup.schedule setup ~k:(setup_repeats - 1) ~stop;
  while Util.now_ns () < stop do
    let b = SC.wire_pass d ops tm in
    if List.length !digests = 1 then maybe_corrupt o b;
    digests := W.digest b :: !digests;
    Util.Setup.tick setup ~teardown start
  done;
  Util.Setup.finish setup ~teardown start;
  let rss = Util.peak_rss_mb () in
  let served = d.SC.admits in
  let words = SC.stop d in
  check_validator (SC.Core.obs d.SC.core);
  check_digests ~what:"serve" ~want:(reference_digest o ~wire:true ops)
    (List.rev !digests);
  ( [
      ("setup_s", Util.Setup.median setup);
      ("minor_words_per_admit", div words served);
      ("peak_rss_mb", rss);
    ]
    @ admit_latency tm,
    tm.admits + tm.releases,
    None )

let run_serve_traced o =
  let ops = admit_stream o in
  let net, used = W.network ~leak:(leak o) o.workload ~seed:o.seed in
  let env = AE.make_env net ~preload_used:used ops in
  let want = reference_digest o ~wire:false ops in
  let want_wire = reference_digest o ~wire:true ops in
  let core_net, core_used = W.network ~leak:(leak o) o.workload ~seed:o.seed in
  let core = SC.Core.create ~obs:(daemon_obs ()) core_net in
  let replay =
    {
      SC.lat = Util.Passes.create (); handled = Util.Passes.create (); frames = 0;
      decode_ns = 0; handle_ns = 0; encode_ns = 0;
    }
  in
  let d = SC.start ~leak:(leak o) o.workload ~seed:o.seed in
  let tm_e = AE.timing () in
  let extra () =
    check_digests ~what:"in-process replay" ~want:want_wire
      [ W.digest (SC.replay_pass core ops replay) ];
    W.check_books ~what:"replay end of pass" core_net ~expected:core_used;
    check_digests ~what:"wire" ~want:want_wire [ W.digest (SC.wire_pass d ops tm_e) ]
  in
  let layers, attempted, tm_router = traced_admit o env ~want ~extra in
  ignore (SC.stop d : float);
  check_validator (SC.Core.obs d.SC.core);
  check_validator (SC.Core.obs core);
  let per_frame ns = div (Util.us_of_ns ns) replay.SC.frames in
  let decode = per_frame replay.SC.decode_ns
  and handle = per_frame replay.SC.handle_ns
  and encode = per_frame replay.SC.encode_ns in
  (* The differences are taken per admit between the fastest passes of
     each side, so the host's slow spells do not land on one side only:
     [Core.handle] less [Router.admit] on the same op, and the wire round
     trip less the in-process decode, handle and encode of the same
     frame. *)
  let mean_gap a b =
    let a = Util.Passes.item_mins a and b = Util.Passes.item_mins b in
    div (Array.fold_left ( +. ) 0. (Array.map2 ( -. ) a b)) (Array.length a)
  in
  ( layers
    @ [
        ("protocol.decode_us", decode);
        ("protocol.encode_us", encode);
        ("core.handle_us", handle);
        ("core.overhead_us", mean_gap replay.SC.handled tm_router.AE.lat);
        ("server.wire_us", mean_gap tm_e.lat replay.SC.lat);
      ],
    attempted + replay.SC.frames + tm_e.admits + tm_e.releases,
    None )

(* ------------------------------------------------------------------ *)
(* batch-nsfnet-w16                                                     *)

let batch_setup o bops =
  let jobs = min (Domain.recommended_domain_count ()) 2 in
  let net, used = W.network ~leak:(leak o) o.workload ~seed:o.seed in
  let pool = Parallel.create ~jobs () in
  (* Route one request so the pool builds its shards (lazy set-up), then
     release it: the network is back at its preload. *)
  (match bops.(0) with
   | W.Batch reqs ->
     let r = BE.parallel pool net (BE.requests (Array.sub reqs 0 1)) in
     List.iter
       (fun (out : BE.Batch.outcome) ->
         Option.iter (Robust_routing.Types.release net) out.BE.Batch.solution)
       r.BE.Batch.outcomes
   | W.Drop _ -> ());
  (net, used, pool)

let batch_stream o =
  let n_nodes = Net.n_nodes (W.structure o.workload) in
  W.batch_stream o.workload ~n_nodes ~seed:o.seed

let batch_reference o bops =
  let net, used = W.network o.workload ~seed:o.seed in
  BE.reference_pass net ~preload_used:used bops

let run_batch o =
  let bops = batch_stream o in
  let setup = Util.Setup.create () in
  let net, used, pool = Util.Setup.time setup (fun () -> batch_setup o bops) in
  let engine = BE.parallel pool ?obs:None in
  let warm = BE.timed_pass net ~preload_used:used bops (BE.timing ()) engine in
  let tm = BE.timing () in
  let digests = ref [ W.digest warm ] in
  let make () = batch_setup o bops in
  let teardown (_, _, pool) = Parallel.shutdown pool in
  let stop = deadline o in
  Util.Setup.schedule setup ~k:(setup_repeats - 1) ~stop;
  while Util.now_ns () < stop do
    let b = BE.timed_pass net ~preload_used:used bops tm engine in
    if List.length !digests = 1 then maybe_corrupt o b;
    digests := W.digest b :: !digests;
    Util.Setup.tick setup ~teardown make
  done;
  Util.Setup.finish setup ~teardown make;
  let rss = Util.peak_rss_mb () in
  let width = Parallel.size pool in
  Parallel.shutdown pool;
  let want, _, _ = batch_reference o bops in
  check_digests ~what:"batch" ~want:(W.digest want) (List.rev !digests);
  (* Per-batch minimums over the passes; a request's share is its batch's
     time over the batch size. *)
  let best = Util.Passes.item_mins tm.BE.batch in
  let per_request = Array.map (fun ms -> ms *. 1e3 /. float_of_int W.batch_size) best in
  ( [
      ("setup_s", Util.Setup.median setup);
      ("admit_p50_us", Util.percentile per_request 0.5);
      ("admit_p99_us", Util.percentile per_request 0.99);
      ( "admits_per_s",
        Util.admit_rate
          ~admits_per_pass:(W.batch_size * Array.length best)
          ~op_seconds:(BE.op_seconds tm) );
      ("batch_p50_ms", Util.percentile best 0.5);
      ("batch_p90_ms", Util.percentile best 0.9);
      ("minor_words_per_admit", div tm.BE.words tm.BE.requests);
      ("peak_rss_mb", rss);
    ],
    tm.BE.requests + tm.BE.releases,
    Some width )

(* Traced batches: each round runs one pass through [route_parallel] with
   the daemon's Obs (for the conflict counters), preceded per batch by a
   timed [Batch.arrange] and a speculation composed from the stage calls
   on the batch-entry state; one pass through the sequential
   [Batch.route]; and one plain [route_parallel] pass. *)
let run_batch_traced o =
  let bops = batch_stream o in
  let net, used, pool = batch_setup o bops in
  let want, specs, useful = batch_reference o bops in
  let want = W.digest want in
  let env = AE.make_env net ~preload_used:used [||] in
  let obs_t = daemon_obs () and obs_a = daemon_obs () and obs_o = daemon_obs () in
  let st = AE.stages () in
  let arrange_us = S.create () in
  let tm_a = BE.timing () and tm_o = BE.timing () in
  let tm_s = BE.timing () and tm_c = BE.timing () in
  let gc = AE.gc_acc () in
  let plain = BE.parallel pool ?obs:None in
  ignore (BE.timed_pass net ~preload_used:used bops (BE.timing ()) plain : Buffer.t);
  let batch_no = ref 0 in
  let before reqs =
    let t0 = Util.now_ns () in
    ignore (BE.Batch.arrange net BE.order (BE.requests reqs) : BE.Types.request list);
    S.push arrange_us (Util.us_of_ns (Util.now_ns () - t0));
    AE.sync_view st ~obs:obs_a ~parent:(-1) ~req:!batch_no env.AE.cache ~view:ignore;
    let expect = Hashtbl.find specs !batch_no in
    incr batch_no;
    Array.iter
      (fun (id, source, target) ->
        let view = Rr_wdm.Aux_cache.gprime_view env.AE.cache ~source ~target in
        let got =
          AE.route_on_view st ~obs:obs_a ~parent:(-1) ~req:id env.AE.ws net view
            ~source ~target
        in
        let line r =
          let b = Buffer.create 128 in
          W.decision_line b net id r;
          Buffer.contents b
        in
        if not (String.equal (line got) (line (List.assoc id expect))) then
          Util.fail "batch request %d: composed speculation differs from the \
                     reference" id)
      reqs
  in
  let rounds = ref 0 in
  let stop = deadline o in
  while Util.now_ns () < stop do
    let check what b =
      if !rounds = 0 then maybe_corrupt o b;
      check_digests ~what ~want [ W.digest b ]
    in
    batch_no := 0;
    check "traced parallel"
      (BE.timed_pass ~before net ~preload_used:used bops tm_a
         (BE.parallel pool ~obs:obs_t));
    check "parallel (daemon Obs)"
      (BE.timed_pass net ~preload_used:used bops tm_o (BE.parallel pool ~obs:obs_o));
    check "sequential" (BE.timed_pass net ~preload_used:used bops tm_s BE.sequential);
    let ops = Array.length bops in
    check "parallel"
      (AE.with_gc gc ~ops (fun () ->
           BE.timed_pass net ~preload_used:used bops tm_c plain));
    incr rounds
  done;
  let width = Parallel.size pool in
  Parallel.shutdown pool;
  check_validator obs_t;
  check_validator obs_o;
  let batches = Util.Passes.samples tm_a.BE.batch in
  let counter name =
    div (float_of_int (Rr_obs.Metrics.counter (Obs.metrics obs_t) name)) batches
  in
  let per_request ns = div (Util.us_of_ns ns) st.AE.pairs in
  let per_pass n = div (float_of_int n) !rounds in
  let par_ms = Util.Passes.mean tm_c.BE.batch
  and seq_ms = Util.Passes.mean tm_s.BE.batch
  and obs_ms = Util.Passes.mean tm_o.BE.batch in
  ( [
      ("aux_cache.sync_us", div (Util.us_of_ns st.AE.sync_ns) st.AE.syncs);
      ("aux_cache.sync_minor_words", div st.AE.sync_words st.AE.syncs);
      ("aux_cache.links_touched", div (float_of_int st.AE.touched) st.AE.syncs);
      ("aux_cache.recomputed_arcs", div (float_of_int st.AE.recomputed) st.AE.syncs);
      ("aux_cache.full_rebuilds", per_pass st.AE.full_rebuilds);
      ("auxiliary.disjoint_pair_us", per_request st.AE.pair_ns);
      ("auxiliary.disjoint_pair_minor_words", div st.AE.pair_words st.AE.pairs);
      ("auxiliary.induce_us", per_request st.AE.induce_ns);
      ("layered.refine_us", per_request st.AE.refine_ns);
      ("layered.refine_minor_words", div st.AE.refine_words st.AE.pairs);
      ("refine.nonsimple", per_pass st.AE.nonsimple);
      ("router.blocked.no_disjoint_pair", per_pass st.AE.blocked_pair);
      ("router.blocked.no_wavelength", per_pass st.AE.blocked_wave);
      ("batch.route_parallel_ms", par_ms);
      ("batch.route_ms", seq_ms);
      ("batch.parallel_speedup", seq_ms /. par_ms);
      ("batch.arrange_us", S.mean arrange_us);
      ("batch.conflict.components", counter "batch.conflict.components");
      ("batch.conflict.parallel_commits", counter "batch.conflict.parallel_commits");
      ("batch.conflict.fallbacks", counter "batch.conflict.fallbacks");
      ("batch.speculation_useful_ratio", useful);
      ("parallel.effective_jobs", float_of_int width);
      ("gc.minor_collections_per_op", div (float_of_int gc.AE.minor_collections) gc.AE.ops);
      ("gc.major_collections", float_of_int gc.AE.major_collections);
      ("gc.promoted_words_per_op", div gc.AE.promoted gc.AE.ops);
      ("obs.overhead_pct", 100. *. (obs_ms -. par_ms) /. par_ms);
      ("trace.overhead_pct", 100. *. (Util.Passes.mean tm_a.BE.batch -. obs_ms) /. obs_ms);
    ],
    tm_a.BE.requests + tm_a.BE.releases + tm_o.BE.requests + tm_o.BE.releases
    + tm_s.BE.requests + tm_s.BE.releases + tm_c.BE.requests + tm_c.BE.releases,
    Some width )

(* ------------------------------------------------------------------ *)

let run o =
  check_fingerprint o;
  if o.trace then Util.Spans.enable ();
  let layers, attempted, width =
    match (o.workload, o.trace) with
    | W.Admit_rand200, false -> run_admit o
    | W.Admit_rand200, true -> run_admit_traced o
    | W.Serve_nsfnet, false -> run_serve o
    | W.Serve_nsfnet, true -> run_serve_traced o
    | W.Batch_nsfnet, false -> run_batch o
    | W.Batch_nsfnet, true -> run_batch_traced o
  in
  (layers, attempted, width)

let provenance o width =
  Printf.printf
    "provenance {\"workload\": %S, \"seed\": %d, \"trace\": %b, \"nproc\": %d, \
     \"recommended_domain_count\": %d, \"pool_size\": %s, \"ocaml\": %S, \
     \"commit\": %S}\n"
    (W.to_string o.workload) o.seed o.trace
    (try int_of_string (Sys.getenv "RRBENCH_NPROC") with _ -> 0)
    (Domain.recommended_domain_count ())
    (match width with Some w -> string_of_int w | None -> "null")
    Sys.ocaml_version o.commit

let usage () =
  prerr_endline
    "usage: rrbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--expected FILE] [--spans-dir DIR] [--commit ID] \
     [--inject digest|leak|fingerprint]\n\
    \       rrbench --record-fingerprints [--expected FILE]\n\
    \       rrbench --record-reference --workload NAME --seed N";
  exit 2

let value_flags =
  [
    "--workload"; "--seed"; "--seconds"; "--trace"; "--expected"; "--spans-dir";
    "--commit"; "--inject";
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | ("--record-fingerprints" | "--record-reference") as f :: rest ->
      parse ((f, "") :: acc) rest
    | k :: v :: rest when List.mem k value_flags -> parse ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = List.assoc_opt k kv in
  let int_arg k d =
    match get k with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  let expected_path = Option.value (get "--expected") ~default:"perfbench/expected.txt" in
  if Option.is_some (get "--record-fingerprints") then begin
    List.iter
      (fun w -> Printf.printf "fingerprint %s %s\n" (W.to_string w) (W.fingerprint w))
      W.all;
    exit 0
  end;
  let workload =
    match Option.bind (get "--workload") W.of_string with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_arg "--seed" W.default_seed in
  if Option.is_some (get "--record-reference") then begin
    let net, _ = W.network workload ~seed in
    let n_nodes = Net.n_nodes net in
    let ops = W.stream workload ~n_nodes ~seed in
    Printf.printf "reference %s %d %s\n%!" (W.to_string workload) seed
      (W.digest (W.reference_admit_lines ~wire:false net ops));
    exit 0
  end;
  let expected =
    try W.read_expected expected_path
    with Sys_error m ->
      prerr_endline ("rrbench: " ^ m);
      exit 2
  in
  let o =
    {
      workload;
      seed;
      seconds = float_of_int (int_arg "--seconds" 10);
      trace =
        (match int_arg "--trace" 0 with 0 -> false | 1 -> true | _ -> usage ());
      expected;
      spans_dir = get "--spans-dir";
      commit = Option.value (get "--commit") ~default:"unknown";
      inject =
        (match get "--inject" with
         | (None | Some ("digest" | "leak" | "fingerprint")) as i -> i
         | Some _ -> usage ());
    }
  in
  let values, attempted, width = run o in
  provenance o width;
  let names = if o.trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        Util.metric name unit_ (Option.value (List.assoc_opt name values) ~default:0.))
      names
  in
  (match o.spans_dir with
   | Some dir when o.trace && !Util.Spans.n > 0 ->
     Util.Spans.write
       (Filename.concat dir
          (Printf.sprintf "%s-seed%d.tsv" (W.to_string o.workload) o.seed))
   | _ -> ());
  let failed = !Util.failures in
  Util.print_result ~correct:(failed = 0) ~attempted:(max 1 attempted) ~failed metrics;
  exit (if failed = 0 then 0 else 1)
