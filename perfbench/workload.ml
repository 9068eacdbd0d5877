(* Workload inputs: the three networks, the seeded preload, the op streams,
   their fingerprints, and the decision lines the output checks digest. *)

module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module Types = Robust_routing.Types
module Router = Robust_routing.Router
module Rand = Util.Rand

type name = Admit_rand200 | Serve_nsfnet | Batch_nsfnet

let all = [ Admit_rand200; Serve_nsfnet; Batch_nsfnet ]

let to_string = function
  | Admit_rand200 -> "admit-rand200-w64"
  | Serve_nsfnet -> "serve-nsfnet-w64"
  | Batch_nsfnet -> "batch-nsfnet-w16"

let of_string s = List.find_opt (fun w -> String.equal (to_string w) s) all

(* The seed whose workload fingerprint is pinned in expected.txt. *)
let default_seed = 1

(* ------------------------------------------------------------------ *)
(* Networks: built by the program's own generators (Random_topo, Fitout)
   from fixed generator seeds, so the topology is the same for every
   --seed; the seed drives the preload and the traffic.  [density] is 1
   except under the fingerprint defect injection, where a sparser
   wavelength set stands in for a generator that drifted. *)

let structure ?(density = 1.) = function
  | Admit_rand200 ->
    let topo =
      Rr_topo.Random_topo.degree_bounded ~rng:(Rr_util.Rng.create 200) ~n:200
        ~degree:3
    in
    Rr_topo.Fitout.fit_out ~rng:(Rr_util.Rng.create 201) ~n_wavelengths:64
      ~lambda_density:density
      ~converter:(fun _ -> Rr_wdm.Conversion.Range (1, 0.5))
      topo
  | (Serve_nsfnet | Batch_nsfnet) as w ->
    Rr_topo.Fitout.fit_out ~rng:(Rr_util.Rng.create 53)
      ~n_wavelengths:(if w = Serve_nsfnet then 64 else 16)
      ~lambda_density:density
      ~converter:(fun _ -> Rr_wdm.Conversion.Range (1, 200.0))
      Rr_topo.Reference.nsfnet

let preload_share = function
  | Admit_rand200 | Serve_nsfnet -> 0.5
  | Batch_nsfnet -> 0.25

(* Occupy each (link, wavelength) independently with the workload's
   preload share; returns the number of wavelengths taken. *)
let preload w net ~seed =
  let r = Rand.create ~seed ~tag:1 in
  let p = preload_share w in
  for e = 0 to Net.n_links net - 1 do
    Rr_util.Bitset.iter
      (fun l -> if Rand.float r < p then Net.allocate net e l)
      (Net.lambdas net e)
  done;
  Net.total_in_use net

(* [leak] takes one more wavelength that no connection owns and leaves it
   out of the returned count: the seeded defect the books check must
   catch. *)
let network ?density ?(leak = false) w ~seed =
  let net = structure ?density w in
  let used = preload w net ~seed in
  (if leak then
     match Rr_util.Bitset.elements (Net.available net 0) with
     | l :: _ -> Net.allocate net 0 l
     | [] -> ());
  (net, used)

(* ------------------------------------------------------------------ *)
(* Op streams.  Poisson arrivals (unit rate), exponential holding times
   with mean [erlang], uniform distinct pairs; departures interleave with
   arrivals in time order and the stream ends once every connection has
   departed, so one pass returns the network to its preloaded state and
   passes can repeat. *)

type op = Admit of { id : int; src : int; dst : int } | Release of int

(* Arrivals per pass and offered load, per workload. *)
let arrivals = function
  | Admit_rand200 -> 240
  | Serve_nsfnet -> 800
  | Batch_nsfnet -> 1600

let erlang = function
  | Admit_rand200 -> 40.
  | Serve_nsfnet -> 20.
  | Batch_nsfnet -> 2. (* in batch periods *)

let pair r n =
  let src = Rand.int r n in
  let d = Rand.int r (n - 1) in
  (src, if d >= src then d + 1 else d)

let stream w ~n_nodes ~seed =
  let r = Rand.create ~seed ~tag:2 in
  let t = ref 0. in
  let evs = ref [] in
  for id = 0 to arrivals w - 1 do
    t := !t +. Rand.exp r ~mean:1.;
    let src, dst = pair r n_nodes in
    let hold = Rand.exp r ~mean:(erlang w) in
    evs := (!t, id, Admit { id; src; dst }) :: (!t +. hold, id, Release id) :: !evs
  done;
  let a = Array.of_list !evs in
  Array.stable_sort (fun (t1, i1, _) (t2, i2, _) ->
      match Float.compare t1 t2 with 0 -> Int.compare i1 i2 | c -> c) a;
  Array.map (fun (_, _, op) -> op) a

(* Batch stream: periodic batches of [batch_size] arrivals; each admitted
   request departs after an exponential number of periods (mean
   [erlang]), and departures fall between batches. *)
let batch_size = 16

type bop = Batch of (int * int * int) array | Drop of int

let batch_stream w ~n_nodes ~seed =
  let r = Rand.create ~seed ~tag:3 in
  let n_batches = arrivals w / batch_size in
  let due = Array.make (n_batches + 1) [] in
  let late = ref [] in
  let ops = ref [] in
  for b = 0 to n_batches - 1 do
    List.iter (fun id -> ops := Drop id :: !ops) (List.rev due.(b));
    let reqs =
      Array.init batch_size (fun k ->
          let id = (b * batch_size) + k in
          let src, dst = pair r n_nodes in
          let hold = Rand.exp r ~mean:(erlang w) in
          let d = b + 1 + int_of_float hold in
          if d < n_batches then due.(d) <- id :: due.(d)
          else late := (hold +. float_of_int b, id) :: !late;
          (id, src, dst))
    in
    ops := Batch reqs :: !ops
  done;
  let tail = List.sort compare !late in
  List.iter (fun (_, id) -> ops := Drop id :: !ops) tail;
  Array.of_list (List.rev !ops)

let stream_text w ~n_nodes ~seed =
  let b = Buffer.create 4096 in
  (match w with
   | Batch_nsfnet ->
     Array.iter
       (function
         | Batch reqs ->
           Buffer.add_string b "batch";
           Array.iter (fun (id, s, d) -> Printf.bprintf b " %d:%d-%d" id s d) reqs;
           Buffer.add_char b '\n'
         | Drop id -> Printf.bprintf b "release %d\n" id)
       (batch_stream w ~n_nodes ~seed)
   | Admit_rand200 | Serve_nsfnet ->
     Array.iter
       (function
         | Admit { id; src; dst } -> Printf.bprintf b "admit %d %d-%d\n" id src dst
         | Release id -> Printf.bprintf b "release %d\n" id)
       (stream w ~n_nodes ~seed));
  Buffer.contents b

(* Fingerprint of the default seed's inputs: the program-side network
   description (Network_io.print), the preloaded usage, and the op
   stream.  Pinned in expected.txt so a drifted generator shows. *)
let fingerprint ?density w =
  let net, _ = network ?density w ~seed:default_seed in
  let usage = Buffer.create 4096 in
  for e = 0 to Net.n_links net - 1 do
    Printf.bprintf usage "%d:" e;
    Rr_util.Bitset.iter (fun l -> Printf.bprintf usage "%d," l) (Net.used net e);
    Buffer.add_char usage '\n'
  done;
  Digest.to_hex
    (Digest.string
       (String.concat "\n--\n"
          [
            Rr_wdm.Network_io.print net;
            Buffer.contents usage;
            stream_text w ~n_nodes:(Net.n_nodes net) ~seed:default_seed;
          ]))

(* ------------------------------------------------------------------ *)
(* Decision lines: one per admit request, in op order.  A pass's decision
   digest is the MD5 of its lines. *)

let hops_text b (p : Slp.t) =
  List.iter (fun h -> Printf.bprintf b "%d:%d," h.Slp.edge h.Slp.lambda) p.Slp.hops

(* Admitted or blocked, cost (exact, as a hex float) and footprint. *)
let decision_line b net id = function
  | None -> Printf.bprintf b "%d B\n" id
  | Some (sol : Types.solution) ->
    Printf.bprintf b "%d A %h " id (Types.total_cost net sol);
    hops_text b sol.Types.primary;
    Buffer.add_char b '|';
    (match sol.Types.backup with Some p -> hops_text b p | None -> ());
    Buffer.add_char b '\n'

(* The serve wire reports cost but not footprint. *)
let wire_line b id = function
  | None -> Printf.bprintf b "%d B\n" id
  | Some cost -> Printf.bprintf b "%d A %h\n" id cost

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

let footprint_size (sol : Types.solution) =
  Slp.length sol.Types.primary
  + match sol.Types.backup with Some p -> Slp.length p | None -> 0

(* Edge-disjointness of an admitted pair; a violation is a failed op. *)
let check_disjoint id (sol : Types.solution) =
  match sol.Types.backup with
  | Some b when Slp.edge_disjoint sol.Types.primary b -> ()
  | Some _ -> Util.fail "request %d: primary and backup share a link" id
  | None -> Util.fail "request %d: admitted without a backup" id

(* Wavelength books: wavelengths in use = preload + live footprints. *)
let check_books ~what net ~expected =
  let got = Net.total_in_use net in
  if got <> expected then
    Util.fail "%s: %d wavelengths in use, books say %d" what got expected

(* ------------------------------------------------------------------ *)
(* Reference decisions: the uncached rebuild path ([Router.admit] with no
   aux cache, workspace or obs) over one pass, on a network that is left
   as it was found. *)

let reference_admit_lines ~wire net ops =
  let b = Buffer.create 65536 in
  let live = Hashtbl.create 64 in
  Array.iter
    (function
      | Admit { id; src; dst } ->
        let r = Router.admit net Router.Cost_approx ~source:src ~target:dst in
        (match r with
         | Some sol ->
           check_disjoint id sol;
           Hashtbl.replace live id sol
         | None -> ());
        if wire then wire_line b id (Option.map (Types.total_cost net) r)
        else decision_line b net id r
      | Release id -> (
        match Hashtbl.find_opt live id with
        | Some sol ->
          Types.release net sol;
          Hashtbl.remove live id
        | None -> ()))
    ops;
  b

(* ------------------------------------------------------------------ *)
(* expected.txt: pinned fingerprints and reference digests. *)

type expected = {
  fingerprints : (string * string) list;  (** workload, digest *)
  references : ((string * int) * string) list;  (** (workload, seed), digest *)
}

let read_expected path =
  let ic = open_in path in
  let rec go fp refs =
    match input_line ic with
    | exception End_of_file -> { fingerprints = fp; references = refs }
    | line -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ "fingerprint"; w; d ] -> go ((w, d) :: fp) refs
      | [ "reference"; w; s; d ] -> (
        match int_of_string_opt s with
        | Some seed -> go fp (((w, seed), d) :: refs)
        | None -> go fp refs)
      | _ -> go fp refs)
  in
  let e = go [] [] in
  close_in ic;
  e
