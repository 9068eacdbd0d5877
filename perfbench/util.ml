(* Measurement plumbing shared by the workloads: clock, the benchmark's own
   PRNG, sample sets, span recording and the result line. *)

external now_ns : unit -> int = "rrbench_now_ns" [@@noalloc]

let us_of_ns ns = float_of_int ns /. 1e3

(* splitmix64.  The benchmark draws every input (preload, op streams) from
   this generator rather than the program's Rr_util.Rng, so a change to
   program code cannot silently change the workload. *)
module Rand = struct
  type t = { mutable s : int64 }

  let create ~seed ~tag =
    {
      s =
        Int64.add
          (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
          (Int64.of_int ((tag * 7919) + 1));
    }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
    in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

  let int t n = min (n - 1) (int_of_float (float t *. float_of_int n))
  let exp t ~mean = -.mean *. log (1. -. float t)
end

(* A growable set of float samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.; n = 0 }

  let push t x =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) 0. in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.data.(i)
    done;
    !s

  let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n

  (* Nearest-rank percentile, [p] in (0, 1]. *)
  let percentile t p =
    if t.n = 0 then 0.
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort Float.compare a;
      let k = int_of_float (Float.ceil (p *. float_of_int t.n)) - 1 in
      a.(max 0 (min (t.n - 1) k))
    end
end

(* Nearest-rank percentile of an array, [p] in (0, 1]. *)
let percentile a p =
  let s = Samples.create () in
  Array.iter (Samples.push s) a;
  Samples.percentile s p

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Timings of the same items (requests or batches), in the same order, over
   repeated passes.  An item's time is the fastest of its passes.  A
   shared host runs the same pass anywhere from 1x to 1.6x its best time,
   in spells of seconds, and how much of a run falls in slow spells
   differs from run to run, so the median of the passes moved by a fifth
   between runs of the same code.  The fastest pass is the item's own
   cost at the host's current speed, and runs of the same seed made one
   after another agree on it within a few percent.  Percentiles are
   then taken over the distinct items. *)
module Passes = struct
  type t = {
    best : Samples.t;  (** each item's fastest time so far *)
    mutable item : int;  (** index of the next item in the current pass *)
    mutable total : float;
    mutable n : int;
  }

  let create () = { best = Samples.create (); item = 0; total = 0.; n = 0 }
  let start t = t.item <- 0

  let add t x =
    let b = t.best in
    if t.item < b.Samples.n then b.Samples.data.(t.item) <- Float.min b.Samples.data.(t.item) x
    else Samples.push b x;
    t.item <- t.item + 1;
    t.total <- t.total +. x;
    t.n <- t.n + 1

  let samples t = t.n
  let mean t = if t.n = 0 then 0. else t.total /. float_of_int t.n
  let item_mins t = Array.sub t.best.Samples.data 0 t.best.Samples.n
  let sum_of_mins t = Array.fold_left ( +. ) 0. (item_mins t)
end

(* Admit requests per second of a pass in which every op (admit, batch or
   release) takes its fastest time over the run's passes.  Like the
   latency metrics, this filters the slow spells and stalls of a shared
   host, which otherwise decide how long a whole pass takes. *)
let admit_rate ~admits_per_pass ~op_seconds =
  if op_seconds = 0. then 0. else float_of_int admits_per_pass /. op_seconds

(* Sums of every [k] cyclically consecutive entries. *)
let window_sums a k =
  let n = Array.length a in
  Array.init n (fun i ->
      let s = ref 0. in
      for j = 0 to k - 1 do
        s := !s +. a.((i + j) mod n)
      done;
      !s)

(* Peak resident set of this process, from /proc (Linux). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  let v = scan () in
  close_in ic;
  v

(* In-memory spans: name, start, end, parent span index (-1 = root) and
   request id, in parallel arrays so recording allocates nothing.  The
   arrays exist only once [enable] is called (traced runs), so untraced
   runs carry no extra heap.  Written out once, at exit. *)
module Spans = struct
  let cap = 400_000
  let names = ref [||]
  let starts = ref [||]
  let stops = ref [||]
  let parents = ref [||]
  let reqs = ref [||]
  let n = ref 0
  let dropped = ref 0

  let enable () =
    names := Array.make cap "";
    starts := Array.make cap 0;
    stops := Array.make cap 0;
    parents := Array.make cap 0;
    reqs := Array.make cap 0

  (* Record a finished span; returns its index (or -1 when disabled or
     full). *)
  let record ~name ~parent ~req t0 t1 =
    if !n >= Array.length !names then begin
      incr dropped;
      -1
    end
    else begin
      let i = !n in
      !names.(i) <- name;
      !starts.(i) <- t0;
      !stops.(i) <- t1;
      !parents.(i) <- parent;
      !reqs.(i) <- req;
      n := i + 1;
      i
    end

  (* Open a parent span whose end is filled in later by [close]. *)
  let open_ ~name ~req t0 = record ~name ~parent:(-1) ~req t0 t0
  let close i t1 = if i >= 0 then !stops.(i) <- t1

  let write path =
    let oc = open_out path in
    output_string oc "# name\tstart_ns\tend_ns\tparent\treq\n";
    for i = 0 to !n - 1 do
      Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" !names.(i) !starts.(i) !stops.(i)
        !parents.(i) !reqs.(i)
    done;
    if !dropped > 0 then Printf.fprintf oc "# dropped %d\n" !dropped;
    close_out oc
end

(* The result line: the last line of standard output. *)
type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
             (if Float.is_finite m.value then m.value else 0.)
             m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

(* Failure bookkeeping for the output checks: every failed check is
   reported on stderr and counted. *)
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      if !failures <= 20 then prerr_endline ("rrbench: check failed: " ^ msg))
    fmt

(* Set-up times.  The run times the set-up of the instance it measures,
   and [k] more set-ups spread evenly over the measuring window, one
   between two passes when its time has come, each torn down at once.  A
   shared host's speed changes in spells of seconds, so set-ups made back
   to back all land in one spell; spread over the window they sample the
   run's mix of spells, as the passes do.  The median is reported. *)
module Setup = struct
  type t = { mutable times : float list; mutable due : int list }

  let create () = { times = []; due = [] }

  let time t f =
    let t0 = now_ns () in
    let v = f () in
    t.times <- (float_of_int (now_ns () - t0) /. 1e9) :: t.times;
    v

  (* Plan [k] set-ups between now and [stop] (a [now_ns] time). *)
  let schedule t ~k ~stop =
    let now = now_ns () in
    t.due <- List.init k (fun i -> now + ((stop - now) * (i + 1) / (k + 1)))

  (* Between two passes: the next planned set-up, if its time has come. *)
  let tick t ~teardown f =
    match t.due with
    | d :: rest when now_ns () >= d ->
      t.due <- rest;
      teardown (time t f)
    | _ -> ()

  (* After the passes: the planned set-ups the passes left no room for. *)
  let finish t ~teardown f =
    List.iter (fun _ -> teardown (time t f)) t.due;
    t.due <- []

  let median t = median t.times
end
