module Obs = Rr_obs.Obs

(* Typed per-worker state slots.  Each slot carries its own constructor of
   an extensible variant, so the pool can store heterogeneous worker state
   in one [(slot id -> univ)] table per worker while [get_state] stays
   fully typed: a slot can only project values it injected itself, and
   slot ids are globally unique, so the projection never sees a foreign
   constructor. *)
type univ = ..

type 'a slot = {
  sid : int;
  inject : 'a -> univ;
  project : univ -> 'a option;
}

let slot_ids = Atomic.make 0

let slot (type a) () : a slot =
  let module M = struct
    type univ += Box of a
  end in
  {
    sid = Atomic.fetch_and_add slot_ids 1;
    inject = (fun v -> M.Box v);
    project = (function M.Box v -> Some v | _ -> None);
  }

type t = {
  size : int;
  mutex : Mutex.t;
  work : Condition.t;       (* signalled when a new job generation starts *)
  finished : Condition.t;   (* signalled when the last worker finishes *)
  mutable job : (int -> unit) option;
  mutable job_gen : int;
  mutable pending : int;
  mutable stopping : bool;
  mutable error : exn option;
  mutable domains : unit Domain.t list;
  states : (int, univ) Hashtbl.t array;  (* per-worker slot storage *)
}

let record_error t exn =
  Mutex.lock t.mutex;
  if Option.is_none t.error then t.error <- Some exn;
  Mutex.unlock t.mutex

(* Each spawned worker handles every job generation exactly once; [seen]
   tracks the last generation it ran.  All signalling is under the mutex,
   which also provides the happens-before edges that publish job closures
   to workers and their writes back to the caller. *)
let worker_loop t i =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while (not t.stopping) && t.job_gen = !seen do
      Condition.wait t.work t.mutex
    done;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      seen := t.job_gen;
      let job = t.job in
      Mutex.unlock t.mutex;
      (match job with
      | None -> ()
      | Some f -> ( try f i with exn -> record_error t exn));
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mutex
    end
  done

(* One memoized read: [Domain.recommended_domain_count] consults the OS
   (affinity mask, cgroup quota), so repeated calls are both syscall
   overhead and — if the mask changes mid-run — a way for [default_jobs]
   and the oversubscription clamp to disagree about the machine width.
   Forced once from the coordinating domain, never from workers. *)
let recommended = lazy (Domain.recommended_domain_count ())

let recommended_jobs () = Lazy.force recommended

(* Batch speculation stops scaling past the request-level parallelism of
   typical batches, and every worker pins a shard (snapshot + aux cache)
   in memory — cap the default so big machines don't pay for width the
   workload can't use. *)
let default_jobs () = min 8 (recommended_jobs ())

let create ?(obs = Obs.null) ?(oversubscribe = false) ~jobs () =
  if jobs < 1 then invalid_arg "Parallel.create: jobs must be at least 1";
  let size =
    let cap = recommended_jobs () in
    if jobs > cap && not oversubscribe then begin
      (* Extra domains would only time-share cores; refuse the
         oversubscription but leave a visible trace of the clamp. *)
      Obs.add obs "parallel.oversubscribed" 1;
      max 1 cap
    end
    else jobs
  in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      job = None;
      job_gen = 0;
      pending = 0;
      stopping = false;
      error = None;
      domains = [];
      states = Array.init size (fun _ -> Hashtbl.create 4);
    }
  in
  t.domains <-
    List.init (size - 1) (fun k -> Domain.spawn (fun () -> worker_loop t (k + 1)));
  t

let size t = t.size

let check_worker t w fn =
  if w < 0 || w >= t.size then
    invalid_arg (Printf.sprintf "Parallel.%s: worker %d out of range" fn w)

let get_state t slot ~worker =
  check_worker t worker "get_state";
  match Hashtbl.find_opt t.states.(worker) slot.sid with
  | None -> None
  | Some u -> slot.project u

let set_state t slot ~worker v =
  check_worker t worker "set_state";
  Hashtbl.replace t.states.(worker) slot.sid (slot.inject v)

let run t f =
  if t.size = 1 then f 0
  else begin
    Mutex.lock t.mutex;
    if Option.is_some t.job || t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Parallel.run: pool busy or shut down"
    end;
    t.error <- None;
    t.job <- Some f;
    t.job_gen <- t.job_gen + 1;
    t.pending <- t.size - 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (* The calling domain is worker 0. *)
    (try f 0 with exn -> record_error t exn);
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.finished t.mutex
    done;
    t.job <- None;
    let err = t.error in
    t.error <- None;
    Mutex.unlock t.mutex;
    match err with Some e -> raise e | None -> ()
  end

(* One shared cursor: each worker claims the next unclaimed index with a
   fetch-and-add until the array runs out, so an expensive item never
   leaves the rest of the pool idle.  Every index is claimed exactly once
   and only its claimant writes its [out] slot; [run]'s join publishes
   those writes to the caller. *)
let map t ~worker ~f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let next = Atomic.make 0 in
    run t (fun w ->
        let st = worker w in
        let rec claim () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            out.(i) <- Some (f st arr.(i));
            claim ()
          end
        in
        claim ());
    Array.map (function Some x -> x | None -> assert false) out
  end

let shutdown t =
  Mutex.lock t.mutex;
  if Option.is_some t.job then begin
    Mutex.unlock t.mutex;
    invalid_arg "Parallel.shutdown: pool busy"
  end;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let with_pool ?obs ?oversubscribe ~jobs f =
  let t = create ?obs ?oversubscribe ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
