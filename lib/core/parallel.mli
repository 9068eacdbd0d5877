(** A minimal fixed-size domain pool (OCaml 5 [Domain]s, stdlib only).

    Built for {!Batch.route_parallel}: the read-only routing phase of a
    batch is embarrassingly parallel, so a handful of long-lived worker
    domains pull requests one at a time from a shared atomic cursor.
    Spawning a domain costs milliseconds and building a routing shard
    (network snapshot + auxiliary-graph cache) costs more, which is why
    the pool is created once and reused across batches — and why it
    carries typed per-worker state slots (see {!slot}) so engines can
    park shards inside the pool between calls.

    A pool of size [j] uses the calling domain as worker 0 and [j - 1]
    spawned domains; [jobs = 1] therefore spawns nothing and runs inline.
    Pools are not re-entrant: {!run}/{!map} from two domains, or from
    inside a running job, is a programming error.

    {b Sizing.}  Requesting more workers than
    [Domain.recommended_domain_count ()] oversubscribes the machine: the
    extra domains time-share cores, adding scheduling noise without
    adding throughput.  {!create} therefore clamps [jobs] to the
    recommended count by default and records the rejection on the
    [parallel.oversubscribed] counter, so the clamp is observable rather
    than silent.  Pass [~oversubscribe:true] to opt out (tests use this
    to exercise multi-domain scheduling on small machines).  Because the
    clamp depends on the host, [parallel.*] counters are excluded from
    cross-[jobs] determinism comparisons (see [obs.mli]). *)

type t

val create : ?obs:Rr_obs.Obs.t -> ?oversubscribe:bool -> jobs:int -> unit -> t
(** Spawn a pool of [jobs] workers ([jobs - 1] domains).  Raises
    [Invalid_argument] when [jobs < 1].  When [jobs] exceeds
    [Domain.recommended_domain_count ()] and [oversubscribe] is [false]
    (the default), the pool is sized to the recommended count instead and
    [parallel.oversubscribed] is bumped on [obs]. *)

val size : t -> int
(** Actual worker count (after any clamp). *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], read once and memoized: the
    default width and the oversubscription clamp in {!create} must agree
    on a single stable machine width for the process lifetime. *)

val default_jobs : unit -> int
(** [min 8 (recommended_jobs ())] — the recommended count clamped to a
    sane ceiling: batch speculation stops scaling usefully past the
    request-level parallelism of typical batches, and very wide pools
    multiply shard-resident memory. *)

val run : t -> (int -> unit) -> unit
(** [run pool f] executes [f i] once per worker [i] (0 inclusive to
    [size - 1]), concurrently, and returns when all have finished.  If any
    worker raises, one of the raised exceptions is re-raised here (after
    all workers finish). *)

val map : t -> worker:(int -> 'w) -> f:('w -> 'a -> 'b) -> 'a array -> 'b array
(** [map pool ~worker ~f arr] evaluates [f st arr.(i)] exactly once for
    every index and returns the results in index order.  Workers claim
    indices one at a time from a single shared atomic cursor, so
    stragglers (e.g. expensive no-disjoint-pair searches) don't leave the
    rest of the pool idle.  [worker i] builds each worker's private state
    [st] once per call — e.g. a network snapshot plus a
    {!Rr_util.Workspace.t}, which must not be shared across domains.
    Which worker evaluates which index is scheduling-dependent; callers
    must keep [f] free of cross-item effects (the batch engine's phase A
    is read-only against per-worker shards for exactly this reason). *)

(** {1 Typed per-worker state}

    A ['a slot] names one per-worker, per-pool storage cell, so engine
    code can keep expensive worker state (snapshots, caches, scratch
    arenas) alive across {!map} calls on the same pool.  Slots are
    created once at module level; the pool stores the values.  Access is
    only safe from the owning worker while it runs (inside {!run}/{!map})
    or from the calling domain while the pool is idle. *)

type 'a slot

val slot : unit -> 'a slot
(** A fresh slot, distinct from every other slot (of any type). *)

val get_state : t -> 'a slot -> worker:int -> 'a option
(** The value last stored for [worker] in this slot, if any. *)

val set_state : t -> 'a slot -> worker:int -> 'a -> unit
(** Store a value for [worker]; replaces any previous value. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  The pool must be idle.
    Idempotent; the pool is unusable afterwards.  Worker state slots are
    dropped with the pool. *)

val with_pool :
  ?obs:Rr_obs.Obs.t -> ?oversubscribe:bool -> jobs:int -> (t -> 'a) -> 'a
(** [create], run the callback, always [shutdown]. *)
