(** Fork-join work-stealing pool on OCaml 5 domains with effect-handler
    task suspension — the substrate the real BATCHER runtime extends.

    The pool owns [num_workers - 1] spawned domains; the domain calling
    {!run} becomes worker 0 for the duration of the call. Tasks are
    closures on per-worker Chase-Lev deques; blocked tasks ({!await},
    {!Batcher_rt.batchify}) suspend their continuation instead of
    blocking the worker. *)

type t

type backoff = {
  spin_limit : int;  (** misses served by a single [Domain.cpu_relax] *)
  spin_burst : int;  (** relax iterations per miss while bursting *)
  burst_limit : int;  (** misses before the worker starts sleeping *)
  sleep_min : float;  (** first sleep, seconds *)
  sleep_max : float;  (** cap of the exponential sleep ramp, seconds *)
  steal_tries : int;  (** steal attempts per round; 0 means 2 x workers *)
}
(** Idle-worker policy. A worker that finds no task counts consecutive
    "misses": below [spin_limit] it relaxes once per miss; below
    [burst_limit] it relaxes [spin_burst] times per miss; past that it
    sleeps [sleep_min * 2^k] capped at [sleep_max]. Each round probes
    [steal_tries] victims drawn from a per-worker int xorshift, so a
    failed round allocates nothing. Exposed so [lib/check]'s config
    ablations can sweep the thresholds. *)

val default_backoff : backoff

val create :
  ?recorder:Obs.Recorder.t ->
  ?health:Obs.Health.t ->
  ?backoff:backoff ->
  num_workers:int ->
  unit ->
  t
(** Spawns [num_workers - 1] domains. [num_workers >= 1].

    [health] (default {!Obs.Health.null}, i.e. off) turns on always-on
    monitoring: every worker heartbeats it once per scheduling-loop
    iteration, and any {!Batcher_rt} built over this pool feeds its
    stall watchdog, phase-latency histograms, and (via
    {!Obs.Health.invariants}) online invariant checkers. It must cover
    all workers. Stream it with {!Obs.Snapshot.to_file} and watch with
    [bin/monitor.exe].

    [backoff] (default {!default_backoff}) sets the idle-worker policy.
    While a worker is past its spin phase, individual failed-steal
    events are not emitted; they are counted and flushed as one
    [Steals_suppressed] event on the next successful steal, so summary
    attempt counts stay truthful without idle pools flooding the rings.

    [recorder] (default {!Obs.Recorder.null}, i.e. off) captures
    steal-attempt events from the workers' task-finding loop, and is
    shared with any {!Batcher_rt} built over this pool (batch spans and
    per-operation latency). It must use the [Nanoseconds] clock and
    cover all workers; each domain writes only its own worker's ring,
    so recording needs no synchronization. Read it out only after
    {!run} returns (and, for spawned workers' rings, ideally after
    {!teardown}). *)

val num_workers : t -> int

val recorder : t -> Obs.Recorder.t
(** The recorder passed at creation, or {!Obs.Recorder.null}. *)

val health : t -> Obs.Health.t
(** The health instance passed at creation, or {!Obs.Health.null}. *)

val teardown : t -> unit
(** Stops and joins the spawned domains. The pool must be idle. *)

type 'a promise

val run : t -> (unit -> 'a) -> 'a
(** Execute a computation to completion, participating as worker 0.
    Must be called from outside the pool (not from a task). Exceptions
    raised by the computation are re-raised. *)

val async : t -> (unit -> 'a) -> 'a promise
(** Schedule a task. Must be called from within a task. *)

val await : t -> 'a promise -> 'a
(** Wait for a promise, suspending the current task (the worker is not
    blocked). Must be called from within a task. Re-raises the task's
    exception, if any. *)

val fork_join : t -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Binary fork: runs the two thunks in parallel and joins. *)

val parallel_for : t -> ?grain:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for t ~lo ~hi body] runs [body i] for [lo <= i < hi] with
    recursive binary splitting down to [grain] (default: auto). *)

val parallel_map : t -> ?grain:int -> ('a -> 'b) -> 'a array -> 'b array
(** Element-wise map with binary splitting; empty input yields [[||]]. *)

val map_reduce :
  t -> ?grain:int -> map:('a -> 'b) -> combine:('b -> 'b -> 'b) -> init:'b -> 'a array -> 'b
(** Parallel map then tree reduction. [combine] must be associative;
    [init] is its identity. *)

val parallel_prefix_sums : t -> int array -> int array
(** Inclusive parallel prefix sums (two-pass), the primitive of the
    batched counter and of LAUNCHBATCH compaction. *)

val push_task : t -> (unit -> unit) -> unit
(** Enqueue a raw task (no promise, no class capture) on the calling
    worker's deque, stealable like any other task. Exists so
    {!Batcher_rt}'s parallel-combining launcher can recruit helpers
    with preallocated closures — zero allocation per recruitment.
    Exceptions escaping the task kill the worker; callers must not let
    them escape. *)

val exec_inline : t -> (unit -> unit) -> unit
(** Execute a task body in place under the pool's effect handler.
    Needed by code running inside a {!suspend} callback (which executes
    in the handler itself, not under it) that wants to run work which
    may legitimately [await]/[suspend] — e.g. a batch body executed
    inline by the parallel-combining launcher. If the body suspends,
    [exec_inline] returns immediately and the remainder runs later as
    a parked continuation, exactly like a queued task that suspends.
    Must be called on a pool worker. *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** [suspend t f] suspends the current task and calls [f resume]; the
    task continues when [resume ()] is invoked (exactly once, from any
    task context — the continuation is rescheduled on the resumer's
    worker). The suspension primitive under {!await} and under
    [Batcher_rt.batchify]. Must be called from within a task. *)

val worker_index : unit -> int option
(** Index of the worker executing the caller, if inside a pool. *)

val work_class : t -> Obs.Recorder.work_class
(** The calling worker's ambient work class ([Wcore] outside a pool or
    on an unobserved pool). On an observed pool every worker's
    wall-clock is attributed to its ambient class as tiling [Work]
    segments: tasks inherit the class of their creation site
    ({!async}) or suspension site ({!await}, {!suspend}), the root
    computation of {!run} starts in [Wcore], and time between tasks
    (deque polling, steals, backoff) is [Wsched]. *)

val set_work_class : t -> Obs.Recorder.work_class -> unit
(** Switch the calling worker's ambient class, closing the current
    [Work] segment. No-op outside a pool; a plain compare when the
    class is unchanged or the pool is unobserved. Used by
    {!Batcher_rt} to bracket LAUNCHBATCH setup ([Wsetup]) and the BOP
    body ([Wbatch]). *)
