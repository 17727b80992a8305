(** The runtime leg: a timed open-loop run over the real
    effects-based pool and {!Runtime.Shard_rt}, one per shard count in
    the scenario's K-sweep.

    The dispatcher (the root task of [Pool.run]) walks the
    pre-generated schedule and releases each request at
    [t0 + arrive_ns] wall-clock; the serving task measures its latency
    from that {e scheduled} stamp when it completes — a request that
    sat behind a backlog is charged the sit, which is what rules out
    coordinated omission. Stores are prepopulated before the clock
    starts. *)

type point = {
  shards : int;
  workers : int;
  mode : Runtime.Batcher_rt.mode;  (** batch-path mode of every shard *)
  requests : int;
  elapsed_ns : float;  (** wall time, first release to last completion *)
  offered : float;
      (** requests per second of the generated schedule: its request
          count over the span from time 0 to the last arrival, bursts
          included. The dispatcher starts the clock before the first
          release and no request completes before its arrival, so
          [goodput <= offered]. *)
  goodput : float;  (** completed requests per wall second *)
  classes : Latency.class_stats list;  (** ["all"] first *)
  batches : int;
  max_batch : int;
  stalls : int;  (** {!Obs.Health} stall-watchdog trips *)
  slo_burns : int;  (** end-to-end phase SLO burns, summed over shards *)
  trace : Obs.Reqtrace.t;
      (** per-request span capture for this point —
          {!Obs.Reqtrace.null} unless the run was started with
          [~trace:true] *)
}

val run_point :
  ?workers:int ->
  ?snapshot_path:string ->
  ?duration_s:float ->
  ?mode:Runtime.Batcher_rt.mode ->
  ?trace:bool ->
  ?inject:Runtime.Batcher_rt.inject ->
  Scenario.t ->
  shards:int ->
  point
(** One timed run. [workers] defaults to
    [Domain.recommended_domain_count ()]; [snapshot_path] attaches an
    {!Obs.Snapshot} JSONL stream (sampled every 100 ms from a separate
    domain) carrying goodput and queue-depth gauges for
    [bin/monitor.exe]; [duration_s] overrides the scenario's; [mode]
    selects the shards' {!Runtime.Batcher_rt} batch path (default
    [Faa_array]).

    [trace] (default false) captures every request's span in an
    {!Obs.Reqtrace} instance (token = schedule index), returned in the
    point's [trace] field: release/start/submit milestones, the
    batcher's publication-or-overflow and wait/exec deltas, and the
    slowest-K reservoir per op class.

    [inject] (default off) applies {!Runtime.Batcher_rt.inject}
    causal-profiling delay factors to every shard's batch path; the
    causal driver ([Svc.Causal]) uses it for the runtime leg's virtual
    speedups. *)

val run :
  ?workers:int -> ?snapshot_path:string -> ?duration_s:float ->
  ?mode:Runtime.Batcher_rt.mode -> ?trace:bool ->
  ?inject:Runtime.Batcher_rt.inject ->
  Scenario.t -> point list
(** The full K-sweep, [Scenario.rt_shards] in order. The snapshot file
    (when given) is truncated per point — last point wins. *)
