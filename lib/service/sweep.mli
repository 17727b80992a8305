(** Latency vs offered load: a recorded rate-multiplier × mode × K
    grid over the runtime leg, with per-point phase attribution and
    the throughput knee.

    Every grid point runs {!Rt_driver.run_point} with request tracing
    on, so alongside goodput and the latency digest it carries the
    exact share of total latency spent in each phase
    ({!Obs.Reqtrace.totals}) — the sweep answers both "where is the
    knee" and "what the tail is made of past it". *)

type point = {
  mode : Runtime.Batcher_rt.mode;
  shards : int;
  mult : float;  (** rate multiplier applied to the scenario's rt_rate *)
  pt : Rt_driver.point;
      (** the traced run: offered load, goodput, digests, spans. Its
          [offered] is the generated schedule's, bursts included — not
          the base rt_rate ×. mult, which misses the bursts' extra
          load *)
  shares : (string * float) list;
      (** {!Obs.Reqtrace.shares} of the point's trace:
          queue/sched/pending/exec shares of total latency (sum to 1)
          plus the ovf sub-share *)
}

type knee = {
  k_mode : Runtime.Batcher_rt.mode;
  k_shards : int;
  knee_req_s : float;
      (** highest swept offered rate whose delivered goodput is ≥
          {!knee_threshold} of offered; 0.0 when even the lowest point
          fell short *)
  knee_mult : float;  (** the multiplier of that point (0.0 likewise) *)
  k_absent : bool;
      (** true when {e no} swept multiplier kept up — the knee row is
          still emitted (with [knee_absent] true) so a saturated
          configuration shows up as an explicit verdict rather than a
          silently missing row, and [--gate-knee] in
          [bin/bench_diff.exe] treats it as a trip *)
}

type t = {
  scenario : Scenario.t;
  points : point list;  (** modes × shards × mults, in that nesting *)
  knees : knee list;  (** one per (mode, shards) *)
}

val knee_threshold : float
(** 0.9: a point "keeps up" when goodput ≥ 90% of offered. Below the
    knee the ratio sits at ~1 (open-loop, the dispatcher releases on
    schedule); past saturation it falls off sharply, so the exact
    threshold barely moves the knee. *)

val scale : Scenario.t -> float -> Scenario.t
(** [scale sc mult] is [sc] with its open-loop arrival rate multiplied
    by [mult] — the per-point transform of the sweep grid, exported
    for other rate-stretching experiments ([Svc.Causal]'s runtime leg
    dilates arrivals by 1/f). *)

val knees_of_points :
  modes:Runtime.Batcher_rt.mode list ->
  shards:int list ->
  point list ->
  knee list
(** Pure knee extraction over measured points, one knee per
    (mode, K) in the given order — including an explicit [k_absent]
    knee for a pair whose every point failed {!knee_threshold}. *)

val default_mults : float list
(** [0.25; 0.5; 1.0; 2.0; 4.0] — spans comfortable to past-saturation
    on the calibrated scenarios (standard's 4× offered exceeds this
    box's measured capacity). *)

val run :
  ?mults:float list ->
  ?modes:Runtime.Batcher_rt.mode list ->
  ?shards:int list ->
  ?workers:int ->
  ?duration_s:float ->
  Scenario.t ->
  t
(** Run the grid. Defaults: {!default_mults}, modes
    [[Faa_array]], shards = the scenario's largest K, duration
    min(scenario, 1 s) per point (a sweep multiplies runs). *)

val rows : t -> Obs.Json.t list
(** [SVC_LOAD] rows for BENCH_results.json: one ["all"] row per grid
    point (identity: scenario/store/mode/shards/mult; metrics:
    offered_req_s, goodput, latency digest, share_* phase shares) and
    one ["knee"] row per (mode, K) carrying [knee_req_s] and
    [knee_absent] — the [--gate-knee] handles in
    [bin/bench_diff.exe]. Merge with
    {!Report.merge_svc_load}. *)
