(** The benchmark's own arithmetic: order statistics with their sample
    counts, deadline goodput, the rate-ladder verdict, and run-to-run
    spread. Pure functions, so the test suite pins them on hand-made
    inputs. *)

val quantile : float array -> float -> float
(** [quantile xs q], [q] in [0, 1]: linear interpolation between order
    statistics, as {!Util.Stats.percentile}. [xs] need not be sorted;
    raises [Invalid_argument] when empty. *)

val median : float array -> float

val iqr_share : float array -> float
(** Distance between the first and third quartile as a share of the
    median, with quartiles as Python's
    [statistics.quantiles(xs, n=4)] (exclusive method) computes them;
    0 with fewer than two samples or a zero median. *)

val beyond : n:int -> num:int -> den:int -> int
(** Samples ranked strictly above the [num/den] quantile of [n]:
    [n - ceil (n * num / den)]. *)

val tail_label : n:int -> (string * float) option
(** The highest of p50, p90, p99, p99.9, p99.99 that has at least ten
    of [n] samples beyond it, as [(label, q)]; [None] below 20
    samples. *)

val offered_rps : n:int -> span_ns:int -> float
(** Offered load of an open-loop schedule: [n] requests over the span
    from time 0 to the last scheduled arrival. 0 when the span is 0. *)

val deadline_goodput : deadline_ns:int -> span_ns:int -> int array -> float
(** Requests whose latency is at most [deadline_ns], per second of the
    schedule's span. Requests still in the drain after the span count
    only if they met the deadline; the drain itself is not in the
    denominator. *)

type rung = {
  offered : float;  (** requests/s, from the generated schedule *)
  p99_ns : float;
  drain_ns : float;  (** last scheduled arrival → last completion *)
}

type verdict = Met of rung | None_met

val ladder_verdict : p99_limit_ns:float -> drain_limit_ns:float -> rung list -> verdict
(** The highest offered rate whose p99 and drain both stay within their
    limits; [None_met] when no rung does (including an empty ladder). *)
