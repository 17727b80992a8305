let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

let quantile xs q =
  if Array.length xs = 0 then invalid_arg "Arith.quantile: empty";
  let a = sorted xs in
  let pos = q *. float_of_int (Array.length a - 1) in
  let lo = truncate pos in
  let hi = min (lo + 1) (Array.length a - 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* statistics.quantiles(xs, n=4), default exclusive method, transcribed
   from CPython: cut i sits at 1-based position i * (n + 1) / 4, with
   the lower index clamped to [1, n - 1] (so it extrapolates past the
   ends of tiny samples, as Python does). *)
let py_quartile a i =
  let ld = Array.length a in
  let m = ld + 1 in
  let j = max 1 (min (ld - 1) (i * m / 4)) in
  let delta = (i * m) - (j * 4) in
  ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
  /. 4.0

let iqr_share xs =
  if Array.length xs < 2 then 0.0
  else
    let a = sorted xs in
    let med = median a in
    if med = 0.0 then 0.0
    else Float.abs ((py_quartile a 3 -. py_quartile a 1) /. med)

let beyond ~n ~num ~den = n - (((n * num) + den - 1) / den)

let ladder =
  [
    ("p99.99", 9999, 10000);
    ("p99.9", 999, 1000);
    ("p99", 99, 100);
    ("p90", 9, 10);
    ("p50", 1, 2);
  ]

let tail_label ~n =
  List.find_map
    (fun (label, num, den) ->
      if beyond ~n ~num ~den >= 10 then
        Some (label, float_of_int num /. float_of_int den)
      else None)
    ladder

let offered_rps ~n ~span_ns =
  if span_ns <= 0 then 0.0 else float_of_int n /. (float_of_int span_ns /. 1e9)

let deadline_goodput ~deadline_ns ~span_ns lats =
  if span_ns <= 0 then 0.0
  else
    let ok = Array.fold_left (fun c l -> if l <= deadline_ns then c + 1 else c) 0 lats in
    float_of_int ok /. (float_of_int span_ns /. 1e9)

type rung = { offered : float; p99_ns : float; drain_ns : float }
type verdict = Met of rung | None_met

let ladder_verdict ~p99_limit_ns ~drain_limit_ns rungs =
  List.fold_left
    (fun best r ->
      if r.p99_ns <= p99_limit_ns && r.drain_ns <= drain_limit_ns then
        match best with
        | Met b when b.offered >= r.offered -> best
        | _ -> Met r
      else best)
    None_met rungs
