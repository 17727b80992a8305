(* Shared plumbing of the workloads: clocks, metric records, the
   human-readable detail lines printed before the result, and the
   correctness tally. *)

let now = Obs.Clock.now_ns
let secs ns = float_of_int ns /. 1e9

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let say fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

(* Correctness tally: every operation attempted, every failed check.
   A failed check is charged as at least one failed operation. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }
let attempt t n = t.attempted <- t.attempted + n

let check_n t k fmt =
  Printf.ksprintf
    (fun s ->
      if k > 0 then begin
        t.failed <- t.failed + k;
        say "CHECK FAILED: %s" s
      end)
    fmt

let check t ok fmt = check_n t (if ok then 0 else 1) fmt

(* A value taken as the median of per-round samples, printed with its
   repeat count and spread (interquartile range as a share of the
   median). *)
let median_of ~name ~unit samples =
  let a = Array.of_list samples in
  let v = Arith.median a in
  say "  %-28s %14.4f %-6s median of %d, spread %.1f%%" name v unit
    (Array.length a)
    (100.0 *. Arith.iqr_share a);
  metric name unit v

(* The highest percentile with ten samples beyond it, for a timing
   whose digest offers [avail] = [(label, value)] percentiles. *)
let tail_line ~what ~unit ~n avail =
  match Arith.tail_label ~n with
  | None -> say "  %s: %d samples, too few for any tail percentile" what n
  | Some (label, q) ->
      let best =
        List.fold_left
          (fun acc (l, lq, v) -> if lq <= q then Some (l, v) else acc)
          None avail
      in
      Option.iter
        (fun (l, v) ->
          say "  %s: highest percentile with >=10 samples beyond: %s (of %d); reported %s = %.1f %s"
            what label n l v unit)
        best

(* A time taken as the lowest of per-round samples, for the open-loop
   service's request latency, where a host stall of a few ms backs up
   every request behind it and a run's rounds read either near the
   program's own speed or tens of times slower. Printed with the
   median, the repeat count and the spread. Rates and the other
   workloads report medians: there the host's speed drifts both ways
   and the best round follows its fastest moments. *)
let best_of ~name ~unit samples =
  let a = Array.of_list samples in
  let v = Array.fold_left Float.min a.(0) a in
  say "  %-28s %14.4f %-6s best of %d (median %.4f, spread %.1f%%)" name v unit (Array.length a)
    (Arith.median a)
    (100.0 *. Arith.iqr_share a);
  metric name unit v

(* Peak resident set of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Set-up is repeated [reps] times and reported as a median, so that a
   change moving work into set-up shows up despite noise. [f] returns
   its named phases in seconds; setup_s is their sum. *)
let setup_phases ~reps f =
  let runs = List.init reps (fun _ -> f ()) in
  let names = List.map fst (List.hd runs) in
  let phase name = List.map (fun r -> List.assoc name r) runs in
  let total = List.map (fun r -> List.fold_left (fun a (_, s) -> a +. s) 0.0 r) runs in
  say "set-up, %d repetitions:" reps;
  let phases =
    List.map (fun n -> median_of ~name:("setup." ^ n) ~unit:"s" (phase n)) names
  in
  (median_of ~name:"setup_s" ~unit:"s" total, phases)

let pct_change ~base v = if base = 0.0 then 0.0 else 100.0 *. (v -. base) /. base

(* Ledger rows: p50 and p99 in us of a per-span phase given in ns. *)
let us_quantiles ~name f spans =
  let a = Array.map (fun s -> float_of_int (f s) /. 1e3) spans in
  let q p = if Array.length a = 0 then 0.0 else Arith.quantile a p in
  [ metric (name ^ ".p50") "us" (q 0.5); metric (name ^ ".p99") "us" (q 0.99) ]

let ledger_line (m : metric) = say "  layer %-32s %14.4f %s" m.name m.value m.unit

