(* The benchmark's own arithmetic, on hand-made inputs. *)

open Perfbench

let feq = Alcotest.float 1e-9

let test_beyond () =
  Alcotest.(check int) "1000 samples: 10 beyond p99" 10 (Arith.beyond ~n:1000 ~num:99 ~den:100);
  Alcotest.(check int) "999 samples: 9 beyond p99" 9 (Arith.beyond ~n:999 ~num:99 ~den:100);
  Alcotest.(check int) "20 samples: 10 beyond p50" 10 (Arith.beyond ~n:20 ~num:1 ~den:2);
  Alcotest.(check int) "no samples" 0 (Arith.beyond ~n:0 ~num:1 ~den:2)

let label n = Option.map fst (Arith.tail_label ~n)

let test_tail_label () =
  let check n want = Alcotest.(check (option string)) (Printf.sprintf "n=%d" n) want (label n) in
  check 19 None;
  check 20 (Some "p50");
  check 99 (Some "p50");
  check 100 (Some "p90");
  check 999 (Some "p90");
  check 1000 (Some "p99");
  check 9999 (Some "p99");
  check 10_000 (Some "p99.9");
  check 100_000 (Some "p99.99");
  check 10_000_000 (Some "p99.99")

let test_quantiles () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.check feq "median" 3.0 (Arith.median xs);
  Alcotest.check feq "p0" 1.0 (Arith.quantile xs 0.0);
  Alcotest.check feq "p100" 5.0 (Arith.quantile xs 1.0);
  Alcotest.check feq "interpolated" 1.4 (Arith.quantile xs 0.1);
  Alcotest.check feq "even count median" 2.5 (Arith.median [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.check_raises "empty" (Invalid_argument "Arith.quantile: empty") (fun () ->
      ignore (Arith.median [||]))

(* Expected values from Python's statistics.quantiles(xs, n=4). *)
let test_iqr_share () =
  Alcotest.check feq "1..10: (8.25 - 2.75) / 5.5" 1.0
    (Arith.iqr_share (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check feq "[3;1;2]: (3 - 1) / 2" 1.0 (Arith.iqr_share [| 3.0; 1.0; 2.0 |]);
  Alcotest.check feq "[5;7] extrapolates: (7.5 - 4.5) / 6" 0.5 (Arith.iqr_share [| 5.0; 7.0 |]);
  Alcotest.check feq "constant" 0.0 (Arith.iqr_share [| 2.0; 2.0; 2.0; 2.0 |]);
  Alcotest.check feq "single sample" 0.0 (Arith.iqr_share [| 7.0 |])

let test_offered () =
  Alcotest.check feq "n over the span to the last arrival" 10_000.0
    (Arith.offered_rps ~n:5000 ~span_ns:500_000_000);
  Alcotest.check feq "empty span" 0.0 (Arith.offered_rps ~n:1 ~span_ns:0)

let test_deadline_goodput () =
  let lats = [| 1; 5; 10; 11; 20 |] in
  Alcotest.check feq "requests within the deadline, inclusive, per second" 3.0
    (Arith.deadline_goodput ~deadline_ns:10 ~span_ns:1_000_000_000 lats);
  Alcotest.check feq "half-second span" 6.0
    (Arith.deadline_goodput ~deadline_ns:10 ~span_ns:500_000_000 lats);
  Alcotest.check feq "nothing meets a zero deadline" 0.0
    (Arith.deadline_goodput ~deadline_ns:0 ~span_ns:1_000_000_000 lats);
  Alcotest.check feq "empty span" 0.0 (Arith.deadline_goodput ~deadline_ns:10 ~span_ns:0 lats)

let rung offered p99_ns drain_ns = { Arith.offered; p99_ns; drain_ns }
let rate rungs =
  match Arith.ladder_verdict ~p99_limit_ns:10.0 ~drain_limit_ns:10.0 rungs with
  | Arith.Met r -> r.Arith.offered
  | Arith.None_met -> 0.0

let test_ladder () =
  Alcotest.check feq "highest passing rung" 300.0
    (rate [ rung 100.0 1.0 1.0; rung 200.0 2.0 2.0; rung 300.0 10.0 10.0; rung 400.0 11.0 1.0 ]);
  Alcotest.check feq "a failed lower rung does not cap a passing higher one" 300.0
    (rate [ rung 100.0 1.0 1.0; rung 200.0 50.0 1.0; rung 300.0 1.0 1.0 ]);
  Alcotest.check feq "order of rungs does not matter" 300.0
    (rate [ rung 300.0 1.0 1.0; rung 100.0 1.0 1.0; rung 400.0 1.0 11.0 ]);
  Alcotest.check feq "a growing backlog fails even with a good p99" 100.0
    (rate [ rung 100.0 1.0 1.0; rung 200.0 1.0 10.5 ]);
  (match Arith.ladder_verdict ~p99_limit_ns:10.0 ~drain_limit_ns:10.0 [ rung 100.0 20.0 1.0 ] with
  | Arith.None_met -> ()
  | Arith.Met _ -> Alcotest.fail "a failing ladder must say none met");
  (match Arith.ladder_verdict ~p99_limit_ns:10.0 ~drain_limit_ns:10.0 [] with
  | Arith.None_met -> ()
  | Arith.Met _ -> Alcotest.fail "an empty ladder must say none met")

(* A clock the BOP itself advances: each batch costs 100 ns per op. *)
let test_timed () =
  let clock = ref 0 in
  let t = Timed.create ~clock:(fun () -> !clock) () in
  let bop _pool () ops = clock := !clock + (100 * Array.length ops) in
  let pool = Runtime.Pool.create ~num_workers:1 () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      List.iter (fun n -> Timed.run_batch t bop pool () (Array.make n 0)) [ 1; 2; 2; 1; 2 ];
      Alcotest.(check int) "batches" 5 (Timed.batches t);
      Alcotest.(check int) "ops" 8 (Timed.ops t);
      Alcotest.(check int) "max batch" 2 (Timed.max_batch t);
      Alcotest.(check int) "bop time" 800 (Timed.bop_ns t);
      Alcotest.check feq "ns per op" 100.0 (Timed.ns_per_op t);
      Alcotest.check feq "busy share" 0.5 (Timed.busy_share t ~elapsed_ns:1600.0);
      Alcotest.(check (list (pair int int))) "size histogram" [ (1, 2); (2, 3) ] (Timed.size_counts t);
      Alcotest.check_raises "a failing BOP propagates" Exit (fun () ->
          Timed.run_batch t (fun _ () _ -> clock := !clock + 7; raise Exit) pool () [| 0 |]);
      Alcotest.(check int) "and is not charged" 5 (Timed.batches t);
      Alcotest.(check int) "nor its time" 800 (Timed.bop_ns t));
  let fresh = Timed.create () in
  Alcotest.check feq "no ops: 0 ns per op" 0.0 (Timed.ns_per_op fresh);
  Alcotest.check feq "no elapsed time: 0 share" 0.0 (Timed.busy_share fresh ~elapsed_ns:0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "samples beyond a quantile" `Quick test_beyond;
          Alcotest.test_case "tail percentile with ten beyond" `Quick test_tail_label;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "spread as python computes it" `Quick test_iqr_share;
          Alcotest.test_case "offered load from the schedule" `Quick test_offered;
          Alcotest.test_case "deadline goodput" `Quick test_deadline_goodput;
          Alcotest.test_case "ladder verdict" `Quick test_ladder;
        ] );
      ("timed store", [ Alcotest.test_case "BOP time accounting" `Quick test_timed ]);
    ]
