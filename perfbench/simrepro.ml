(* sim-repro: the simulator alone. Figure-5 cells through Sim.Batcher
   (Section 7's skip-list insertion: 100k records, 100 per BATCHIFY, at
   1M and 100M initial sizes, P in {1,2,4,8}), then the standard
   service scenario's open-loop leg through Svc.Sim_driver at P in
   {1,8,64}. The service scenario runs without its on/off bursts: with
   them, whether a burst lands in the 20k-request window decides the
   P=8 tail, and one seed in eight read 100x the others.

   Outputs are on the virtual clock and deterministic for a seed, so
   every round must reproduce the first exactly, every open-loop point
   must pass its Theorem-1 check, and a fixed reference seed must
   reproduce the values recorded below. *)

open Common

let sizes = [ 1_000_000; 100_000_000 ]
let ps = [ 1; 2; 4; 8 ]
let svc_ps = [ 1; 8; 64 ]
let records_per_node = 100
let n_nodes = 100_000 / records_per_node

let scenario ~seed =
  { (Option.get (Svc.Scenario.find "standard")) with Svc.Scenario.name = "perfbench-sim"; burst = None; seed }

let workload initial =
  Sim.Workload.parallel_ops
    ~model:(Batched.Skiplist.sim_model ~initial_size:initial ~records_per_node ())
    ~records_per_node ~n_nodes ()

let run_cell ~seed ~p w = Sim.Batcher.run { (Sim.Batcher.default ~p) with Sim.Batcher.seed } w

(* Recorded on the reference seed; any change to these is a change in
   the simulator's behaviour and must be explained. *)
let ref_seed = 1
let ref_fig5_makespan = 491_504
let ref_svc_p99_ns = 242_000.0

type cells = (int * int * Sim.Workload.t) list

let setup ~seed () =
  let sc = scenario ~seed in
  Gc.full_major ();
  let t0 = now () in
  let reqs = Svc.Gen.generate_n (Svc.Scenario.gen_sim sc) ~n:sc.Svc.Scenario.sim_requests in
  let t1 = now () in
  let cells = List.concat_map (fun initial -> List.map (fun p -> (initial, p, workload initial)) ps) sizes in
  let t2 = now () in
  ignore (Sys.opaque_identity reqs);
  (cells, [ ("gen_s", secs (t1 - t0)); ("build_s", secs (t2 - t1)) ])

type round = {
  fig5 : (int * int * Sim.Metrics.t) list;
  svc : Svc.Sim_driver.point list;
  t0 : int;
  batcher_ns : int;
  openloop_ns : int;
  steps : float;
  cell_ns : int list;  (** wall time of each simulation call, in call order *)
}

let unit_ns = float_of_int (scenario ~seed:0).Svc.Scenario.sim_ns_per_unit

let run_round tl ?(trace = false) ~seed (cells : cells) =
  let sc = scenario ~seed in
  attempt tl (List.length cells + List.length svc_ps);
  let cell_ns = ref [] in
  let timed f =
    let t = now () in
    let r = f () in
    cell_ns := (now () - t) :: !cell_ns;
    r
  in
  let t0 = now () in
  let fig5 =
    List.filter_map
      (fun (initial, p, w) ->
        match timed (fun () -> run_cell ~seed ~p w) with
        | m -> Some (initial, p, m)
        | exception Failure e ->
            check tl false "Sim.Batcher at %d, P=%d: %s" initial p e;
            None)
      cells
  in
  let t1 = now () in
  let svc = List.map (fun p -> timed (fun () -> Svc.Sim_driver.run_point ~trace sc ~p)) svc_ps in
  let t2 = now () in
  List.iter
    (fun (pt : Svc.Sim_driver.point) ->
      match pt.Svc.Sim_driver.bound with
      | Ok () -> ()
      | Error e -> check tl false "Sim_driver P=%d Theorem-1 bound: %s" pt.Svc.Sim_driver.p e)
    svc;
  let steps =
    List.fold_left (fun a (_, p, m) -> a +. float_of_int (m.Sim.Metrics.makespan * p)) 0.0 fig5
    +. List.fold_left
         (fun a (pt : Svc.Sim_driver.point) ->
           a +. (pt.Svc.Sim_driver.makespan_ns /. unit_ns *. float_of_int pt.Svc.Sim_driver.p))
         0.0 svc
  in
  let r = { fig5; svc; t0; batcher_ns = t1 - t0; openloop_ns = t2 - t1; steps; cell_ns = List.rev !cell_ns } in
  say "  %ssimulation set: %.3f s (Sim.Batcher %.3f s, open loop %.3f s)"
    (if trace then "[traced] " else "")
    (secs (t2 - t0)) (secs r.batcher_ns) (secs r.openloop_ns);
  r

(* Everything a round outputs on the virtual clock. *)
let digest r =
  ( List.map
      (fun (i, p, (m : Sim.Metrics.t)) ->
        (i, p, m.makespan, m.batches, m.batch_size_total, m.steal_attempts, m.steal_successes, m.max_batches_while_pending))
      r.fig5,
    List.map
      (fun (pt : Svc.Sim_driver.point) ->
        let a = Svc.Latency.all_of pt.Svc.Sim_driver.classes in
        (pt.Svc.Sim_driver.p, a.Svc.Latency.p50_ns, a.Svc.Latency.p99_ns, pt.Svc.Sim_driver.batches, pt.Svc.Sim_driver.makespan_ns))
      r.svc )

let cell r initial p = List.find_map (fun (i, q, m) -> if i = initial && q = p then Some m else None) r.fig5
let svc_point r p = List.find (fun (pt : Svc.Sim_driver.point) -> pt.Svc.Sim_driver.p = p) r.svc
let svc_all r p = Svc.Latency.all_of (svc_point r p).Svc.Sim_driver.classes

(* The reference seed's Figure-5 1M, P=8 cell and service P=8 tail
   against their recorded values. *)
let verify_reference tl =
  attempt tl 2;
  (match run_cell ~seed:ref_seed ~p:8 (workload 1_000_000) with
  | m ->
      check tl (m.Sim.Metrics.makespan = ref_fig5_makespan)
        "reference Figure-5 cell (1M, P=8, seed %d): makespan %d, recorded %d" ref_seed
        m.Sim.Metrics.makespan ref_fig5_makespan
  | exception Failure e -> check tl false "reference Figure-5 cell: %s" e);
  let pt = Svc.Sim_driver.run_point (scenario ~seed:ref_seed) ~p:8 in
  let p99 = (Svc.Latency.all_of pt.Svc.Sim_driver.classes).Svc.Latency.p99_ns in
  check tl (p99 = ref_svc_p99_ns) "reference service point (P=8, seed %d): p99 %.1f ns, recorded %.1f"
    ref_seed p99 ref_svc_p99_ns

let med xs = Arith.median (Array.of_list xs)

let run ~seed ~seconds ~trace =
  let tl = tally () in
  check tl (Sim.Batcher.default ~p:1).Sim.Batcher.check_invariants "Sim.Batcher invariant checks are off";
  let cells = ref [] in
  let setup_s, setup_rows =
    setup_phases ~reps:101 (fun () ->
        let c, phases = setup ~seed () in
        cells := c;
        phases)
  in
  let cells = !cells in
  let rounds = max 3 (truncate (Float.round (seconds /. 2.5))) in
  let same_as first r =
    check tl (digest r = digest first) "a repeated simulation round differs from the first"
  in
  let rate_of r = r.steps /. secs (r.batcher_ns + r.openloop_ns) in
  let finish rs =
    verify_reference tl;
    let r = List.hd rs in
    List.iter (same_as r) (List.tl rs);
    let m = Option.get (cell r 1_000_000 8) in
    say "  fig5_records_per_step (1M, P=8)  %.6f" (Sim.Metrics.throughput m);
    say "  svc_sim_p99_wait_us (P=8)        %.1f" ((svc_all r 8).Svc.Latency.p99_ns /. 1e3);
    say "  repro_s                          %.4f s, median of %d" (med (List.map (fun r -> secs (r.batcher_ns + r.openloop_ns)) rs)) (List.length rs)
  in
  if not trace then begin
    (* Rounds until [seconds] of them have run, at least three. *)
    let t_end = now () + truncate (seconds *. 1e9) in
    let rec go acc =
      let acc = run_round tl ~seed cells :: acc in
      if List.length acc >= 3 && now () >= t_end then List.rev acc else go acc
    in
    let rs = go [] in
    say "%d rounds of the simulation set" (List.length rs);
    finish rs;
    let a = svc_all (List.hd rs) 8 in
    say "  simulated wait at P=8 (virtual clock, the same every round): p50 %.1f us, p99 %.1f us of %d"
      (a.Svc.Latency.p50_ns /. 1e3) (a.Svc.Latency.p99_ns /. 1e3) a.Svc.Latency.requests;
    (* The latency a user of the simulator waits for: one simulation
       call (a Figure-5 cell or an open-loop point), on the wall clock,
       p50 over every call of every round. *)
    let calls_us = List.concat_map (fun r -> List.map (fun ns -> float_of_int ns /. 1e3) r.cell_ns) rs in
    let p50 = median_of ~name:"p50_us" ~unit:"us" calls_us in
    tail_line ~what:"wall time per simulation call" ~unit:"us" ~n:(List.length calls_us)
      [ ("p50", 0.5, p50.value) ];
    (* Simulated steps (the same every round) over the set's time with
       each call at its median over rounds: a host stall inside one
       call then moves only that call's median. *)
    let call_medians =
      List.mapi (fun i _ -> med (List.map (fun r -> float_of_int (List.nth r.cell_ns i)) rs)) (List.hd rs).cell_ns
    in
    let rate = metric "rate_per_s" "1/s" ((List.hd rs).steps /. (List.fold_left ( +. ) 0.0 call_medians /. 1e9)) in
    say "  %-28s %14.4f %-6s steps / sum of each call's median of %d rounds (per-round spread %.1f%%)"
      rate.name rate.value rate.unit (List.length rs)
      (100.0 *. Arith.iqr_share (Array.of_list (List.map rate_of rs)));
    (tl, [ setup_s; p50; rate; metric "peak_rss_mb" "MB" (peak_rss_mb ()) ])
  end
  else begin
    let rounds = max 4 (rounds + (rounds land 1)) in
    let gw = Gcwatch.start () in
    say "%d rounds, untraced and traced alternating:" rounds;
    let rs =
      List.init rounds (fun i ->
          if i land 1 = 0 then (false, run_round tl ~seed cells)
          else begin
            let r = Gcwatch.during gw (fun () -> run_round tl ~trace:true ~seed cells) in
            List.iter
              (fun (pt : Svc.Sim_driver.point) ->
                match Obs.Reqtrace.check pt.Svc.Sim_driver.trace with
                | Ok () -> ()
                | Error e -> check tl false "Reqtrace.check on the sim leg: %s" e)
              r.svc;
            (true, r)
          end)
    in
    finish (List.map snd rs);
    let plain = List.filter_map (fun (t, r) -> if t then None else Some r) rs
    and traced = List.filter_map (fun (t, r) -> if t then Some r else None) rs in
    let r = List.hd traced in
    let m = Option.get (cell r 1_000_000 8) in
    let all_cells = List.map (fun (_, _, m) -> m) r.fig5 in
    let sum f = List.fold_left (fun a m -> a + f m) 0 all_cells in
    let sp =
      let rt = (svc_point r 8).Svc.Sim_driver.trace in
      Array.of_list (List.filter_map (Obs.Reqtrace.span rt) (List.init (Obs.Reqtrace.capacity rt) Fun.id))
    in
    say "per-layer ledger (traced rounds):";
    let ledger =
      [
        metric "sim.batcher_s" "s" (med (List.map (fun r -> secs r.batcher_ns) traced));
        metric "sim.openloop_s" "s" (med (List.map (fun r -> secs r.openloop_ns) traced));
        metric "sim.steps_per_s" "1/s" (med (List.map rate_of traced));
        metric "sim.steal_success_ratio" "ratio"
          (float_of_int m.Sim.Metrics.steal_successes /. float_of_int (max 1 m.Sim.Metrics.steal_attempts));
        metric "sim.batch_size.mean" "ops"
          (float_of_int m.Sim.Metrics.batch_size_total /. float_of_int (max 1 m.Sim.Metrics.batches));
        metric "sim.lemma2_max" "batches"
          (float_of_int (List.fold_left (fun a m -> max a m.Sim.Metrics.max_batches_while_pending) 0 all_cells));
        metric "sim.fig5_records_per_step" "1/step" (Sim.Metrics.throughput m);
      ]
      @ us_quantiles ~name:"sim.svc_pending_us" (fun s -> s.Obs.Reqtrace.pending_ns) sp
      @ us_quantiles ~name:"sim.svc_exec_us" (fun s -> s.Obs.Reqtrace.exec_ns) sp
    in
    List.iter ledger_line ledger;
    let wall rs = med (List.map (fun r -> float_of_int (r.batcher_ns + r.openloop_ns)) rs) in
    say "  tracing overhead: traced %.3f s vs untraced %.3f s per set" (wall traced /. 1e9) (wall plain /. 1e9);
    let ops = List.length traced * (List.length cells + List.length svc_ps) in
    let universal =
      setup_rows
      @ [
          metric "trace.overhead_pct" "%" (pct_change ~base:(wall plain) (wall traced));
          metric "tail.p99_us" "us" ((svc_all r 8).Svc.Latency.p99_ns /. 1e3);
          metric "batch.size_mean" "ops"
            (float_of_int (sum (fun m -> m.Sim.Metrics.batch_size_total))
            /. float_of_int (max 1 (sum (fun m -> m.Sim.Metrics.batches))));
          metric "batch.size_max" "ops"
            (float_of_int (List.fold_left (fun a m -> max a m.Sim.Metrics.max_batch_size) 0 all_cells));
        ]
      @ Gcwatch.metrics gw ~ops ~windows:(List.map (fun r -> (r.t0, r.t0 + r.batcher_ns + r.openloop_ns)) traced)
    in
    (tl, universal)
  end
