(* Tests for the service workload subsystem: statistical sanity of the
   generator (Zipf skew, Poisson/burst arrival rates), byte-identical
   replay from a fixed seed, the open-loop virtual-clock engine, and
   the driver/report plumbing. The generator's RNG is the repo's own
   deterministic Xoshiro, so the statistical assertions are exact
   reruns — tolerances guard against algorithmic drift, not against
   sampling luck. *)

module Gen = Svc.Gen

let fi = float_of_int

(* ---------- Zipf sampler ---------- *)

(* Rank-frequency must be monotone (up to noise): bucket the ranks
   logarithmically and require each bucket's *per-rank* mass to exceed
   the next bucket's. 200k draws over 1000 ranks at theta = 0.99 puts
   thousands of samples in every bucket, so a violation means the
   sampler is wrong, not unlucky. *)
let test_zipf_rank_frequency_monotone () =
  let n = 1000 and draws = 200_000 in
  let z = Gen.zipf ~n ~theta:0.99 in
  let rng = Util.Rng.create ~seed:7 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Gen.zipf_sample rng z in
    Alcotest.(check bool) "rank in range" true (r >= 0 && r < n);
    counts.(r) <- counts.(r) + 1
  done;
  let bucket lo hi =
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + counts.(i)
    done;
    fi !s /. fi (hi - lo)
  in
  let buckets =
    [ bucket 0 1; bucket 1 10; bucket 10 100; bucket 100 1000 ]
  in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool)
          (Printf.sprintf "per-rank mass decreasing (%.1f > %.1f)" a b)
          true (a > b);
        monotone rest
    | _ -> ()
  in
  monotone buckets;
  (* The head must dominate: rank 0 carries orders of magnitude more
     than a mid-tail rank at theta ~ 1. *)
  Alcotest.(check bool) "rank 0 dominates rank 500" true
    (counts.(0) > 20 * max 1 counts.(500))

(* theta = 0 must degenerate to uniform: every rank within 25% of the
   uniform expectation (80k draws over 100 ranks = 800 expected per
   rank, sd ~ 28, so 25% = 7 sd). *)
let test_zipf_theta0_uniform () =
  let n = 100 and draws = 80_000 in
  let z = Gen.zipf ~n ~theta:0.0 in
  let rng = Util.Rng.create ~seed:11 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Gen.zipf_sample rng z in
    counts.(r) <- counts.(r) + 1
  done;
  let expect = fi draws /. fi n in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "rank %d count %d ~ uniform %.0f" i c expect)
        true
        (fi c > 0.75 *. expect && fi c < 1.25 *. expect))
    counts

(* The theta ~ 1 harmonic special case must not crash or leave the
   range (it switches H to ln x internally). *)
let test_zipf_theta_one () =
  let z = Gen.zipf ~n:5000 ~theta:1.0 in
  let rng = Util.Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let r = Gen.zipf_sample rng z in
    Alcotest.(check bool) "in range at theta=1" true (r >= 0 && r < 5000)
  done

(* scramble is a bijection on [0, n): mapping every rank must hit
   every key exactly once — for n both a power of two and odd. *)
let test_scramble_bijection () =
  List.iter
    (fun n ->
      let seen = Array.make n false in
      for r = 0 to n - 1 do
        let k = Gen.scramble ~n_keys:n r in
        Alcotest.(check bool) "key in range" true (k >= 0 && k < n);
        Alcotest.(check bool)
          (Printf.sprintf "n=%d key %d hit once" n k)
          false seen.(k);
        seen.(k) <- true
      done)
    [ 16_384; 99_991; 1000 ]

(* ---------- arrival process ---------- *)

(* Plain Poisson: the realized count over a long horizon must sit
   within 3% of rate x duration (sd/mean ~ 0.3% here). *)
let test_poisson_mean_rate () =
  let g = Gen.make ~theta:0.5 ~seed:123 ~n_keys:1000 ~rate:50_000.0 () in
  let reqs = Gen.generate g ~duration_s:2.0 in
  let n = fi (Array.length reqs) in
  let expect = 100_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "poisson count %.0f ~ %.0f" n expect)
    true
    (n > 0.97 *. expect && n < 1.03 *. expect);
  (* arrival order, in-horizon stamps *)
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) "stamp in horizon" true
        (r.Gen.arrive_ns >= 0 && r.Gen.arrive_ns < 2_000_000_000);
      if i > 0 then
        Alcotest.(check bool) "arrival order" true
          (reqs.(i - 1).Gen.arrive_ns <= r.Gen.arrive_ns))
    reqs

(* On/off bursts: over a horizon covering many episodes, the realized
   rate must approach expected_rate (within 15% — ~100 exponential
   episodes of variance). *)
let test_burst_mean_rate () =
  let burst = Some { Gen.on_s = 0.05; off_s = 0.15; mult = 3.0 } in
  let g = Gen.make ~theta:0.5 ~burst ~seed:17 ~n_keys:1000 ~rate:20_000.0 () in
  let dur = 20.0 in
  let expect = Gen.expected_rate g *. dur in
  Alcotest.(check (float 0.001)) "expected_rate formula" 30_000.0
    (Gen.expected_rate g);
  let n = fi (Array.length (Gen.generate g ~duration_s:dur)) in
  Alcotest.(check bool)
    (Printf.sprintf "burst count %.0f ~ %.0f" n expect)
    true
    (n > 0.85 *. expect && n < 1.15 *. expect)

(* ---------- replay determinism ---------- *)

let test_replay_identical () =
  let mk seed =
    Gen.make ~theta:0.99
      ~burst:(Some { Gen.on_s = 0.1; off_s = 0.3; mult = 4.0 })
      ~locality:0.2 ~recent_window:64 ~seed ~n_keys:100_000 ~rate:30_000.0 ()
  in
  let g = mk 42 in
  let a = Gen.generate_n g ~n:5_000 in
  let b = Gen.generate_n g ~n:5_000 in
  Alcotest.(check bool) "same seed, same stream" true (a = b);
  let c = Gen.generate g ~duration_s:0.05 in
  let d = Gen.generate g ~duration_s:0.05 in
  Alcotest.(check bool) "generate replays too" true (c = d);
  (* generate and generate_n walk one stream: the horizon run is a
     prefix of the counted run *)
  let e = Gen.generate_n g ~n:(Array.length c) in
  Alcotest.(check bool) "same stream prefix" true (c = e);
  let other = Gen.generate_n (mk 43) ~n:5_000 in
  Alcotest.(check bool) "different seed differs" true (a <> other)

let test_locality_replays_recent () =
  (* With locality = 1 every draw past the first replays the ring, so a
     tiny window forces repeats. *)
  let g =
    Gen.make ~theta:0.5 ~locality:1.0 ~recent_window:4 ~seed:5
      ~n_keys:1_000_000 ~rate:10_000.0 ()
  in
  let reqs = Gen.generate_n g ~n:200 in
  let distinct = Hashtbl.create 16 in
  Array.iter (fun r -> Hashtbl.replace distinct r.Gen.key ()) reqs;
  Alcotest.(check bool)
    (Printf.sprintf "only %d distinct keys" (Hashtbl.length distinct))
    true
    (Hashtbl.length distinct <= 8)

(* ---------- open-loop virtual-clock engine ---------- *)

let openloop_fixture () =
  let g = Gen.make ~theta:0.9 ~seed:9 ~n_keys:10_000 ~rate:40_000.0 () in
  let reqs = Gen.generate_n g ~n:400 in
  let shards = 2 in
  let olreqs =
    Array.map
      (fun r ->
        {
          Sim.Openloop.at = r.Gen.arrive_ns / 1000;
          shard = Batched.Shard.route ~shards r.Gen.key;
          cls = Gen.class_index r.Gen.cls;
        })
      reqs
  in
  let models =
    Array.init shards (fun _ ->
        Batched.Skiplist.sim_model ~initial_size:4096 ())
  in
  (olreqs, models)

let test_openloop_deterministic () =
  let olreqs, models = openloop_fixture () in
  let cfg = Sim.Openloop.config ~p:4 ~shards:2 () in
  let r1 = Sim.Openloop.run cfg ~models olreqs in
  let r2 = Sim.Openloop.run cfg ~models olreqs in
  Alcotest.(check bool) "waits identical" true
    (r1.Sim.Openloop.waits = r2.Sim.Openloop.waits);
  Alcotest.(check int) "makespan identical" r1.Sim.Openloop.makespan
    r2.Sim.Openloop.makespan;
  Alcotest.(check int) "batches identical" r1.Sim.Openloop.batches
    r2.Sim.Openloop.batches

let test_openloop_sanity () =
  let olreqs, models = openloop_fixture () in
  let cfg = Sim.Openloop.config ~p:4 ~shards:2 () in
  let r = Sim.Openloop.run cfg ~models olreqs in
  let n = Array.length olreqs in
  Alcotest.(check int) "every request served" n
    (Array.length r.Sim.Openloop.waits);
  Array.iter
    (fun w -> Alcotest.(check bool) "wait positive" true (w > 0))
    r.Sim.Openloop.waits;
  Alcotest.(check int) "per-shard ops conserve" n
    (Array.fold_left ( + ) 0 r.Sim.Openloop.per_shard_ops);
  Alcotest.(check bool) "cap respected" true
    (r.Sim.Openloop.max_batch <= cfg.Sim.Openloop.batch_cap);
  Alcotest.(check bool) "makespan past last arrival" true
    (r.Sim.Openloop.makespan
    >= Array.fold_left (fun a q -> max a q.Sim.Openloop.at) 0 olreqs);
  (* The wait tail must stay within the composed Theorem-1 budget. *)
  let wait_max = Array.fold_left max 0 r.Sim.Openloop.waits in
  (match
     Check.Bound.service_check ~p:4 ~wait_max
       ~total_work:r.Sim.Openloop.total_work
       ~per_shard_ops:r.Sim.Openloop.per_shard_ops
       ~per_shard_span:r.Sim.Openloop.per_shard_span_max
       ~m:r.Sim.Openloop.max_batches_seen ()
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* More workers never slow the virtual clock down. *)
  let r64 =
    Sim.Openloop.run (Sim.Openloop.config ~p:64 ~shards:2 ()) ~models olreqs
  in
  Alcotest.(check bool) "P=64 makespan <= P=4" true
    (r64.Sim.Openloop.makespan <= r.Sim.Openloop.makespan)

(* The what-if cost knobs that only Openloop honors: sched delay and
   its multiplier, and the per-shard worker share. Every assertion is
   exact — same request array, virtual clock. *)
let test_openloop_costs () =
  let olreqs, models = openloop_fixture () in
  let run ?costs ?sched_delay ~p () =
    Sim.Openloop.run ?costs
      (Sim.Openloop.config ?sched_delay ~p ~shards:2 ())
      ~models olreqs
  in
  let total r = Array.fold_left ( + ) 0 r.Sim.Openloop.waits in
  let base = run ~p:8 () in
  (* A virtual BOP speedup strictly helps a loaded system... *)
  let fast =
    run ~costs:{ Sim.Costs.identity with Sim.Costs.bop_work = 0.5 } ~p:8 ()
  in
  Alcotest.(check bool) "bop /2 cuts total wait" true (total fast < total base);
  (* ...and a span-only speedup never hurts. *)
  let fast_span =
    run ~costs:{ Sim.Costs.identity with Sim.Costs.bop_span = 0.5 } ~p:8 ()
  in
  Alcotest.(check bool) "span /2 never hurts" true
    (total fast_span <= total base);
  (* Dispatch delay charges every batch; the sched knob multiplies it. *)
  let delayed = run ~sched_delay:50 ~p:8 () in
  Alcotest.(check bool) "sched_delay adds wait" true
    (total delayed > total base);
  let delayed2 =
    run ~sched_delay:50
      ~costs:{ Sim.Costs.identity with Sim.Costs.sched = 2.0 }
      ~p:8 ()
  in
  Alcotest.(check bool) "sched x2 adds more" true
    (total delayed2 > total delayed);
  (* The share knob is expressible even at P = 1, where the pre-scale
     clamp already sits at its floor: granting a shard 4x the worker
     share must strictly cut waits on this loaded fixture. *)
  let p1 = run ~p:1 () in
  let p1_boost =
    run ~costs:{ Sim.Costs.identity with Sim.Costs.p_share = 4.0 } ~p:1 ()
  in
  Alcotest.(check bool) "share x4 at P=1 cuts wait" true
    (total p1_boost < total p1)

(* An idle system (arrivals far apart) must show the paper's Lemma-2
   figure: at most own batch + one in flight. *)
let test_openloop_lemma2_when_underloaded () =
  let olreqs =
    Array.init 50 (fun i -> { Sim.Openloop.at = i * 100_000; shard = 0; cls = 0 })
  in
  let models = [| Batched.Counter.sim_model () |] in
  let r =
    Sim.Openloop.run (Sim.Openloop.config ~p:4 ~shards:1 ()) ~models olreqs
  in
  Alcotest.(check bool)
    (Printf.sprintf "m = %d <= 2" r.Sim.Openloop.max_batches_seen)
    true
    (r.Sim.Openloop.max_batches_seen <= 2)

(* ---------- sim driver end-to-end ---------- *)

let smoke () =
  match Svc.Scenario.find "smoke" with
  | Some sc -> sc
  | None -> Alcotest.fail "smoke scenario missing"

let test_sim_driver_smoke () =
  let sc = smoke () in
  let pt = Svc.Sim_driver.run_point sc ~p:4 in
  Alcotest.(check int) "all requests" sc.Svc.Scenario.sim_requests
    pt.Svc.Sim_driver.requests;
  (match pt.Svc.Sim_driver.bound with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let all = Svc.Latency.all_of pt.Svc.Sim_driver.classes in
  Alcotest.(check bool) "p50 <= p99" true
    (all.Svc.Latency.p50_ns <= all.Svc.Latency.p99_ns);
  Alcotest.(check bool) "p99 <= p999" true
    (all.Svc.Latency.p99_ns <= all.Svc.Latency.p999_ns);
  Alcotest.(check bool) "p999 <= max" true
    (all.Svc.Latency.p999_ns <= all.Svc.Latency.max_ns);
  Alcotest.(check bool) "non-degenerate tail" true
    (all.Svc.Latency.p50_ns < all.Svc.Latency.p999_ns);
  Alcotest.(check bool) "goodput positive" true
    (pt.Svc.Sim_driver.goodput > 0.0);
  (* Determinism across driver invocations. *)
  let pt2 = Svc.Sim_driver.run_point sc ~p:4 in
  Alcotest.(check (float 0.0)) "deterministic p999"
    all.Svc.Latency.p999_ns
    (Svc.Latency.all_of pt2.Svc.Sim_driver.classes).Svc.Latency.p999_ns

(* ---------- runtime driver, tiny ---------- *)

let test_rt_driver_tiny () =
  let sc = smoke () in
  let pt = Svc.Rt_driver.run_point ~workers:2 ~duration_s:0.3 sc ~shards:1 in
  Alcotest.(check bool) "served some requests" true
    (pt.Svc.Rt_driver.requests > 100);
  Alcotest.(check bool) "goodput positive" true (pt.Svc.Rt_driver.goodput > 0.0);
  Alcotest.(check bool) "batches ran" true (pt.Svc.Rt_driver.batches > 0);
  let all = Svc.Latency.all_of pt.Svc.Rt_driver.classes in
  Alcotest.(check int) "every request measured" pt.Svc.Rt_driver.requests
    all.Svc.Latency.requests;
  Alcotest.(check bool) "latencies positive" true (all.Svc.Latency.p50_ns > 0.0);
  Alcotest.(check bool) "ordered digests" true
    (all.Svc.Latency.p50_ns <= all.Svc.Latency.p99_ns
    && all.Svc.Latency.p99_ns <= all.Svc.Latency.p999_ns
    && all.Svc.Latency.p999_ns <= all.Svc.Latency.max_ns)

let test_sweep_goodput_within_offered () =
  (* Offered load is each point's generated schedule, bursts included,
     so no swept point can deliver more than it was offered. *)
  let sw =
    Svc.Sweep.run ~mults:[ 0.5; 2.0 ] ~workers:2 ~duration_s:0.3 (smoke ())
  in
  List.iter
    (fun (p : Svc.Sweep.point) ->
      let offered = p.Svc.Sweep.pt.Svc.Rt_driver.offered
      and goodput = p.Svc.Sweep.pt.Svc.Rt_driver.goodput in
      Alcotest.(check bool)
        (Printf.sprintf "x%g: goodput %.0f <= offered %.0f * 1.01" p.Svc.Sweep.mult goodput
           offered)
        true
        (offered > 0.0 && goodput <= offered *. 1.01))
    sw.Svc.Sweep.points

(* ---------- per-request span traces through the drivers ---------- *)

(* The acceptance property of the anatomy subsystem: on a real traced
   run, every completed span's phases sum exactly to its measured
   latency with every term nonnegative — under every batch-path mode,
   since each publishes/overflows differently. *)
let test_rt_driver_trace_conservation () =
  let sc = smoke () in
  List.iter
    (fun mode ->
      let name = Runtime.Batcher_rt.mode_name mode in
      let pt =
        Svc.Rt_driver.run_point ~workers:2 ~duration_s:0.2 ~mode ~trace:true sc
          ~shards:2
      in
      let rt = pt.Svc.Rt_driver.trace in
      Alcotest.(check bool) (name ^ ": trace enabled") true
        (Obs.Reqtrace.enabled rt);
      (match Obs.Reqtrace.check rt with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: span conservation: %s" name e);
      Alcotest.(check int)
        (name ^ ": every request completed a span")
        pt.Svc.Rt_driver.requests (Obs.Reqtrace.completed rt);
      (* Aggregates inherit the per-span identity. *)
      let tt = Obs.Reqtrace.totals rt in
      Alcotest.(check int) (name ^ ": totals cover the run")
        pt.Svc.Rt_driver.requests tt.Obs.Reqtrace.n;
      Alcotest.(check int)
        (name ^ ": phase totals sum to latency total")
        tt.Obs.Reqtrace.t_latency
        (tt.Obs.Reqtrace.t_queue + tt.Obs.Reqtrace.t_sched
        + tt.Obs.Reqtrace.t_pending + tt.Obs.Reqtrace.t_exec);
      (* The reservoir's worst latency brackets the digest's max: the
         trace stamps completion just after the driver measures the
         request, so it reads >= the digest figure, and by no more
         than scheduling skew between two adjacent stamps. *)
      let all = Svc.Latency.all_of pt.Svc.Rt_driver.classes in
      match Obs.Reqtrace.slowest rt with
      | worst :: _ ->
          let w = fi worst.Obs.Reqtrace.latency_ns in
          Alcotest.(check bool)
            (Printf.sprintf "%s: reservoir worst %.0f ~ digest max %.0f" name w
               all.Svc.Latency.max_ns)
            true
            (w >= all.Svc.Latency.max_ns
            && w <= all.Svc.Latency.max_ns +. 100_000_000.0)
      | [] -> Alcotest.fail (name ^ ": empty reservoir"))
    Runtime.Batcher_rt.all_modes

let test_sim_driver_trace_conservation () =
  let sc = smoke () in
  let pt = Svc.Sim_driver.run_point ~trace:true sc ~p:4 in
  let rt = pt.Svc.Sim_driver.trace in
  Alcotest.(check bool) "trace enabled" true (Obs.Reqtrace.enabled rt);
  (match Obs.Reqtrace.check rt with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sim span conservation: %s" e);
  Alcotest.(check int) "every sim request has a span"
    pt.Svc.Sim_driver.requests (Obs.Reqtrace.completed rt);
  (* Virtual clock: no queue/sched phases, everything is pending+exec,
     and batches_seen stays within the open-loop engine's recorded max. *)
  let tt = Obs.Reqtrace.totals rt in
  Alcotest.(check int) "no queue phase on the virtual clock" 0
    tt.Obs.Reqtrace.t_queue;
  Alcotest.(check int) "no sched phase on the virtual clock" 0
    tt.Obs.Reqtrace.t_sched;
  Alcotest.(check int) "pending + exec = latency" tt.Obs.Reqtrace.t_latency
    (tt.Obs.Reqtrace.t_pending + tt.Obs.Reqtrace.t_exec);
  (* Determinism: the traced rerun reproduces the same totals. *)
  let pt2 = Svc.Sim_driver.run_point ~trace:true sc ~p:4 in
  let tt2 = Obs.Reqtrace.totals pt2.Svc.Sim_driver.trace in
  Alcotest.(check int) "deterministic trace totals" tt.Obs.Reqtrace.t_latency
    tt2.Obs.Reqtrace.t_latency

(* ---------- latency digests ---------- *)

let test_latency_digest () =
  let samples = Array.init 1000 (fun i -> fi (i + 1)) in
  let classes = Svc.Latency.of_samples [ ("get", samples); ("put", [||]) ] in
  Alcotest.(check int) "empty class dropped, all added" 2
    (List.length classes);
  let all = Svc.Latency.all_of classes in
  Alcotest.(check (float 0.5)) "p50 exact" 500.5 all.Svc.Latency.p50_ns;
  Alcotest.(check (float 0.5)) "p99 exact" 990.01 all.Svc.Latency.p99_ns;
  Alcotest.(check (float 0.0)) "max exact" 1000.0 all.Svc.Latency.max_ns;
  Alcotest.(check bool) "1000 samples: p999 interpolated" false
    all.Svc.Latency.p999_approx

let test_latency_p999_small_sample () =
  (* Below 1000 samples the 99.9th percentile is interpolation noise;
     the digest must report the observed max and flag it approximate. *)
  let samples = Array.init 500 (fun i -> fi (i + 1)) in
  let classes = Svc.Latency.of_samples [ ("get", samples) ] in
  let all = Svc.Latency.all_of classes in
  Alcotest.(check bool) "small sample flagged" true all.Svc.Latency.p999_approx;
  Alcotest.(check (float 0.0)) "p999 = max" all.Svc.Latency.max_ns
    all.Svc.Latency.p999_ns;
  let get =
    List.find (fun c -> c.Svc.Latency.cls = "get") classes
  in
  Alcotest.(check bool) "per-class flagged too" true
    get.Svc.Latency.p999_approx;
  (* At exactly 1000 the interpolated path takes over. *)
  let big = Array.init 1000 (fun i -> fi (i + 1)) in
  let all2 = Svc.Latency.all_of (Svc.Latency.of_samples [ ("get", big) ]) in
  Alcotest.(check bool) "1000 samples exact" false all2.Svc.Latency.p999_approx;
  Alcotest.(check bool) "interpolated p999 below max" true
    (all2.Svc.Latency.p999_ns < all2.Svc.Latency.max_ns)

let test_latency_empty_run () =
  (* Zero samples anywhere must yield a well-formed all-zero "all"
     digest — no nan, no Not_found — so empty-run reporting works. *)
  let classes = Svc.Latency.of_samples [] in
  Alcotest.(check int) "all digest present" 1 (List.length classes);
  let all = Svc.Latency.all_of classes in
  Alcotest.(check int) "zero requests" 0 all.Svc.Latency.requests;
  Alcotest.(check bool) "approx on empty" true all.Svc.Latency.p999_approx;
  List.iter
    (fun v ->
      Alcotest.(check bool) "finite zero" true (v = 0.0 && not (Float.is_nan v)))
    [
      all.Svc.Latency.p50_ns; all.Svc.Latency.p99_ns; all.Svc.Latency.p999_ns;
      all.Svc.Latency.mean_ns; all.Svc.Latency.max_ns;
    ]

(* ---------- snapshot extra fields ---------- *)

let test_snapshot_extra_fields () =
  let path = Filename.temp_file "svc_snap" ".jsonl" in
  let rc = Obs.Recorder.create ~capacity:64 ~clock:Obs.Recorder.Nanoseconds ~workers:1 () in
  let snap =
    Obs.Snapshot.to_file
      ~extra:(fun () -> [ ("svc_queue_depth", Obs.Json.Int 17) ])
      rc ~path
  in
  Obs.Snapshot.sample snap;
  Obs.Snapshot.close snap;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  (match Obs.Json.parse line with
  | Ok j -> (
      match Obs.Json.member "svc_queue_depth" j with
      | Some (Obs.Json.Int 17) -> ()
      | _ -> Alcotest.fail "extra field missing or wrong")
  | Error e -> Alcotest.fail ("unparseable snapshot line: " ^ e))

(* ---------- report merge ---------- *)

let row ~scenario v =
  Obs.Json.Obj
    [
      ("exec", Obs.Json.Str "sim");
      ("scenario", Obs.Json.Str scenario);
      ("cls", Obs.Json.Str "all");
      ("p99_ns", Obs.Json.Float v);
    ]

let svc_rows j =
  match Obs.Json.member "experiments" j with
  | Some (Obs.Json.List exps) -> (
      match
        List.find_opt
          (fun e -> Obs.Json.member "id" e = Some (Obs.Json.Str "SVC"))
          exps
      with
      | Some e -> (
          match Obs.Json.member "rows" e with
          | Some (Obs.Json.List rows) -> rows
          | _ -> [])
      | None -> [])
  | _ -> []

let test_report_merge_preserves () =
  let path = Filename.temp_file "svc_bench" ".json" in
  (* Seed the file with a foreign experiment that must survive. *)
  Batcher_core.Report_json.write_file ~path
    (Obs.Json.Obj
       [
         ("schema_version", Obs.Json.Int 1);
         ( "experiments",
           Obs.Json.List
             [
               Obs.Json.Obj
                 [ ("id", Obs.Json.Str "E1"); ("rows", Obs.Json.List []) ];
             ] );
       ]);
  Svc.Report.merge_svc ~path ~scenario:"a" [ row ~scenario:"a" 1.0 ];
  Svc.Report.merge_svc ~path ~scenario:"b" [ row ~scenario:"b" 2.0 ];
  (* Re-running scenario a replaces its rows, keeps b's. *)
  Svc.Report.merge_svc ~path ~scenario:"a" [ row ~scenario:"a" 3.0 ];
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  match Obs.Json.parse s with
  | Error e -> Alcotest.fail e
  | Ok j ->
      let rows = svc_rows j in
      Alcotest.(check int) "one row per scenario" 2 (List.length rows);
      let p99_of scen =
        List.find_map
          (fun r ->
            if Obs.Json.member "scenario" r = Some (Obs.Json.Str scen) then
              Option.bind (Obs.Json.member "p99_ns" r) Obs.Json.to_float_opt
            else None)
          rows
      in
      Alcotest.(check (option (float 0.0))) "a replaced" (Some 3.0) (p99_of "a");
      Alcotest.(check (option (float 0.0))) "b kept" (Some 2.0) (p99_of "b");
      (match Obs.Json.member "experiments" j with
      | Some (Obs.Json.List exps) ->
          Alcotest.(check int) "foreign experiment preserved" 2
            (List.length exps)
      | _ -> Alcotest.fail "experiments missing")

(* ---------- identity costs reproduce the pre-causal engine ---------- *)

(* Golden digests captured on the standard scenario BEFORE Sim.Costs
   was threaded through Sim.Openloop (commit 36b5f90, bin of the
   then-current tree): the causal-profiling cost knobs at their
   identity values must reproduce the old engine to the byte —
   Costs.scale with factor 1.0 returns its input unchanged, so not
   one wait, launch-wait or batches-seen figure may move. *)
let golden_standard =
  [
    (1, (241060, 20000, 1, 420000, 1038, 1874, 3101757911089112640));
    (8, (197787, 8945, 8, 795690, 3, 38, 535926878363528104));
    (64, (197758, 9628, 10, 4059384, 2, 28, 512954716549816802));
  ]

let openloop_digest (r : Sim.Openloop.result) =
  let h = ref 17 in
  let mix v = h := (!h * 1000003) lxor v land 0x3FFFFFFFFFFFFFFF in
  Array.iter mix r.Sim.Openloop.waits;
  Array.iter mix r.Sim.Openloop.launch_waits;
  Array.iter mix r.Sim.Openloop.batches_seen;
  !h

let test_identity_costs_golden () =
  let sc =
    match Svc.Scenario.find "standard" with
    | Some sc -> sc
    | None -> Alcotest.fail "standard scenario missing"
  in
  let (module S : Svc.Store.STORE) = sc.Svc.Scenario.store in
  let shards = sc.Svc.Scenario.sim_shards in
  let unit_ns = sc.Svc.Scenario.sim_ns_per_unit in
  let reqs =
    Gen.generate_n (Svc.Scenario.gen_sim sc) ~n:sc.Svc.Scenario.sim_requests
  in
  let olreqs =
    Array.map
      (fun (r : Gen.request) ->
        {
          Sim.Openloop.at = r.Gen.arrive_ns / unit_ns;
          shard = Batched.Shard.route ~shards r.Gen.key;
          cls = Gen.class_index r.Gen.cls;
        })
      reqs
  in
  List.iter
    (fun (p, (makespan, batches, max_batch, total_work, m, in_sys, dg)) ->
      let run costs =
        let models =
          Array.init shards (fun i ->
              S.model ~n_keys:sc.Svc.Scenario.n_keys ~shards i)
        in
        Sim.Openloop.run ?costs (Sim.Openloop.config ~p ~shards ()) ~models
          olreqs
      in
      (* Both the default path and an explicit identity Costs.t. *)
      List.iter
        (fun (label, costs) ->
          let r = run costs in
          Alcotest.(check int) (label ^ ": makespan") makespan
            r.Sim.Openloop.makespan;
          Alcotest.(check int) (label ^ ": batches") batches
            r.Sim.Openloop.batches;
          Alcotest.(check int) (label ^ ": max_batch") max_batch
            r.Sim.Openloop.max_batch;
          Alcotest.(check int) (label ^ ": total_work") total_work
            r.Sim.Openloop.total_work;
          Alcotest.(check int) (label ^ ": m") m
            r.Sim.Openloop.max_batches_seen;
          Alcotest.(check int) (label ^ ": max_in_system") in_sys
            r.Sim.Openloop.max_in_system;
          Alcotest.(check int) (label ^ ": per-request digest") dg
            (openloop_digest r))
        [
          (Printf.sprintf "P=%d default" p, None);
          (Printf.sprintf "P=%d identity" p, Some Sim.Costs.identity);
        ])
    golden_standard

(* ---------- causal what-if profile, sim leg ---------- *)

let test_causal_sim_profile () =
  let sc = smoke () in
  let r = Svc.Causal.run_sim ~factors:[ 2.0; 4.0 ] sc in
  Alcotest.(check (list string)) "no conservation/bound errors" []
    r.Svc.Causal.errors;
  let p = r.Svc.Causal.profile in
  Alcotest.(check int) "full grid" (6 * 2)
    (List.length p.Obs.Causal.cells);
  (* Every sim cell carries the Theorem-1 comparison... *)
  List.iter
    (fun (c : Obs.Causal.cell) ->
      Alcotest.(check bool)
        (c.Obs.Causal.phase ^ ": cell bound evaluated")
        true
        (not (Float.is_nan c.Obs.Causal.m.Obs.Causal.bound_ns));
      Alcotest.(check bool)
        (c.Obs.Causal.phase ^ ": d_bound evaluated")
        true
        (not (Float.is_nan c.Obs.Causal.d_bound)))
    p.Obs.Causal.cells;
  (* ...and both winner verdicts resolve. *)
  Alcotest.(check bool) "measured winner" true
    (p.Obs.Causal.winner_measured <> None);
  Alcotest.(check bool) "bound winner" true
    (p.Obs.Causal.winner_bound <> None);
  Alcotest.(check bool) "agreement verdict present" true
    (p.Obs.Causal.agree <> None);
  (* The smoke scenario at its overloaded P demonstrates the point of
     causal profiling: at least one phase's measured sensitivity
     diverges from its Reqtrace latency share. *)
  Alcotest.(check bool) "shares != sensitivity somewhere" true
    (p.Obs.Causal.divergent <> []);
  (* Exact determinism: the whole profile, rows included, replays. *)
  let r2 = Svc.Causal.run_sim ~factors:[ 2.0; 4.0 ] sc in
  (* Structural compare, not (=): the share knob's share_predicted/
     divergence are NaN by design, and NaN = NaN is false while
     compare treats them equal. *)
  Alcotest.(check int) "profile deterministic" 0
    (compare r.Svc.Causal.profile r2.Svc.Causal.profile);
  Alcotest.(check int) "rows deterministic" 0
    (compare r.Svc.Causal.rows r2.Svc.Causal.rows)

(* The runtime leg's delay injection must keep every Reqtrace stamp a
   real clock reading: span conservation holds on an injected run. *)
let test_rt_inject_conservation () =
  let sc = smoke () in
  let pt =
    Svc.Rt_driver.run_point ~workers:2 ~duration_s:0.2 ~trace:true
      ~inject:
        {
          Runtime.Batcher_rt.slow_submit = 2.0;
          slow_setup = 1.5;
          slow_bop = 2.0;
        }
      sc ~shards:2
  in
  Alcotest.(check bool) "served some requests" true
    (pt.Svc.Rt_driver.requests > 100);
  match Obs.Reqtrace.check pt.Svc.Rt_driver.trace with
  | Ok () -> ()
  | Error e -> Alcotest.failf "injected span conservation: %s" e

(* ---------- stores ---------- *)

let test_store_registry () =
  List.iter
    (fun name ->
      match Svc.Store.find name with
      | Some (module S : Svc.Store.STORE) ->
          Alcotest.(check string) "name matches" name S.name
      | None -> Alcotest.fail ("missing store " ^ name))
    [ "skiplist"; "hashtable"; "two_three" ];
  Alcotest.(check bool) "unknown store rejected" true
    (Svc.Store.find "btree" = None)

let test_mix_folding () =
  let m = Gen.fold_range_into_get Gen.default_mix in
  Alcotest.(check (float 1e-9)) "range zero" 0.0 m.Gen.range;
  Alcotest.(check (float 1e-9)) "share conserved"
    (Gen.default_mix.Gen.get +. Gen.default_mix.Gen.range)
    m.Gen.get

(* ---------- qcheck properties ---------- *)

let qcheck_zipf_in_range =
  QCheck.Test.make ~name:"zipf sample always lands in [0,n)" ~count:200
    QCheck.(pair (1 -- 5_000) (0 -- 300))
    (fun (n, theta_pct) ->
      let z = Gen.zipf ~n ~theta:(fi theta_pct /. 100.0) in
      let rng = Util.Rng.create ~seed:(n + theta_pct) in
      let ok = ref true in
      for _ = 1 to 50 do
        let r = Gen.zipf_sample rng z in
        if r < 0 || r >= n then ok := false
      done;
      !ok)

let qcheck_replay =
  QCheck.Test.make ~name:"generate_n replays byte-identically per seed"
    ~count:60
    QCheck.(0 -- 1_000_000)
    (fun seed ->
      let g = Gen.make ~seed ~n_keys:10_000 ~rate:25_000.0 () in
      Gen.generate_n g ~n:200 = Gen.generate_n g ~n:200)

(* merge_experiment is the report files' only writer, so its two
   contracts get property coverage: re-merging the same rows is
   idempotent (CI re-runs must not churn the file), and merging
   scenario A neither drops nor reorders scenario B's rows (nor any
   foreign experiment). Rows are synthesized with varying counts and
   metric values; the file is round-tripped through disk each time,
   like the real thing. *)

let synth_rows ~scenario ~salt n =
  List.init n (fun i ->
      Obs.Json.Obj
        [
          ("exec", Obs.Json.Str "sim");
          ("scenario", Obs.Json.Str scenario);
          ("cls", Obs.Json.Str (Printf.sprintf "c%d" i));
          (* +0.5 keeps the float non-integral: an integral Float
             serializes as "17", which parses back as Int — a
             representation change the properties' structural
             comparisons would false-positive on. *)
          ("p99_ns", Obs.Json.Float (fi ((salt * 31) + i) +. 0.5));
        ])

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_report f =
  let path = Filename.temp_file "svc_merge" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let qcheck_merge_idempotent =
  QCheck.Test.make ~name:"merge_experiment re-merge is idempotent" ~count:30
    QCheck.(pair (0 -- 6) (0 -- 10_000))
    (fun (n, salt) ->
      with_temp_report (fun path ->
          let rows = synth_rows ~scenario:"a" ~salt n in
          Svc.Report.merge_svc ~path ~scenario:"a" rows;
          let once = slurp path in
          Svc.Report.merge_svc ~path ~scenario:"a" rows;
          once = slurp path))

let qcheck_merge_preserves_others =
  QCheck.Test.make
    ~name:"merging A never drops or reorders B's rows" ~count:30
    QCheck.(triple (1 -- 6) (0 -- 6) (0 -- 10_000))
    (fun (nb, na, salt) ->
      with_temp_report (fun path ->
          let b_rows = synth_rows ~scenario:"b" ~salt nb in
          (* A foreign experiment must survive the SVC merges too. *)
          Batcher_core.Report_json.write_file ~path
            (Obs.Json.Obj
               [
                 ("schema_version", Obs.Json.Int 1);
                 ( "experiments",
                   Obs.Json.List
                     [
                       Obs.Json.Obj
                         [
                           ("id", Obs.Json.Str "E1");
                           ( "rows",
                             Obs.Json.List
                               (synth_rows ~scenario:"x" ~salt 2) );
                         ];
                     ] );
               ]);
          Svc.Report.merge_svc ~path ~scenario:"b" b_rows;
          Svc.Report.merge_svc ~path ~scenario:"a"
            (synth_rows ~scenario:"a" ~salt:(salt + 1) na);
          match Obs.Json.parse (slurp path) with
          | Error _ -> false
          | Ok j ->
              let b_after =
                List.filter
                  (fun r ->
                    Obs.Json.member "scenario" r = Some (Obs.Json.Str "b"))
                  (svc_rows j)
              in
              let e1_intact =
                match Obs.Json.member "experiments" j with
                | Some (Obs.Json.List exps) ->
                    List.exists
                      (fun e ->
                        Obs.Json.member "id" e = Some (Obs.Json.Str "E1")
                        && Obs.Json.member "rows" e
                           = Some
                               (Obs.Json.List (synth_rows ~scenario:"x" ~salt 2)))
                      exps
                | _ -> false
              in
              b_after = b_rows && e1_intact))

let () =
  Alcotest.run "service"
    [
      ( "zipf",
        [
          Alcotest.test_case "rank-frequency monotone" `Quick
            test_zipf_rank_frequency_monotone;
          Alcotest.test_case "theta=0 is uniform" `Quick
            test_zipf_theta0_uniform;
          Alcotest.test_case "theta=1 special case" `Quick test_zipf_theta_one;
          Alcotest.test_case "scramble bijection" `Quick
            test_scramble_bijection;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "poisson mean rate" `Quick test_poisson_mean_rate;
          Alcotest.test_case "burst mean rate" `Quick test_burst_mean_rate;
        ] );
      ( "replay",
        [
          Alcotest.test_case "fixed seed is byte-identical" `Quick
            test_replay_identical;
          Alcotest.test_case "locality replays recent keys" `Quick
            test_locality_replays_recent;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "deterministic" `Quick test_openloop_deterministic;
          Alcotest.test_case "sanity + wait bound" `Quick test_openloop_sanity;
          Alcotest.test_case "lemma-2 when underloaded" `Quick
            test_openloop_lemma2_when_underloaded;
          Alcotest.test_case "what-if cost knobs" `Quick test_openloop_costs;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "sim smoke point" `Quick test_sim_driver_smoke;
          Alcotest.test_case "runtime tiny point" `Quick test_rt_driver_tiny;
          Alcotest.test_case "sweep goodput within offered" `Quick
            test_sweep_goodput_within_offered;
        ] );
      ( "reqtrace",
        [
          Alcotest.test_case "runtime span conservation, all modes" `Quick
            test_rt_driver_trace_conservation;
          Alcotest.test_case "sim span conservation, deterministic" `Quick
            test_sim_driver_trace_conservation;
          Alcotest.test_case "injected run conserves spans" `Quick
            test_rt_inject_conservation;
        ] );
      ( "causal",
        [
          Alcotest.test_case "identity costs reproduce pre-causal goldens"
            `Quick test_identity_costs_golden;
          Alcotest.test_case "sim what-if profile" `Quick
            test_causal_sim_profile;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "latency digests exact" `Quick test_latency_digest;
          Alcotest.test_case "p999 small-sample semantics" `Quick
            test_latency_p999_small_sample;
          Alcotest.test_case "empty run digest" `Quick test_latency_empty_run;
          Alcotest.test_case "snapshot extra fields" `Quick
            test_snapshot_extra_fields;
          Alcotest.test_case "report merge preserves" `Quick
            test_report_merge_preserves;
          Alcotest.test_case "store registry" `Quick test_store_registry;
          Alcotest.test_case "mix folding" `Quick test_mix_folding;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_zipf_in_range;
            qcheck_replay;
            qcheck_merge_idempotent;
            qcheck_merge_preserves_others;
          ] );
    ]
