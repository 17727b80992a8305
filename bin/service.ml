(* Open-loop KV-service runner: one named scenario, both executions.

     dune exec bin/service.exe -- --scenario standard
     dune exec bin/service.exe -- --scenario smoke --exec sim
     dune exec bin/service.exe -- --list

   The sim leg sweeps the scenario's worker counts on the virtual
   clock (Sim.Openloop) and cross-checks every point's per-request
   waits against the composed Theorem-1 bound terms
   (Check.Bound.service_check); the runtime leg is a timed open-loop
   run over Pool/Shard_rt per shard count, every request measured from
   its scheduled arrival stamp. SVC rows are merged into the results
   file, preserving other experiments and other scenarios' rows. *)

let usage () =
  prerr_endline
    "usage: service [options]\n\n\
     Runs one service scenario open-loop and merges SVC rows into the\n\
     results file.\n\
    \  --scenario NAME  scenario to run (default standard; see --list)\n\
    \  --list           list scenarios and exit\n\
    \  --exec MODE      sim | runtime | both (default both)\n\
    \  --workers N      runtime pool size (default: recommended count,\n\
    \                   min 2 -- the dispatcher owns a worker)\n\
    \  --duration S     override the runtime leg's measured seconds\n\
    \  --seed N         override the scenario's seed\n\
    \  --out PATH       results file (default BENCH_results.json)\n\
    \  --snapshot PATH  stream Obs.Snapshot JSONL (runtime leg) to PATH\n\
    \  --mode NAME|all  batch-path mode for the runtime leg's shards\n\
    \                   (pending_array | worker_id | par_combine |\n\
    \                   atomic_list; all = head-to-head sweep over every\n\
    \                   mode; default pending_array)\n\
    \  --causal         instead of the normal legs: run the causal\n\
    \                   what-if grid (virtual speedups per phase) on\n\
    \                   the selected executions and merge CAUSAL rows;\n\
    \                   bin/causal.exe is the full-featured front end\n\
    \  --load-sweep     instead of the normal legs: sweep the runtime\n\
    \                   leg over offered-load multipliers (x0.25..x4 of\n\
    \                   rt_rate) per selected mode, find the throughput\n\
    \                   knee, and merge SVC_LOAD rows (latency digest +\n\
    \                   per-phase latency shares per point) into the\n\
    \                   results file\n\
    \  --mults LIST     comma-separated multipliers for --load-sweep\n\
    \                   (default 0.25,0.5,1,2,4)\n\
    \  --quiet          print only failures and the final summary\n\
     Exit status: 0 ok, 1 a sim point escaped the Theorem-1 wait\n\
     budget or a load-sweep/causal point breached span conservation\n\
     or bound evaluation, 2 usage error."

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("service: " ^ m);
      usage ();
      exit 2)
    fmt

let kns ns = Printf.sprintf "%.1f" (ns /. 1e3)

let print_classes ~quiet classes =
  if not quiet then
    List.iter
      (fun (c : Svc.Latency.class_stats) ->
        Printf.printf "    %-6s n=%-7d p50=%sus p99=%sus p999=%sus max=%sus\n"
          c.Svc.Latency.cls c.Svc.Latency.requests
          (kns c.Svc.Latency.p50_ns)
          (kns c.Svc.Latency.p99_ns)
          (kns c.Svc.Latency.p999_ns)
          (kns c.Svc.Latency.max_ns))
      classes

let () =
  let scenario = ref "standard" in
  let list_only = ref false in
  let exec = ref "both" in
  let workers = ref None in
  let duration = ref None in
  let seed = ref None in
  let out = ref "BENCH_results.json" in
  let snapshot = ref None in
  let modes = ref [ Runtime.Batcher_rt.Faa_array ] in
  let causal = ref false in
  let load_sweep = ref false in
  let mults = ref None in
  let quiet = ref false in
  let args = Array.to_list (Array.sub Sys.argv 1 (Array.length Sys.argv - 1)) in
  let rec go = function
    | [] -> ()
    | "--list" :: rest ->
        list_only := true;
        go rest
    | "--quiet" :: rest ->
        quiet := true;
        go rest
    | "--scenario" :: v :: rest ->
        scenario := v;
        go rest
    | "--exec" :: v :: rest ->
        if v <> "sim" && v <> "runtime" && v <> "both" then
          die "--exec expects sim|runtime|both, got %S" v;
        exec := v;
        go rest
    | "--workers" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            workers := Some n;
            go rest
        | _ -> die "--workers expects a positive integer, got %S" v)
    | "--duration" :: v :: rest -> (
        match float_of_string_opt v with
        | Some d when d > 0.0 ->
            duration := Some d;
            go rest
        | _ -> die "--duration expects positive seconds, got %S" v)
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n ->
            seed := Some n;
            go rest
        | _ -> die "--seed expects an integer, got %S" v)
    | "--out" :: v :: rest ->
        out := v;
        go rest
    | "--snapshot" :: v :: rest ->
        snapshot := Some v;
        go rest
    | "--mode" :: v :: rest ->
        (if v = "all" then modes := Runtime.Batcher_rt.all_modes
         else
           match Runtime.Batcher_rt.mode_of_string v with
           | Some m -> modes := [ m ]
           | None -> die "--mode expects a batch-path mode or all, got %S" v);
        go rest
    | "--causal" :: rest ->
        causal := true;
        go rest
    | "--load-sweep" :: rest ->
        load_sweep := true;
        go rest
    | "--mults" :: v :: rest ->
        let parsed =
          List.map
            (fun s ->
              match float_of_string_opt (String.trim s) with
              | Some m when m > 0.0 -> m
              | _ -> die "--mults expects positive numbers, got %S" s)
            (String.split_on_char ',' v)
        in
        if parsed = [] then die "--mults expects at least one multiplier";
        mults := Some parsed;
        go rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | arg :: _ -> die "unknown argument %s" arg
  in
  go args;
  if !list_only then begin
    List.iter
      (fun (s : Svc.Scenario.t) ->
        Printf.printf "%-14s %s\n" s.Svc.Scenario.name
          s.Svc.Scenario.descr)
      Svc.Scenario.all;
    exit 0
  end;
  let sc =
    match Svc.Scenario.find !scenario with
    | Some sc -> sc
    | None ->
        die "unknown scenario %S (have: %s)" !scenario
          (String.concat ", " (Svc.Scenario.names ()))
  in
  let sc =
    match !seed with
    | None -> sc
    | Some s -> { sc with Svc.Scenario.seed = s }
  in
  if !causal then begin
    (* The causal what-if grid rides on the same scenario/report
       plumbing as the normal legs; bin/causal.exe is the
       full-featured front end (per-leg factors, --p, --shards). *)
    let rows = ref [] in
    let errors = ref [] in
    let leg r =
      print_string (Obs.Causal.render r.Svc.Causal.profile);
      rows := !rows @ r.Svc.Causal.rows;
      errors := !errors @ r.Svc.Causal.errors
    in
    if !exec = "sim" || !exec = "both" then begin
      if not !quiet then
        Printf.printf "[svc] causal sim leg: %s\n%!" sc.Svc.Scenario.name;
      leg (Svc.Causal.run_sim sc)
    end;
    if !exec = "runtime" || !exec = "both" then begin
      if not !quiet then
        Printf.printf "[svc] causal runtime leg: %s\n%!" sc.Svc.Scenario.name;
      leg
        (Svc.Causal.run_rt ?workers:!workers ?duration_s:!duration
           ~mode:(List.hd !modes) sc)
    end;
    Svc.Report.merge_causal ~path:!out ~scenario:sc.Svc.Scenario.name !rows;
    Printf.printf "[svc] merged %d CAUSAL rows for %s into %s\n%!"
      (List.length !rows) sc.Svc.Scenario.name !out;
    match !errors with
    | [] -> exit 0
    | fails ->
        List.iter (fun f -> Printf.printf "[svc] FAIL causal: %s\n" f) fails;
        exit 1
  end;
  if !load_sweep then begin
    if not !quiet then
      Printf.printf "[svc] load sweep: %s, modes %s, base rate %.0f req/s\n%!"
        sc.Svc.Scenario.name
        (String.concat ","
           (List.map Runtime.Batcher_rt.mode_name !modes))
        sc.Svc.Scenario.rt_rate;
    let sw =
      Svc.Sweep.run ?mults:!mults ~modes:!modes ?workers:!workers
        ?duration_s:!duration sc
    in
    List.iter
      (fun (p : Svc.Sweep.point) ->
        if not !quiet then begin
          let all = Svc.Latency.all_of p.Svc.Sweep.pt.Svc.Rt_driver.classes in
          Printf.printf
            "  mode=%-13s K=%d x%-4g offered=%7.0f goodput=%7.0f req/s \
             (%.0f%%) p99=%.1fus"
            (Runtime.Batcher_rt.mode_name p.Svc.Sweep.mode)
            p.Svc.Sweep.shards p.Svc.Sweep.mult p.Svc.Sweep.pt.Svc.Rt_driver.offered
            p.Svc.Sweep.pt.Svc.Rt_driver.goodput
            (100.0 *. p.Svc.Sweep.pt.Svc.Rt_driver.goodput
            /. p.Svc.Sweep.pt.Svc.Rt_driver.offered)
            (all.Svc.Latency.p99_ns /. 1e3);
          List.iter
            (fun (name, v) -> Printf.printf " %s=%.0f%%" name (100.0 *. v))
            p.Svc.Sweep.shares;
          print_newline ()
        end)
      sw.Svc.Sweep.points;
    List.iter
      (fun (kn : Svc.Sweep.knee) ->
        Printf.printf "  knee: mode=%-13s K=%d %s\n"
          (Runtime.Batcher_rt.mode_name kn.Svc.Sweep.k_mode)
          kn.Svc.Sweep.k_shards
          (if kn.Svc.Sweep.knee_req_s > 0.0 then
             Printf.sprintf "%.0f req/s (x%g)" kn.Svc.Sweep.knee_req_s
               kn.Svc.Sweep.knee_mult
           else "below the lowest swept rate"))
      sw.Svc.Sweep.knees;
    (* Per-point span conservation is the sweep's self-check: the phase
       shares are only meaningful if every span's phases sum to its
       measured latency. *)
    let breaches =
      List.filter_map
        (fun (p : Svc.Sweep.point) ->
          match Obs.Reqtrace.check p.Svc.Sweep.pt.Svc.Rt_driver.trace with
          | Ok () -> None
          | Error e ->
              Some
                (Printf.sprintf "mode=%s K=%d x%g: %s"
                   (Runtime.Batcher_rt.mode_name p.Svc.Sweep.mode)
                   p.Svc.Sweep.shards p.Svc.Sweep.mult e))
        sw.Svc.Sweep.points
    in
    let rows = Svc.Sweep.rows sw in
    Svc.Report.merge_svc_load ~path:!out ~scenario:sc.Svc.Scenario.name rows;
    Printf.printf "[svc] merged %d SVC_LOAD rows for %s into %s\n%!"
      (List.length rows) sc.Svc.Scenario.name !out;
    match breaches with
    | [] -> exit 0
    | fails ->
        List.iter
          (fun f -> Printf.printf "[svc] FAIL span conservation: %s\n" f)
          fails;
        exit 1
  end;
  let bound_failures = ref [] in
  let all_rows = ref [] in
  if !exec = "sim" || !exec = "both" then begin
    if not !quiet then
      Printf.printf "[svc] sim leg: %s, shards=%d, %d requests, P sweep %s\n%!"
        sc.Svc.Scenario.name sc.Svc.Scenario.sim_shards
        sc.Svc.Scenario.sim_requests
        (String.concat ","
           (List.map string_of_int sc.Svc.Scenario.sim_p));
    List.iter
      (fun (pt : Svc.Sim_driver.point) ->
        if not !quiet then
          Printf.printf
            "  P=%-3d goodput=%.0f req/s batches=%d max_batch=%d m=%d \
             in_system<=%d %s\n"
            pt.Svc.Sim_driver.p pt.Svc.Sim_driver.goodput
            pt.Svc.Sim_driver.batches pt.Svc.Sim_driver.max_batch
            pt.Svc.Sim_driver.max_batches_seen
            pt.Svc.Sim_driver.max_in_system
            (match pt.Svc.Sim_driver.bound with
            | Ok () -> "bound OK"
            | Error _ -> "bound FAIL");
        print_classes ~quiet:!quiet pt.Svc.Sim_driver.classes;
        (match pt.Svc.Sim_driver.bound with
        | Ok () -> ()
        | Error e ->
            bound_failures :=
              Printf.sprintf "P=%d: %s" pt.Svc.Sim_driver.p e
              :: !bound_failures);
        all_rows := !all_rows @ Svc.Report.rows_of_sim sc pt)
      (Svc.Sim_driver.run sc)
  end;
  if !exec = "runtime" || !exec = "both" then begin
    if not !quiet then
      Printf.printf "[svc] runtime leg: %s, K sweep %s, %.1fs measured\n%!"
        sc.Svc.Scenario.name
        (String.concat ","
           (List.map string_of_int sc.Svc.Scenario.rt_shards))
        (match !duration with
        | Some d -> d
        | None -> sc.Svc.Scenario.duration_s);
    List.iter
      (fun mode ->
        List.iter
          (fun (pt : Svc.Rt_driver.point) ->
            if not !quiet then
              Printf.printf
                "  K=%-2d P=%d mode=%-13s n=%d goodput=%.0f req/s batches=%d \
                 max_batch=%d stalls=%d burns=%d\n"
                pt.Svc.Rt_driver.shards pt.Svc.Rt_driver.workers
                (Runtime.Batcher_rt.mode_name pt.Svc.Rt_driver.mode)
                pt.Svc.Rt_driver.requests pt.Svc.Rt_driver.goodput
                pt.Svc.Rt_driver.batches pt.Svc.Rt_driver.max_batch
                pt.Svc.Rt_driver.stalls pt.Svc.Rt_driver.slo_burns;
            print_classes ~quiet:!quiet pt.Svc.Rt_driver.classes;
            all_rows := !all_rows @ Svc.Report.rows_of_rt sc pt)
          (Svc.Rt_driver.run ?workers:!workers ?snapshot_path:!snapshot
             ?duration_s:!duration ~mode sc))
      !modes
  end;
  Svc.Report.merge_svc ~path:!out ~scenario:sc.Svc.Scenario.name
    !all_rows;
  Printf.printf "[svc] merged %d SVC rows for %s into %s\n%!"
    (List.length !all_rows) sc.Svc.Scenario.name !out;
  match !bound_failures with
  | [] -> ()
  | fails ->
      List.iter
        (fun f -> Printf.printf "[svc] FAIL Theorem-1 wait budget: %s\n" f)
        (List.rev fails);
      exit 1
