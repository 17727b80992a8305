(* insert-closed: the paper's Section 7 experiment on the real runtime.
   A Pool.parallel_for issues [round_n] Batcher_rt.batchify inserts of
   shuffled fresh (odd) keys into a skiplist prepopulated with 1M even
   keys, with the batcher's default mode and cap. No dispatcher and no
   idle time: the batcher's submit/launch/resume and the skiplist BOP
   do nearly all the work.

   Every round starts from the same 1M-key list: the round's keys are
   deleted again, untimed, before the next round, so rounds are
   repeats and a faster program does not grow a bigger list. The last
   round's keys stay, and the final list is compared with the
   sequential reference. *)

open Common

let workers = 2
let n_prepop = 1_000_000
let round_n = 100_000
let slices = 10

let skiplist_bop pool t ops =
  Batched.Skiplist.run_batch_with
    ~pfor:(fun count body -> Runtime.Pool.parallel_for pool ~lo:0 ~hi:count body)
    t ops

type env = { keys : int array; sl : Batched.Skiplist.t; pool : Runtime.Pool.t }

let setup ~seed () =
  let t0 = now () in
  let keys = Array.init (slices * round_n) (fun i -> (2 * i) + 1) in
  Util.Rng.shuffle (Util.Rng.create ~seed) keys;
  let t1 = now () in
  let sl = Batched.Skiplist.create ~seed () in
  for i = 0 to n_prepop - 1 do
    ignore (Batched.Skiplist.insert_seq sl (2 * i))
  done;
  let t2 = now () in
  let pool = Runtime.Pool.create ~num_workers:workers () in
  let t3 = now () in
  ({ keys; sl; pool }, [ ("gen_s", secs (t1 - t0)); ("build_s", secs (t2 - t1)); ("pool_create_s", secs (t3 - t2)) ])

type round = {
  rate : float;
  lats : float array;  (** per insert, ns: batchify call to return *)
  t0 : int;
  elapsed_ns : int;
  ops : Batched.Skiplist.op array;
}

(* One timed round over key slice [slice]. [reqtrace] (traced rounds)
   records every insert's span: released at the round's start, started
   when its loop body runs. *)
let run_round env ?(reqtrace = Obs.Reqtrace.null) ~run_batch ~slice () =
  let b = Runtime.Batcher_rt.create ~reqtrace ~pool:env.pool ~state:env.sl ~run_batch () in
  let lats = Array.make round_n 0.0 in
  let ops = Array.make round_n (Batched.Skiplist.insert 0) in
  let base = slice * round_n in
  (* Each round starts from a collected heap: the previous round's
     deleted nodes are not this round's major-GC work. *)
  Gc.full_major ();
  let t0 = now () in
  Runtime.Pool.run env.pool (fun () ->
      Runtime.Pool.parallel_for env.pool ~lo:0 ~hi:round_n (fun i ->
          let w = Option.value ~default:0 (Runtime.Pool.worker_index ()) in
          Obs.Reqtrace.on_release reqtrace ~token:i ~arrive_ns:t0;
          Obs.Reqtrace.on_start reqtrace ~token:i ~cls:0 ~worker:w;
          let op = Batched.Skiplist.insert env.keys.(base + i) in
          ops.(i) <- op;
          let s = now () in
          Runtime.Batcher_rt.batchify ~token:i b op;
          lats.(i) <- float_of_int (now () - s);
          Obs.Reqtrace.on_done reqtrace ~token:i
            ~worker:(Option.value ~default:0 (Runtime.Pool.worker_index ()))));
  let elapsed_ns = now () - t0 in
  let st = Runtime.Batcher_rt.stats b in
  let rate = float_of_int round_n /. secs elapsed_ns in
  say "  %s%.0f inserts/s, %d batches, max batch %d, %d through overflow"
    (if reqtrace == Obs.Reqtrace.null then "" else "[traced] ")
    rate st.Runtime.Batcher_rt.batches st.Runtime.Batcher_rt.max_batch st.Runtime.Batcher_rt.ovf;
  { rate; lats; t0; elapsed_ns; ops }

let inserted = function Batched.Skiplist.Insert r -> r.Batched.Skiplist.inserted | _ -> false

(* Every record of the round reports a fresh insert and the list grew
   by exactly the round; then (unless [keep]) the keys go again. *)
let verify_and_reset tl env r ~slice ~keep =
  let missed = Array.fold_left (fun a op -> if inserted op then a else a + 1) 0 r.ops in
  check_n tl missed "%d inserts of fresh keys reported no insertion" missed;
  let len = Batched.Skiplist.length env.sl in
  check tl (len = n_prepop + round_n) "list length %d after a round, expected %d" len (n_prepop + round_n);
  if not keep then begin
    let gone = ref 0 in
    for i = 0 to round_n - 1 do
      if Batched.Skiplist.delete_seq env.sl env.keys.((slice * round_n) + i) then incr gone
    done;
    check tl (!gone = round_n) "deleted %d of the round's %d keys" !gone round_n
  end

(* The final list against the sequential reference: the even keys plus
   the last round's slice, ascending. *)
let verify_final tl env ~slice =
  let expected =
    let last = Array.sub env.keys (slice * round_n) round_n in
    let a = Array.append (Array.init n_prepop (fun i -> 2 * i)) last in
    Array.sort compare a;
    a
  in
  let got = Array.of_list (Batched.Skiplist.to_list env.sl) in
  check tl (got = expected) "final list (%d keys) differs from the sequential reference (%d keys)"
    (Array.length got) (Array.length expected)

(* Skiplist.check_invariants is quadratic in the list size, so the
   tower invariants are checked on a replica of the same protocol at
   2k keys: prepopulate, batchify-insert fresh keys, check, compare. *)
let verify_replica tl ~seed env =
  let n = 2_000 in
  let sl = Batched.Skiplist.create ~seed () in
  for i = 0 to n - 1 do
    ignore (Batched.Skiplist.insert_seq sl (2 * i))
  done;
  let keys = Array.init n (fun i -> (2 * i) + 1) in
  Util.Rng.shuffle (Util.Rng.create ~seed) keys;
  let b = Runtime.Batcher_rt.create ~pool:env.pool ~state:sl ~run_batch:skiplist_bop () in
  Runtime.Pool.run env.pool (fun () ->
      Runtime.Pool.parallel_for env.pool ~lo:0 ~hi:n (fun i ->
          Runtime.Batcher_rt.batchify b (Batched.Skiplist.insert keys.(i))));
  attempt tl n;
  (match Batched.Skiplist.check_invariants sl with
  | () -> ()
  | exception Failure e -> check tl false "replica: %s" e);
  check tl (Batched.Skiplist.to_list sl = List.init (2 * n) Fun.id) "replica list differs from reference"

let quantile_us r q = Arith.quantile r.lats q /. 1e3
let med xs = Arith.median (Array.of_list xs)

let run ~seed ~seconds ~trace =
  let tl = tally () in
  let rounds = max 3 (truncate (Float.round seconds)) in
  let env = ref None in
  let setup_s, setup_rows =
    setup_phases ~reps:5 (fun () ->
        Option.iter (fun e -> Runtime.Pool.teardown e.pool) !env;
        env := None;
        Gc.full_major ();
        let e, phases = setup ~seed () in
        env := Some e;
        phases)
  in
  let env = Option.get !env in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown env.pool)
    (fun () ->
      let one ?reqtrace ~run_batch i ~keep =
        let slice = i mod slices in
        attempt tl round_n;
        let r = run_round env ?reqtrace ~run_batch ~slice () in
        verify_and_reset tl env r ~slice ~keep;
        r
      in
      say "warm-up round (discarded):";
      ignore (one ~run_batch:skiplist_bop 0 ~keep:false);
      (* Round i (from 1) inserts slice i mod [slices]; the last round's
         keys stay in the list. *)
      let finish ~rounds =
        verify_final tl env ~slice:(rounds mod slices);
        verify_replica tl ~seed env
      in
      if not trace then begin
        say "%d measured rounds of %d inserts:" rounds round_n;
        let rs =
          List.init rounds (fun i -> one ~run_batch:skiplist_bop (i + 1) ~keep:(i = rounds - 1))
        in
        finish ~rounds;
        let p50 = median_of ~name:"p50_us" ~unit:"us" (List.map (fun r -> quantile_us r 0.5) rs) in
        tail_line ~what:"insert latency" ~unit:"us" ~n:round_n
          (List.map
             (fun (l, q) -> (l, q, med (List.map (fun r -> quantile_us r q) rs)))
             [ ("p50", 0.5); ("p99", 0.99); ("p99.9", 0.999); ("p99.99", 0.9999) ]);
        let rate = median_of ~name:"rate_per_s" ~unit:"1/s" (List.map (fun r -> r.rate) rs) in
        (tl, [ setup_s; p50; rate; metric "peak_rss_mb" "MB" (peak_rss_mb ()) ])
      end
      else begin
        let rounds = max 4 (rounds + (rounds land 1)) in
        let gw = Gcwatch.start () in
        let timed = Timed.create () in
        let run_timed = Timed.run_batch timed skiplist_bop in
        let words = ref 0.0 in
        say "%d rounds of %d inserts, untraced and traced alternating:" rounds round_n;
        let rs =
          List.init rounds (fun i ->
              let keep = i = rounds - 1 in
              if i land 1 = 0 then (false, one ~run_batch:skiplist_bop (i + 1) ~keep, None)
              else begin
                let rt = Obs.Reqtrace.create ~workers ~classes:1 ~capacity:round_n () in
                let r, w =
                  Gcwatch.during gw (fun () ->
                      Gcwatch.pool_minor_words ~pool:env.pool ~workers (fun () ->
                          one ~reqtrace:rt ~run_batch:run_timed (i + 1) ~keep))
                in
                words := !words +. w;
                (match Obs.Reqtrace.check rt with
                | Ok () -> ()
                | Error e -> check tl false "Reqtrace.check: %s" e);
                check tl (Obs.Reqtrace.completed rt = round_n) "traced round: %d completions for %d inserts"
                  (Obs.Reqtrace.completed rt) round_n;
                (true, r, Some rt)
              end)
        in
        finish ~rounds;
        let plain = List.filter_map (fun (t, r, _) -> if t then None else Some r) rs
        and traced = List.filter_map (fun (t, r, rt) -> if t then Option.map (fun rt -> (r, rt)) rt else None) rs in
        let sp =
          Array.of_list
            (List.concat_map
               (fun (_, rt) -> List.filter_map (Obs.Reqtrace.span rt) (List.init round_n Fun.id))
               traced)
        in
        let n_traced = round_n * List.length traced in
        check tl (Timed.ops timed = n_traced) "the BOP saw %d operations for %d traced inserts"
          (Timed.ops timed) n_traced;
        let elapsed_ns = List.fold_left (fun a (r, _) -> a +. float_of_int r.elapsed_ns) 0.0 traced in
        let lats = Array.concat (List.map (fun (r, _) -> r.lats) traced) in
        let ovf = Array.fold_left (fun a s -> if s.Obs.Reqtrace.ovf then a + 1 else a) 0 sp in
        say "per-layer ledger (traced rounds):";
        let ledger =
          us_quantiles ~name:"pool.sched_us"
            (fun s -> s.Obs.Reqtrace.sched_pre_ns + s.Obs.Reqtrace.sched_post_ns) sp
          @ us_quantiles ~name:"batcher_rt.pending_us" (fun s -> s.Obs.Reqtrace.pending_ns) sp
          @ us_quantiles ~name:"batcher_rt.exec_us" (fun s -> s.Obs.Reqtrace.exec_ns) sp
          @ [
              metric "batcher_rt.ovf_share" "ratio"
                (if Array.length sp = 0 then 0.0 else float_of_int ovf /. float_of_int (Array.length sp));
              metric "batcher_rt.batchify_ns.p50" "ns" (Arith.quantile lats 0.5);
              metric "batcher_rt.batchify_ns.p99" "ns" (Arith.quantile lats 0.99);
              metric "store.bop_ns_per_op" "ns" (Timed.ns_per_op timed);
              metric "store.bop_busy_share" "ratio" (Timed.busy_share timed ~elapsed_ns);
            ]
        in
        List.iter ledger_line ledger;
        say "  layer batch size histogram: %s"
          (String.concat " "
             (List.map (fun (s, c) -> Printf.sprintf "%d:%d" s c) (Timed.size_counts timed)));
        let rate rs = med (List.map (fun r -> r.rate) rs) in
        say "  tracing overhead: traced %.0f inserts/s vs untraced %.0f" (rate (List.map fst traced)) (rate plain);
        let universal =
          List.filter (fun (m : metric) -> m.name <> "setup.pool_create_s") setup_rows
          @ [
              metric "trace.overhead_pct" "%" (pct_change ~base:(rate (List.map fst traced)) (rate plain));
              metric "tail.p99_us" "us"
                (med (List.map (fun r -> quantile_us r 0.99) plain));
              metric "batch.size_mean" "ops"
                (float_of_int (Timed.ops timed) /. float_of_int (max 1 (Timed.batches timed)));
              metric "batch.size_max" "ops" (float_of_int (Timed.max_batch timed));
            ]
          @ Gcwatch.metrics gw ~words:!words ~ops:n_traced
              ~windows:(List.map (fun (r, _) -> (r.t0, r.t0 + r.elapsed_ns)) traced)
        in
        (tl, universal)
      end)
