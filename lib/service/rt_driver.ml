type point = {
  shards : int;
  workers : int;
  mode : Runtime.Batcher_rt.mode;  (* batch-path mode of every shard *)
  requests : int;
  elapsed_ns : float;
  offered : float;  (* requests / schedule span *)
  goodput : float;
  classes : Latency.class_stats list;
  batches : int;
  max_batch : int;
  stalls : int;
  slo_burns : int;
  trace : Obs.Reqtrace.t;  (* per-request spans; null unless ?trace *)
}

let class_of_index = [| Gen.Get; Gen.Put; Gen.Delete; Gen.Range |]

(* The dispatcher releases every due request, then sleeps toward the
   next arrival. Releases can be late by the sleep granularity (~0.1 ms)
   or by a lost OS timeslice — harmless to honesty, because latency is
   measured from the scheduled stamp, so release lag is charged to the
   request, never hidden. *)
let dispatch_loop ~t0 ~schedule ~release =
  let n = Array.length schedule in
  let i = ref 0 in
  while !i < n do
    let now = Obs.Clock.now_ns () in
    while
      !i < n && t0 + (schedule.(!i) : Gen.request).Gen.arrive_ns <= now
    do
      release !i;
      incr i
    done;
    if !i < n then begin
      let gap = t0 + schedule.(!i).Gen.arrive_ns - Obs.Clock.now_ns () in
      if gap > 100_000 then Unix.sleepf (float_of_int (gap - 50_000) /. 1e9)
      else if gap > 0 then Domain.cpu_relax ()
    end
  done

let run_point ?workers ?snapshot_path ?duration_s
    ?(mode = Runtime.Batcher_rt.Faa_array) ?(trace = false) ?inject
    (sc : Scenario.t) ~shards =
  let (module S : Store.STORE) = sc.Scenario.store in
  (* The dispatcher owns worker 0 for the whole run, so serving needs
     at least one more worker. *)
  let workers =
    max 2
      (match workers with
      | Some w -> w
      | None -> Domain.recommended_domain_count ())
  in
  let duration_s =
    match duration_s with Some d -> d | None -> sc.Scenario.duration_s
  in
  let n_keys = min sc.Scenario.n_keys sc.Scenario.rt_keys_cap in
  let schedule = Gen.generate (Scenario.gen_rt sc) ~duration_s in
  let n = Array.length schedule in
  let stream = snapshot_path <> None in
  let rc =
    if stream then
      Obs.Recorder.create ~capacity:1024 ~clock:Obs.Recorder.Nanoseconds
        ~workers ()
    else Obs.Recorder.null
  in
  let hl = Obs.Health.create ~workers ~structures:shards () in
  (* One token per schedule slot: the request's index keys its span in
     the flat capture arrays. *)
  let rtr =
    if trace then
      Obs.Reqtrace.create ~workers ~classes:Gen.n_classes ~capacity:n ()
    else Obs.Reqtrace.null
  in
  let pool = Runtime.Pool.create ~recorder:rc ~health:hl ~num_workers:workers () in
  let stores =
    Array.init shards (fun i -> S.create ~seed:sc.Scenario.seed ~shard:i)
  in
  Array.iteri
    (fun i st -> S.prepopulate st ~shards ~shard:i ~n_keys)
    stores;
  let srt =
    Runtime.Shard_rt.create ~mode ~reqtrace:rtr ?inject ~pool ~shards
      ~state:(fun i -> stores.(i))
      ~run_batch:S.run_batch ()
  in
  let dispatched = Atomic.make 0 and completed = Atomic.make 0 in
  let t0_ref = ref (Obs.Clock.now_ns ()) in
  let samples =
    Array.init workers (fun _ -> Array.make Gen.n_classes ([] : float list))
  in
  let elapsed = ref 0 in
  let stop = Atomic.make false in
  let sampler =
    match snapshot_path with
    | None -> None
    | Some path ->
        let extra () =
          let d = Atomic.get dispatched and c = Atomic.get completed in
          let el = Obs.Clock.now_ns () - !t0_ref in
          [
            ("svc_dispatched", Obs.Json.Int d);
            ("svc_completed", Obs.Json.Int c);
            ("svc_queue_depth", Obs.Json.Int (d - c));
            ( "svc_goodput",
              Obs.Json.Float
                (if el > 0 && c > 0 then
                   float_of_int c /. (float_of_int el /. 1e9)
                 else 0.0) );
          ]
        in
        let snap = Obs.Snapshot.to_file ~health:hl ~extra rc ~path in
        Some
          ( snap,
            Domain.spawn (fun () ->
                Obs.Snapshot.every snap ~interval_s:0.1 ~stop:(fun () ->
                    Atomic.get stop)) )
  in
  let finish () =
    Atomic.set stop true;
    Option.iter
      (fun (snap, d) ->
        Domain.join d;
        Obs.Snapshot.close snap)
      sampler;
    Runtime.Pool.teardown pool
  in
  Fun.protect ~finally:finish (fun () ->
      let promises = Array.make n None in
      let serve token (r : Gen.request) () =
        let c = Gen.class_index r.Gen.cls in
        (match Runtime.Pool.worker_index () with
        | Some w -> Obs.Reqtrace.on_start rtr ~token ~cls:c ~worker:w
        | None -> Obs.Reqtrace.on_start rtr ~token ~cls:c ~worker:0);
        let op = S.op_of r in
        (match S.plan ~shards op with
        | Batched.Shard.Point s ->
            Runtime.Shard_rt.batchify ~token srt ~shard:s op
        | Batched.Shard.Fanout { sub; merge } ->
            (* One consistent chain per request: the token rides the
               start key's shard; the join over the rest is charged to
               the span's sched_post residual. *)
            Runtime.Shard_rt.scatter ~token
              ~token_shard:(Batched.Shard.route ~shards r.Gen.key)
              srt sub;
            merge ());
        let lat = Obs.Clock.now_ns () - (!t0_ref + r.Gen.arrive_ns) in
        (* Worker-exclusive push: one task runs per worker at a time
           and there is no suspension point between the index read and
           the cons. *)
        let w =
          match Runtime.Pool.worker_index () with Some w -> w | None -> 0
        in
        Obs.Reqtrace.on_done rtr ~token ~worker:w;
        let by_class = samples.(w) in
        by_class.(c) <- float_of_int lat :: by_class.(c);
        Atomic.incr completed
      in
      Runtime.Pool.run pool (fun () ->
          let t0 = Obs.Clock.now_ns () in
          t0_ref := t0;
          dispatch_loop ~t0 ~schedule ~release:(fun i ->
              Obs.Reqtrace.on_release rtr ~token:i
                ~arrive_ns:(t0 + schedule.(i).Gen.arrive_ns);
              Atomic.incr dispatched;
              promises.(i) <-
                Some (Runtime.Pool.async pool (serve i schedule.(i))));
          Array.iter
            (function
              | Some p -> Runtime.Pool.await pool p | None -> ())
            promises;
          elapsed := Obs.Clock.now_ns () - t0));
  let named =
    List.init Gen.n_classes (fun c ->
        let total =
          Array.fold_left
            (fun acc by_class -> acc + List.length by_class.(c))
            0 samples
        in
        let a = Array.make (max 1 total) 0.0 in
        let pos = ref 0 in
        Array.iter
          (fun by_class ->
            List.iter
              (fun l ->
                a.(!pos) <- l;
                incr pos)
              by_class.(c))
          samples;
        (Gen.class_name class_of_index.(c), Array.sub a 0 total))
  in
  let st = Runtime.Shard_rt.total_stats srt in
  let slo_burns = ref 0 in
  for sid = 0 to shards - 1 do
    List.iter
      (fun ph -> slo_burns := !slo_burns + Obs.Health.burn_count hl ~sid ph)
      [ Obs.Health.Wait; Obs.Health.Exec; Obs.Health.Ovf ]
  done;
  let elapsed_ns = float_of_int !elapsed in
  {
    shards;
    workers;
    mode;
    requests = n;
    elapsed_ns;
    offered =
      (let span = if n = 0 then 0 else schedule.(n - 1).Gen.arrive_ns in
       if span > 0 then float_of_int n /. (float_of_int span /. 1e9) else 0.0);
    goodput =
      (if elapsed_ns > 0.0 then float_of_int n /. (elapsed_ns /. 1e9) else 0.0);
    classes = Latency.of_samples named;
    batches = st.Runtime.Batcher_rt.batches;
    max_batch = st.Runtime.Batcher_rt.max_batch;
    stalls = Obs.Health.stall_count hl;
    slo_burns = !slo_burns;
    trace = rtr;
  }

let run ?workers ?snapshot_path ?duration_s ?mode ?trace ?inject sc =
  List.map
    (fun shards ->
      run_point ?workers ?snapshot_path ?duration_s ?mode ?trace ?inject sc
        ~shards)
    sc.Scenario.rt_shards
