type task = unit -> unit

type 'a outcome = ('a, exn) result

type 'a promise_state =
  | Done of 'a outcome
  | Waiting of ('a outcome -> unit) list

type 'a promise = 'a promise_state Atomic.t

(* Idle-worker policy, sweepable by lib/check's config ablations. All
   thresholds are in consecutive failed scheduling rounds ("misses"). *)
type backoff = {
  spin_limit : int;  (* misses served by a single [cpu_relax] *)
  spin_burst : int;  (* relax iterations per miss while bursting *)
  burst_limit : int;  (* misses before the worker starts sleeping *)
  sleep_min : float;  (* first sleep, seconds *)
  sleep_max : float;  (* cap of the exponential sleep ramp, seconds *)
  steal_tries : int;  (* steal attempts per round; 0 = 2 x workers *)
}

let default_backoff =
  {
    spin_limit = 16;
    spin_burst = 32;
    burst_limit = 64;
    sleep_min = 0.000_05;
    sleep_max = 0.002;
    steal_tries = 0;
  }

type t = {
  deques : task Wsdeque.t array;
  mutable domains : unit Domain.t array;
  stop : bool Atomic.t;
  n : int;
  seed : int;
  bo : backoff;
  rc : Obs.Recorder.t;  (* per-worker rings; each domain writes only its own *)
  hl : Obs.Health.t;  (* heartbeats + watchdog; shared with Batcher_rt *)
  (* Work-class attribution (observed pools only). Slot [w] is worker
     [w]'s ambient class / the ns timestamp its current segment opened.
     Each worker touches only its own slots, so no sync — but the
     arrays are cache-line striped ([Pad.make_striped]) so one worker's
     per-task class flips don't evict its neighbours' slots. *)
  cls : Obs.Recorder.work_class array;  (* striped *)
  seg : int array;  (* striped *)
}

(* Which worker (index) the current domain is acting as. *)
let worker_key : int option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let worker_index () = !(Domain.DLS.get worker_key)

let num_workers t = t.n

let recorder t = t.rc

let health t = t.hl

(* ---- work-class segments (observed pools only) ----

   A worker's wall-clock between segment boundaries is attributed to its
   ambient class: task bodies carry the class captured where they were
   created (async) or suspended (await/suspend), and the find-task /
   backoff time between tasks is [Wsched]. Emitted [Work] segments tile
   each worker's timeline from its loop entry to its exit. *)

let set_cls t w c =
  if Obs.Recorder.enabled t.rc && Pad.striped_get t.cls w <> c then begin
    let now = Obs.Recorder.now t.rc in
    let dur = now - Pad.striped_get t.seg w in
    if dur > 0 then
      Obs.Recorder.emit_work t.rc ~worker:w ~time:now
        ~cls:(Pad.striped_get t.cls w) ~units:dur;
    Pad.striped_set t.cls w c;
    Pad.striped_set t.seg w now
  end

(* Close the open segment without changing class (worker exit). *)
let flush_cls t w =
  if Obs.Recorder.enabled t.rc then begin
    let now = Obs.Recorder.now t.rc in
    let dur = now - Pad.striped_get t.seg w in
    if dur > 0 then
      Obs.Recorder.emit_work t.rc ~worker:w ~time:now
        ~cls:(Pad.striped_get t.cls w) ~units:dur;
    Pad.striped_set t.seg w now
  end

let work_class t =
  match worker_index () with
  | Some w when Obs.Recorder.enabled t.rc -> Pad.striped_get t.cls w
  | _ -> Obs.Recorder.Wcore

let set_work_class t c =
  match worker_index () with
  | Some w -> set_cls t w c
  | None -> ()

type _ Effect.t +=
  | Suspend : (('a, unit) Effect.Deep.continuation -> unit) -> 'a Effect.t

let push_on t id task = Wsdeque.push t.deques.(id) task

(* Push on the deque of whichever worker is running us; fall back to
   worker 0 for external callers. *)
let push_current t task =
  let id = match worker_index () with Some id -> id | None -> 0 in
  push_on t id task

let handler : (unit, unit) Effect.Deep.handler =
  {
    retc = Fun.id;
    exnc = raise;
    effc =
      (fun (type c) (eff : c Effect.t) ->
        match eff with
        | Suspend f ->
            Some (fun (k : (c, unit) Effect.Deep.continuation) -> f k)
        | _ -> None);
  }

let exec (task : task) = Effect.Deep.match_with task () handler

(* Raw task injection and in-place execution, for Batcher_rt's
   parallel-combining launcher: [push_task] enqueues a preallocated
   closure without a promise (allocation-free recruitment), and
   [exec_inline] runs a task body under the pool's effect handler from a
   context that is otherwise outside one (a [suspend] callback runs in
   the handler itself, so a batch executed there must open a fresh
   handler or any [await] inside the BOP would go unhandled). If the
   inline task suspends, [exec_inline] returns with the rest parked as a
   continuation — exactly like a queued task that suspends. *)
let push_task = push_current
let exec_inline _t task = exec task

(* Steal victims come from a per-worker xorshift over an immediate int
   held in a [ref], so a draw allocates nothing — an idle worker makes
   2 x workers of them per round. Nothing deterministic depends on
   which victim is picked, so the stream needs no quality beyond
   spreading probes. The state is odd, hence never zero, and each
   xorshift step is invertible, so it stays nonzero. *)
let victim_rng t my_id = ref ((t.seed + (my_id * 0x9E3779B97F4A7C1)) lor 1)

let step rng =
  let x = !rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  rng := x lxor (x lsl 17)

let next_victim t my_id rng =
  step rng;
  (my_id + 1 + ((!rng lsr 1) mod (t.n - 1))) mod t.n

(* Steps of the victim stream that end a failed round: about 100 ns of
   plain arithmetic between one round's [cpu_relax] and the next.
   Without them an idle worker's rounds, a few probes each, make an
   almost pure PAUSE loop. On a 2-vCPU VM that raised the open-loop
   benchmark's p50 (kv-open) by 10-20%, and a spin phase three times
   longer raised it sixfold, as a hypervisor's pause-loop exiting
   would. With the pad, p50 came back to within run-to-run noise of
   the allocating draws, whose boxing had spaced the rounds alike. *)
let round_pad = 60

(* [misses] is the caller's consecutive-failure count: once the worker is
   past the first spin phase it is "in backoff", and failed steal probes
   are no longer emitted one-by-one — they are counted in [suppressed]
   and flushed as a single Steals_suppressed event on the next successful
   steal (so the steal-attempt histogram stays truthful without an idle
   pool flooding its ring at ~2n events per backoff round). A failed
   round allocates nothing. *)
let find_task t my_id rng ~misses ~suppressed =
  match Wsdeque.pop t.deques.(my_id) with
  | Some _ as found -> found
  | None ->
      if t.n <= 1 then None
      else begin
        let observed = Obs.Recorder.enabled t.rc in
        let in_backoff = misses >= t.bo.spin_limit in
        (* A bounded sample of random steal attempts per call. *)
        let tries = ref (if t.bo.steal_tries > 0 then t.bo.steal_tries else 2 * t.n) in
        let found = ref None in
        while !tries > 0 do
          let victim = next_victim t my_id rng in
          match Wsdeque.steal t.deques.(victim) with
          | Some _ as stolen ->
              if observed then begin
                (if !suppressed > 0 then begin
                   Obs.Recorder.emit_steals_suppressed t.rc ~worker:my_id
                     ~time:(Obs.Recorder.now t.rc) ~count:!suppressed;
                   suppressed := 0
                 end);
                Obs.Recorder.emit_steal t.rc ~worker:my_id
                  ~time:(Obs.Recorder.now t.rc) ~victim ~success:true
                  ~batch_deque:false
              end;
              found := stolen;
              tries := 0
          | None ->
              if observed then begin
                if in_backoff then incr suppressed
                else
                  Obs.Recorder.emit_steal t.rc ~worker:my_id
                    ~time:(Obs.Recorder.now t.rc) ~victim ~success:false
                    ~batch_deque:false
              end;
              decr tries
        done;
        if Option.is_none !found then
          for _ = 1 to round_pad do
            step rng
          done;
        !found
      end

(* Failed-steal backoff: spin briefly, then burst-spin, then sleep on an
   exponential ramp — essential on machines with fewer cores than
   workers, and the reason an idle pool costs ~0 CPU after a few ms. *)
let backoff bo misses =
  if misses < bo.spin_limit then Domain.cpu_relax ()
  else if misses < bo.burst_limit then
    for _ = 1 to bo.spin_burst do
      Domain.cpu_relax ()
    done
  else begin
    (* sleep_min * 2^k, capped; [ldexp] keeps this allocation-free. *)
    let k = min 16 (misses - bo.burst_limit) in
    Unix.sleepf (Float.min bo.sleep_max (ldexp bo.sleep_min k))
  end

let worker_loop t my_id =
  let r = Domain.DLS.get worker_key in
  r := Some my_id;
  let observed = Obs.Recorder.enabled t.rc in
  if observed then begin
    Pad.striped_set t.cls my_id Obs.Recorder.Wsched;
    Pad.striped_set t.seg my_id (Obs.Recorder.now t.rc)
  end;
  let rng = victim_rng t my_id in
  let misses = ref 0 in
  let suppressed = ref 0 in
  while not (Atomic.get t.stop) do
    Obs.Health.beat t.hl ~worker:my_id;
    match find_task t my_id rng ~misses:!misses ~suppressed with
    | Some task ->
        misses := 0;
        exec task;
        if observed then set_cls t my_id Obs.Recorder.Wsched
    | None ->
        incr misses;
        backoff t.bo !misses
  done;
  if observed then flush_cls t my_id;
  r := None

let create ?(recorder = Obs.Recorder.null) ?(health = Obs.Health.null)
    ?(backoff = default_backoff) ~num_workers () =
  if num_workers < 1 then invalid_arg "Pool.create: num_workers >= 1";
  if
    Obs.Recorder.enabled recorder
    && (Obs.Recorder.clock recorder <> Obs.Recorder.Nanoseconds
       || Obs.Recorder.workers recorder < num_workers)
  then
    invalid_arg
      "Pool.create: recorder must use the Nanoseconds clock and cover all workers";
  if Obs.Health.enabled health && Obs.Health.workers health < num_workers then
    invalid_arg "Pool.create: health must cover all workers";
  let t =
    {
      deques = Array.init num_workers (fun _ -> Wsdeque.create ());
      domains = [||];
      (* Padded: [stop] is polled by every worker each loop iteration
         and must not share a line with whatever is allocated next. *)
      stop = Pad.atomic false;
      n = num_workers;
      seed = 0x600D5EED;
      bo = backoff;
      rc = recorder;
      hl = health;
      cls = Pad.make_striped num_workers Obs.Recorder.Wsched;
      seg = Pad.make_striped num_workers 0;
    }
  in
  t.domains <-
    Array.init (num_workers - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1)));
  t

let teardown t =
  Atomic.set t.stop true;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

(* ---- promises ---- *)

let rec add_waiter (p : 'a promise) w =
  match Atomic.get p with
  | Done r -> w r
  | Waiting ws as old ->
      if not (Atomic.compare_and_set p old (Waiting (w :: ws))) then add_waiter p w

let rec complete (p : 'a promise) r =
  match Atomic.get p with
  | Done _ -> invalid_arg "Pool: promise completed twice"
  | Waiting ws as old ->
      if Atomic.compare_and_set p old (Done r) then List.iter (fun w -> w r) ws
      else complete p r

let async t f =
  let p : 'a promise = Atomic.make (Waiting []) in
  let task =
    if Obs.Recorder.enabled t.rc then begin
      (* The task inherits the submitter's ambient class, whatever
         worker ends up executing it. *)
      let c = work_class t in
      fun () ->
        set_work_class t c;
        let r = try Ok (f ()) with e -> Error e in
        complete p r
    end
    else
      fun () ->
        let r = try Ok (f ()) with e -> Error e in
        complete p r
  in
  push_current t task;
  p

let await t (p : 'a promise) =
  match Atomic.get p with
  | Done (Ok v) -> v
  | Done (Error e) -> raise e
  | Waiting _ ->
      let observed = Obs.Recorder.enabled t.rc in
      (* Capture the suspending task's class so the continuation resumes
         in it wherever it is rescheduled. *)
      let c = if observed then work_class t else Obs.Recorder.Wcore in
      Effect.perform
        (Suspend
           (fun k ->
             add_waiter p (fun r ->
                 push_current t (fun () ->
                     if observed then set_work_class t c;
                     match r with
                     | Ok v -> Effect.Deep.continue k v
                     | Error e -> Effect.Deep.discontinue k e))))

let suspend t f =
  let observed = Obs.Recorder.enabled t.rc in
  let c = if observed then work_class t else Obs.Recorder.Wcore in
  Effect.perform
    (Suspend
       (fun (k : (unit, unit) Effect.Deep.continuation) ->
         f (fun () ->
             push_current t (fun () ->
                 if observed then set_work_class t c;
                 Effect.Deep.continue k ()))))

let run t f =
  let p : 'a promise = Atomic.make (Waiting []) in
  let observed = Obs.Recorder.enabled t.rc in
  let root () =
    if observed then set_work_class t Obs.Recorder.Wcore;
    let r = try Ok (f ()) with e -> Error e in
    complete p r
  in
  let slot = Domain.DLS.get worker_key in
  let saved = !slot in
  slot := Some 0;
  if observed then begin
    Pad.striped_set t.cls 0 Obs.Recorder.Wsched;
    Pad.striped_set t.seg 0 (Obs.Recorder.now t.rc)
  end;
  push_on t 0 root;
  let rng = victim_rng t 0 in
  let misses = ref 0 in
  let suppressed = ref 0 in
  let finish () =
    if observed then flush_cls t 0;
    slot := saved
  in
  let rec drive () =
    match Atomic.get p with
    | Done (Ok v) ->
        finish ();
        v
    | Done (Error e) ->
        finish ();
        raise e
    | Waiting _ -> begin
        Obs.Health.beat t.hl ~worker:0;
        (match find_task t 0 rng ~misses:!misses ~suppressed with
        | Some task ->
            misses := 0;
            exec task;
            if observed then set_cls t 0 Obs.Recorder.Wsched
        | None ->
            incr misses;
            backoff t.bo !misses);
        drive ()
      end
  in
  drive ()

let fork_join t fa fb =
  let pb = async t fb in
  let a = fa () in
  let b = await t pb in
  (a, b)

let parallel_for t ?grain ~lo ~hi body =
  if hi > lo then begin
    let grain =
      match grain with
      | Some g -> max 1 g
      | None -> max 1 ((hi - lo) / (8 * t.n))
    in
    let rec go lo hi =
      if hi - lo <= grain then
        for i = lo to hi - 1 do
          body i
        done
      else begin
        let mid = lo + ((hi - lo) / 2) in
        let right = async t (fun () -> go mid hi) in
        go lo mid;
        await t right
      end
    in
    go lo hi
  end

let parallel_map t ?grain f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n (f a.(0)) in
    (* Index 0 is computed twice (once to seed the output array); the
       cost is one extra call, the benefit no Obj.magic. *)
    parallel_for t ?grain ~lo:0 ~hi:n (fun i -> out.(i) <- f a.(i));
    out
  end

let map_reduce t ?grain ~map ~combine ~init a =
  let n = Array.length a in
  let grain =
    match grain with Some g -> max 1 g | None -> max 1 (n / (8 * t.n))
  in
  let rec go lo hi =
    if hi - lo <= grain then begin
      let acc = ref init in
      for i = lo to hi - 1 do
        acc := combine !acc (map a.(i))
      done;
      !acc
    end
    else begin
      let mid = lo + ((hi - lo) / 2) in
      let right = async t (fun () -> go mid hi) in
      let l = go lo mid in
      combine l (await t right)
    end
  in
  if n = 0 then init else go 0 n

let parallel_prefix_sums t a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let blocks = min n (4 * t.n) in
    let block_size = (n + blocks - 1) / blocks in
    let out = Array.make n 0 in
    let sums = Array.make blocks 0 in
    (* Pass 1: per-block inclusive scans. *)
    parallel_for t ~grain:1 ~lo:0 ~hi:blocks (fun bi ->
        let lo = bi * block_size in
        let hi = min n (lo + block_size) in
        let acc = ref 0 in
        for i = lo to hi - 1 do
          acc := !acc + a.(i);
          out.(i) <- !acc
        done;
        sums.(bi) <- !acc);
    (* Sequential scan of the per-block totals. *)
    let offsets = Util.Prefix_sum.exclusive sums in
    (* Pass 2: add block offsets. *)
    parallel_for t ~grain:1 ~lo:0 ~hi:blocks (fun bi ->
        let lo = bi * block_size in
        let hi = min n (lo + block_size) in
        let off = offsets.(bi) in
        for i = lo to hi - 1 do
          out.(i) <- out.(i) + off
        done);
    out
  end
