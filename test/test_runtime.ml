(* Tests for the real multicore runtime: Chase-Lev deque, the fork-join
   pool, and the BATCHER runtime. Worker counts are kept small: the test
   machine may have a single core, and correctness — not speedup — is
   what these tests establish. *)

let with_pool n f =
  let pool = Runtime.Pool.create ~num_workers:n () in
  Fun.protect ~finally:(fun () -> Runtime.Pool.teardown pool) (fun () -> f pool)

(* ---------- Wsdeque ---------- *)

let test_wsdeque_owner_lifo () =
  let d = Runtime.Wsdeque.create () in
  Runtime.Wsdeque.push d 1;
  Runtime.Wsdeque.push d 2;
  Runtime.Wsdeque.push d 3;
  Alcotest.(check (option int)) "pop" (Some 3) (Runtime.Wsdeque.pop d);
  Alcotest.(check (option int)) "steal" (Some 1) (Runtime.Wsdeque.steal d);
  Alcotest.(check (option int)) "pop" (Some 2) (Runtime.Wsdeque.pop d);
  Alcotest.(check (option int)) "empty pop" None (Runtime.Wsdeque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Runtime.Wsdeque.steal d)

let test_wsdeque_growth () =
  let d = Runtime.Wsdeque.create () in
  for i = 0 to 9999 do
    Runtime.Wsdeque.push d i
  done;
  Alcotest.(check int) "size" 10000 (Runtime.Wsdeque.size d);
  let ok = ref true in
  for i = 0 to 9999 do
    if Runtime.Wsdeque.steal d <> Some i then ok := false
  done;
  Alcotest.(check bool) "fifo across growth" true !ok

let test_wsdeque_concurrent_steals () =
  (* One owner pushes/pops, two thieves steal; every element must be
     taken exactly once. *)
  let d = Runtime.Wsdeque.create () in
  let n = 20_000 in
  let taken = Array.make n (Atomic.make 0) in
  for i = 0 to n - 1 do
    taken.(i) <- Atomic.make 0
  done;
  let mark = function
    | Some i -> ignore (Atomic.fetch_and_add taken.(i) 1)
    | None -> Domain.cpu_relax ()
  in
  let stop = Atomic.make false in
  let thief () =
    while not (Atomic.get stop) do
      mark (Runtime.Wsdeque.steal d)
    done;
    (* Final drain. *)
    let rec go () =
      match Runtime.Wsdeque.steal d with
      | Some i ->
          mark (Some i);
          go ()
      | None -> ()
    in
    go ()
  in
  let t1 = Domain.spawn thief in
  let t2 = Domain.spawn thief in
  for i = 0 to n - 1 do
    Runtime.Wsdeque.push d i;
    if i mod 3 = 0 then mark (Runtime.Wsdeque.pop d)
  done;
  let rec drain () =
    match Runtime.Wsdeque.pop d with
    | Some i ->
        mark (Some i);
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Domain.join t1;
  Domain.join t2;
  let bad = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 1 then incr bad) taken;
  Alcotest.(check int) "each element taken exactly once" 0 !bad

let test_wsdeque_bursty_stress () =
  (* Bursty push/pop cycles force buffer growth AND index wraparound
     while two thieves steal continuously; every element must be taken
     exactly once across pop and steal. *)
  let d = Runtime.Wsdeque.create () in
  let rounds = 100 and burst = 300 in
  let n = rounds * burst in
  let taken = Array.init n (fun _ -> Atomic.make 0) in
  let mark = function
    | Some i -> ignore (Atomic.fetch_and_add taken.(i) 1)
    | None -> Domain.cpu_relax ()
  in
  let stop = Atomic.make false in
  let thief () =
    while not (Atomic.get stop) do
      mark (Runtime.Wsdeque.steal d)
    done;
    let rec go () =
      match Runtime.Wsdeque.steal d with
      | Some i ->
          mark (Some i);
          go ()
      | None -> ()
    in
    go ()
  in
  let t1 = Domain.spawn thief in
  let t2 = Domain.spawn thief in
  let next = ref 0 in
  for _ = 1 to rounds do
    for _ = 1 to burst do
      Runtime.Wsdeque.push d !next;
      incr next
    done;
    (* Drain about half back so the bottom index keeps wrapping. *)
    for _ = 1 to burst / 2 do
      mark (Runtime.Wsdeque.pop d)
    done
  done;
  (* Owner drains to empty: a pop returning [None] means either empty
     or the last element lost to a thief — in both cases nothing is
     left for the owner. *)
  let rec drain () =
    match Runtime.Wsdeque.pop d with
    | Some i ->
        mark (Some i);
        drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Domain.join t1;
  Domain.join t2;
  let bad = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 1 then incr bad) taken;
  Alcotest.(check int) "each element taken exactly once" 0 !bad;
  Alcotest.(check int) "deque empty" 0 (Runtime.Wsdeque.size d)

(* ---------- Pool ---------- *)

let test_pool_run_returns () =
  with_pool 2 (fun pool ->
      let r = Runtime.Pool.run pool (fun () -> 21 * 2) in
      Alcotest.(check int) "result" 42 r)

let test_pool_exceptions_propagate () =
  with_pool 2 (fun pool ->
      Alcotest.check_raises "raises" Exit (fun () ->
          Runtime.Pool.run pool (fun () -> raise Exit)))

let test_pool_fork_join () =
  with_pool 3 (fun pool ->
      let a, b =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.fork_join pool (fun () -> 1 + 1) (fun () -> "x" ^ "y"))
      in
      Alcotest.(check int) "left" 2 a;
      Alcotest.(check string) "right" "xy" b)

let test_pool_fib () =
  with_pool 3 (fun pool ->
      let rec fib n =
        if n < 2 then n
        else begin
          let a, b = Runtime.Pool.fork_join pool (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
          a + b
        end
      in
      let r = Runtime.Pool.run pool (fun () -> fib 15) in
      Alcotest.(check int) "fib 15" 610 r)

let test_pool_parallel_for () =
  with_pool 4 (fun pool ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~lo:0 ~hi:n (fun i -> hits.(i) <- hits.(i) + 1));
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_pool_parallel_for_empty () =
  with_pool 2 (fun pool ->
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "no body")))

let test_pool_nested_async () =
  with_pool 3 (fun pool ->
      let r =
        Runtime.Pool.run pool (fun () ->
            let ps =
              List.init 10 (fun i ->
                  Runtime.Pool.async pool (fun () ->
                      let q = Runtime.Pool.async pool (fun () -> i * i) in
                      Runtime.Pool.await pool q + 1))
            in
            List.fold_left (fun acc p -> acc + Runtime.Pool.await pool p) 0 ps)
      in
      Alcotest.(check int) "sum of i^2+1" (285 + 10) r)

let test_pool_await_exception () =
  with_pool 2 (fun pool ->
      Alcotest.check_raises "await re-raises" Exit (fun () ->
          Runtime.Pool.run pool (fun () ->
              let p = Runtime.Pool.async pool (fun () -> raise Exit) in
              Runtime.Pool.await pool p)))

let test_pool_prefix_sums () =
  with_pool 4 (fun pool ->
      let a = Array.init 1000 (fun i -> (i mod 7) - 3) in
      let expected = Util.Prefix_sum.inclusive a in
      let got = Runtime.Pool.run pool (fun () -> Runtime.Pool.parallel_prefix_sums pool a) in
      Alcotest.(check (array int)) "matches sequential" expected got)

let test_pool_parallel_map () =
  with_pool 3 (fun pool ->
      let a = Array.init 1000 Fun.id in
      let got = Runtime.Pool.run pool (fun () -> Runtime.Pool.parallel_map pool (fun x -> x * x) a) in
      Alcotest.(check (array int)) "squares" (Array.map (fun x -> x * x) a) got;
      let empty =
        Runtime.Pool.run pool (fun () -> Runtime.Pool.parallel_map pool (fun x -> x * x) [||])
      in
      Alcotest.(check (array int)) "empty" [||] empty)

let test_pool_map_reduce () =
  with_pool 3 (fun pool ->
      let a = Array.init 10_000 (fun i -> i + 1) in
      let total =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.map_reduce pool ~map:Fun.id ~combine:( + ) ~init:0 a)
      in
      Alcotest.(check int) "sum 1..n" (10_000 * 10_001 / 2) total;
      let max_sq =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.map_reduce pool ~grain:7 ~map:(fun x -> x * x) ~combine:max
              ~init:min_int a)
      in
      Alcotest.(check int) "max of squares" (10_000 * 10_000) max_sq;
      let empty =
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.map_reduce pool ~map:Fun.id ~combine:( + ) ~init:42 [||])
      in
      Alcotest.(check int) "empty gives init" 42 empty)

let test_pool_single_worker () =
  with_pool 1 (fun pool ->
      let r =
        Runtime.Pool.run pool (fun () ->
            let acc = ref 0 in
            Runtime.Pool.parallel_for pool ~lo:0 ~hi:100 (fun i -> acc := !acc + i);
            !acc)
      in
      Alcotest.(check int) "sum" 4950 r)

let test_pool_reuse () =
  with_pool 2 (fun pool ->
      for i = 1 to 5 do
        let r = Runtime.Pool.run pool (fun () -> i * 10) in
        Alcotest.(check int) "reused run" (i * 10) r
      done)

(* ---------- Batcher_rt ---------- *)

let test_batcher_rt_counter () =
  with_pool 4 (fun pool ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:counter
          ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      let n = 500 in
      let results = Array.make n 0 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              let op = Batched.Counter.op 1 in
              Runtime.Batcher_rt.batchify b op;
              results.(i) <- op.Batched.Counter.result));
      Alcotest.(check int) "final value" n (Batched.Counter.value counter);
      (* Linearizable counter: the returned values are a permutation of 1..n. *)
      let sorted = Array.copy results in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "results are 1..n" (Array.init n (fun i -> i + 1)) sorted;
      let st = Runtime.Batcher_rt.stats b in
      Alcotest.(check int) "all ops batched" n st.Runtime.Batcher_rt.ops;
      Alcotest.(check bool) "batch cap respected" true
        (st.Runtime.Batcher_rt.max_batch <= Runtime.Pool.num_workers pool))

let test_batcher_rt_skiplist () =
  with_pool 3 (fun pool ->
      let sl = Batched.Skiplist.create () in
      (* The BOP's search phase really runs on the pool. *)
      let pfor pool n body =
        Runtime.Pool.parallel_for pool ~grain:4 ~lo:0 ~hi:n body
      in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:sl
          ~run_batch:(fun pool st ops ->
            Batched.Skiplist.run_batch_with ~pfor:(pfor pool) st ops)
          ()
      in
      let n = 300 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              Runtime.Batcher_rt.batchify b (Batched.Skiplist.insert i)));
      Alcotest.(check int) "all inserted" n (Batched.Skiplist.length sl);
      Batched.Skiplist.check_invariants sl;
      Alcotest.(check (list int)) "sorted 0..n-1" (List.init n Fun.id)
        (Batched.Skiplist.to_list sl))

let test_batcher_rt_batch_cap_option () =
  with_pool 4 (fun pool ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~batch_cap:2 ~pool ~state:counter
          ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:100 (fun _ ->
              Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)));
      let st = Runtime.Batcher_rt.stats b in
      Alcotest.(check bool) "cap 2 respected" true (st.Runtime.Batcher_rt.max_batch <= 2);
      Alcotest.(check int) "value" 100 (Batched.Counter.value counter))

let test_batcher_rt_parallel_bop () =
  (* A BOP that itself uses the pool's parallelism. *)
  with_pool 4 (fun pool ->
      let counter = Batched.Counter.create () in
      let run_batch pool (st : Batched.Counter.t) (ops : Batched.Counter.op array) =
        let amounts = Array.map (fun (o : Batched.Counter.op) -> o.Batched.Counter.amount) ops in
        let sums = Runtime.Pool.parallel_prefix_sums pool amounts in
        let base = Batched.Counter.value st in
        Runtime.Pool.parallel_for pool ~lo:0 ~hi:(Array.length ops) (fun i ->
            ops.(i).Batched.Counter.result <- base + sums.(i));
        ignore (Batched.Counter.increment_seq st (if Array.length sums = 0 then 0 else sums.(Array.length sums - 1)))
      in
      let b = Runtime.Batcher_rt.create ~pool ~state:counter ~run_batch () in
      let n = 200 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun _ ->
              Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)));
      Alcotest.(check int) "final value" n (Batched.Counter.value counter))

let test_batcher_rt_multiple_structures () =
  (* Three implicitly batched structures driven from one parallel
     program, with nested parallelism — the composition Theorem 1 prices
     per structure, exercised end to end on real domains. *)
  with_pool 4 (fun pool ->
      let counter = Batched.Counter.create () in
      let counter_b =
        Runtime.Batcher_rt.create ~pool ~state:counter
          ~run_batch:(fun _p st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      let sl = Batched.Skiplist.create () in
      let sl_b =
        Runtime.Batcher_rt.create ~pool ~state:sl
          ~run_batch:(fun _p st ops -> Batched.Skiplist.run_batch st ops)
          ()
      in
      let ht = Batched.Hashtable.create () in
      let ht_b =
        Runtime.Batcher_rt.create ~pool ~state:ht
          ~run_batch:(fun _p st ops -> Batched.Hashtable.run_batch st ops)
          ()
      in
      let n = 300 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              Runtime.Batcher_rt.batchify counter_b (Batched.Counter.op 1);
              Runtime.Batcher_rt.batchify sl_b (Batched.Skiplist.insert i);
              Runtime.Batcher_rt.batchify ht_b
                (Batched.Hashtable.insert ~key:i ~value:(i * 2))));
      Alcotest.(check int) "counter" n (Batched.Counter.value counter);
      Alcotest.(check int) "skiplist" n (Batched.Skiplist.length sl);
      Batched.Skiplist.check_invariants sl;
      Alcotest.(check int) "hashtable" n (Batched.Hashtable.length ht);
      Batched.Hashtable.check_invariants ht;
      Alcotest.(check (option int)) "hashtable value" (Some 42)
        (Batched.Hashtable.lookup_seq ht 21))

let test_batcher_rt_sp_order () =
  (* The SP-order structure behind the batcher, as in the race-detection
     example, checked for fork-relation correctness after parallel use. *)
  with_pool 3 (fun pool ->
      let sp, root = Batched.Sp_order.create () in
      let b =
        Runtime.Batcher_rt.create ~pool ~state:sp
          ~run_batch:(fun _p sp ops -> Batched.Sp_order.run_batch sp ops)
          ()
      in
      let forks = 64 in
      let results = Array.make forks None in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:forks (fun i ->
              let op = Batched.Sp_order.fork_op root in
              Runtime.Batcher_rt.batchify b op;
              match op with
              | Batched.Sp_order.Fork r -> results.(i) <- Some r
              | Batched.Sp_order.Precedes _ -> assert false));
      Batched.Sp_order.check_invariants sp;
      Array.iter
        (function
          | None -> Alcotest.fail "missing fork result"
          | Some r -> begin
              match r.Batched.Sp_order.left, r.Batched.Sp_order.right with
              | Some l, Some rr ->
                  Alcotest.(check bool) "siblings parallel" true
                    (Batched.Sp_order.parallel_seq sp l rr)
              | _ -> Alcotest.fail "fork record not filled"
            end)
        results)

let test_batcher_rt_randomized_stress () =
  (* Randomized mix of stack pushes/pops through the batcher from a
     parallel loop, checked against the multiset of surviving values. *)
  let rng = Util.Rng.create ~seed:2024 in
  for _round = 1 to 3 do
    with_pool 3 (fun pool ->
        let st = Batched.Stack.create () in
        let b =
          Runtime.Batcher_rt.create ~pool ~state:st
            ~run_batch:(fun _p s ops -> Batched.Stack.run_batch s ops)
            ()
        in
        let n = 200 + Util.Rng.int rng 200 in
        let pushes = Atomic.make 0 in
        let pops_hit = Atomic.make 0 in
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                if i land 3 <> 0 then begin
                  Runtime.Batcher_rt.batchify b (Batched.Stack.push i);
                  ignore (Atomic.fetch_and_add pushes 1)
                end
                else begin
                  let op = Batched.Stack.pop () in
                  Runtime.Batcher_rt.batchify b op;
                  match op with
                  | Batched.Stack.Pop { popped = Some _ } ->
                      ignore (Atomic.fetch_and_add pops_hit 1)
                  | _ -> ()
                end));
        (* Conservation: size = pushes - successful pops. *)
        Alcotest.(check int) "stack size conserved"
          (Atomic.get pushes - Atomic.get pops_hit)
          (Batched.Stack.size st))
  done

let test_batcher_rt_atomic_list_legacy () =
  (* The seed's CAS-list submission path stays behind the [mode] flag
     for before/after benchmarking; it must remain correct. *)
  with_pool 3 (fun pool ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~mode:Runtime.Batcher_rt.Atomic_list ~pool
          ~state:counter
          ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      let n = 300 in
      let results = Array.make n 0 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              let op = Batched.Counter.op 1 in
              Runtime.Batcher_rt.batchify b op;
              results.(i) <- op.Batched.Counter.result));
      Alcotest.(check int) "final value" n (Batched.Counter.value counter);
      let sorted = Array.copy results in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "results are 1..n"
        (Array.init n (fun i -> i + 1))
        sorted;
      let st = Runtime.Batcher_rt.stats b in
      Alcotest.(check int) "all ops batched" n st.Runtime.Batcher_rt.ops)

let test_batcher_rt_fifo_fairness () =
  (* Regression for the ROADMAP starvation finding: under sustained
     over-cap load the seed's LIFO list admitted newest-first and a
     parked op sat through up to 41 launches. The pending-array path
     admits oldest-first, so with [tasks] concurrent submitters and cap
     2, no op can be overtaken by more than the ops already pending —
     batches-while-pending stays bounded by a small constant. *)
  let workers = 3 in
  let rc = Obs.Recorder.create ~clock:Obs.Recorder.Nanoseconds ~workers () in
  let pool = Runtime.Pool.create ~recorder:rc ~num_workers:workers () in
  Fun.protect
    ~finally:(fun () -> Runtime.Pool.teardown pool)
    (fun () ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~batch_cap:2 ~pool ~state:counter
          ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      let tasks = 12 and rounds = 25 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:tasks (fun _ ->
              for _ = 1 to rounds do
                Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)
              done));
      Alcotest.(check int) "value" (tasks * rounds)
        (Batched.Counter.value counter));
  let s = Obs.Summary.of_recorder rc in
  Alcotest.(check int) "ops recorded" 300 s.Obs.Summary.ops;
  (* At most [tasks = 12] ops are ever pending (each task submits
     sequentially); FIFO admission at cap 2 clears all of them within
     ceil(12/2) = 6 launches, so with slack for stragglers displaced
     across a drain epoch the bound stays far below the LIFO figure. *)
  Alcotest.(check bool)
    (Printf.sprintf "max batches-while-pending O(1), got %d"
       s.Obs.Summary.max_batches_seen)
    true
    (s.Obs.Summary.max_batches_seen <= 10)

(* ---------- batch-path modes ---------- *)

(* A batched "structure" whose batch log records admission order: the
   BOP appends each record's payload in ops-array order. Invariant 1
   (one batch in flight) is what makes the unsynchronized ref sound —
   exactly the guarantee the modes must preserve. *)
let with_log_batcher ?(on_batch = fun () -> ()) ~workers ~batch_cap ~mode f =
  with_pool workers (fun pool ->
      let log = ref [] in
      let b =
        Runtime.Batcher_rt.create ~batch_cap ~mode ~pool ~state:()
          ~run_batch:(fun _p () ops ->
            on_batch ();
            Array.iter (fun id -> log := id :: !log) ops)
          ()
      in
      f pool b (fun () -> List.rev !log))

let check_exactly_once ~n admitted =
  Alcotest.(check (list int))
    "every record admitted exactly once (none lost, none duplicated)"
    (List.init n Fun.id)
    (List.sort compare admitted)

let rec ascending = function
  | a :: (b :: _ as tl) -> a < b && ascending tl
  | _ -> true

let test_batcher_rt_overflow_fifo_single_worker () =
  (* Overflow-queue FIFO, deterministically: one worker, cap 2, 100
     grain-1 submitters. Every submission beyond the slots goes through
     the overflow queue while a batch is in flight, and with a single
     worker the publication order equals our issue counter. The three
     array modes must admit in exactly issue order across consecutive
     launches (slots drain before the reversed back stack, and a
     displaced record keeps its queue position); Atomic_list is LIFO by
     construction, so it only owes exactly-once. *)
  List.iter
    (fun mode ->
      with_log_batcher ~workers:1 ~batch_cap:2 ~mode
        (fun pool b admitted ->
          let n = 100 in
          let issue = Atomic.make 0 in
          let order = Array.make n (-1) in
          Runtime.Pool.run pool (fun () ->
              Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                  order.(i) <- Atomic.fetch_and_add issue 1;
                  Runtime.Batcher_rt.batchify b i));
          let admitted = admitted () in
          check_exactly_once ~n admitted;
          let st = Runtime.Batcher_rt.stats b in
          if mode <> Runtime.Batcher_rt.Atomic_list then
            Alcotest.(check bool)
              (Printf.sprintf "%s: admission follows issue order"
                 (Runtime.Batcher_rt.mode_name mode))
              true
              (ascending (List.map (fun id -> order.(id)) admitted));
          Alcotest.(check int) "all ops counted" n st.Runtime.Batcher_rt.ops))
    Runtime.Batcher_rt.all_modes

let test_batcher_rt_overflow_displacement_race () =
  (* The racy half of the overflow story: 3 workers hammering a cap-2
     batcher, so slot displacement (Worker_id/Par_combine: occupied
     worker slot; Faa_array: over-cap tickets) and the overflow queue
     race with concurrent launches. Exactly-once admission is the
     safety property every interleaving must preserve. *)
  List.iter
    (fun mode ->
      let n = 300 in
      (* Throttle each batch until three submitters past the batch's
         entry point have arrived (or the workload is exhausted):
         against cap 2 — and three per-worker slots fed by the two
         non-launching workers — three concurrent pending records
         guarantee a displacement into the overflow queue by
         pigeonhole, making the racy path deterministic to reach
         without fixing any particular interleaving. *)
      let entered = Atomic.make 0 in
      let on_batch () =
        let want = min n (Atomic.get entered + 3) in
        while Atomic.get entered < want do
          Domain.cpu_relax ()
        done
      in
      with_log_batcher ~on_batch ~workers:3 ~batch_cap:2 ~mode
        (fun pool b admitted ->
          Runtime.Pool.run pool (fun () ->
              Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                  Atomic.incr entered;
                  Runtime.Batcher_rt.batchify b i));
          check_exactly_once ~n (admitted ());
          let st = Runtime.Batcher_rt.stats b in
          Alcotest.(check int)
            (Runtime.Batcher_rt.mode_name mode ^ ": ops")
            n st.Runtime.Batcher_rt.ops;
          (* Atomic_list has no overflow queue; for the array modes,
             300 grain-1 submitters against cap 2 make the queue's
             displacement path essentially certain to fire. *)
          if mode <> Runtime.Batcher_rt.Atomic_list then
            Alcotest.(check bool)
              (Printf.sprintf "%s: overflow exercised (ovf=%d)"
                 (Runtime.Batcher_rt.mode_name mode)
                 st.Runtime.Batcher_rt.ovf)
              true
              (st.Runtime.Batcher_rt.ovf > 0)))
    Runtime.Batcher_rt.all_modes

let test_batcher_rt_worker_id_migration () =
  (* Worker_id re-reads the worker index at each publication, so a task
     resumed on a different worker after its previous op publishes into
     the new worker's slot. Repeated submit rounds from more tasks than
     workers force exactly that suspension/resume churn; linearizable
     results across all rounds are the witness that no slot write went
     to a stale index (the submit-path assert guards the bound). *)
  with_pool 3 (fun pool ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~batch_cap:2 ~mode:Runtime.Batcher_rt.Worker_id
          ~pool ~state:counter
          ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      let tasks = 12 and rounds = 25 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:tasks (fun _ ->
              for _ = 1 to rounds do
                Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)
              done));
      Alcotest.(check int) "value" (tasks * rounds)
        (Batched.Counter.value counter);
      let st = Runtime.Batcher_rt.stats b in
      Alcotest.(check int) "ops" (tasks * rounds) st.Runtime.Batcher_rt.ops)

let test_batcher_rt_par_combine_recruitment () =
  (* Par_combine with a cap far above the combining grain: batches
     larger than [combine_grain] split into sub-ranges executed by
     recruited blocked submitters, and the last finisher runs the
     epilogue (stamp, flag release, relaunch trampoline). Distinct
     results 1..n prove each record was stamped and resumed exactly
     once across the recruited sub-ranges. *)
  with_pool 3 (fun pool ->
      let counter = Batched.Counter.create () in
      let b =
        Runtime.Batcher_rt.create ~batch_cap:64
          ~mode:Runtime.Batcher_rt.Par_combine ~pool ~state:counter
          ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
          ()
      in
      let n = 512 in
      let results = Array.make n 0 in
      Runtime.Pool.run pool (fun () ->
          Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
              let op = Batched.Counter.op 1 in
              Runtime.Batcher_rt.batchify b op;
              results.(i) <- op.Batched.Counter.result));
      Alcotest.(check int) "final value" n (Batched.Counter.value counter);
      let sorted = Array.copy results in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "results are 1..n"
        (Array.init n (fun i -> i + 1))
        sorted)

let test_batcher_rt_modes_parallel_bop () =
  (* Every mode must keep Invariant 1 strongly enough that a BOP using
     the pool's own parallel_for stays safe — Par_combine in particular
     runs the BOP inside a submitter's suspension context, where an
     unhandled-effect bug would surface immediately. *)
  List.iter
    (fun mode ->
      with_pool 3 (fun pool ->
          let sl = Batched.Skiplist.create () in
          let pfor pool n body =
            Runtime.Pool.parallel_for pool ~grain:4 ~lo:0 ~hi:n body
          in
          let b =
            Runtime.Batcher_rt.create ~mode ~pool ~state:sl
              ~run_batch:(fun pool st ops ->
                Batched.Skiplist.run_batch_with ~pfor:(pfor pool) st ops)
              ()
          in
          let n = 128 in
          Runtime.Pool.run pool (fun () ->
              Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                  Runtime.Batcher_rt.batchify b (Batched.Skiplist.insert i)));
          let name = Runtime.Batcher_rt.mode_name mode in
          Alcotest.(check int) (name ^ ": all inserted") n
            (Batched.Skiplist.length sl);
          Batched.Skiplist.check_invariants sl;
          Alcotest.(check (list int))
            (name ^ ": sorted 0..n-1")
            (List.init n Fun.id)
            (Batched.Skiplist.to_list sl)))
    Runtime.Batcher_rt.all_modes

(* Minor words each of [pool]'s workers has allocated so far, read on
   its own domain (Gc.minor_words is domain-local): [workers] barrier
   tasks spin until all have started, which pins them to distinct
   workers. *)
let worker_minor_words pool workers =
  let out = Array.make workers 0.0 in
  let arrived = Atomic.make 0 in
  Runtime.Pool.run pool (fun () ->
      Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:workers (fun _ ->
          let w = Option.value ~default:0 (Runtime.Pool.worker_index ()) in
          Atomic.incr arrived;
          while Atomic.get arrived < workers do
            Domain.cpu_relax ()
          done;
          out.(w) <- Gc.minor_words ()));
  out

let test_pool_idle_steal_allocation () =
  (* Worker 1 idles between two samples, running failed steal rounds
     back to back (a pure-spin policy never sleeps): hundreds of
     thousands of rounds in 0.2 s. What it allocates between the
     samples must not grow with the idle time, i.e. a failed round
     allocates nothing. *)
  let open Runtime.Pool in
  let backoff = { default_backoff with spin_limit = max_int; burst_limit = max_int } in
  let workers = 2 in
  let pool = create ~backoff ~num_workers:workers () in
  Fun.protect
    ~finally:(fun () -> teardown pool)
    (fun () ->
      let idle_words secs =
        let before = worker_minor_words pool workers in
        Unix.sleepf secs;
        let after = worker_minor_words pool workers in
        after.(1) -. before.(1)
      in
      (* The first pair of samples warms the pool up. *)
      ignore (idle_words 0.0);
      let short = idle_words 0.0 and long = idle_words 0.2 in
      Alcotest.(check bool)
        (Printf.sprintf "idle worker: %.0f words over 0.2 s vs %.0f over none" long short)
        true
        (long -. short < 64.0))

let test_pool_backoff_config () =
  (* Extreme idle policies — pure spin and sleep-almost-immediately
     with one steal probe per round — must not affect results. *)
  let open Runtime.Pool in
  let configs =
    [
      { default_backoff with spin_limit = 1_000_000; burst_limit = 1_000_000 };
      {
        default_backoff with
        spin_limit = 1;
        burst_limit = 2;
        sleep_min = 0.000_01;
        steal_tries = 1;
      };
    ]
  in
  List.iter
    (fun backoff ->
      let pool = create ~backoff ~num_workers:3 () in
      Fun.protect
        ~finally:(fun () -> teardown pool)
        (fun () ->
          let counter = Batched.Counter.create () in
          let b =
            Runtime.Batcher_rt.create ~pool ~state:counter
              ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
              ()
          in
          let n = 120 in
          let acc = Atomic.make 0 in
          run pool (fun () ->
              parallel_for pool ~grain:1 ~lo:0 ~hi:n (fun i ->
                  ignore (Atomic.fetch_and_add acc i);
                  Runtime.Batcher_rt.batchify b (Batched.Counter.op 1)));
          Alcotest.(check int) "parallel_for sum" (n * (n - 1) / 2)
            (Atomic.get acc);
          Alcotest.(check int) "batched value" n (Batched.Counter.value counter)))
    configs

(* [with_pool] guards every test above with Fun.protect; this pins down
   that the guard actually works — teardown runs when the computation
   raises, the exception still propagates, and the runtime stays healthy
   enough to spin up and use a fresh pool afterwards (the domains of the
   failed pool were joined, not leaked). *)
let test_pool_teardown_under_exception () =
  (match
     with_pool 3 (fun pool ->
         Runtime.Pool.run pool (fun () ->
             ignore (Runtime.Pool.num_workers pool);
             failwith "boom"))
   with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure msg -> Alcotest.(check string) "reraised" "boom" msg);
  let total =
    with_pool 2 (fun pool ->
        Runtime.Pool.run pool (fun () ->
            let acc = Atomic.make 0 in
            Runtime.Pool.parallel_for pool ~lo:0 ~hi:100 (fun i ->
                ignore (Atomic.fetch_and_add acc i));
            Atomic.get acc))
  in
  Alcotest.(check int) "fresh pool still works" 4950 total

(* Sharded extension of the teardown-under-exception regression: the
   computation blows up while shard 0 has a batch in flight (its BOP is
   mid-sleep on a worker) and shard 1 holds parked overflow ops (cap 1:
   one op launched, the rest queued behind the flag). Teardown must
   still join every domain, the exception must win the race, and the
   runtime must stay healthy enough to run fresh sharded work. *)
let test_shard_rt_teardown_in_flight () =
  (match
     with_pool 3 (fun pool ->
         let rt =
           Runtime.Shard_rt.create ~batch_cap:1 ~pool ~shards:2
             ~state:(fun _ -> Batched.Counter.create ())
             ~run_batch:(fun _pool st ops ->
               Unix.sleepf 0.02;
               Batched.Counter.run_batch st ops)
             ()
         in
         Runtime.Pool.run pool (fun () ->
             Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:6 (fun i ->
                 if i = 5 then begin
                   (* Let the submitters park and the BOPs start their
                      service sleeps before blowing up underneath them. *)
                   Unix.sleepf 0.005;
                   failwith "shard-boom"
                 end
                 else
                   Runtime.Shard_rt.batchify rt ~shard:(i land 1)
                     (Batched.Counter.op 1))))
   with
  | () -> Alcotest.fail "expected the exception to propagate"
  | exception Failure msg ->
      Alcotest.(check string) "reraised" "shard-boom" msg);
  let total =
    with_pool 2 (fun pool ->
        let rt =
          Runtime.Shard_rt.create ~pool ~shards:2
            ~state:(fun _ -> Batched.Counter.create ())
            ~run_batch:(fun _pool st ops -> Batched.Counter.run_batch st ops)
            ()
        in
        Runtime.Pool.run pool (fun () ->
            Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:40 (fun i ->
                Runtime.Shard_rt.batchify rt
                  ~shard:(Batched.Shard.route ~shards:2 i)
                  (Batched.Counter.op 1)));
        Batched.Counter.value (Runtime.Shard_rt.state rt 0)
        + Batched.Counter.value (Runtime.Shard_rt.state rt 1))
  in
  Alcotest.(check int) "fresh pool runs sharded work" 40 total

let () =
  Alcotest.run "runtime"
    [
      ( "wsdeque",
        [
          Alcotest.test_case "owner lifo" `Quick test_wsdeque_owner_lifo;
          Alcotest.test_case "growth" `Quick test_wsdeque_growth;
          Alcotest.test_case "concurrent steals" `Slow test_wsdeque_concurrent_steals;
          Alcotest.test_case "bursty stress" `Slow test_wsdeque_bursty_stress;
        ] );
      ( "pool",
        [
          Alcotest.test_case "run returns" `Quick test_pool_run_returns;
          Alcotest.test_case "exceptions" `Quick test_pool_exceptions_propagate;
          Alcotest.test_case "fork_join" `Quick test_pool_fork_join;
          Alcotest.test_case "fib" `Quick test_pool_fib;
          Alcotest.test_case "parallel_for" `Quick test_pool_parallel_for;
          Alcotest.test_case "parallel_for empty" `Quick test_pool_parallel_for_empty;
          Alcotest.test_case "nested async" `Quick test_pool_nested_async;
          Alcotest.test_case "await exception" `Quick test_pool_await_exception;
          Alcotest.test_case "prefix sums" `Quick test_pool_prefix_sums;
          Alcotest.test_case "parallel_map" `Quick test_pool_parallel_map;
          Alcotest.test_case "map_reduce" `Quick test_pool_map_reduce;
          Alcotest.test_case "single worker" `Quick test_pool_single_worker;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "backoff config" `Quick test_pool_backoff_config;
          Alcotest.test_case "idle steal rounds allocate nothing" `Quick
            test_pool_idle_steal_allocation;
          Alcotest.test_case "teardown under exception" `Quick
            test_pool_teardown_under_exception;
        ] );
      ( "batcher_rt",
        [
          Alcotest.test_case "counter linearizable" `Quick test_batcher_rt_counter;
          Alcotest.test_case "legacy atomic-list path" `Quick
            test_batcher_rt_atomic_list_legacy;
          Alcotest.test_case "fifo fairness under over-cap load" `Quick
            test_batcher_rt_fifo_fairness;
          Alcotest.test_case "skiplist" `Quick test_batcher_rt_skiplist;
          Alcotest.test_case "batch cap" `Quick test_batcher_rt_batch_cap_option;
          Alcotest.test_case "parallel BOP" `Quick test_batcher_rt_parallel_bop;
          Alcotest.test_case "three structures at once" `Quick
            test_batcher_rt_multiple_structures;
          Alcotest.test_case "sp-order under parallelism" `Quick test_batcher_rt_sp_order;
          Alcotest.test_case "randomized stress" `Slow test_batcher_rt_randomized_stress;
          Alcotest.test_case "overflow fifo, single worker, all modes" `Quick
            test_batcher_rt_overflow_fifo_single_worker;
          Alcotest.test_case "overflow displacement race, all modes" `Slow
            test_batcher_rt_overflow_displacement_race;
          Alcotest.test_case "worker-id slot under task migration" `Quick
            test_batcher_rt_worker_id_migration;
          Alcotest.test_case "par-combine recruitment" `Quick
            test_batcher_rt_par_combine_recruitment;
          Alcotest.test_case "parallel BOP under all modes" `Slow
            test_batcher_rt_modes_parallel_bop;
          Alcotest.test_case "sharded teardown with batch in flight" `Quick
            test_shard_rt_teardown_in_flight;
        ] );
    ]
