(* GC read from outside the program: a runtime_events consumer for
   pauses, minor collections and minor allocation, filtered to the
   measured windows of a run.

   A pause is a maximal interval on one domain's ring during which the
   runtime is inside a minor collection, a major slice or a major-cycle
   stop-the-world phase (nested phases merge). Minor collections stop
   every domain, so each domain contributes its own pause; collections
   themselves are counted on ring 0, the main domain's, which takes
   part in every one. Allocation comes from the per-domain
   EV_C_MINOR_ALLOCATED counter each minor collection emits (bytes
   allocated on that domain since its previous collection).

   Runtime_events stamps with CLOCK_MONOTONIC, the clock Obs.Clock
   reads, so windows taken with Obs.Clock.now_ns apply directly. *)

let tracked = function
  | Runtime_events.EV_MINOR | EV_MAJOR_SLICE | EV_MAJOR_GC_CYCLE_DOMAINS
  | EV_MAJOR_GC_STW ->
      true
  | _ -> false

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  pauses : (int * int) list ref;  (** (start, duration) ns *)
  minors : int list ref;  (** ring-0 minor collection starts *)
  allocated : (int * int) list ref;  (** (stamp, bytes) *)
  lost : int ref;
  quick : (int * int) ref;
      (** Gc.quick_stat minor and major collections over [during] *)
}

let max_rings = 128

let start () =
  Runtime_events.start ();
  Runtime_events.pause ();
  let depth = Array.make max_rings 0 and began = Array.make max_rings 0 in
  let pauses = ref [] and minors = ref [] and allocated = ref [] and lost = ref 0 in
  let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts) in
  let runtime_begin ring ts ph =
    if ring = 0 && ph = Runtime_events.EV_MINOR then minors := ns ts :: !minors;
    if tracked ph && ring < max_rings then begin
      if depth.(ring) = 0 then began.(ring) <- ns ts;
      depth.(ring) <- depth.(ring) + 1
    end
  and runtime_end ring ts ph =
    if tracked ph && ring < max_rings && depth.(ring) > 0 then begin
      depth.(ring) <- depth.(ring) - 1;
      if depth.(ring) = 0 then pauses := (began.(ring), ns ts - began.(ring)) :: !pauses
    end
  and runtime_counter _ring ts c v =
    if c = Runtime_events.EV_C_MINOR_ALLOCATED then allocated := (ns ts, v) :: !allocated
  in
  {
    cursor = Runtime_events.create_cursor None;
    callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~runtime_counter
        ~lost_events:(fun ring n ->
          (* A pause whose end was overwritten must not absorb the
             next one. *)
          if ring < max_rings then depth.(ring) <- 0;
          lost := !lost + n)
        ();
    pauses;
    minors;
    allocated;
    lost;
    quick = ref (0, 0);
  }

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

(* How [during] runs its poller: given the polling loop, start it
   concurrently and return a function that waits for it to end. Unset,
   the rings are read only when [during] ends, which loses events once
   they wrap. bench_trace.exe installs a systhread; the threads library
   is linked there only, because it changes how every blocking section
   of the measured program behaves. *)
let spawn_poller : ((unit -> unit) -> unit -> unit) ref = ref (fun _ () -> ())

(* Collection runs only inside [during]. There, the poller drains the
   rings every 2 ms: at thousands of minor collections a second the
   default ring would otherwise wrap between reads. A systhread of the
   calling domain adds no participant to stop-the-world collections
   (a polling domain did, and doubled the cost of tracing); the time it
   takes from that domain is part of what the traced run costs. A
   systhread runs only when the domain's running thread blocks or its
   50 ms tick fires, so where the main domain never blocks
   (insert-closed) the rings wrap and the lost events are reported;
   pauses are then counted from the events read. *)
let during t f =
  let stop = Atomic.make false in
  let q0 = Gc.quick_stat () in
  Runtime_events.resume ();
  let join =
    !spawn_poller (fun () ->
        while not (Atomic.get stop) do
          poll t;
          Unix.sleepf 0.002
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      join ();
      poll t;
      Runtime_events.pause ();
      let q1 = Gc.quick_stat () and mi, ma = !(t.quick) in
      t.quick :=
        ( mi + q1.Gc.minor_collections - q0.Gc.minor_collections,
          ma + q1.Gc.major_collections - q0.Gc.major_collections ))
    f

(* Minor words allocated on every worker domain of a live pool while
   [f] runs, sampled as bench/micro.ml's M1 does: Gc.minor_words is
   domain-local, so each worker reads its own counter from inside a
   barrier task; [workers] tasks spin until all have started, which
   pins them to distinct workers. *)
let pool_minor_words ~pool ~workers f =
  let sample out =
    let arrived = Atomic.make 0 in
    Runtime.Pool.run pool (fun () ->
        Runtime.Pool.parallel_for pool ~grain:1 ~lo:0 ~hi:workers (fun _ ->
            let w = Option.value ~default:0 (Runtime.Pool.worker_index ()) in
            Atomic.incr arrived;
            while Atomic.get arrived < workers do
              Domain.cpu_relax ()
            done;
            out.(w) <- Gc.minor_words ()))
  in
  let before = Array.make workers 0.0 and after = Array.make workers 0.0 in
  sample before;
  let r = f () in
  sample after;
  let sum = ref 0.0 in
  Array.iteri (fun w a -> sum := !sum +. a -. before.(w)) after;
  (r, !sum)

(* The GC rows of the per-layer ledger over [windows] (monotonic-ns
   [(lo, hi)] intervals). [words] overrides the runtime_events minor
   allocation, for a caller that sampled it per domain itself. *)
let metrics ?words t ~windows ~ops =
  poll t;
  let inside ts = List.exists (fun (lo, hi) -> lo <= ts && ts <= hi) windows in
  let p =
    Array.of_list
      (List.filter_map (fun (s, d) -> if inside s then Some (float_of_int d) else None) !(t.pauses))
  in
  let n = Array.length p in
  let minors = List.length (List.filter inside !(t.minors)) in
  let words =
    match words with
    | Some w -> w
    | None ->
        float_of_int
          (List.fold_left (fun a (ts, b) -> if inside ts then a + b else a) 0 !(t.allocated))
        /. float_of_int (Sys.word_size / 8)
  in
  let elapsed_s = Common.secs (List.fold_left (fun a (lo, hi) -> a + hi - lo) 0 windows) in
  if !(t.lost) > 0 then
    Common.say "  runtime_events: %d ring words overwritten before they were read; pause rows undercount" !(t.lost);
  Common.say
    "  gc: %d minor collections in the measured windows (runtime_events); Gc.quick_stat over the traced sections, set-up included: %d minor, %d major"
    minors (fst !(t.quick)) (snd !(t.quick));
  let q x = if n = 0 then 0.0 else Arith.quantile p x /. 1e3 in
  Common.tail_line ~what:"gc.pause_us" ~unit:"us" ~n
    (List.map (fun (l, x) -> (l, x, q x)) [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p99.9", 0.999) ]);
  Common.
    [
      metric "gc.minor_words_per_op" "words" (if ops = 0 then 0.0 else words /. float_of_int ops);
      metric "gc.minor_collections_per_s" "1/s"
        (if elapsed_s <= 0.0 then 0.0 else float_of_int minors /. elapsed_s);
      metric "gc.pauses" "count" (float_of_int n);
      metric "gc.pause_us.p99" "us" (q 0.99);
      metric "gc.pause_ms_total" "ms" (Array.fold_left ( +. ) 0.0 p /. 1e6);
    ]
