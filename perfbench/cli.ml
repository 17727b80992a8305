(* The benchmark's command line, shared by its two executables:
     bench.exe --workload W --seed N --seconds S --trace 0
     bench_trace.exe --workload W --seed N --seconds S --trace 1
   runs workload W (kv-open, insert-closed, sim-repro) from
   seed N for about S measured seconds, printing detail lines and, as
   its last line, the JSON result. --trace 0 reports the end-to-end
   metrics; --trace 1 runs untraced and traced rounds alternately and
   reports the per-layer metrics. Exits 1 when any correctness check
   failed. *)

let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1"

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "kv-open | insert-closed | sim-repro");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let tl, metrics =
    match !workload with
    | "kv-open" -> Kv.run ~seed ~seconds ~trace
    | "insert-closed" -> Inserts.run ~seed ~seconds ~trace
    | "sim-repro" -> Simrepro.run ~seed ~seconds ~trace
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  let open Obs.Json in
  let result =
    Obj
      [
        ("correct", Bool (tl.Common.failed = 0));
        ("attempted", Int tl.Common.attempted);
        ("failed", Int tl.Common.failed);
        ( "metrics",
          Obj
            (List.map
               (fun (m : Common.metric) ->
                 (m.Common.name, Obj [ ("value", Float m.Common.value); ("unit", Str m.Common.unit) ]))
               metrics) );
      ]
  in
  print_endline (to_string result);
  exit (if tl.Common.failed = 0 then 0 else 1)
