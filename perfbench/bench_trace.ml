(* Traced runs: the same command line, with a systhread polling the
   runtime_events rings during traced rounds. *)
let () =
  (Perfbench.Gcwatch.spawn_poller :=
     fun loop ->
       let t = Thread.create loop () in
       fun () -> Thread.join t);
  Perfbench.Cli.main ()
