(* End-to-end runs: the measured program as shipped, without the
   threads library. *)
let () = Perfbench.Cli.main ()
