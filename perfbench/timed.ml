type t = {
  clock : unit -> int;
  mutable batches : int;
  mutable ops : int;
  mutable max_batch : int;
  mutable bop_ns : int;
  sizes : (int, int) Hashtbl.t;
}

let create ?(clock = Obs.Clock.now_ns) () =
  { clock; batches = 0; ops = 0; max_batch = 0; bop_ns = 0; sizes = Hashtbl.create 8 }

let run_batch t bop pool st ops =
  let t0 = t.clock () in
  bop pool st ops;
  let dt = t.clock () - t0 in
  let n = Array.length ops in
  t.batches <- t.batches + 1;
  t.ops <- t.ops + n;
  t.bop_ns <- t.bop_ns + dt;
  if n > t.max_batch then t.max_batch <- n;
  Hashtbl.replace t.sizes n
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.sizes n))

let store acc (module S : Svc.Store.STORE) : Svc.Store.t =
  let timed = run_batch acc S.run_batch in
  (module struct
    include S

    let run_batch = timed
  end)

let batches t = t.batches
let ops t = t.ops
let max_batch t = t.max_batch
let bop_ns t = t.bop_ns
let ns_per_op t = if t.ops = 0 then 0.0 else float_of_int t.bop_ns /. float_of_int t.ops

let busy_share t ~elapsed_ns =
  if elapsed_ns <= 0.0 then 0.0 else float_of_int t.bop_ns /. elapsed_ns

let size_counts t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.sizes [])
