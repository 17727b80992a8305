(** BOP accounting taken from outside the data structure: a wrapper
    around a store's [run_batch] that times each batched operation on
    the monotonic clock and counts batches, operations and batch sizes.

    One accumulator serves one structure. Invariant 1 (at most one
    batch in flight per structure, ordered by the batcher's flag) makes
    its plain mutable fields safe to update from whichever worker runs
    the batch; read them after the pool is idle. *)

type t

val create : ?clock:(unit -> int) -> unit -> t
(** [clock] (default {!Obs.Clock.now_ns}) is read once before and once
    after each batch. *)

val run_batch :
  t ->
  (Runtime.Pool.t -> 's -> 'op array -> unit) ->
  Runtime.Pool.t ->
  's ->
  'op array ->
  unit
(** [run_batch t bop] behaves as [bop] and charges its elapsed time and
    size to [t]. An exception from [bop] propagates uncharged. *)

val store : t -> Svc.Store.t -> Svc.Store.t
(** The same store with {!run_batch} around its BOP. *)

val batches : t -> int
val ops : t -> int
val max_batch : t -> int

val bop_ns : t -> int
(** Σ batch elapsed time. *)

val ns_per_op : t -> float
(** [bop_ns / ops]; 0 before any operation. *)

val busy_share : t -> elapsed_ns:float -> float
(** [bop_ns / elapsed_ns]: the share of a run during which a batch was
    in flight. At most 1 under Invariant 1. *)

val size_counts : t -> (int * int) list
(** [(batch size, batches of that size)], ascending, sizes seen only. *)
