(** Batched skip list — the data structure of the paper's Section 7
    evaluation.

    The batched insert (BOP) follows the paper's three steps: (1) build a
    small list from the batch's records, (2) search for every record's
    position in the main list, (3) splice. In the real implementation the
    records are stably sorted, each one's per-level predecessors are
    searched (in parallel under {!run_batch_with}, two keys per
    interleaved walk), and the splice runs in
    ascending key order, re-advancing any predecessor that an earlier key
    of the batch spliced past. The simulator cost model exposes the same
    parallel shape (searches in parallel, build/splice sequential), exactly
    as the prototype in the paper did.

    Layout: a node's tower is a plain [node array], and every level ends
    at one shared sentinel node whose key is [max_int]. A search hop is
    then [while next.key < key]: one dependent load from a link to the
    next node, no [option] block between them, no end-of-level test, and
    no allocation. A stored [max_int] key is told apart from the sentinel
    by identity.

    Tower heights come from a deterministic private stream (one
    [Util.Rng.next64] draw per fresh key: one plus its trailing one bits,
    capped at 32), so runs are reproducible. Keys are a set: inserting a
    present key is a no-op. *)

type t

val create : ?seed:int -> unit -> t

val length : t -> int

type insert_record = { key : int; mutable inserted : bool }
type mem_record = { mem_key : int; mutable found : bool }
type delete_record = { del_key : int; mutable deleted : bool }

type range_record = { r_lo : int; r_hi : int; mutable r_keys : int list }
(** Half-open interval query: the stored keys in [\[r_lo, r_hi)],
    ascending — the cross-shard operation of {!Shard}: each shard
    answers over its own keys and the combinator merges the sorted
    sub-results. *)

type op =
  | Insert of insert_record
  | Mem of mem_record
  | Delete of delete_record
  | Range of range_record

val insert : int -> op
val mem : int -> op
val delete : int -> op
val range : lo:int -> hi:int -> op

val run_batch : t -> op array -> unit
(** {!run_batch_with} with a sequential [pfor]. Phase order within a
    batch: inserts, then deletes, then queries (membership and ranges,
    which observe the batch's net effect). Of duplicate insert keys in one
    batch, the first in batch order is the one marked [inserted]. *)

val run_batch_with :
  pfor:(int -> (int -> unit) -> unit) -> t -> op array -> unit
(** Like {!run_batch}, but the search phase runs through [pfor count body]
    — the paper's actual BOP: searches into the main list proceed in
    parallel (they are read-only), and the splice phase is sequential,
    revalidating each saved search position past splices of smaller keys
    from the same batch. Pass [Runtime.Pool.parallel_for pool ~lo:0
    ~hi:count] (suitably wrapped) to parallelize for real; behavior is
    identical to {!run_batch} for any correct [pfor].

    Search contract. For a batch with [x] insert records, sorted by key,
    [pfor] is called once with [count = (x + 1) / 2] (also when [x] is
    0), and [body p] searches records [2p] and [2p + 1] in one
    interleaved walk whose two chains of loads are independent, so
    their cache misses overlap; the last record of an odd batch is
    searched alone. Bodies only read the list and write disjoint
    slots, so they may run in any order and concurrently. Each body
    allocates one 33-word update buffer per record it searches and
    nothing else. A one- or two-key batch is a single item, which
    [Runtime.Pool.parallel_for] runs inline. The splice order, and so
    every tower height, is the same as searching key by key. *)

val insert_seq : t -> int -> bool
(** Single-key insert; [true] if the key was new. The sequential baseline
    of Figure 5. A fresh key allocates a 32-entry update buffer, the new
    node and its tower, plus what the height draw allocates. *)

val mem_seq : t -> int -> bool
(** Allocates nothing. *)

val delete_seq : t -> int -> bool
(** [true] if the key was present (and is now removed). *)

val range_seq : t -> lo:int -> hi:int -> int list
(** Stored keys in [\[lo, hi)], ascending; O(lg n + answer). Allocates
    only the result list. *)

val to_list : t -> int list
(** Ascending key order. *)

val check_invariants : t -> unit
(** Linear-time validation; raises [Failure]. Level 0 is strictly
    ascending and holds [length t] nodes; every level-l list is exactly
    the level-0 nodes taller than l, in order (so a node of height h
    appears on every level below h and on no other); and the list's level
    is the highest non-empty one. *)

val sim_model :
  initial_size:int -> ?records_per_node:int -> ?search_scale:float -> unit -> Model.t
(** Cost model for inserting fresh keys into a list that starts with
    [initial_size] elements. A batch of [x] records costs: build Θ(x)
    sequential; searches [x] parallel leaves of ~[search_scale]·lg(size)
    each; splice Θ(x) sequential. A lone sequential insert costs
    ~[search_scale]·lg(size) + O(1). *)
