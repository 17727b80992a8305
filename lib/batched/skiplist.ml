let max_level = 32

(* Every level of the list ends at [nil], whose key is [max_int], so a
   search hop is [while nxt.key < key]: one load from the link to the
   node and no end-of-level test. The head holds no key; [forward.(l)]
   is the first node at level l, or [nil]. Real nodes have towers of
   length [height]. [nil] is shared by all lists and never written. *)
type node = {
  key : int;
  forward : node array;
}

let nil = { key = max_int; forward = [||] }

type t = {
  head : node;
  mutable level : int;  (* highest level in use, >= 1 *)
  mutable size : int;
  rng : Util.Rng.t;
}

let create ?(seed = 0xBA7C4) () =
  {
    head = { key = min_int; forward = Array.make max_level nil };
    level = 1;
    size = 0;
    rng = Util.Rng.create ~seed;
  }

let length t = t.size

(* Geometric heights with p = 1/2, capped: one plus the number of
   trailing one bits of the draw. *)
let random_height t =
  let bits = Int64.to_int (Util.Rng.next64 t.rng) in
  let h = ref 1 in
  while !h < max_level && (bits lsr (!h - 1)) land 1 = 1 do
    incr h
  done;
  !h

type insert_record = { key : int; mutable inserted : bool }
type mem_record = { mem_key : int; mutable found : bool }
type delete_record = { del_key : int; mutable deleted : bool }
type range_record = { r_lo : int; r_hi : int; mutable r_keys : int list }

type op =
  | Insert of insert_record
  | Mem of mem_record
  | Delete of delete_record
  | Range of range_record

let insert key = Insert { key; inserted = false }
let mem key = Mem { mem_key = key; found = false }
let delete key = Delete { del_key = key; deleted = false }
let range ~lo ~hi = Range { r_lo = lo; r_hi = hi; r_keys = [] }

(* The rightmost node at level [l], from [start] on, whose key is < key. *)
let advance (start : node) l key =
  let x = ref start and nxt = ref start.forward.(l) in
  while !nxt.key < key do
    x := !nxt;
    nxt := !nxt.forward.(l)
  done;
  !x

(* Fill [update] with, per level, the rightmost node whose key is < key. *)
let search_update t (update : node array) key =
  let x = ref t.head in
  for l = t.level - 1 downto 0 do
    x := advance !x l key;
    update.(l) <- !x
  done

(* The rightmost level-0 node whose key is < key; allocates nothing. *)
let predecessor t key =
  let x = ref t.head in
  for l = t.level - 1 downto 0 do
    x := advance !x l key
  done;
  !x

(* [nil] carries [max_int], so a key match must also rule out [nil]. *)
let holds (n : node) key = n.key = key && n != nil

let splice t (update : node array) key =
  let h = random_height t in
  if h > t.level then begin
    for l = t.level to h - 1 do
      update.(l) <- t.head
    done;
    t.level <- h
  end;
  let fresh = { key; forward = Array.make h nil } in
  for l = 0 to h - 1 do
    fresh.forward.(l) <- update.(l).forward.(l);
    update.(l).forward.(l) <- fresh
  done;
  t.size <- t.size + 1

let insert_seq t key =
  let update = Array.make max_level t.head in
  search_update t update key;
  if holds update.(0).forward.(0) key then false
  else begin
    splice t update key;
    true
  end

let mem_seq t key = holds (predecessor t key).forward.(0) key

let delete_seq t key =
  let update = Array.make max_level t.head in
  search_update t update key;
  let victim = update.(0).forward.(0) in
  if not (holds victim key) then false
  else begin
    (* Unlink the victim's tower at every level it participates in. *)
    for l = 0 to Array.length victim.forward - 1 do
      if update.(l).forward.(l) == victim then
        update.(l).forward.(l) <- victim.forward.(l)
    done;
    (* Lower the list level past now-empty levels. *)
    while t.level > 1 && t.head.forward.(t.level - 1) == nil do
      t.level <- t.level - 1
    done;
    t.size <- t.size - 1;
    true
  end

(* Keys of [n] and its level-0 successors that are < hi, in order;
   [nil]'s [max_int] ends the walk for every [hi]. *)
let[@tail_mod_cons] rec keys_below hi (n : node) =
  if n.key < hi then n.key :: keys_below hi n.forward.(0) else []

(* Keys in [lo, hi), ascending: skip down to the predecessor of [lo],
   then walk level 0. O(lg n + answer). *)
let range_seq t ~lo ~hi = keys_below hi (predecessor t lo).forward.(0)

(* The paper's BOP with a caller-supplied parallel-for. Step 1 (build):
   stably sort the batch's insert records by key, so the first of
   duplicate keys in batch order is the one inserted. Step 2 (search):
   every key's update array is computed concurrently — searches only
   read the list. Step 3 (splice): sequential over ascending keys; a
   saved update entry may be stale where an earlier (smaller) key of the
   same batch spliced in front of it, so each level pointer is
   re-advanced before linking. Levels that appeared since the search
   still hold [t.head], which is where their search starts. *)
let run_batch_with ~pfor t d =
  let inserts =
    Array.of_list
      (Array.fold_right
         (fun op acc -> match op with Insert r -> r :: acc | Mem _ | Delete _ | Range _ -> acc)
         d [])
  in
  Array.stable_sort (fun (a : insert_record) b -> Int.compare a.key b.key) inserts;
  let x = Array.length inserts in
  let updates = Array.make x [||] in
  (* Parallel search phase. *)
  pfor x (fun i ->
      let u = Array.make max_level t.head in
      search_update t u inserts.(i).key;
      updates.(i) <- u);
  (* Sequential splice phase with revalidation. *)
  for i = 0 to x - 1 do
    let r = inserts.(i) and u = updates.(i) in
    for l = t.level - 1 downto 0 do
      u.(l) <- advance u.(l) l r.key
    done;
    if not (holds u.(0).forward.(0) r.key) then begin
      splice t u r.key;
      r.inserted <- true
    end
  done;
  (* Delete phase. *)
  Array.iter
    (function
      | Delete r -> r.deleted <- delete_seq t r.del_key
      | Insert _ | Mem _ | Range _ -> ())
    d;
  (* Query phase (membership and ranges) observes the batch's net effect. *)
  Array.iter
    (function
      | Insert _ | Delete _ -> ()
      | Mem r -> r.found <- mem_seq t r.mem_key
      | Range r -> r.r_keys <- range_seq t ~lo:r.r_lo ~hi:r.r_hi)
    d

let run_batch t d =
  run_batch_with
    ~pfor:(fun count body ->
      for i = 0 to count - 1 do
        body i
      done)
    t d

let to_list t =
  let[@tail_mod_cons] rec go (n : node) = if n == nil then [] else n.key :: go n.forward.(0) in
  go t.head.forward.(0)

(* Linear: level 0 is checked for order, size and tower heights; then
   each level l >= 1 is walked in lockstep with level l-1 and must be
   exactly the level-(l-1) nodes taller than l — by induction, the
   level-0 nodes taller than l. *)
let check_invariants t =
  let count = ref 0 and tallest = ref 0 in
  let n = ref t.head.forward.(0) in
  while !n != nil do
    let h = Array.length !n.forward in
    if h < 1 || h > max_level then failwith "Skiplist: tower height out of range";
    let next = !n.forward.(0) in
    if next != nil && next.key <= !n.key then failwith "Skiplist: keys not strictly ascending";
    incr count;
    tallest := max !tallest h;
    n := next
  done;
  if !count <> t.size then failwith "Skiplist: size mismatch";
  if t.level <> max 1 !tallest then failwith "Skiplist: level is not the highest non-empty level";
  for l = 1 to max_level - 1 do
    let below = ref t.head.forward.(l - 1) and here = ref t.head.forward.(l) in
    while !below != nil do
      if Array.length !below.forward > l then begin
        if !here != !below then
          failwith (Printf.sprintf "Skiplist: level %d is not the taller nodes of level %d" l (l - 1));
        here := !here.forward.(l)
      end;
      below := !below.forward.(l - 1)
    done;
    if !here != nil then
      failwith (Printf.sprintf "Skiplist: level %d holds a node missing from level %d" l (l - 1))
  done

let sim_model ~initial_size ?(records_per_node = 1) ?(search_scale = 1.0) () =
  let size = ref initial_size in
  let reset () = size := initial_size in
  let search_cost () = Model.scaled (Model.log2_cost !size) search_scale in
  let batch_cost nodes =
    let x = records_per_node * Array.length nodes in
    let x = max 1 x in
    let per_search = search_cost () in
    let build = Par.leaf x in
    let searches = Par.balanced ~leaf_cost:(fun _ -> per_search) x in
    let splice_phase = Par.leaf x in
    size := !size + x;
    Par.series [ build; searches; splice_phase ]
  in
  let seq_cost _ =
    let c = search_cost () + 2 in
    size := !size + records_per_node;
    max 1 (records_per_node * c)
  in
  { Model.name = "skiplist"; reset; batch_cost; seq_cost }
