(* Per-domain scratch arenas for bitset temporaries.

   OCaml 5's minor collector is stop-the-world across domains, so the
   allocation rate of the *busiest* domain taxes every other one. The
   Step-3 loop (occurrence-set intersections) used to allocate a fresh
   bitset per candidate; the arena lets it borrow a cleared scratch bitset
   instead and give it back, turning the steady-state allocation rate of
   that loop into (almost) zero.

   The arena lives in [Domain.DLS], so acquire/release never synchronize:
   each domain owns its own free lists, and a bitset borrowed on one
   domain is returned to that same domain's arena (tasks never migrate
   mid-body). Bitsets are bucketed by capacity because every workload
   mixes universes (graph count, embedding count) with different sizes. *)

type stats = { cached : int; hits : int; misses : int }

type bucket = { mutable free : Bitset.t list; mutable free_len : int }

type t = {
  buckets : (int, bucket) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let key : t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { buckets = Hashtbl.create 8; hits = 0; misses = 0 })

let arena () = Domain.DLS.get key

let bucket_for a n =
  match Hashtbl.find_opt a.buckets n with
  | Some b -> b
  | None ->
    let b = { free = []; free_len = 0 } in
    Hashtbl.add a.buckets n b;
    b

let acquire n =
  let a = arena () in
  let b = bucket_for a n in
  match b.free with
  | s :: rest ->
    b.free <- rest;
    b.free_len <- b.free_len - 1;
    a.hits <- a.hits + 1;
    Bitset.clear s;
    s
  | [] ->
    a.misses <- a.misses + 1;
    Bitset.create n

(* Steady-state pool size is the deepest simultaneous borrow (the
   specialization recursion depth), so the cap is pure insurance against
   a leaky caller pinning unbounded memory in DLS. *)
let max_cached_per_bucket = 1024

let release s =
  let a = arena () in
  let b = bucket_for a (Bitset.capacity s) in
  if b.free_len < max_cached_per_bucket then begin
    b.free <- s :: b.free;
    b.free_len <- b.free_len + 1
  end

let with_bitset n f =
  let s = acquire n in
  match f s with
  | r ->
    release s;
    r
  | exception e ->
    release s;
    raise e

let drain () =
  let a = arena () in
  Hashtbl.reset a.buckets

let stats () =
  let a = arena () in
  let cached = Hashtbl.fold (fun _ b acc -> acc + b.free_len) a.buckets 0 in
  { cached; hits = a.hits; misses = a.misses }

let reset_stats () =
  let a = arena () in
  a.hits <- 0;
  a.misses <- 0
