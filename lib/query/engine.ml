module Bitset = Tsg_util.Bitset
module Metrics = Tsg_util.Metrics
module Timer = Tsg_util.Timer
module Graph = Tsg_graph.Graph
module Gen_iso = Tsg_iso.Gen_iso
module Matcher = Tsg_iso.Matcher
module Pattern = Tsg_core.Pattern

type t = {
  store : Store.t;
  epoch : Epoch.t;
  cache : int array Lru.t;
  cache_lock : Mutex.t;
  metrics : Metrics.t;
  c_contains : Metrics.counter;
  c_hits : Metrics.counter;
  c_misses : Metrics.counter;
  c_candidates : Metrics.counter;
  c_iso_tests : Metrics.counter;
  c_by_label : Metrics.counter;
  c_top_k : Metrics.counter;
  h_contains : Metrics.histogram;
  h_by_label : Metrics.histogram;
  h_top_k : Metrics.histogram;
}

let create ?(cache_capacity = 1024) ?(epoch = Epoch.zero) ~metrics store =
  {
    store;
    epoch;
    cache = Lru.create ~capacity:cache_capacity;
    cache_lock = Mutex.create ();
    metrics;
    c_contains = Metrics.counter metrics "contains.queries";
    c_hits = Metrics.counter metrics "cache.hits";
    c_misses = Metrics.counter metrics "cache.misses";
    c_candidates = Metrics.counter metrics "contains.candidates";
    c_iso_tests = Metrics.counter metrics "contains.iso_tests";
    c_by_label = Metrics.counter metrics "by_label.queries";
    c_top_k = Metrics.counter metrics "top_k.queries";
    h_contains = Metrics.histogram metrics "latency.contains";
    h_by_label = Metrics.histogram metrics "latency.by_label";
    h_top_k = Metrics.histogram metrics "latency.top_k";
  }

let store t = t.store

let epoch t = t.epoch

let with_epoch t epoch = { t with epoch }

let metrics t = t.metrics

let cache_key g =
  if Graph.node_count g > 0 && Graph.is_connected g then
    Tsg_gspan.Min_code.canonical_key g
  else
    (* disconnected targets get a representation-keyed (still sound, merely
       less shareable) cache entry *)
    Format.asprintf "raw:%a" Graph.pp g

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let timed h f =
  let timer = Timer.start () in
  Fun.protect ~finally:(fun () -> Metrics.observe h (Timer.elapsed_s timer)) f

(* the ids of the patterns in [set] that occur in [target], ascending,
   matched through the store's compiled plans *)
let scan store target set =
  let spec = Gen_iso.spec (Store.taxonomy store) in
  List.rev
    (Bitset.fold
       (fun i acc ->
         if Matcher.exists_compiled spec (Store.plan store i) ~target then
           i :: acc
         else acc)
       set [])

let contains ?(use_cache = true) t target =
  Metrics.incr t.c_contains;
  timed t.h_contains (fun () ->
      (* under degradation the min-DFS-code canonicalization itself is the
         cost being shed, so [use_cache:false] skips key computation
         entirely — not just the table lookup. A zero-capacity cache
         (--cache 0) likewise must not pay for keys it can never store. *)
      let use_cache = use_cache && Lru.capacity t.cache > 0 in
      let key = if use_cache then Some (cache_key target) else None in
      let hit =
        match key with
        | None -> None
        | Some k -> locked t.cache_lock (fun () -> Lru.find t.cache k)
      in
      match hit with
      | Some ids ->
        Metrics.incr t.c_hits;
        Array.to_list ids
      | None ->
        if use_cache then Metrics.incr t.c_misses;
        let cands = Store.candidates t.store target in
        let tested = Bitset.cardinal cands in
        Metrics.incr ~n:tested t.c_candidates;
        Metrics.incr ~n:tested t.c_iso_tests;
        let ids = scan t.store target cands in
        Option.iter
          (fun k ->
            let cached = Array.of_list ids in
            locked t.cache_lock (fun () -> Lru.add t.cache k cached))
          key;
        ids)

let contains_brute t target =
  let taxonomy = Store.taxonomy t.store in
  List.filter
    (fun i ->
      Gen_iso.subgraph_isomorphic taxonomy
        ~pattern:(Store.pattern t.store i).Pattern.graph ~target)
    (List.init (Store.size t.store) Fun.id)

let by_label t l =
  Metrics.incr t.c_by_label;
  timed t.h_by_label (fun () -> Bitset.to_list (Store.mentioning t.store l))

let top_k t ~k order =
  Metrics.incr t.c_top_k;
  timed t.h_top_k (fun () ->
      let take n arr to_pair =
        let n = max 0 (min n (Array.length arr)) in
        List.init n (fun i -> to_pair arr.(i))
      in
      match order with
      | `Support ->
        take k (Store.by_support t.store) (fun i ->
            (i, (Store.pattern t.store i).Pattern.support))
      | `Interest -> (
        match Store.by_interest t.store with
        | Some scored -> take k scored Fun.id
        | None ->
          failwith
            "top-k by interest needs the originating database (build the \
             store with ~db / serve with --db)"))

let cache_hit_rate t = Metrics.hit_rate ~hits:t.c_hits ~misses:t.c_misses
