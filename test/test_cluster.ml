(* Cluster suite: the consistent-hash ring (determinism, coverage,
   resharding stability), store slicing (global ids, inherited interest,
   composition), pure scatter-gather merging, a qcheck property that any
   sharding of the demo patterns answers byte-identically to one
   unsharded engine, and TCP integration against kill-able backends:
   failover with zero client-visible errors, OVERLOADED failover,
   hedging past a slow replica, and rolling reload. *)

module Shard_map = Tsg_cluster.Shard_map
module Merge = Tsg_cluster.Merge
module Replica = Tsg_cluster.Replica
module Router = Tsg_cluster.Router
module Checksum = Tsg_util.Checksum
module Metrics = Tsg_util.Metrics
module Prng = Tsg_util.Prng
module Label = Tsg_graph.Label
module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Pattern = Tsg_core.Pattern
module Taxogram = Tsg_core.Taxogram
module Specialize = Tsg_core.Specialize
module Store = Tsg_query.Store
module Engine = Tsg_query.Engine
module Protocol = Tsg_query.Protocol
module Serve = Tsg_query.Serve
module Epoch = Tsg_query.Epoch
module Pattern_io = Tsg_core.Pattern_io
module Fault = Tsg_util.Fault
module Diagnostic = Tsg_util.Diagnostic

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let has_prefix p l =
  String.length l >= String.length p && String.sub l 0 (String.length p) = p

let counter_value metrics name = Metrics.value (Metrics.counter metrics name)

(* --- Shard_map --------------------------------------------------------------- *)

let keys n = List.init n (Printf.sprintf "key-%d")

let test_ring_determinism () =
  let a = Shard_map.create ~shards:4 () in
  let b = Shard_map.create ~shards:4 () in
  List.iter
    (fun k ->
      let sa = Shard_map.shard_of_key a k in
      check int ("agree on " ^ k) sa (Shard_map.shard_of_key b k);
      check bool "in range" true (sa >= 0 && sa < 4))
    (keys 200);
  let one = Shard_map.create ~shards:1 () in
  List.iter
    (fun k -> check int "single shard owns all" 0 (Shard_map.shard_of_key one k))
    (keys 50)

let test_ring_coverage () =
  let m = Shard_map.create ~shards:4 () in
  let owned = Array.make 4 0 in
  List.iter
    (fun k -> owned.(Shard_map.shard_of_key m k) <- 1 + owned.(Shard_map.shard_of_key m k))
    (keys 500);
  Array.iteri
    (fun i n ->
      check bool (Printf.sprintf "shard %d owns keys" i) true (n > 0))
    owned

let test_ring_stability () =
  (* going 3 -> 4 shards must move a minority of keys, not reshuffle *)
  let m3 = Shard_map.create ~shards:3 () in
  let m4 = Shard_map.create ~shards:4 () in
  let moved =
    List.fold_left
      (fun acc k ->
        if Shard_map.shard_of_key m3 k <> Shard_map.shard_of_key m4 k then
          acc + 1
        else acc)
      0 (keys 500)
  in
  check bool
    (Printf.sprintf "3->4 shards moved %d of 500 keys (expect ~125)" moved)
    true
    (moved > 0 && moved < 250)

let test_ring_invalid () =
  let raises f =
    match f () with
    | (_ : Shard_map.t) -> false
    | exception Invalid_argument _ -> true
  in
  check bool "0 shards rejected" true
    (raises (fun () -> Shard_map.create ~shards:0 ()));
  check bool "0 vnodes rejected" true
    (raises (fun () -> Shard_map.create ~vnodes:0 ~shards:2 ()))

let test_fingerprint_is_fnv1a64 () =
  List.iter
    (fun s ->
      check bool ("fingerprint of " ^ s) true
        (Shard_map.fingerprint s = Checksum.fnv1a64 s))
    [ ""; "a"; "shard-0#0"; "by-label root:c0" ]

(* --- fixtures: a small mined store (with its db, so interest works) ---------- *)

let fixture_taxonomy () =
  Taxonomy.build
    ~names:[ "a"; "b"; "c"; "d"; "e" ]
    ~is_a:[ ("b", "a"); ("c", "a"); ("d", "b"); ("e", "b") ]

let fixture_db t =
  let id n = Taxonomy.id_of_name t n in
  Db.of_list
    [
      Graph.build ~labels:[| id "d"; id "c" |] ~edges:[ (0, 1, 0) ];
      Graph.build ~labels:[| id "e"; id "c" |] ~edges:[ (0, 1, 0) ];
      Graph.build
        ~labels:[| id "d"; id "e"; id "c" |]
        ~edges:[ (0, 1, 0); (1, 2, 0) ];
    ]

let fixture_store () =
  let t = fixture_taxonomy () in
  let db = fixture_db t in
  let config =
    { Taxogram.min_support = 0.3; max_edges = Some 2;
      enhancements = Specialize.all_on }
  in
  let r = Taxogram.run (Taxogram.Spec.collect ~config ~domains:1 ()) t db in
  (t, db, Store.build ~taxonomy:t ~db ~db_size:(Db.size db) r.Taxogram.patterns)

let engine store = Engine.create ~metrics:(Metrics.create ()) store

let slice_stores store nshards =
  let map = Shard_map.create ~shards:nshards () in
  List.init nshards (fun si ->
      Store.slice store ~keep:(fun i ->
          Shard_map.shard_of_key map (Pattern.key (Store.pattern store i)) = si))

(* --- Store.slice ------------------------------------------------------------- *)

let test_slice_external_ids () =
  let _, _, store = fixture_store () in
  let n = Store.size store in
  check bool "fixture mines enough patterns" true (n >= 4);
  for i = 0 to n - 1 do
    check int "unsliced external id is the identity" i
      (Store.external_id store i)
  done;
  let evens = Store.slice store ~keep:(fun i -> i mod 2 = 0) in
  check int "slice size" ((n + 1) / 2) (Store.size evens);
  for i = 0 to Store.size evens - 1 do
    check int "external ids are the kept originals, in order" (2 * i)
      (Store.external_id evens i)
  done

let test_slice_partition () =
  let _, _, store = fixture_store () in
  let n = Store.size store in
  let slices = slice_stores store 3 in
  check int "slices partition the patterns" n
    (List.fold_left (fun acc s -> acc + Store.size s) 0 slices);
  let seen = Array.make n 0 in
  List.iter
    (fun s ->
      for i = 0 to Store.size s - 1 do
        let ext = Store.external_id s i in
        seen.(ext) <- seen.(ext) + 1
      done)
    slices;
  Array.iteri
    (fun i c -> check int (Printf.sprintf "pattern %d owned exactly once" i) 1 c)
    seen

let test_slice_composes () =
  let _, _, store = fixture_store () in
  let evens = Store.slice store ~keep:(fun i -> i mod 2 = 0) in
  let sub = Store.slice evens ~keep:(fun i -> i mod 2 = 0) in
  for i = 0 to Store.size sub - 1 do
    check int "slice of a slice keeps original ids" (4 * i)
      (Store.external_id sub i)
  done

let test_slice_inherits_interest () =
  let _, _, store = fixture_store () in
  let full =
    match Store.by_interest store with
    | Some a -> a
    | None -> Alcotest.fail "fixture store has no interest order"
  in
  let evens = Store.slice store ~keep:(fun i -> i mod 2 = 0) in
  let sliced =
    match Store.by_interest evens with
    | Some a -> a
    | None -> Alcotest.fail "slice lost the interest order"
  in
  (* every sliced entry carries the score the pattern had in the full
     store — inherited, not recomputed over the slice *)
  Array.iter
    (fun (local, score) ->
      let ext = Store.external_id evens local in
      let expected =
        Array.to_list full
        |> List.filter_map (fun (id, s) -> if id = ext then Some s else None)
      in
      check bool "score inherited from the unsliced store" true
        (expected = [ score ]))
    sliced

(* --- Merge ------------------------------------------------------------------- *)

let test_verb_of_query () =
  let t = fixture_taxonomy () in
  check bool "contains is a listing" true
    (Merge.verb_of_query (Protocol.Contains (Graph.build ~labels:[| 0 |] ~edges:[]))
    = Some Merge.List);
  check bool "by-label is a listing" true
    (Merge.verb_of_query (Protocol.By_label (Taxonomy.id_of_name t "a"))
    = Some Merge.List);
  check bool "top-k keeps k and order" true
    (Merge.verb_of_query (Protocol.Top_k (7, `Interest))
    = Some (Merge.Top_k (7, `Interest)));
  check bool "barriers have no merge plan" true
    (List.for_all
       (fun q -> Merge.verb_of_query q = None)
       Protocol.[ Stats; Health; Reload; Quit ])

let test_merge_list_sorts_and_dedups () =
  let a = "ok 2\np 3 support 2/3 x\np 1 support 1/3 y" in
  let b = "ok 2\np 2 support 3/3 z\np 1 support 9/9 DUPLICATE" in
  check string "union sorted by id, first duplicate wins"
    "ok 3\np 1 support 1/3 y\np 2 support 3/3 z\np 3 support 2/3 x"
    (Merge.merge Merge.List [ a; b ])

let test_merge_top_k_support () =
  let a = "ok 2\np 4 score 0.6667 support 2/3 x\np 1 score 0.6667 support 2/3 y" in
  let b = "ok 1\np 2 score 1.0000 support 3/3 z" in
  (* support desc, then id asc among the tied *)
  check string "top-2 by support with id tie-break"
    "ok 2\np 2 score 1.0000 support 3/3 z\np 1 score 0.6667 support 2/3 y"
    (Merge.merge (Merge.Top_k (2, `Support)) [ a; b ])

let test_merge_top_k_interest () =
  let a = "ok 1\np 5 score 2.5000 support 1/3 x" in
  let b = "ok 1\np 2 score 7.0000 support 1/3 y" in
  check string "top-1 by score"
    "ok 1\np 2 score 7.0000 support 1/3 y"
    (Merge.merge (Merge.Top_k (1, `Interest)) [ a; b ]);
  check string "k beyond the union returns everything"
    "ok 2\np 2 score 7.0000 support 1/3 y\np 5 score 2.5000 support 1/3 x"
    (Merge.merge (Merge.Top_k (10, `Interest)) [ a; b ])

let test_merge_propagates_first_error () =
  let good = "ok 1\np 0 support 1/3 x" in
  let e1 = "error OVERLOADED retry-after 0.1" in
  let e2 = "error BADREQ nope" in
  check string "first error block in shard order wins" e1
    (Merge.merge Merge.List [ good; e1; e2 ]);
  check string "an error beats every row" e2
    (Merge.merge (Merge.Top_k (3, `Support)) [ good; e2 ])

let test_merge_rejects_malformed () =
  let raises blocks =
    match Merge.merge Merge.List blocks with
    | (_ : string) -> false
    | exception Failure _ -> true
  in
  check bool "garbage header" true (raises [ "what is this" ]);
  check bool "header/row count mismatch" true (raises [ "ok 2\np 0 support 1/3 x" ]);
  check bool "bad result line" true (raises [ "ok 1\nq 0 support 1/3 x" ])

let test_merge_refuses_mixed_epochs () =
  let a = "ok 1\np 0 support 1/3 x" in
  let b = "ok 1\np 1 support 1/3 y" in
  let merged = "ok 2\np 0 support 1/3 x\np 1 support 1/3 y" in
  (* two different pinned epochs must refuse before any row-level work:
     blocks from different artifact versions never combine *)
  check bool "mixed epochs answer STALE_EPOCH" true
    (has_prefix "error STALE_EPOCH"
       (Merge.merge
          ~epochs:[ Some "1.00000000000000aa"; Some "2.00000000000000bb" ]
          Merge.List [ a; b ]));
  check string "equal epochs merge normally" merged
    (Merge.merge
       ~epochs:[ Some "1.00000000000000aa"; Some "1.00000000000000aa" ]
       Merge.List [ a; b ]);
  check string "an unknown epoch never refuses" merged
    (Merge.merge ~epochs:[ None; Some "1.00000000000000aa" ] Merge.List [ a; b ]);
  check string "no epochs at all is the legacy path" merged
    (Merge.merge Merge.List [ a; b ])

(* --- sharding equivalence ----------------------------------------------------- *)

let random_requests rng t db =
  let names = Taxonomy.labels t in
  let edge_labels = Label.of_names [ "e0" ] in
  let graphs = Array.of_list (Db.to_list db) in
  let n = 5 + Prng.int rng 10 in
  List.init n (fun _ ->
      match Prng.int rng 4 with
      | 0 | 1 ->
        let g = graphs.(Prng.int rng (Array.length graphs)) in
        "contains " ^ Protocol.format_graph ~names ~edge_labels g
      | 2 ->
        let l = Prng.int rng (Taxonomy.label_count t) in
        "by-label " ^ Label.name names l
      | _ -> Printf.sprintf "top-k %d support" (Prng.int rng 30))

(* the tentpole acceptance property: scatter-gather over ANY sharding of
   the fixture patterns merges byte-identically to one unsharded engine
   (interest ordering is pinned by the deterministic test below — its
   printed %.4f scores can tie where the exact floats do not, so it is
   excluded from the randomized property) *)
let sharding_equivalence_prop =
  let t, db, store = fixture_store () in
  let full = engine store in
  QCheck.Test.make ~name:"any sharding merges byte-identical to unsharded"
    ~count:50
    QCheck.(pair (QCheck.make QCheck.Gen.(int_bound 1_000_000)) (int_range 1 4))
    (fun (seed, nshards) ->
      let rng = Prng.of_int seed in
      let engines = List.map engine (slice_stores store nshards) in
      let edge_labels = Label.of_names [ "e0" ] in
      List.for_all
        (fun line ->
          match Protocol.parse ~taxonomy:t ~edge_labels line with
          | None -> true
          | Some q -> (
            match Merge.verb_of_query q with
            | None -> true
            | Some verb ->
              let expected = Serve.answer full q in
              let blocks = List.map (fun e -> Serve.answer e q) engines in
              Merge.merge verb blocks = expected)
          | exception Protocol.Parse_error _ -> true)
        (random_requests rng t db))

let test_interest_merge_identity () =
  let _, _, store = fixture_store () in
  let full = engine store in
  List.iter
    (fun nshards ->
      let engines = List.map engine (slice_stores store nshards) in
      List.iter
        (fun k ->
          let q = Protocol.Top_k (k, `Interest) in
          check string
            (Printf.sprintf "top-%d interest over %d shards" k nshards)
            (Serve.answer full q)
            (Merge.merge
               (Merge.Top_k (k, `Interest))
               (List.map (fun e -> Serve.answer e q) engines)))
        [ 1; 3; 1000 ])
    [ 2; 3; 4 ]

(* --- TCP integration: kill-able backends -------------------------------------- *)

(* a real Serve.run backend behind our own accept loop, so a test can
   hard-kill it: every socket is shut down at once, the way SIGKILL
   looks to the peers (in-flight replies cut, new connects refused) *)
type backend = { b_port : int; b_kill : unit -> unit }

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let serve_backend ?slot store =
  let gen =
    {
      Serve.gen_engine = engine store;
      gen_labels = Label.Snapshot.of_table (Label.of_names [ "e0" ]);
      gen_checksum = None;
    }
  in
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 32;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "inet socket expected"
  in
  let lock = Mutex.create () in
  let conns = ref [] in
  let dead = ref false in
  let accepter =
    Thread.create
      (fun () ->
        let stop = ref false in
        while not !stop do
          if locked lock (fun () -> !dead) then stop := true
          else
            match Unix.select [ lsock ] [] [] 0.05 with
            | [], _, _ -> ()
            | _ :: _, _, _ -> (
              match Unix.accept lsock with
              | fd, _ ->
                locked lock (fun () -> conns := fd :: !conns);
                ignore
                  (Thread.create
                     (fun fd ->
                       let ic = Unix.in_channel_of_descr fd in
                       let oc = Unix.out_channel_of_descr fd in
                       try
                         ignore
                           (Serve.run ~exec:(Tsg_util.Pool.Exec.create ~domains:1 ()) ?slot
                              gen ic oc)
                       with
                       | Sys_error _ | End_of_file | Unix.Unix_error _ -> ())
                     fd)
              | exception Unix.Unix_error _ -> stop := true)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done)
      ()
  in
  let kill () =
    let cs =
      locked lock (fun () ->
          dead := true;
          let cs = !conns in
          conns := [];
          cs)
    in
    List.iter
      (fun fd ->
        (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      cs;
    Thread.join accepter;
    try Unix.close lsock with Unix.Unix_error _ -> ()
  in
  { b_port = port; b_kill = kill }

(* a scriptable fake replica speaking just enough of the protocol to
   exercise the router: echoes tags, answers [handler body] per line *)
let fake_backend handler =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 32;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "inet socket expected"
  in
  let dead = ref false in
  let lock = Mutex.create () in
  let accepter =
    Thread.create
      (fun () ->
        let stop = ref false in
        while not !stop do
          if locked lock (fun () -> !dead) then stop := true
          else
            match Unix.select [ lsock ] [] [] 0.05 with
            | [], _, _ -> ()
            | _ :: _, _, _ -> (
              match Unix.accept lsock with
              | fd, _ ->
                ignore
                  (Thread.create
                     (fun fd ->
                       let ic = Unix.in_channel_of_descr fd in
                       let oc = Unix.out_channel_of_descr fd in
                       (try
                          let quit = ref false in
                          while not !quit do
                            let line = input_line ic in
                            let tag, body = Protocol.split_tag line in
                            if body = "quit" then quit := true
                            else begin
                              output_string oc
                                (Protocol.tag_reply tag (handler body) ^ "\n");
                              flush oc
                            end
                          done
                        with
                       | Sys_error _ | End_of_file | Unix.Unix_error _ -> ());
                       try Unix.close fd with Unix.Unix_error _ -> ())
                     fd)
              | exception Unix.Unix_error _ -> stop := true)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done)
      ()
  in
  let kill () =
    locked lock (fun () -> dead := true);
    Thread.join accepter;
    try Unix.close lsock with Unix.Unix_error _ -> ()
  in
  { b_port = port; b_kill = kill }

let replica port name =
  Replica.create ~host:Unix.inet_addr_loopback ~port ~name ()

let router_over ?taxonomy ?(deadline_s = 5.0) ?(hedge_min_s = 0.01) metrics
    shards =
  Router.create
    ~config:{ Router.default_config with deadline_s; hedge_min_s }
    ?taxonomy ~metrics
    ~shards:(Array.of_list (List.map Array.of_list shards))
    ()

let reply_exn router line =
  match Router.dispatch router line with
  | `Reply r -> r
  | `Quit | `None -> Alcotest.fail ("no reply to " ^ line)

let test_router_failover_zero_errors () =
  let t, _, store = fixture_store () in
  let b0 = serve_backend store in
  let b1 = serve_backend store in
  let metrics = Metrics.create () in
  let router =
    router_over ~taxonomy:t metrics
      [ [ replica b0.b_port "0/0"; replica b1.b_port "0/1" ] ]
  in
  let baseline = reply_exn router "top-k 3 support" in
  check bool "cluster answers before the kill" true (has_prefix "ok 3" baseline);
  (* hard-kill one replica; every request must still succeed *)
  b0.b_kill ();
  List.iter
    (fun q ->
      check bool ("survives the kill: " ^ q) true
        (has_prefix "ok " (reply_exn router q)))
    (List.init 24 (fun i -> Printf.sprintf "top-k %d support" (i + 1)));
  check string "same bytes after the kill" baseline
    (reply_exn router "top-k 3 support");
  check bool "failovers counted" true
    (counter_value metrics "cluster.failovers" >= 1);
  b1.b_kill ()

let test_router_all_dead_unavailable () =
  let _, _, store = fixture_store () in
  let b0 = serve_backend store in
  let b1 = serve_backend store in
  let metrics = Metrics.create () in
  let router =
    router_over ~deadline_s:2.0 metrics
      [ [ replica b0.b_port "0/0"; replica b1.b_port "0/1" ] ]
  in
  b0.b_kill ();
  b1.b_kill ();
  let r = reply_exn router "top-k 1 support" in
  check bool "whole-shard outage answers a coded error" true
    (has_prefix "error UNAVAILABLE" r || has_prefix "error DEADLINE" r);
  check bool "unavailability counted" true
    (counter_value metrics "cluster.unavailable" >= 1
    || counter_value metrics "cluster.deadline_giveups" >= 1)

let test_router_overloaded_failover () =
  let _, _, store = fixture_store () in
  let shedding =
    fake_backend (fun body ->
        if body = "health" then "ok health patterns 0 uptime 0.0"
        else "error OVERLOADED retry-after 0.05")
  in
  let real = serve_backend store in
  let metrics = Metrics.create () in
  let router =
    router_over metrics
      [ [ replica shedding.b_port "0/0"; replica real.b_port "0/1" ] ]
  in
  (* distinct lines rotate the preferred replica, so some prefer the
     shedding fake — those must fail over and still answer ok *)
  List.iter
    (fun q ->
      check bool ("sheds never reach the client: " ^ q) true
        (has_prefix "ok " (reply_exn router q)))
    (List.init 20 (fun i -> Printf.sprintf "top-k %d support" (i + 1)));
  check bool "failovers counted" true
    (counter_value metrics "cluster.failovers" >= 1);
  shedding.b_kill ();
  real.b_kill ()

let test_router_hedges_past_slow_replica () =
  let slow delay =
    fake_backend (fun body ->
        if body = "health" then "ok health patterns 0 uptime 0.0"
        else begin
          Thread.delay delay;
          "ok 0"
        end)
  in
  let a = slow 0.05 in
  let b = slow 0.45 in
  let metrics = Metrics.create () in
  let router =
    router_over ~deadline_s:2.0 ~hedge_min_s:0.01 metrics
      [ [ replica a.b_port "0/0"; replica b.b_port "0/1" ] ]
  in
  let t0 = Unix.gettimeofday () in
  let r = reply_exn router "top-k 0 support" in
  let elapsed = Unix.gettimeofday () -. t0 in
  check string "the fast replica's answer wins" "ok 0" r;
  check bool
    (Printf.sprintf "hedge beats the slow replica (%.3fs)" elapsed)
    true (elapsed < 0.35);
  check bool "hedge counted" true (counter_value metrics "cluster.hedges" >= 1);
  a.b_kill ();
  b.b_kill ()

let test_hedge_win_is_counted () =
  (* force the hedge to WIN, not merely fire: the stalled backend sits at
     the router's preferred index for this exact query key, so the
     primary attempt goes to it and only the hedge can answer in time *)
  let key = "top-k 1 support" in
  let pref = Int64.to_int (Shard_map.fingerprint key) land max_int mod 2 in
  let backend delay =
    fake_backend (fun body ->
        if body = "health" then "ok health patterns 0 uptime 0.0"
        else begin
          if delay > 0.0 then Thread.delay delay;
          "ok 0"
        end)
  in
  let slow = backend 0.6 in
  let fast = backend 0.0 in
  let order = if pref = 0 then [ slow; fast ] else [ fast; slow ] in
  let metrics = Metrics.create () in
  let router =
    router_over ~deadline_s:2.0 ~hedge_min_s:0.01 metrics
      [ List.mapi (fun i b -> replica b.b_port (Printf.sprintf "0/%d" i)) order ]
  in
  let t0 = Unix.gettimeofday () in
  let r = reply_exn router key in
  let elapsed = Unix.gettimeofday () -. t0 in
  check string "the hedge's answer wins" "ok 0" r;
  check bool
    (Printf.sprintf "answered before the stalled primary could (%.3fs)" elapsed)
    true (elapsed < 0.5);
  check bool "hedge fired" true (counter_value metrics "cluster.hedges" >= 1);
  check bool "hedge win accounted" true
    (counter_value metrics "cluster.hedge_wins" >= 1);
  slow.b_kill ();
  fast.b_kill ()

(* A reload lands while a query is in flight: the query left pinned at
   e1, then the one replica moved to e2 and the router's pin followed
   (here a scrub run by the backend itself; in a two-phase reload, the
   flip before the second commit wave). The replica answers the old pin
   STALE_EPOCH; the router must re-send at the new pin instead of handing
   the client an error during a clean reload. *)
let test_flipped_pin_is_resent () =
  let e1 = Epoch.make ~seq:1L ~sum:0x11L in
  let e2 = Epoch.make ~seq:2L ~sum:0x22L in
  let serving = Atomic.make e1 in
  let flipped = Atomic.make false in
  let router = ref None in
  let lock = Mutex.create () in
  let pins = ref [] in
  let b =
    fake_backend (fun body ->
        match Protocol.split_at body with
        | None, "health" ->
          "ok health patterns 1 uptime 0.0 epoch "
          ^ Epoch.to_string (Atomic.get serving)
        | Some pin, _ ->
          locked lock (fun () -> pins := pin :: !pins);
          if Atomic.compare_and_set flipped false true then begin
            Atomic.set serving e2;
            ignore (Router.scrub (Option.get !router))
          end;
          let now = Epoch.to_string (Atomic.get serving) in
          if pin = now then "ok 1\np 0 support 1/1 x"
          else Protocol.error_line Protocol.Stale_epoch ("serving " ^ now)
        | None, _ -> Protocol.error_line Protocol.Badreq "unpinned")
  in
  let metrics = Metrics.create () in
  let r = router_over metrics [ [ replica b.b_port "0/0" ] ] in
  router := Some r;
  ignore (Router.scrub r);
  check bool "pinned at e1" true
    (Option.equal Epoch.equal (Router.target_epoch r) (Some e1));
  check string "answered at the new pin" "ok 1\np 0 support 1/1 x"
    (reply_exn r "top-k 1 support");
  check (Alcotest.list string) "sent at e1, then once at e2"
    [ Epoch.to_string e1; Epoch.to_string e2 ]
    (List.rev (locked lock (fun () -> !pins)));
  check bool "pin moved to e2" true
    (Option.equal Epoch.equal (Router.target_epoch r) (Some e2));
  b.b_kill ()

let test_router_verbs_and_tags () =
  let _, _, store = fixture_store () in
  let b0 = serve_backend store in
  let metrics = Metrics.create () in
  let router = router_over metrics [ [ replica b0.b_port "0/0" ] ] in
  check bool "health summarizes the cluster" true
    (has_prefix "ok health shards 1 replicas 1 up 1" (reply_exn router "health"));
  check bool "tags round-trip" true
    (has_prefix "id t7 ok health" (reply_exn router "id t7 health"));
  let stats = reply_exn router "stats" in
  check bool "stats brackets the registry" true
    (has_prefix "begin stats" stats
    && has_prefix "end stats"
         (let lines = String.split_on_char '\n' stats in
          List.nth lines (List.length lines - 1)));
  check bool "stats carries cluster counters" true
    (List.exists
       (has_prefix "counter cluster.requests")
       (String.split_on_char '\n' stats));
  check bool "unknown verbs answer BADREQ" true
    (has_prefix "error BADREQ" (reply_exn router "frobnicate now"));
  (match Router.dispatch router "# comment" with
  | `None -> ()
  | `Reply _ | `Quit -> Alcotest.fail "comments are ignored");
  (match Router.dispatch router "quit" with
  | `Quit -> ()
  | `Reply _ | `None -> Alcotest.fail "quit ends the connection");
  b0.b_kill ()

(* the replies the router writes itself, pinned byte for byte (the
   malformed data lines are the unsharded server's own BADREQ texts) *)
let test_router_self_answers_pinned () =
  let _, _, store = fixture_store () in
  let b0 = serve_backend store in
  Fun.protect ~finally:b0.b_kill (fun () ->
      let router =
        router_over (Metrics.create ()) [ [ replica b0.b_port "0/0" ] ]
      in
      List.iter
        (fun (line, expect) ->
          check string ("reply to " ^ line) expect (reply_exn router line))
        [
          ("frobnicate now", {|error BADREQ unknown command "frobnicate"|});
          ("prepare", {|error BADREQ unknown command "prepare"|});
          ("commit", {|error BADREQ unknown command "commit"|});
          ("abort", {|error BADREQ unknown command "abort"|});
          ("id t1 prepare", {|id t1 error BADREQ unknown command "prepare"|});
          ( "at 1.00000000000000aa contains a,b 0-1",
            {|error BADREQ unknown command "at"|} );
          ("health extra", {|error BADREQ unknown command "health"|});
          ("epoch", "ok epoch none");
          ("id e epoch", "id e ok epoch none");
          ("contains", {|error BADREQ unknown command "contains"|});
          ("top-k x support", {|error BADREQ bad top-k count "x"|});
          ( "top-k 5 folly",
            {|error BADREQ bad top-k order "folly" (expected support or interest)|}
          );
          ("by-label nosuch", {|error BADREQ unknown label "nosuch"|});
        ];
      List.iter
        (fun line ->
          match Router.dispatch router line with
          | `None -> ()
          | `Reply r -> Alcotest.fail (Printf.sprintf "%S answered %S" line r)
          | `Quit -> Alcotest.fail (Printf.sprintf "%S quit" line))
        [ ""; "   "; "# comment"; "id c # comment" ];
      let stats = String.split_on_char '\n' (reply_exn router "stats") in
      check string "stats opens" "begin stats" (List.hd stats);
      check string "stats closes" "end stats"
        (List.nth stats (List.length stats - 1)))

(* how a replica's coded error moves the fan-out: the retry table *)
let test_router_error_classes () =
  List.iter
    (fun (code, expect) ->
      check bool
        ("class of " ^ Protocol.code_string code)
        true
        (Router.error_class code = expect))
    Protocol.
      [
        (Overloaded, Router.Retryable);
        (Unavailable, Router.Retryable);
        (Fault, Router.Retryable);
        (Internal, Router.Retryable);
        (Stale_epoch, Router.Stale);
        (Badreq, Router.Terminal);
        (Oversized, Router.Terminal);
        (Deadline, Router.Terminal);
        (Reload_failed, Router.Terminal);
      ]

(* Router.listen in a thread until [f port] returns *)
let with_router_listener ?max_conns router f =
  let stop = Atomic.make false in
  let port = Atomic.make 0 in
  let server =
    Thread.create
      (fun () ->
        ignore
          (Router.listen ?max_conns ~drain_s:2.0
             ~on_listen:(fun p -> Atomic.set port p)
             ~should_stop:(fun () -> Atomic.get stop)
             router ~port:0 ()))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  check bool "router listener came up" true (Atomic.get port <> 0);
  let result =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () -> f (Atomic.get port))
  in
  Thread.join server;
  result

(* send [lines], half-close, read to EOF (a reset ends the read too) *)
let tcp_exchange port lines =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      output_string oc lines;
      flush oc;
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      let buf = Buffer.create 256 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file | Sys_error _ -> ());
      Buffer.contents buf)

let test_router_listen_tcp () =
  let t, _, store = fixture_store () in
  let b0 = serve_backend store in
  Fun.protect ~finally:b0.b_kill (fun () ->
      let router =
        router_over ~taxonomy:t (Metrics.create ()) [ [ replica b0.b_port "0/0" ] ]
      in
      let expected = reply_exn router "top-k 3 support" in
      let text =
        with_router_listener router (fun port ->
            tcp_exchange port "id q1 top-k 3 support\nhealth\nquit\n")
      in
      let lines = String.split_on_char '\n' text in
      let n = List.length (String.split_on_char '\n' expected) in
      check string "the tagged query's reply, whole and tagged"
        ("id q1 " ^ expected)
        (String.concat "\n" (List.filteri (fun i _ -> i < n) lines));
      check bool "then the cluster health" true
        (has_prefix "ok health shards 1 replicas 1" (List.nth lines n));
      check string "nothing after quit" "" (List.nth lines (n + 1));
      check int "and no more lines" (n + 2) (List.length lines))

let test_router_listen_sheds () =
  let _, _, store = fixture_store () in
  let b0 = serve_backend store in
  Fun.protect ~finally:b0.b_kill (fun () ->
      let router =
        router_over (Metrics.create ()) [ [ replica b0.b_port "0/0" ] ]
      in
      (* max_conns = 0: every connection is shed with the bare line *)
      let text =
        with_router_listener ~max_conns:0 router (fun port ->
            tcp_exchange port "health\n")
      in
      check string "shed reply" "OVERLOADED\n" text)

(* --- epoch-consistent deployment ---------------------------------------------- *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* full-artifact bytes for one version of the fixture pattern set,
   stamped with the given WAL sequence; [support] varies the content *)
let artifact_bytes t db ~seq ~support =
  let config =
    { Taxogram.min_support = support; max_edges = Some 2;
      enhancements = Specialize.all_on }
  in
  let patterns =
    (Taxogram.run (Taxogram.Spec.collect ~config ~domains:1 ()) t db)
      .Taxogram.patterns
  in
  let edge_labels = Label.of_names [ "e0" ] in
  Epoch.stamp ~seq
    (Pattern_io.to_string ~node_labels:(Taxonomy.labels t) ~edge_labels
       ~db_size:(Db.size db) patterns)

(* the loader's build step: engine + labels for the artifact bytes,
   sliced for shard [si] of [nshards] exactly the way [tsg-serve --shard]
   does *)
let build_shard t ~metrics ~shard:(si, nshards) sources =
  let edge_labels = Label.create () in
  let full = Store.of_strings ~taxonomy:t ~edge_labels sources in
  let store =
    if nshards = 1 then full
    else begin
      let map = Shard_map.create ~shards:nshards () in
      Store.slice full ~keep:(fun i ->
          Shard_map.shard_of_key map (Pattern.key (Store.pattern full i)) = si)
    end
  in
  (Engine.create ~metrics store, edge_labels)

type epoch_backend = {
  e_port : int;
  e_kill : unit -> unit;
  e_swaps : unit -> int;  (** generations promoted (reload or commit) *)
  e_staged : unit -> bool;
  e_epoch : unit -> Epoch.t;  (** the serving epoch right now *)
}

(* a serve_backend driving the library's staging slot over an on-disk
   artifact: Serve.listen's reload machinery, but hard-killable like
   every other backend in this suite *)

let epoch_backend ?(fail_prepare = ref false) t ~shard path =
  let metrics = Metrics.create () in
  let load () =
    if !fail_prepare then
      Error
        (Diagnostic.make ~rule:"SRV002" Diagnostic.Error
           "injected prepare failure")
    else
      Serve.load ~require_stamp:false
        ~build:(build_shard t ~metrics ~shard)
        [ path ]
  in
  let gen0 =
    match load () with
    | Ok g -> g
    | Error d -> Alcotest.fail (Diagnostic.to_string d)
  in
  let slot = Serve.slot ~on_diagnostic:ignore ~load gen0 in
  let b = serve_backend ~slot (Engine.store gen0.Serve.gen_engine) in
  {
    e_port = b.b_port;
    e_kill = b.b_kill;
    e_swaps = (fun () -> counter_value metrics "serve.reloads");
    e_staged = (fun () -> Serve.staged slot <> None);
    e_epoch = (fun () -> Engine.epoch (Serve.live slot).Serve.gen_engine);
  }

let epoch_fixture () =
  let t = fixture_taxonomy () in
  let db = fixture_db t in
  (* two genuinely different artifact versions: looser and tighter
     support thresholds keep different pattern sets *)
  let v1 = artifact_bytes t db ~seq:1L ~support:0.3 in
  let v2 = artifact_bytes t db ~seq:2L ~support:1.0 in
  (t, v1, v2)

(* the single-node oracle: one unsharded engine over the same bytes *)
let reference t contents line =
  let edge_labels = Label.create () in
  let store = Store.of_strings ~taxonomy:t ~edge_labels [ ("ref", contents) ] in
  let engine = Engine.create ~metrics:(Metrics.create ()) store in
  match Protocol.parse ~taxonomy:t ~edge_labels line with
  | Some q -> Serve.answer engine q
  | None -> Alcotest.fail ("not a data query: " ^ line)
  | exception Protocol.Parse_error _ -> Alcotest.fail ("unparseable: " ^ line)

let epoch_of bytes = Epoch.of_sources [ ("artifact", bytes) ]

let with_epoch_pair f =
  let t, v1, v2 = epoch_fixture () in
  let p0 = Filename.temp_file "tsg_epoch" ".pat" in
  let p1 = Filename.temp_file "tsg_epoch" ".pat" in
  write_file p0 v1;
  write_file p1 v1;
  let fail_prepare = ref false in
  let b0 = epoch_backend t ~shard:(0, 1) p0 in
  let b1 = epoch_backend ~fail_prepare t ~shard:(0, 1) p1 in
  Fun.protect
    ~finally:(fun () ->
      b0.e_kill ();
      b1.e_kill ();
      (try Sys.remove p0 with Sys_error _ -> ());
      try Sys.remove p1 with Sys_error _ -> ())
    (fun () -> f ~t ~v1 ~v2 ~p0 ~p1 ~b0 ~b1 ~fail_prepare)

let epoch_router ?(resync = true) ?on_diagnostic t backends =
  let metrics = Metrics.create () in
  let router =
    Router.create
      ~config:
        { Router.default_config with deadline_s = 5.0; hedge_min_s = 0.01;
          reload_gate_s = 5.0; resync }
      ~taxonomy:t
      ?on_diagnostic ~metrics
      ~shards:
        (Array.of_list
           (List.mapi
              (fun si reps ->
                Array.of_list
                  (List.mapi
                     (fun ri (b : epoch_backend) ->
                       replica b.e_port (Printf.sprintf "%d/%d" si ri))
                     reps))
              backends))
      ()
  in
  (router, metrics)

let test_rolling_reload_walks_every_replica () =
  with_epoch_pair (fun ~t ~v1:_ ~v2 ~p0 ~p1 ~b0 ~b1 ~fail_prepare:_ ->
      let router, metrics = epoch_router t [ [ b0; b1 ] ] in
      write_file p0 v2;
      write_file p1 v2;
      check bool "reload verb reports the walk" true
        (has_prefix "ok reload replicas 2 epoch " (reply_exn router "reload"));
      check bool "every replica reloaded exactly once" true
        (b0.e_swaps () = 1 && b1.e_swaps () = 1);
      check int "reload counted" 1 (counter_value metrics "cluster.reloads");
      (* a replica without a staging slot answers UNAVAILABLE to prepare:
         that aborts the walk like any other refusal *)
      let _, _, store = fixture_store () in
      let refusing = serve_backend store in
      Fun.protect ~finally:refusing.b_kill (fun () ->
          let metrics2 = Metrics.create () in
          let router2 =
            router_over metrics2
              [ [ replica b0.e_port "0/0"; replica refusing.b_port "0/1" ] ]
          in
          check bool "failed walk answers error RELOAD" true
            (has_prefix "error RELOAD" (reply_exn router2 "reload"));
          check bool "the staged replica was released" false (b0.e_staged ());
          check int "no swap on the failed walk" 1 (b0.e_swaps ());
          check int "no reload recorded on failure" 0
            (counter_value metrics2 "cluster.reloads")))

let test_two_phase_reload_flips_epoch () =
  with_epoch_pair (fun ~t ~v1 ~v2 ~p0 ~p1 ~b0 ~b1 ~fail_prepare:_ ->
      let router, metrics = epoch_router t [ [ b0; b1 ] ] in
      let q = "top-k 5 support" in
      check string "pre-reload answers match the unsharded v1 engine"
        (reference t v1 q) (reply_exn router q);
      check string "no pin before the first reload" "ok epoch none"
        (reply_exn router "epoch");
      (* push v2 to every replica's disk, then roll *)
      write_file p0 v2;
      write_file p1 v2;
      let e2 = epoch_of v2 in
      check string "two-phase reload reports the new epoch"
        (Printf.sprintf "ok reload replicas 2 epoch %s" (Epoch.to_string e2))
        (reply_exn router "reload");
      check bool "target pin flipped" true
        (match Router.target_epoch router with
        | Some e -> Epoch.equal e e2
        | None -> false);
      check string "epoch verb reports the pin"
        (Printf.sprintf "ok epoch %s" (Epoch.to_string e2))
        (reply_exn router "epoch");
      let health = reply_exn router "health" in
      check bool "health counts the fleet and the pin" true
        (has_prefix "ok health shards 1 replicas 2 up 2 degraded 0" health
        &&
        let suffix = " epoch " ^ Epoch.to_string e2 in
        String.length health >= String.length suffix
        && String.sub health
             (String.length health - String.length suffix)
             (String.length suffix)
           = suffix);
      check int "each replica swapped exactly once" 2
        (b0.e_swaps () + b1.e_swaps ());
      check bool "both replicas serve the new epoch" true
        (Epoch.equal (b0.e_epoch ()) e2 && Epoch.equal (b1.e_epoch ()) e2);
      check bool "no staged swap left behind" true
        ((not (b0.e_staged ())) && not (b1.e_staged ()));
      check int "reload counted" 1 (counter_value metrics "cluster.reloads");
      check string "post-reload answers match the unsharded v2 engine"
        (reference t v2 q) (reply_exn router q))

let test_two_phase_abort_leaves_epoch_unchanged () =
  with_epoch_pair (fun ~t ~v1 ~v2 ~p0 ~p1 ~b0 ~b1 ~fail_prepare ->
      let router, metrics = epoch_router t [ [ b0; b1 ] ] in
      let q = "top-k 5 support" in
      let e1 = epoch_of v1 in
      (* (a) torn artifact push: one replica's disk has v2, the other
         still v1 — prepare stages mixed epochs and the round aborts *)
      write_file p0 v2;
      check bool "mixed-epoch prepare aborts with error RELOAD" true
        (has_prefix "error RELOAD" (reply_exn router "reload"));
      check int "abort counted" 1
        (counter_value metrics "cluster.reload_aborts");
      check bool "every staged swap released" true
        ((not (b0.e_staged ())) && not (b1.e_staged ()));
      check int "nothing committed" 0 (b0.e_swaps () + b1.e_swaps ());
      check bool "no target pin appeared" true
        (Router.target_epoch router = None);
      check bool "both replicas still serve v1" true
        (Epoch.equal (b0.e_epoch ()) e1 && Epoch.equal (b1.e_epoch ()) e1);
      check string "answers still match the unsharded v1 engine"
        (reference t v1 q) (reply_exn router q);
      (* (b) a replica that refuses to prepare aborts the round too *)
      write_file p1 v2;
      fail_prepare := true;
      check bool "refused prepare aborts" true
        (has_prefix "error RELOAD" (reply_exn router "reload"));
      check int "second abort counted" 2
        (counter_value metrics "cluster.reload_aborts");
      check int "still nothing committed" 0 (b0.e_swaps () + b1.e_swaps ());
      check bool "still serving v1" true
        (Epoch.equal (b0.e_epoch ()) e1 && Epoch.equal (b1.e_epoch ()) e1);
      (* (c) once the failure clears, the same roll goes through *)
      fail_prepare := false;
      check bool "reload succeeds after the failure clears" true
        (has_prefix "ok reload replicas 2 epoch " (reply_exn router "reload"));
      check string "answers now match the unsharded v2 engine"
        (reference t v2 q) (reply_exn router q))

let test_scrub_fences_and_repairs_straggler () =
  with_epoch_pair (fun ~t ~v1:_ ~v2 ~p0 ~p1 ~b0 ~b1 ~fail_prepare:_ ->
      let diags = ref [] in
      let dlock = Mutex.create () in
      let on_diagnostic d = locked dlock (fun () -> diags := d :: !diags) in
      let rules () =
        locked dlock (fun () -> List.map (fun d -> d.Diagnostic.rule) !diags)
      in
      let router, metrics = epoch_router ~on_diagnostic t [ [ b0; b1 ] ] in
      let reps = (Router.shards router).(0) in
      let e2 = epoch_of v2 in
      (* replica 1 races ahead: an operator pushes v2 to its disk and
         reloads it directly, bypassing the router *)
      write_file p1 v2;
      (match Replica.call reps.(1) "reload" with
      | Ok block when has_prefix "ok reload" block -> ()
      | Ok block -> Alcotest.fail ("direct reload refused: " ^ block)
      | Error msg -> Alcotest.fail ("direct reload failed: " ^ msg));
      check bool "replica 1 serves the new epoch" true
        (Epoch.equal (b1.e_epoch ()) e2);
      (* first scrub: the target moves to the newest served epoch;
         replica 0 (still v1 on disk) is fenced, and resync — reloading
         the stale artifact — cannot reach the target: RSY002 *)
      check int "one replica left fenced" 1 (Router.scrub router);
      check bool "target recomputed to the newest epoch" true
        (match Router.target_epoch router with
        | Some e -> Epoch.equal e e2
        | None -> false);
      check bool "behind replica fenced" true (Replica.degraded reps.(0));
      check bool "RSY001 raised on the fence" true
        (List.mem "RSY001" (rules ()));
      check bool "RSY002 raised when resync cannot reach the target" true
        (List.mem "RSY002" (rules ()));
      check bool "resync attempted" true
        (counter_value metrics "cluster.resyncs" >= 1);
      (* the fenced replica takes no data traffic: every answer is still
         byte-identical to the unsharded engine at the target epoch *)
      let q = "top-k 5 support" in
      check string "queries route around the fenced replica"
        (reference t v2 q) (reply_exn router q);
      (* the artifact push finally lands on replica 0; the next scrub
         round repairs and unfences it *)
      write_file p0 v2;
      check int "scrub repaired the straggler" 0 (Router.scrub router);
      check bool "unfenced after repair" true
        (not (Replica.degraded reps.(0)));
      check bool "repaired replica serves the target epoch" true
        (Epoch.equal (b0.e_epoch ()) e2);
      check string "whole cluster answers at the target epoch"
        (reference t v2 q) (reply_exn router q))

let test_scrub_no_resync_only_fences () =
  with_epoch_pair (fun ~t ~v1:_ ~v2 ~p0 ~p1 ~b0 ~b1 ~fail_prepare:_ ->
      let router, metrics = epoch_router ~resync:false t [ [ b0; b1 ] ] in
      let reps = (Router.shards router).(0) in
      (* both disks hold v2, but only replica 1 reloaded: replica 0 is
         repairable, yet --no-resync means the scrubber may only fence *)
      write_file p0 v2;
      write_file p1 v2;
      (match Replica.call reps.(1) "reload" with
      | Ok block when has_prefix "ok reload" block -> ()
      | Ok block -> Alcotest.fail ("direct reload refused: " ^ block)
      | Error msg -> Alcotest.fail ("direct reload failed: " ^ msg));
      check int "straggler fenced" 1 (Router.scrub router);
      check bool "fenced, not repaired" true (Replica.degraded reps.(0));
      check int "no repair reload was sent" 1 (b0.e_swaps () + b1.e_swaps ());
      check int "no resync attempted" 0
        (counter_value metrics "cluster.resyncs");
      check int "stays fenced on the next round" 1 (Router.scrub router);
      (* clients still get single-epoch answers from the up replica *)
      let q = "top-k 5 support" in
      check string "answers come from the target epoch"
        (reference t v2 q) (reply_exn router q))

let test_scrub_fault_skips_round () =
  with_epoch_pair (fun ~t ~v1:_ ~v2:_ ~p0:_ ~p1:_ ~b0 ~b1 ~fail_prepare:_ ->
      let router, metrics = epoch_router t [ [ b0; b1 ] ] in
      Fault.configure [ ("scrub.probe", Fault.Once) ];
      Fun.protect ~finally:Fault.clear (fun () ->
          check int "faulted round just reports the current fencing" 0
            (Router.scrub router);
          check bool "lost round counted" true
            (counter_value metrics "cluster.scrub_faults" >= 1);
          check int "the next round scrubs normally" 0 (Router.scrub router);
          check bool "scrub counted" true
            (counter_value metrics "cluster.scrubs" >= 1)))

(* the deployment acceptance property: under random interleavings of
   replica kills, aborted (torn-push) prepares and two-phase reloads,
   every [ok] reply the router hands a client is byte-identical to ONE
   unsharded engine at a single artifact epoch (v1 or v2) — never a
   mixed-version merge, whatever the cluster went through *)
let epoch_interleaving_prop =
  let t = fixture_taxonomy () in
  let db = fixture_db t in
  let v1 = artifact_bytes t db ~seq:1L ~support:0.3 in
  let v2 = artifact_bytes t db ~seq:2L ~support:1.0 in
  let queries =
    [ "top-k 1 support"; "top-k 3 support"; "top-k 8 support"; "by-label b" ]
  in
  let ref_v1 = List.map (fun q -> (q, reference t v1 q)) queries in
  let ref_v2 = List.map (fun q -> (q, reference t v2 q)) queries in
  QCheck.Test.make
    ~name:"interleaved kills/aborts/reloads never serve a mixed epoch"
    ~count:6
    QCheck.(pair (QCheck.make QCheck.Gen.(int_bound 1_000_000)) (int_range 1 2))
    (fun (seed, nshards) ->
      let rng = Prng.of_int seed in
      let paths =
        Array.init nshards (fun _ ->
            Array.init 2 (fun _ -> Filename.temp_file "tsg_epochq" ".pat"))
      in
      Array.iter (Array.iter (fun p -> write_file p v1)) paths;
      let backends =
        Array.init nshards (fun si ->
            Array.init 2 (fun ri ->
                epoch_backend t ~shard:(si, nshards) paths.(si).(ri)))
      in
      let killed = Array.map (Array.map (fun _ -> false)) backends in
      Fun.protect
        ~finally:(fun () ->
          Array.iteri
            (fun si reps ->
              Array.iteri
                (fun ri b -> if not killed.(si).(ri) then b.e_kill ())
                reps)
            backends;
          Array.iter
            (Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()))
            paths)
        (fun () ->
          let router, _metrics =
            epoch_router t
              (Array.to_list (Array.map Array.to_list backends))
          in
          let ok = ref true in
          let check_queries () =
            List.iter
              (fun q ->
                match Router.dispatch router q with
                | `Reply r ->
                  (* coded errors (whole shard down, deadline) are an
                     allowed outcome; an [ok] must be one whole version *)
                  if has_prefix "ok " r then begin
                    let at_v1 = r = List.assoc q ref_v1 in
                    let at_v2 = r = List.assoc q ref_v2 in
                    if not (at_v1 || at_v2) then ok := false
                  end
                | `Quit | `None -> ok := false)
              queries
          in
          check_queries ();
          let everyone v =
            Array.iter (Array.iter (fun p -> write_file p v)) paths
          in
          let ops = 3 + Prng.int rng 3 in
          for _ = 1 to ops do
            (match Prng.int rng 4 with
            | 0 ->
              (* clean push + two-phase roll to a random version *)
              everyone (if Prng.int rng 2 = 0 then v1 else v2);
              ignore (Router.dispatch router "reload")
            | 1 ->
              (* torn push: one replica's disk disagrees — the roll must
                 abort (or fail on a dead replica) and change nothing *)
              everyone v1;
              write_file paths.(0).(0) v2;
              (match Router.dispatch router "reload" with
              | `Reply r ->
                if not (has_prefix "error RELOAD" r) then ok := false
              | `Quit | `None -> ok := false)
            | 2 ->
              (* SIGKILL one replica, chosen at random *)
              let si = Prng.int rng nshards in
              let ri = Prng.int rng 2 in
              if not killed.(si).(ri) then begin
                backends.(si).(ri).e_kill ();
                killed.(si).(ri) <- true
              end
            | _ -> () (* an extra client round between faults *));
            check_queries ()
          done;
          !ok))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "cluster"
    [
      ( "shard-map",
        [
          Alcotest.test_case "deterministic" `Quick test_ring_determinism;
          Alcotest.test_case "covers every shard" `Quick test_ring_coverage;
          Alcotest.test_case "resharding moves a minority" `Quick
            test_ring_stability;
          Alcotest.test_case "rejects invalid sizes" `Quick test_ring_invalid;
          Alcotest.test_case "fingerprint is fnv1a64" `Quick
            test_fingerprint_is_fnv1a64;
        ] );
      ( "slice",
        [
          Alcotest.test_case "external ids" `Quick test_slice_external_ids;
          Alcotest.test_case "partition" `Quick test_slice_partition;
          Alcotest.test_case "composes" `Quick test_slice_composes;
          Alcotest.test_case "inherits interest" `Quick
            test_slice_inherits_interest;
        ] );
      ( "merge",
        [
          Alcotest.test_case "verb of query" `Quick test_verb_of_query;
          Alcotest.test_case "list sorts and dedups" `Quick
            test_merge_list_sorts_and_dedups;
          Alcotest.test_case "top-k support tie-break" `Quick
            test_merge_top_k_support;
          Alcotest.test_case "top-k interest" `Quick test_merge_top_k_interest;
          Alcotest.test_case "propagates first error" `Quick
            test_merge_propagates_first_error;
          Alcotest.test_case "rejects malformed" `Quick
            test_merge_rejects_malformed;
          Alcotest.test_case "refuses mixed epochs" `Quick
            test_merge_refuses_mixed_epochs;
        ] );
      ( "equivalence",
        Alcotest.test_case "interest identical across shard counts" `Quick
          test_interest_merge_identity
        :: qsuite [ sharding_equivalence_prop ] );
      ( "router",
        [
          Alcotest.test_case "verbs and tags" `Quick test_router_verbs_and_tags;
          Alcotest.test_case "self-answered replies pinned" `Quick
            test_router_self_answers_pinned;
          Alcotest.test_case "error code classes" `Quick
            test_router_error_classes;
          Alcotest.test_case "listen: tagged query and health over tcp"
            `Quick test_router_listen_tcp;
          Alcotest.test_case "listen: shed client reads OVERLOADED" `Quick
            test_router_listen_sheds;
          Alcotest.test_case "failover: kill one replica, zero errors" `Quick
            test_router_failover_zero_errors;
          Alcotest.test_case "whole shard dead answers UNAVAILABLE" `Quick
            test_router_all_dead_unavailable;
          Alcotest.test_case "OVERLOADED replies fail over" `Quick
            test_router_overloaded_failover;
          Alcotest.test_case "hedging beats a slow replica" `Quick
            test_router_hedges_past_slow_replica;
          Alcotest.test_case "hedge wins are accounted" `Quick
            test_hedge_win_is_counted;
          Alcotest.test_case "rolling reload walks every replica" `Quick
            test_rolling_reload_walks_every_replica;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "two-phase reload flips the cluster epoch" `Quick
            test_two_phase_reload_flips_epoch;
          Alcotest.test_case "aborted reload leaves the epoch unchanged" `Quick
            test_two_phase_abort_leaves_epoch_unchanged;
          Alcotest.test_case "scrub fences and repairs a straggler" `Quick
            test_scrub_fences_and_repairs_straggler;
          Alcotest.test_case "no-resync scrub only fences" `Quick
            test_scrub_no_resync_only_fences;
          Alcotest.test_case "faulted scrub round is skipped" `Quick
            test_scrub_fault_skips_round;
          Alcotest.test_case "pin flipped mid-request is re-sent" `Quick
            test_flipped_pin_is_resent;
        ]
        @ qsuite [ epoch_interleaving_prop ] );
    ]
