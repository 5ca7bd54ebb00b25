(* The work-stealing pool (Tsg_util.Pool.Exec) and the determinism
   contract of Taxogram.run across domain counts: same canonical pattern
   set, same supports, whatever the schedule — including under time
   budgets, where `Collect must report a prefix of the canonical root
   sequence. Also the per-domain Arena scratch cache the pool's workers
   drain on exit. *)

module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Prng = Tsg_util.Prng
module Pool = Tsg_util.Pool
module Arena = Tsg_util.Arena
module Bitset = Tsg_util.Bitset
module Timer = Tsg_util.Timer
module Pattern = Tsg_core.Pattern
module Specialize = Tsg_core.Specialize
module Taxogram = Tsg_core.Taxogram

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Pool ------------------------------------------------------------------ *)

let test_pool_root_ids () =
  let exec = Pool.Exec.create ~domains:3 () in
  let tasks = List.init 7 (fun i _ctx -> i * i) in
  let results = Pool.Exec.run exec tasks in
  check int "one result per task" 7 (List.length results);
  List.iteri
    (fun i (tid, v) ->
      check (Alcotest.list int) "id is root index" [ i ] tid;
      check int "value" (i * i) v)
    results

let test_pool_empty () =
  let exec = Pool.Exec.create ~domains:2 () in
  check int "no tasks, no results" 0 (List.length (Pool.Exec.run exec []))

let test_pool_fork_ids domains () =
  let exec = Pool.Exec.create ~domains () in
  (* each root i forks i subtasks; ids must be [i] then [i;0] .. [i;i-1],
     and the flat listing must come back in lexicographic id order *)
  let task i ctx =
    for k = 0 to i - 1 do
      let ran = Atomic.make false in
      Pool.fork ctx (fun sub ->
          check (Alcotest.list int) "fork id" [ i; k ] (Pool.id sub);
          Atomic.set ran true;
          100 + (10 * i) + k);
      (* one domain has no thief to wait for: the child runs inside fork *)
      if domains = 1 then
        check bool "child ran before fork returned" true (Atomic.get ran)
    done;
    i
  in
  let results = Pool.Exec.run exec (List.init 4 task) in
  let expected =
    List.concat_map
      (fun i ->
        ([ i ], i) :: List.init i (fun k -> ([ i; k ], 100 + (10 * i) + k)))
      [ 0; 1; 2; 3 ]
  in
  check int "root + forked" (List.length expected) (List.length results);
  List.iter2
    (fun (want, v) (got, r) ->
      check (Alcotest.list int) "sorted by id" want got;
      check int "result in its own slot" v r)
    expected results

let test_pool_stealing_tree () =
  (* a binary fork tree deep enough that every domain has work to steal;
     the values must still sum exactly once per task *)
  let exec = Pool.Exec.create ~domains:4 () in
  let rec task depth ctx =
    if depth < 5 then begin
      Pool.fork ctx (task (depth + 1));
      Pool.fork ctx (task (depth + 1))
    end;
    1
  in
  let results = Pool.Exec.run exec [ task 0 ] in
  (* complete binary tree of depth 5: 2^6 - 1 tasks *)
  check int "every task ran once" 63
    (List.fold_left (fun acc (_, v) -> acc + v) 0 results);
  let ids = List.map fst results in
  check bool "ids strictly increasing" true
    (List.for_all2 (fun a b -> compare a b < 0)
       (List.filteri (fun i _ -> i < List.length ids - 1) ids)
       (List.tl ids))

let test_pool_exception () =
  let exec = Pool.Exec.create ~domains:3 () in
  let ran = Atomic.make 0 in
  let task i _ctx =
    if i = 5 then failwith "boom";
    Atomic.incr ran;
    i
  in
  (match Pool.Exec.run exec (List.init 32 task) with
  | _ -> Alcotest.fail "expected the task's exception to propagate"
  | exception Failure msg ->
    check Alcotest.string "original exception" "boom" msg);
  (* a second run on the same handle must work: domains are per-run, so a
     failed run leaves no poisoned state behind *)
  let results = Pool.Exec.run exec (List.init 4 (fun i _ctx -> i)) in
  check int "handle reusable after failure" 4 (List.length results)

let test_default_domains_env () =
  let orig = Sys.getenv_opt "TSG_DOMAINS" in
  let restore () =
    match orig with
    | Some v -> Unix.putenv "TSG_DOMAINS" v
    | None -> Unix.putenv "TSG_DOMAINS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "TSG_DOMAINS" "3";
      check int "TSG_DOMAINS honored" 3 (Pool.default_domains ());
      Unix.putenv "TSG_DOMAINS" "not-a-number";
      let fallback = min 8 (Domain.recommended_domain_count ()) in
      check int "garbage falls back" fallback (Pool.default_domains ());
      Unix.putenv "TSG_DOMAINS" "0";
      check int "non-positive falls back" fallback (Pool.default_domains ());
      Unix.putenv "TSG_DOMAINS" "";
      check int "empty falls back" fallback (Pool.default_domains ()))

let test_exec_snapshots_env () =
  (* Exec.create reads TSG_DOMAINS exactly once: a handle created under
     one setting keeps its width when the environment changes under it
     (the race the serve loop's hot reload used to lose) *)
  let orig = Sys.getenv_opt "TSG_DOMAINS" in
  let restore () =
    match orig with
    | Some v -> Unix.putenv "TSG_DOMAINS" v
    | None -> Unix.putenv "TSG_DOMAINS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "TSG_DOMAINS" "3";
      let exec = Pool.Exec.create () in
      check int "snapshot at create" 3 (Pool.Exec.domains exec);
      Unix.putenv "TSG_DOMAINS" "7";
      check int "handle ignores later env changes" 3 (Pool.Exec.domains exec);
      let results = Pool.Exec.run exec (List.init 5 (fun i _ctx -> i)) in
      check int "still runs" 5 (List.length results);
      check int "explicit ~domains wins over env" 2
        (Pool.Exec.domains (Pool.Exec.create ~domains:2 ())))

(* random fork trees: the tree shape is a pure function of (seed, id), so
   the expected id set can be computed without the pool, and the pool —
   at any domain count, under any steal schedule — must return exactly
   that set, sorted, with each task's value intact *)
let fork_tree_children seed id depth =
  if depth >= 3 then 0 else Hashtbl.hash (seed, id) mod 4

let fork_tree_value seed id = Hashtbl.hash (id, seed, "v")

let rec fork_tree_expected seed id depth =
  let k = fork_tree_children seed id depth in
  (id, fork_tree_value seed id)
  :: List.concat_map
       (fun c -> fork_tree_expected seed (id @ [ c ]) (depth + 1))
       (List.init k Fun.id)

let steal_fork_interleaving_prop =
  QCheck.Test.make
    ~name:"random fork trees: no loss, no dup, id-sorted (domains 1-8)"
    ~count:60
    (QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) (int_range 1 8)))
    (fun (seed, domains) ->
      let exec = Pool.Exec.create ~domains () in
      let roots = 1 + (Hashtbl.hash (seed, "roots") mod 4) in
      let rec task depth ctx =
        let id = Pool.id ctx in
        let k = fork_tree_children seed id depth in
        for _c = 0 to k - 1 do
          Pool.fork ctx (task (depth + 1))
        done;
        fork_tree_value seed id
      in
      let results = Pool.Exec.run exec (List.init roots (fun _ -> task 0)) in
      let expected =
        List.sort compare
          (List.concat_map
             (fun i -> fork_tree_expected seed [ i ] 0)
             (List.init roots Fun.id))
      in
      results = expected)

(* --- Arena: per-domain scratch reuse --------------------------------------- *)

let test_arena_reuse () =
  Arena.drain ();
  Arena.reset_stats ();
  let b = Bitset.create 128 in
  let s = Arena.acquire 128 in
  Bitset.set s 5;
  Arena.release s;
  ignore b;
  let s1 = Arena.stats () in
  check int "first acquire allocates" 1 s1.Arena.misses;
  check int "released bitset is cached" 1 s1.Arena.cached;
  let s' = Arena.acquire 128 in
  check bool "recycled bitset comes back cleared" false (Bitset.mem s' 5);
  let s2 = Arena.stats () in
  check int "second acquire reuses" 1 s2.Arena.hits;
  check int "cache emptied by the hit" 0 s2.Arena.cached;
  Arena.release s';
  (* with_bitset releases on raise too *)
  (try Arena.with_bitset 128 (fun _ -> failwith "x") with Failure _ -> ());
  let s3 = Arena.stats () in
  check int "with_bitset returns its bitset on raise" 1 s3.Arena.cached;
  check int "raise path counted as a hit" 2 s3.Arena.hits

let test_arena_in_pool_tasks () =
  (* tasks on worker domains each see their own arena; using it across a
     run must neither crash nor leak into the caller's counters *)
  Arena.drain ();
  Arena.reset_stats ();
  let exec = Pool.Exec.create ~domains:4 () in
  let task _i _ctx =
    Arena.with_bitset 256 (fun b ->
        Bitset.set b 7;
        Bitset.mem b 7)
  in
  let results = Pool.Exec.run exec (List.init 16 task) in
  check bool "every task saw its own cleared scratch" true
    (List.for_all snd results)

(* --- Taxogram determinism across domain counts ----------------------------- *)

let g ~labels ~edges = Graph.build ~labels ~edges

let config ?(max_edges = Some 3) theta =
  { Taxogram.min_support = theta; max_edges; enhancements = Specialize.all_on }

(* canonical byte-level fingerprint: sorted patterns printed with names,
   one per line — equal fingerprints mean equal sets AND equal supports *)
let fingerprint tax (r : Taxogram.result) =
  let names = Taxonomy.labels tax in
  String.concat "\n"
    (List.map
       (fun (p : Pattern.t) ->
         Printf.sprintf "%d %s" p.Pattern.support_count
           (Pattern.to_string ~names p))
       (Pattern.sort r.Taxogram.patterns))

let random_instance rng =
  let concepts = 4 + Prng.int rng 6 in
  let tax =
    Tsg_taxonomy.Synth_taxonomy.generate rng
      {
        concepts;
        relationships = concepts + Prng.int rng 4;
        depth = 2 + Prng.int rng 3;
      }
  in
  let sampler = Tsg_data.Synth_graph.uniform_labels tax in
  let db =
    Tsg_data.Synth_graph.generate rng
      {
        Tsg_data.Synth_graph.graph_count = 3 + Prng.int rng 5;
        max_edges = 6;
        edge_density = 0.3;
        edge_label_count = 2;
        node_label = sampler;
      }
  in
  (tax, db)

let arb_instance =
  QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) (int_bound 2))

let theta_of = function 0 -> 1.0 | 1 -> 0.5 | _ -> 0.34

let domains4_equals_domains1_prop =
  QCheck.Test.make ~name:"domains=4 byte-identical to domains=1" ~count:40
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let cfg = config (theta_of k) in
      let a =
        Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains:1 ()) tax db
      in
      let b =
        Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains:4 ()) tax db
      in
      fingerprint tax a = fingerprint tax b
      && a.Taxogram.class_count = b.Taxogram.class_count
      && a.Taxogram.covered_graph_count = b.Taxogram.covered_graph_count)

let stream_equals_collect_prop =
  QCheck.Test.make ~name:"`Stream domains=4 emits the `Collect set" ~count:25
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let cfg = config (theta_of k) in
      let collected =
        Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains:1 ()) tax db
      in
      let streamed = ref [] in
      let m = Mutex.create () in
      let r =
        Taxogram.run
          (Taxogram.Spec.stream ~config:cfg ~domains:4 (fun p ->
               Mutex.protect m (fun () -> streamed := p :: !streamed)))
          tax db
      in
      Pattern.equal_sets collected.Taxogram.patterns !streamed
      && r.Taxogram.pattern_count = List.length !streamed
      && r.Taxogram.patterns = [])

let level_wise_pool_prop =
  QCheck.Test.make ~name:"`Level_wise domains=4 = `Gspan domains=1" ~count:20
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let cfg = config (theta_of k) in
      let a =
        Taxogram.run
          (Taxogram.Spec.collect ~config:cfg ~class_miner:`Gspan ~domains:1 ())
          tax db
      in
      let b =
        Taxogram.run
          (Taxogram.Spec.collect ~config:cfg ~class_miner:`Level_wise
             ~domains:4 ())
          tax db
      in
      (* byte-identity is a same-miner guarantee: the two miners emit
         isomorphic class graphs under different vertex orders, so the
         cross-miner comparison is canonical-key + support-set equality *)
      Pattern.equal_sets a.Taxogram.patterns b.Taxogram.patterns
      && a.Taxogram.class_count = b.Taxogram.class_count)

let test_expired_budget_deterministic () =
  let rng = Prng.of_int 4242 in
  let tax, db = random_instance rng in
  let expired = Timer.Budget.of_seconds (-1.0) in
  List.iter
    (fun domains ->
      let r =
        Taxogram.run
          (Taxogram.Spec.collect ~config:(config 0.5) ~budget:expired ~domains
             ())
          tax db
      in
      check bool "incomplete" false r.Taxogram.completed;
      (* budget already expired when mining started: the canonical prefix
         is empty, identically at every domain count *)
      check int "no patterns reported" 0 r.Taxogram.pattern_count;
      check int "patterns field empty" 0 (List.length r.Taxogram.patterns))
    [ 1; 2; 4 ]

let budget_prefix_prop =
  (* whatever a tight budget leaves behind must be a subset of the
     unlimited run, with the same support on every surviving pattern *)
  QCheck.Test.make ~name:"budgeted `Collect is a subset with equal supports"
    ~count:20 arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let cfg = config (theta_of k) in
      let full =
        Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains:1 ()) tax db
      in
      let by_key =
        List.map
          (fun (p : Pattern.t) -> (Pattern.key p, p))
          full.Taxogram.patterns
      in
      List.for_all
        (fun domains ->
          let tight = Timer.Budget.of_seconds 1e-4 in
          let r =
            Taxogram.run
              (Taxogram.Spec.collect ~config:cfg ~budget:tight ~domains ())
              tax db
          in
          List.for_all
            (fun (p : Pattern.t) ->
              match List.assoc_opt (Pattern.key p) by_key with
              | Some q -> p.Pattern.support_count = q.Pattern.support_count
              | None -> false)
            r.Taxogram.patterns)
        [ 1; 4 ])

(* the [sink] doc promises the canonical order to a one-domain [`Stream]:
   every emitted pattern, in emission order, digested over a few fixed
   instances; the digests were recorded from the earlier sequential
   implementation, and both miners must keep them *)
let test_stream_order_pinned () =
  let digest class_miner =
    let buf = Buffer.create 4096 in
    let n = ref 0 in
    List.iter
      (fun seed ->
        let tax, db = random_instance (Prng.of_int seed) in
        let names = Taxonomy.labels tax in
        ignore
          (Taxogram.run
             (Taxogram.Spec.stream ~config:(config 0.34) ~class_miner
                ~domains:1 (fun p ->
                  incr n;
                  Buffer.add_string buf
                    (Printf.sprintf "%d %s\n" p.Pattern.support_count
                       (Pattern.to_string ~names p))))
             tax db);
        Buffer.add_string buf "--\n")
      [ 29; 32; 34; 37 ];
    (!n, Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  check (Alcotest.pair int Alcotest.string) "gSpan emission order"
    (167, "fc940a7c2752f08ca7ef4637445b3dc2") (digest `Gspan);
  check (Alcotest.pair int Alcotest.string) "level-wise emission order"
    (167, "1359a477b5923079cb08f09c20c1906e") (digest `Level_wise)

let test_spec_builders () =
  let tax =
    Taxonomy.build
      ~names:[ "a"; "b"; "c"; "d"; "e"; "f" ]
      ~is_a:[ ("b", "a"); ("c", "a"); ("d", "b"); ("e", "b"); ("f", "c") ]
  in
  let id n = Taxonomy.id_of_name tax n in
  let db =
    Db.of_list
      [
        g ~labels:[| id "d"; id "f" |] ~edges:[ (0, 1, 0) ];
        g ~labels:[| id "e"; id "f" |] ~edges:[ (0, 1, 0) ];
      ]
  in
  let base = Taxogram.Spec.collect ~config:(config 0.5) ~domains:1 () in
  let spec = { base with Taxogram.Spec.exec = Pool.Exec.create ~domains:2 () } in
  check int "a record update resizes the executor" 2
    (Taxogram.Spec.domains spec);
  check int "the base keeps its own" 1 (Taxogram.Spec.domains base);
  let direct = Taxogram.run base tax db in
  let pooled = Taxogram.run spec tax db in
  check bool "same set through the builders" true
    (Pattern.equal_sets direct.Taxogram.patterns pooled.Taxogram.patterns);
  (* one spec drives many runs *)
  let again = Taxogram.run spec tax db in
  check bool "spec reusable" true
    (Pattern.equal_sets pooled.Taxogram.patterns again.Taxogram.patterns)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "root ids in order" `Quick test_pool_root_ids;
          Alcotest.test_case "empty task list" `Quick test_pool_empty;
          Alcotest.test_case "fork ids" `Quick (test_pool_fork_ids 4);
          Alcotest.test_case "fork ids, one domain: the child runs in fork"
            `Quick (test_pool_fork_ids 1);
          Alcotest.test_case "stealing on a fork tree" `Quick
            test_pool_stealing_tree;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "TSG_DOMAINS override" `Quick
            test_default_domains_env;
          Alcotest.test_case "Exec snapshots TSG_DOMAINS once" `Quick
            test_exec_snapshots_env;
        ]
        @ qsuite [ steal_fork_interleaving_prop ] );
      ( "arena",
        [
          Alcotest.test_case "acquire/release reuse" `Quick test_arena_reuse;
          Alcotest.test_case "scratch inside pool tasks" `Quick
            test_arena_in_pool_tasks;
        ] );
      ( "determinism",
        Alcotest.test_case "expired budget, all domain counts" `Quick
          test_expired_budget_deterministic
        :: Alcotest.test_case "Spec builders" `Quick test_spec_builders
        :: Alcotest.test_case "one-domain `Stream order pinned" `Quick
             test_stream_order_pinned
        :: qsuite
             [
               domains4_equals_domains1_prop;
               stream_equals_collect_prop;
               level_wise_pool_prop;
               budget_prefix_prop;
             ] );
    ]
