(* Overload-resilience suite: the Limiter primitives under a virtual
   clock, the Admission gate (queue bound, per-client rate, CoDel
   deadline shedding, the degradation ladder), equivalence properties
   (degraded modes never change the result of an admitted query), a
   deterministic 4x-saturation simulation, and hot artifact reload under
   live TCP traffic (zero dropped in-flight requests, corrupt artifacts
   roll back with SRV00x diagnostics). *)

module Limiter = Tsg_util.Limiter
module Metrics = Tsg_util.Metrics
module Diagnostic = Tsg_util.Diagnostic
module Prng = Tsg_util.Prng
module Label = Tsg_graph.Label
module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Pattern_io = Tsg_core.Pattern_io
module Taxogram = Tsg_core.Taxogram
module Specialize = Tsg_core.Specialize
module Store = Tsg_query.Store
module Engine = Tsg_query.Engine
module Admission = Tsg_query.Admission
module Protocol = Tsg_query.Protocol
module Epoch = Tsg_query.Epoch
module Serve = Tsg_query.Serve

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* a controllable clock: tests advance time explicitly, nothing sleeps *)
let vclock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun dt -> now := !now +. dt)

let has_prefix p l =
  String.length l >= String.length p && String.sub l 0 (String.length p) = p

(* --- Limiter.Token_bucket -------------------------------------------------- *)

let test_bucket_burst_and_refill () =
  let clock, advance = vclock () in
  let b = Limiter.Token_bucket.create ~clock ~rate:1.0 ~burst:3.0 () in
  check bool "burst of 3 admitted" true
    (Limiter.Token_bucket.try_take b
    && Limiter.Token_bucket.try_take b
    && Limiter.Token_bucket.try_take b);
  check bool "4th shed" false (Limiter.Token_bucket.try_take b);
  check (Alcotest.float 1e-9) "retry-after one token" 1.0
    (Limiter.Token_bucket.retry_after_s b);
  advance 2.0;
  check bool "refilled 2 tokens" true
    (Limiter.Token_bucket.try_take b && Limiter.Token_bucket.try_take b);
  check bool "but not 3" false (Limiter.Token_bucket.try_take b)

let test_bucket_backwards_clock () =
  let now = ref 100.0 in
  let b =
    Limiter.Token_bucket.create ~clock:(fun () -> !now) ~rate:10.0 ~burst:2.0 ()
  in
  check bool "take" true (Limiter.Token_bucket.try_take b);
  now := 0.0;
  (* a clock stepping backwards must neither drain nor refill the bucket *)
  check (Alcotest.float 1e-9) "one token left" 1.0
    (Limiter.Token_bucket.available b);
  check bool "still takes the remaining token" true
    (Limiter.Token_bucket.try_take b);
  check bool "then sheds" false (Limiter.Token_bucket.try_take b)

(* --- Limiter.Breaker -------------------------------------------------------- *)

let test_breaker_trip_and_recover () =
  let clock, advance = vclock () in
  let b =
    Limiter.Breaker.create ~clock ~window:16 ~min_samples:4 ~failure_ratio:0.5
      ~cooldown_s:1.0 ()
  in
  Limiter.Breaker.record b ~ok:false;
  Limiter.Breaker.record b ~ok:false;
  Limiter.Breaker.record b ~ok:false;
  check bool "below min_samples stays closed" true
    (Limiter.Breaker.state b = Limiter.Breaker.Closed);
  Limiter.Breaker.record b ~ok:false;
  check bool "tripped open" true
    (Limiter.Breaker.state b = Limiter.Breaker.Open);
  check bool "open sheds" false (Limiter.Breaker.allow b);
  check bool "retry-after bounded by cooldown" true
    (Limiter.Breaker.retry_after_s b <= 1.0);
  advance 1.1;
  check bool "half-open after cooldown" true
    (Limiter.Breaker.state b = Limiter.Breaker.Half_open);
  check bool "single probe allowed" true (Limiter.Breaker.allow b);
  check bool "second probe gated" false (Limiter.Breaker.allow b);
  Limiter.Breaker.record b ~ok:true;
  check bool "good probe closes" true
    (Limiter.Breaker.state b = Limiter.Breaker.Closed);
  (* the window was forgotten: it takes min_samples fresh failures to
     trip again *)
  Limiter.Breaker.record b ~ok:false;
  Limiter.Breaker.record b ~ok:false;
  check bool "still closed on stale history" true
    (Limiter.Breaker.state b = Limiter.Breaker.Closed)

let test_breaker_failed_probe_reopens () =
  let clock, advance = vclock () in
  let b =
    Limiter.Breaker.create ~clock ~window:8 ~min_samples:2 ~failure_ratio:0.5
      ~cooldown_s:1.0 ()
  in
  Limiter.Breaker.record b ~ok:false;
  Limiter.Breaker.record b ~ok:false;
  check bool "open" true (Limiter.Breaker.state b = Limiter.Breaker.Open);
  advance 1.5;
  check bool "probe allowed" true (Limiter.Breaker.allow b);
  Limiter.Breaker.record b ~ok:false;
  check bool "failed probe reopens" true
    (Limiter.Breaker.state b = Limiter.Breaker.Open);
  check bool "fresh cooldown" true (Limiter.Breaker.retry_after_s b > 0.0)

(* --- Limiter.Window --------------------------------------------------------- *)

let test_window_percentile () =
  let w = Limiter.Window.create ~capacity:200 in
  check (Alcotest.float 0.0) "empty is 0" 0.0 (Limiter.Window.percentile w 99.0);
  for i = 1 to 100 do
    Limiter.Window.observe w (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50 nearest-rank" 50.0
    (Limiter.Window.percentile w 50.0);
  check (Alcotest.float 1e-9) "p99 nearest-rank" 99.0
    (Limiter.Window.percentile w 99.0);
  check (Alcotest.float 1e-9) "p100 is max" 100.0
    (Limiter.Window.percentile w 100.0)

let test_window_single_sample () =
  let w = Limiter.Window.create ~capacity:8 in
  Limiter.Window.observe w 42.0;
  List.iter
    (fun q ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "p%.0f of one sample is the sample" q)
        42.0
        (Limiter.Window.percentile w q))
    [ 1.0; 50.0; 95.0; 99.0; 100.0 ];
  check int "count" 1 (Limiter.Window.count w);
  check (Alcotest.float 1e-9) "max" 42.0 (Limiter.Window.max_value w)

let test_window_wraparound_percentiles () =
  (* capacity 5, 7 observations: the ring wrapped, only 3..7 remain —
     every percentile must be computed over the surviving window, in
     sorted order regardless of ring position *)
  let w = Limiter.Window.create ~capacity:5 in
  for i = 1 to 7 do
    Limiter.Window.observe w (float_of_int i)
  done;
  check int "count capped at capacity" 5 (Limiter.Window.count w);
  check int "total keeps history" 7 (Limiter.Window.total w);
  (* nearest-rank over [3;4;5;6;7]: rank = ceil(q/100 * 5) *)
  List.iter
    (fun (q, expect) ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "p%.0f after wrap" q)
        expect
        (Limiter.Window.percentile w q))
    [ (1.0, 3.0); (20.0, 3.0); (40.0, 4.0); (50.0, 5.0); (95.0, 7.0);
      (100.0, 7.0) ];
  (* exactly one more wrap step drops the oldest survivor *)
  Limiter.Window.observe w 8.0;
  check (Alcotest.float 1e-9) "oldest forgotten" 4.0
    (Limiter.Window.percentile w 1.0)

let test_window_slides () =
  let w = Limiter.Window.create ~capacity:4 in
  for i = 1 to 8 do
    Limiter.Window.observe w (float_of_int i)
  done;
  check int "count capped" 4 (Limiter.Window.count w);
  check int "total keeps history" 8 (Limiter.Window.total w);
  (* only 5..8 remain in the window *)
  check (Alcotest.float 1e-9) "old observations forgotten" 5.0
    (Limiter.Window.percentile w 1.0);
  check (Alcotest.float 1e-9) "max over window" 8.0
    (Limiter.Window.max_value w)

let test_breaker_half_open_retrip () =
  let clock, advance = vclock () in
  let b =
    Limiter.Breaker.create ~clock ~window:8 ~min_samples:3 ~failure_ratio:0.5
      ~cooldown_s:1.0 ()
  in
  Limiter.Breaker.record b ~ok:false;
  Limiter.Breaker.record b ~ok:false;
  Limiter.Breaker.record b ~ok:false;
  check bool "tripped" true (Limiter.Breaker.state b = Limiter.Breaker.Open);
  advance 1.1;
  check bool "half-open" true
    (Limiter.Breaker.state b = Limiter.Breaker.Half_open);
  check bool "probe allowed" true (Limiter.Breaker.allow b);
  Limiter.Breaker.record b ~ok:true;
  check bool "good probe closes" true
    (Limiter.Breaker.state b = Limiter.Breaker.Closed);
  (* recovery cleared the window: re-tripping needs min_samples FRESH
     failures, two are not enough *)
  Limiter.Breaker.record b ~ok:false;
  Limiter.Breaker.record b ~ok:false;
  check bool "stale history cannot re-trip" true
    (Limiter.Breaker.state b = Limiter.Breaker.Closed);
  Limiter.Breaker.record b ~ok:false;
  check bool "third fresh failure re-trips" true
    (Limiter.Breaker.state b = Limiter.Breaker.Open);
  check bool "re-trip sheds again" false (Limiter.Breaker.allow b);
  advance 1.1;
  check bool "and cools down again" true
    (Limiter.Breaker.state b = Limiter.Breaker.Half_open)

(* --- Admission -------------------------------------------------------------- *)

let admission ?(config = Admission.default_config) clock =
  let metrics = Metrics.create () in
  (Admission.create ~clock ~config ~metrics (), metrics)

let shed_reason = function
  | Admission.Shed { reason; _ } -> Some reason
  | Admission.Admit _ -> None

let ticket_exn = function
  | Admission.Admit t -> t
  | Admission.Shed _ -> Alcotest.fail "expected Admit"

let test_admission_queue_bound () =
  let clock, _ = vclock () in
  let adm, metrics =
    admission ~config:{ Admission.default_config with max_queue = 2; ladder = false } clock
  in
  let cl = Admission.client adm in
  let t1 = ticket_exn (Admission.admit adm cl Admission.Contains) in
  let _t2 = ticket_exn (Admission.admit adm cl Admission.Contains) in
  check bool "3rd arrival sheds Queue_full" true
    (shed_reason (Admission.admit adm cl Admission.Contains)
    = Some Admission.Queue_full);
  check int "in flight" 2 (Admission.in_flight adm);
  (match Admission.start adm t1 with
  | `Run _ -> Admission.finish adm t1 ~ok:true
  | `Expired _ -> Alcotest.fail "no deadline configured");
  check int "slot freed" 1 (Admission.in_flight adm);
  check bool "admits again" true
    (shed_reason (Admission.admit adm cl Admission.Contains) = None);
  check int "metric" 1
    (Metrics.value (Metrics.counter metrics "serve.shed.queue_full"))

let test_admission_client_rate () =
  let clock, advance = vclock () in
  let config =
    { Admission.default_config with client_rate = 1.0; client_burst = 2.0;
      ladder = false }
  in
  let adm, metrics = admission ~config clock in
  let cl = Admission.client adm in
  check bool "burst admitted" true
    (shed_reason (Admission.admit adm cl Admission.Contains) = None
    && shed_reason (Admission.admit adm cl Admission.Contains) = None);
  (match[@warning "-4"] Admission.admit adm cl Admission.Contains with
  | Admission.Shed { reason = Admission.Rate; retry_after_s } ->
    check bool "retry-after positive" true (retry_after_s > 0.0)
  | _ -> Alcotest.fail "expected Rate shed");
  (* an unrelated client has its own bucket *)
  let other = Admission.client adm in
  check bool "other client unaffected" true
    (shed_reason (Admission.admit adm other Admission.Contains) = None);
  advance 1.0;
  check bool "token refilled" true
    (shed_reason (Admission.admit adm cl Admission.Contains) = None);
  check int "metric" 1
    (Metrics.value (Metrics.counter metrics "serve.shed.rate"))

let test_admission_codel_expiry () =
  let clock, advance = vclock () in
  let config =
    { Admission.default_config with queue_deadline_s = 0.5; ladder = false }
  in
  let adm, metrics = admission ~config clock in
  let cl = Admission.client adm in
  let t = ticket_exn (Admission.admit adm cl Admission.Contains) in
  advance 1.0;
  (match Admission.start adm t with
  | `Expired retry -> check bool "retry-after positive" true (retry > 0.0)
  | `Run _ -> Alcotest.fail "stale request must expire at dequeue");
  check int "accounting drained" 0 (Admission.in_flight adm);
  check int "metric" 1
    (Metrics.value (Metrics.counter metrics "serve.shed.deadline"));
  (* a fresh request sails through *)
  let t2 = ticket_exn (Admission.admit adm cl Admission.Contains) in
  match Admission.start adm t2 with
  | `Run _ -> Admission.finish adm t2 ~ok:true
  | `Expired _ -> Alcotest.fail "fresh request expired"

let test_admission_ladder_escalates_and_recovers () =
  let clock, _ = vclock () in
  let config =
    {
      Admission.default_config with
      max_queue = 64;
      level1_queue = 2;
      level2_queue = 4;
      level1_p99_s = 1000.0;
      level2_p99_s = 1000.0;
      recover_fraction = 0.5;
      top_k_cap = 10;
    }
  in
  let adm, metrics = admission ~config clock in
  let cl = Admission.client adm in
  let tickets = ref [] in
  let admit_contains () =
    tickets := ticket_exn (Admission.admit adm cl Admission.Contains) :: !tickets
  in
  admit_contains ();
  admit_contains ();
  check int "level 0 below threshold" 0 (Admission.level adm);
  admit_contains ();
  check int "depth 2 enters level 1" 1 (Admission.level adm);
  (* level 1: oversized top-k shed, small top-k and by-label admitted *)
  check bool "top-k over cap shed" true
    (shed_reason (Admission.admit adm cl (Admission.Top_k 100))
    = Some Admission.Degraded);
  tickets := ticket_exn (Admission.admit adm cl (Admission.Top_k 5)) :: !tickets;
  admit_contains ();
  check int "depth 4 enters level 2" 2 (Admission.level adm);
  (* level 2: everything but contains is shed *)
  check bool "by-label shed at level 2" true
    (shed_reason (Admission.admit adm cl Admission.By_label)
    = Some Admission.Degraded);
  check bool "small top-k shed at level 2" true
    (shed_reason (Admission.admit adm cl (Admission.Top_k 1))
    = Some Admission.Degraded);
  check bool "contains survives level 2" true
    (match Admission.admit adm cl Admission.Contains with
    | Admission.Admit t ->
      tickets := t :: !tickets;
      true
    | Admission.Shed _ -> false);
  check int "escalations counted" 2
    (Metrics.value (Metrics.counter metrics "serve.degrade.up"));
  check int "gauge tracks level" 2
    (Metrics.gauge_value (Metrics.gauge metrics "serve.degrade.level"));
  (* drain everything with instant sojourns: the ladder steps back down
     one level at a time (hysteresis) *)
  List.iter
    (fun t ->
      match Admission.start adm t with
      | `Run _ -> Admission.finish adm t ~ok:true
      | `Expired _ -> Alcotest.fail "no deadline configured")
    (List.rev !tickets);
  check int "recovered to level 0" 0 (Admission.level adm);
  check bool "recoveries counted" true
    (Metrics.value (Metrics.counter metrics "serve.degrade.down") >= 2)

let test_admission_ladder_latency_signal () =
  let clock, advance = vclock () in
  let config =
    {
      Admission.default_config with
      level1_queue = 1000;
      level2_queue = 2000;
      level1_p99_s = 0.1;
      level2_p99_s = 1000.0;
      window = 8;
    }
  in
  let adm, _ = admission ~config clock in
  let cl = Admission.client adm in
  let t = ticket_exn (Admission.admit adm cl Admission.Contains) in
  (match Admission.start adm t with
  | `Run _ ->
    advance 0.2;
    Admission.finish adm t ~ok:true
  | `Expired _ -> Alcotest.fail "no deadline configured");
  check int "slow p99 enters level 1" 1 (Admission.level adm)

let test_admission_pinned_ladder () =
  let clock, _ = vclock () in
  let config =
    { Admission.default_config with ladder = false; initial_level = 2 }
  in
  let adm, _ = admission ~config clock in
  let cl = Admission.client adm in
  check int "pinned" 2 (Admission.level adm);
  check bool "level-2 policy applies" true
    (shed_reason (Admission.admit adm cl Admission.By_label)
    = Some Admission.Degraded);
  let t = ticket_exn (Admission.admit adm cl Admission.Contains) in
  (match Admission.start adm t with
  | `Run level -> check int "executes at pinned level" 2 level
  | `Expired _ -> Alcotest.fail "no deadline configured");
  Admission.finish adm t ~ok:true;
  check int "never recovers when pinned" 2 (Admission.level adm)

(* --- fixtures: a small mined store ----------------------------------------- *)

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
    { Taxogram.min_support = 0.5; max_edges = Some 2;
      enhancements = Specialize.all_on }
  in
  let r = Taxogram.run (Taxogram.Spec.collect ~config ~domains:1 ()) t db in
  (t, db, Store.build ~taxonomy:t ~db_size:(Db.size db) r.Taxogram.patterns)

(* --- serve equivalence under degradation ------------------------------------ *)

(* what [Serve.run] serves: [engine] over a snapshot of [edge_labels] *)
let generation engine edge_labels =
  {
    Serve.gen_engine = engine;
    gen_labels = Label.Snapshot.of_table edge_labels;
    gen_checksum = None;
  }

let run_serve ?admission ?client store requests =
  let edge_labels = Label.of_names [ "e0" ] in
  let metrics = Metrics.create () in
  let engine = Engine.create ~metrics store in
  let req_path = Filename.temp_file "tsg_overload" ".req" in
  let out_path = Filename.temp_file "tsg_overload" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove req_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out req_path in
      output_string oc requests;
      close_out oc;
      let ic = open_in req_path and oc = open_out out_path in
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            close_in ic;
            close_out oc)
          (fun () ->
            Serve.run ~exec:(Tsg_util.Pool.Exec.create ~domains:1 ()) ?admission ?client (generation engine edge_labels) ic oc)
      in
      let ic = open_in out_path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (outcome, text, metrics))

(* split a response stream into per-request blocks: an [ok <n>] header
   owns its n [p ...] result lines; every other line is its own block *)
let response_blocks text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  let rec go acc = function
    | [] -> List.rev acc
    | l :: rest when has_prefix "ok " l -> (
      match int_of_string_opt (String.sub l 3 (String.length l - 3)) with
      | Some n when n >= 0 ->
        let rec take k rs taken =
          if k = 0 then (List.rev taken, rs)
          else
            match rs with
            | r :: rs when has_prefix "p " r -> take (k - 1) rs (r :: taken)
            | _ -> (List.rev taken, rs)
        in
        let body, rest = take n rest [] in
        go ((l :: body) :: acc) rest
      | _ -> go ([ l ] :: acc) rest)
    | l :: rest -> go ([ l ] :: acc) rest
  in
  go [] lines

let pinned_admission level =
  Admission.create
    ~config:
      {
        Admission.default_config with
        ladder = false;
        initial_level = level;
        max_queue = 100_000;
      }
    ~metrics:(Metrics.create ()) ()

let random_requests rng t db =
  let names = Taxonomy.labels t in
  let edge_labels = Label.of_names [ "e0" ] in
  let graphs = Array.of_list (Db.to_list db) in
  let n = 5 + Prng.int rng 15 in
  List.init n (fun _ ->
      match Prng.int rng 4 with
      | 0 | 1 ->
        let g = graphs.(Prng.int rng (Array.length graphs)) in
        "contains " ^ Protocol.format_graph ~names ~edge_labels g
      | 2 ->
        let l = Prng.int rng (Taxonomy.label_count t) in
        "by-label " ^ Label.name names l
      | _ -> Printf.sprintf "top-k %d support" (Prng.int rng 300))

(* the acceptance property: at any pinned degradation level, each request
   is either shed with OVERLOADED or answered byte-identically to the
   un-gated server — degradation changes which queries run, never what an
   admitted query returns *)
let ladder_preserves_results_prop =
  let t, db, store = fixture_store () in
  QCheck.Test.make ~name:"ladder never changes an admitted result" ~count:40
    QCheck.(pair (QCheck.make QCheck.Gen.(int_bound 1_000_000)) (int_bound 2))
    (fun (seed, level) ->
      let rng = Prng.of_int seed in
      let requests = random_requests rng t db in
      let text = String.concat "\n" (requests @ [ "quit"; "" ]) in
      let _, baseline, _ = run_serve store text in
      let _, gated, _ = run_serve ~admission:(pinned_admission level) store text in
      let base_blocks = response_blocks baseline in
      let gated_blocks = response_blocks gated in
      List.length base_blocks = List.length gated_blocks
      && List.for_all2
           (fun base gated ->
             match gated with
             | [ l ] when has_prefix "error OVERLOADED retry-after" l -> true
             | _ -> base = gated)
           base_blocks gated_blocks)

(* satellite: a capped or disabled LRU cache (the level-1 degradation)
   never changes contains results, only cache metrics *)
let cache_never_changes_results_prop =
  let _, db, store = fixture_store () in
  let targets = Array.of_list (Db.to_list db) in
  QCheck.Test.make ~name:"capped/disabled cache only moves cache metrics"
    ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let queries =
        List.init
          (3 + Prng.int rng 10)
          (fun _ -> targets.(Prng.int rng (Array.length targets)))
      in
      let engines =
        List.map
          (fun capacity ->
            let metrics = Metrics.create () in
            (Engine.create ~cache_capacity:capacity ~metrics store, metrics))
          [ 0; 1; 1024 ]
      in
      let uncached_metrics = Metrics.create () in
      let uncached = Engine.create ~metrics:uncached_metrics store in
      List.for_all
        (fun target ->
          let expected = Engine.contains ~use_cache:false uncached target in
          List.for_all
            (fun (engine, _) -> Engine.contains engine target = expected)
            engines)
        queries
      &&
      (* the degraded path must leave the cache metrics untouched *)
      Metrics.value (Metrics.counter uncached_metrics "cache.hits") = 0
      && Metrics.value (Metrics.counter uncached_metrics "cache.misses") = 0)

(* --- deterministic 4x-saturation simulation --------------------------------- *)

(* a single-server queue driven through the real Admission logic on a
   virtual clock: arrivals every service/4 seconds. With CoDel enabled
   the stale head is shed and every served request's sojourn stays
   bounded by deadline + service; without it the backlog (and sojourn)
   grows without bound. The bench overload experiment is this same
   harness against the real engine. *)
let simulate ~codel ~n =
  let clock, _ = vclock () in
  let now = ref 0.0 in
  let clock () =
    ignore clock;
    !now
  in
  let service = 0.010 in
  let dt = service /. 4.0 in
  let config =
    {
      Admission.default_config with
      max_queue = n + 1;
      queue_deadline_s = (if codel then 0.05 else 0.0);
      ladder = false;
    }
  in
  let adm = Admission.create ~clock ~config ~metrics:(Metrics.create ()) () in
  let cl = Admission.client adm in
  let tickets =
    List.init n (fun i ->
        now := float_of_int i *. dt;
        (float_of_int i *. dt, Admission.admit adm cl Admission.Contains))
  in
  let t_free = ref 0.0 in
  let shed = ref 0 in
  let max_sojourn = ref 0.0 in
  List.iter
    (fun (arrival, decision) ->
      match decision with
      | Admission.Shed _ -> incr shed
      | Admission.Admit ticket -> (
        now := Float.max !t_free arrival;
        match Admission.start adm ticket with
        | `Expired _ -> incr shed
        | `Run _ ->
          now := !now +. service;
          t_free := !now;
          Admission.finish adm ticket ~ok:true;
          max_sojourn := Float.max !max_sojourn (!now -. arrival)))
    tickets;
  (!shed, !max_sojourn)

let test_codel_bounds_sojourn_under_4x () =
  let n = 400 in
  let shed, max_sojourn = simulate ~codel:true ~n in
  let shed_unprotected, max_unprotected = simulate ~codel:false ~n in
  check int "unprotected sheds nothing" 0 shed_unprotected;
  check bool "unprotected sojourn collapses (queues unboundedly)" true
    (max_unprotected > 10.0 *. 0.010);
  check bool "codel sheds the stale backlog" true (shed > 0);
  check bool "codel keeps served sojourn near deadline + service" true
    (max_sojourn <= 0.05 +. 0.010 +. 1e-9);
  check bool "most arrivals still shed under 4x" true
    (shed > n / 2)

(* --- TCP: hot reload under live traffic ------------------------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* the serve loader's build step over the fixture taxonomy *)
let build_engine t ~metrics sources =
  let edge_labels = Label.create () in
  let store = Store.of_strings ~taxonomy:t ~edge_labels sources in
  (Engine.create ~metrics store, edge_labels)

let mine_fixture t db ~support =
  let config =
    { Taxogram.min_support = support; max_edges = Some 2;
      enhancements = Specialize.all_on }
  in
  (Taxogram.run (Taxogram.Spec.collect ~config ~domains:1 ()) t db).Taxogram.patterns

let render_fixture t db patterns =
  Pattern_io.to_string ~node_labels:(Taxonomy.labels t)
    ~edge_labels:(Label.of_names [ "e0" ]) ~db_size:(Db.size db) patterns

(* a listener over an on-disk artifact with reload enabled (stamped with
   [seq] when given, loaded under [require_stamp]); returns the bound
   port, the metrics registry, collected diagnostics, and a stopper *)
let with_reload_listener ?(require_stamp = false) ?seq f =
  let t, db, _ = fixture_store () in
  let artifact = Filename.temp_file "tsg_overload" ".pat" in
  let mine = mine_fixture t db in
  let save patterns = write_file artifact (render_fixture t db patterns) in
  let stamp = match seq with None -> Fun.id | Some seq -> Epoch.stamp ~seq in
  write_file artifact (stamp (render_fixture t db (mine ~support:0.5)));
  let metrics = Metrics.create () in
  let diags = ref [] in
  let diag_lock = Mutex.create () in
  let on_diagnostic d =
    Mutex.lock diag_lock;
    diags := d :: !diags;
    Mutex.unlock diag_lock
  in
  let load () =
    Serve.load ~require_stamp ~build:(build_engine t ~metrics) [ artifact ]
  in
  let gen =
    match load () with
    | Ok gen -> gen
    | Error d -> Alcotest.fail (Diagnostic.to_string d)
  in
  let admission =
    Admission.create
      ~config:{ Admission.default_config with max_queue = 100_000 }
      ~metrics ()
  in
  let stop = Atomic.make false in
  let port = Atomic.make 0 in
  let outcome = ref None in
  let server =
    Thread.create
      (fun () ->
        outcome :=
          Some
            (Serve.listen ~drain_s:5.0 ~admission ~reload:load ~on_diagnostic
               ~on_listen:(fun p -> Atomic.set port p)
               ~should_stop:(fun () -> Atomic.get stop)
               gen ~port:0 ()))
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  check bool "listener came up" true (Atomic.get port <> 0);
  let finish () =
    Atomic.set stop true;
    Thread.join server;
    (try Sys.remove artifact with Sys_error _ -> ());
    match !outcome with
    | Some lo -> lo
    | None -> Alcotest.fail "listener did not return an outcome"
  in
  f
    ~port:(Atomic.get port)
    ~artifact ~metrics
    ~diags:(fun () ->
      Mutex.lock diag_lock;
      let d = !diags in
      Mutex.unlock diag_lock;
      d)
    ~save ~mine ~finish

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* read one response block: an [ok <n>] header plus the n result lines
   it owns, or a single line (errors, health, reload acks) *)
let read_block ic =
  let head = input_line ic in
  if has_prefix "ok " head then
    match int_of_string_opt (String.sub head 3 (String.length head - 3)) with
    | Some n ->
      let body = List.init n (fun _ -> input_line ic) in
      String.concat "\n" (head :: body)
    | None -> head
  else head

(* barrier verbs (health, reload) are answered immediately; data queries
   are batched until the next barrier, so an interactive client pipelines
   [contains ...] + [health] and reads both blocks back *)
let request_reply ic oc line =
  output_string oc (line ^ "\n");
  flush oc;
  read_block ic

let contains_roundtrip ic oc query =
  output_string oc (query ^ "\n");
  output_string oc "health\n";
  flush oc;
  let reply = read_block ic in
  let barrier = read_block ic in
  (reply, barrier)

let test_hot_reload_under_traffic () =
  with_reload_listener
    (fun ~port ~artifact:_ ~metrics ~diags:_ ~save ~mine ~finish ->
      let old_health =
        let fd, ic, oc = connect port in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> request_reply ic oc "health")
      in
      let checksum_token line =
        let rec after = function
          | "checksum" :: v :: _ -> Some v
          | _ :: rest -> after rest
          | [] -> None
        in
        after (String.split_on_char ' ' line)
      in
      check bool "health reports a checksum" true
        (match checksum_token old_health with
        | Some v -> v <> "-"
        | None -> false);
      (* clients blast contains queries while the artifact is swapped *)
      let per_client = 120 in
      let clients = 4 in
      let failures = Atomic.make 0 in
      let replies = Atomic.make 0 in
      let client () =
        let fd, ic, oc = connect port in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            for _ = 1 to per_client do
              let reply, barrier = contains_roundtrip ic oc "contains d,c 0-1" in
              Atomic.incr replies;
              if not (has_prefix "ok " reply) then Atomic.incr failures;
              if not (has_prefix "ok health" barrier) then Atomic.incr failures
            done)
      in
      let threads = List.init clients (fun _ -> Thread.create client ()) in
      (* mid-blast: swap in a genuinely different artifact (tighter
         support keeps only the patterns present in every graph) *)
      Thread.delay 0.05;
      save (mine ~support:1.0);
      let reload_reply =
        let fd, ic, oc = connect port in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> request_reply ic oc "reload")
      in
      List.iter Thread.join threads;
      check bool "reload acknowledged" true (has_prefix "ok reload" reload_reply);
      check int "every in-flight request answered" (clients * per_client)
        (Atomic.get replies);
      check int "zero dropped or failed requests" 0 (Atomic.get failures);
      check int "reload counted" 1
        (Metrics.value (Metrics.counter metrics "serve.reloads"));
      let new_health =
        let fd, ic, oc = connect port in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> request_reply ic oc "health")
      in
      check bool "checksum changed" true
        (match (checksum_token old_health, checksum_token new_health) with
        | Some a, Some b -> a <> b && b <> "-"
        | _ -> false);
      let lo = finish () in
      check bool "no disconnect storm" true
        (lo.Serve.aggregate.Serve.requests >= clients * per_client))

let test_corrupt_reload_rolls_back () =
  with_reload_listener
    (fun ~port ~artifact ~metrics ~diags ~save:_ ~mine:_ ~finish ->
      let fd, ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let before, _ = contains_roundtrip ic oc "contains d,c 0-1" in
          check bool "serving before corruption" true (has_prefix "ok " before);
          write_file artifact "p # 0 support 1/1\nthis is not a pattern\n";
          let r = request_reply ic oc "reload" in
          check bool "reload refused with RELOAD code" true
            (has_prefix "error RELOAD" r);
          (* the old engine keeps serving, byte-identically *)
          let after, _ = contains_roundtrip ic oc "contains d,c 0-1" in
          check Alcotest.string "old engine still serving" before after;
          check int "rollback counted" 1
            (Metrics.value (Metrics.counter metrics "serve.reload.rollbacks"));
          check bool "SRV00x diagnostic emitted" true
            (List.exists
               (fun d ->
                 has_prefix "SRV" d.Diagnostic.rule
                 && d.Diagnostic.severity = Diagnostic.Error)
               (diags ())));
      ignore (finish ()))

(* the one load path behind boot, [reload] and [prepare]: a stamped
   artifact serves its stamp's sequence at the bytes' checksum, a
   tampered stamp is EPO002, and under require_stamp an unstamped
   artifact is refused *)
let test_loader_verifies_stamps () =
  let t, db, _ = fixture_store () in
  let path = Filename.temp_file "tsg_loader" ".pat" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let plain = render_fixture t db (mine_fixture t db ~support:0.5) in
      let load ~require_stamp contents =
        write_file path contents;
        Serve.load ~require_stamp
          ~build:(build_engine t ~metrics:(Metrics.create ()))
          [ path ]
      in
      let stamped = Epoch.stamp ~seq:7L plain in
      (match load ~require_stamp:true stamped with
      | Error d -> Alcotest.fail (Diagnostic.to_string d)
      | Ok gen ->
        check bool "epoch sequence from the stamp" true
          (Epoch.seq (Engine.epoch gen.Serve.gen_engine) = 7L);
        check bool "checksum of the bytes on disk" true
          (gen.Serve.gen_checksum = Some (Serve.checksum_files [ path ])));
      let tampered = Bytes.of_string stamped in
      Bytes.set tampered (Bytes.length tampered - 2) 'X';
      (match load ~require_stamp:false (Bytes.to_string tampered) with
      | Error d -> check Alcotest.string "tampered stamp" "EPO002" d.rule
      | Ok _ -> Alcotest.fail "tampered stamp loaded");
      (match load ~require_stamp:true plain with
      | Error d -> check Alcotest.string "missing stamp" "EPO002" d.rule
      | Ok _ -> Alcotest.fail "unstamped artifact loaded under require_stamp");
      match load ~require_stamp:false plain with
      | Ok gen ->
        check bool "unstamped is sequence 0 when stamps are optional" true
          (Epoch.seq (Engine.epoch gen.Serve.gen_engine) = 0L)
      | Error d -> Alcotest.fail (Diagnostic.to_string d))

(* require_stamp holds on every way an artifact becomes live: reload and
   prepare of an unstamped artifact both answer RELOAD and the stamped
   epoch keeps serving *)
let test_require_stamp_on_reload () =
  with_reload_listener ~require_stamp:true ~seq:7L
    (fun ~port ~artifact:_ ~metrics ~diags:_ ~save ~mine ~finish ->
      let fd, ic, oc = connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let before = request_reply ic oc "epoch" in
          check bool "booted at the stamped epoch" true
            (has_prefix "ok epoch 7." before);
          save (mine ~support:1.0);
          check bool "reload refused" true
            (has_prefix "error RELOAD" (request_reply ic oc "reload"));
          check bool "prepare refused" true
            (has_prefix "error RELOAD" (request_reply ic oc "prepare"));
          check Alcotest.string "stamped epoch still serving" before
            (request_reply ic oc "epoch");
          check int "both rolled back" 2
            (Metrics.value (Metrics.counter metrics "serve.reload.rollbacks")));
      ignore (finish ()))

let test_reload_unavailable_in_stdio () =
  let _, _, store = fixture_store () in
  let _, text, _ = run_serve store "reload\nquit\n" in
  check bool "stdio reload unavailable" true
    (has_prefix "error UNAVAILABLE reload is not enabled"
       (String.trim text))

(* --- bind addresses ---------------------------------------------------------- *)

let test_parse_bind_addr () =
  (match Serve.parse_bind_addr "0.0.0.0" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "0.0.0.0 must parse");
  (match Serve.parse_bind_addr "::1" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "::1 must parse");
  match Serve.parse_bind_addr "not-an-address" with
  | Ok _ -> Alcotest.fail "garbage must not parse"
  | Error d ->
    check Alcotest.string "rule code" "SRV001" d.Diagnostic.rule;
    check bool "severity" true (d.Diagnostic.severity = Diagnostic.Error)

(* --- serve-level shedding --------------------------------------------------- *)

let test_serve_sheds_with_overloaded_line () =
  let _, _, store = fixture_store () in
  let admission =
    Admission.create
      ~config:
        {
          Admission.default_config with
          client_rate = 1.0;
          client_burst = 1.0;
          ladder = false;
        }
      ~metrics:(Metrics.create ()) ()
  in
  let requests = "contains d,c 0-1\ncontains d,c 0-1\ncontains d,c 0-1\nquit\n" in
  let outcome, text, _ = run_serve ~admission store requests in
  let blocks = response_blocks text in
  let sheds =
    List.filter
      (function
        | [ l ] -> has_prefix "error OVERLOADED retry-after" l
        | _ -> false)
      blocks
  in
  check int "burst of 1 admitted, 2 shed" 2 (List.length sheds);
  check int "sheds counted as errors" 2 outcome.Serve.errors

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "overload"
    [
      ( "limiter",
        [
          Alcotest.test_case "token bucket burst + refill" `Quick
            test_bucket_burst_and_refill;
          Alcotest.test_case "token bucket backwards clock" `Quick
            test_bucket_backwards_clock;
          Alcotest.test_case "breaker trip + recover" `Quick
            test_breaker_trip_and_recover;
          Alcotest.test_case "breaker failed probe reopens" `Quick
            test_breaker_failed_probe_reopens;
          Alcotest.test_case "breaker half-open re-trip" `Quick
            test_breaker_half_open_retrip;
          Alcotest.test_case "window percentile" `Quick test_window_percentile;
          Alcotest.test_case "window single sample" `Quick
            test_window_single_sample;
          Alcotest.test_case "window wrap-around" `Quick
            test_window_wraparound_percentiles;
          Alcotest.test_case "window slides" `Quick test_window_slides;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue bound" `Quick test_admission_queue_bound;
          Alcotest.test_case "per-client rate" `Quick
            test_admission_client_rate;
          Alcotest.test_case "codel dequeue expiry" `Quick
            test_admission_codel_expiry;
          Alcotest.test_case "ladder escalates and recovers" `Quick
            test_admission_ladder_escalates_and_recovers;
          Alcotest.test_case "ladder follows p99" `Quick
            test_admission_ladder_latency_signal;
          Alcotest.test_case "pinned ladder" `Quick test_admission_pinned_ladder;
          Alcotest.test_case "4x saturation: codel bounds sojourn" `Quick
            test_codel_bounds_sojourn_under_4x;
        ] );
      ( "equivalence",
        qsuite [ ladder_preserves_results_prop; cache_never_changes_results_prop ]
      );
      ( "serve",
        [
          Alcotest.test_case "sheds with OVERLOADED + retry-after" `Quick
            test_serve_sheds_with_overloaded_line;
          Alcotest.test_case "reload unavailable in stdio" `Quick
            test_reload_unavailable_in_stdio;
          Alcotest.test_case "parse bind addr" `Quick test_parse_bind_addr;
          Alcotest.test_case "hot reload under live traffic" `Quick
            test_hot_reload_under_traffic;
          Alcotest.test_case "corrupt reload rolls back" `Quick
            test_corrupt_reload_rolls_back;
          Alcotest.test_case "loader verifies stamps" `Quick
            test_loader_verifies_stamps;
          Alcotest.test_case "require-stamp holds on reload and prepare"
            `Quick test_require_stamp_on_reload;
        ] );
    ]
