(* serve: a real `tsg-serve --listen` with default flags over a mined
   D-series artifact and its database, driven by one client process in a
   closed loop, first over one connection and then over two. One op is
   one request's round trip. The artifact is a fixed instance; the seed
   draws the request stream. *)

module M = Measure
module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Prng = Tsg_util.Prng
module Metrics = Tsg_util.Metrics
module Datasets = Tsg_data.Datasets
module Synth_graph = Tsg_data.Synth_graph
module Taxogram = Tsg_core.Taxogram
module Pattern = Tsg_core.Pattern
module Pattern_io = Tsg_core.Pattern_io
module Store = Tsg_query.Store
module Engine = Tsg_query.Engine
module Epoch = Tsg_query.Epoch
module Protocol = Tsg_query.Protocol
module Serve = Tsg_query.Serve

(* D1000 at x0.1 over the 800-concept GO stand-in *)
let db_graphs = 0.1

let theta = 0.065

(* The traffic is assumed, not measured: the repository holds no record
   of real requests. Contains graphs are drawn uniformly from a pool
   three times the server's 1024-entry LRU, so both cache hits and
   misses occur, and in steady state about a third hit. A uniform draw
   is the simplest one with a predictable hit rate; skewed real traffic
   would hit more often. The warm-up sends 1024 distinct pool graphs,
   which puts the cache in that steady state before anything is timed.
   The traced run reports round trips per verb, so the result can be
   re-weighted once real traffic is recorded. *)
let pool_size = 3072

let query_edges = 10

let warmup = 1024

let stream_length = 40_000

type files = { tax : string; db : string; pat : string }

let make_artifact work =
  let go = Tsg_taxonomy.Go_like.generate ~concepts:800 (Prng.of_int Wl_mine.data_seed) in
  let spec = Datasets.scale db_graphs (Option.get (Datasets.find "D1000")) in
  let rng = Prng.of_int (Wl_mine.data_seed + Hashtbl.hash "D1000") in
  let db = Datasets.build rng ~node_label:(Synth_graph.uniform_labels go) spec in
  let config = { Taxogram.default_config with min_support = theta } in
  let r = Taxogram.run (Taxogram.Spec.collect ~config ~domains:2 ()) go db in
  let edge_labels = Label.of_names (List.init 10 (Printf.sprintf "e%d")) in
  let f name = Filename.concat work name in
  let files = { tax = f "d.tax"; db = f "d.db"; pat = f "d.pat" } in
  Taxonomy_io.save files.tax go;
  Serial.save_db files.db ~node_labels:(Taxonomy.labels go) ~edge_labels db;
  (* the order tsg-mine --save writes: highest support first *)
  let sorted =
    List.sort
      (fun (a : Pattern.t) b -> compare b.Pattern.support_count a.Pattern.support_count)
      r.Taxogram.patterns
  in
  Pattern_io.save files.pat ~node_labels:(Taxonomy.labels go) ~edge_labels
    ~db_size:(Db.size db) sorted;
  (files, r.Taxogram.pattern_count)

type verb = Contains | By_label | Top_k

type request = { line : string; verb : verb }

(* the seeded request stream: the warm-up pass, then 90% contains, 6%
   by-label over taxonomy concepts, 4% top-k by support or interest.
   The mix is assumed. Contains gets most of it because it is the verb
   the LRU, the index prefilter and Gen_iso serve, and the one whose
   cost grows with the artifact. The two lookup verbs are there so
   their paths and reply rendering are exercised. One verb dominating
   also keeps the median inside one verb's cost instead of on the
   boundary between verbs of very different cost, which steadies it. *)
let stream rng ~taxonomy ~edge_labels =
  let names = Taxonomy.labels taxonomy in
  let sampler = Synth_graph.uniform_labels taxonomy in
  let pool =
    Array.init pool_size (fun _ ->
        "contains "
        ^ Protocol.format_graph ~names ~edge_labels
            (Synth_graph.generate_graph rng ~max_edges:query_edges ~edge_density:0.27
               ~edge_label_count:10 ~node_label:sampler))
  in
  let concepts =
    Array.of_list
      (List.filter_map
         (fun l -> if Taxonomy.is_artificial taxonomy l then None else Some (Taxonomy.name taxonomy l))
         (List.init (Taxonomy.label_count taxonomy) Fun.id))
  in
  Array.init stream_length (fun i ->
      if i < warmup then { line = pool.(i); verb = Contains }
      else
        let u = Prng.float rng 1.0 in
        if u < 0.9 then { line = Prng.choose rng pool; verb = Contains }
        else if u < 0.96 then { line = "by-label " ^ Prng.choose rng concepts; verb = By_label }
        else
          {
            line =
              Printf.sprintf "top-k %d %s"
                (Prng.choose rng [| 5; 10; 25; 50 |])
                (if Prng.bool rng then "support" else "interest");
            verb = Top_k;
          })

(* requests [from, ...) in stream order over [conns] closed-loop
   connections for [seconds]; returns (index, round trip, reply digest)
   per completed request and the phase wall time *)
let drive ?(upto = max_int) ~port ~conns ~seconds ~from (reqs : request array) =
  let next = Atomic.make from in
  let deadline = M.now () +. seconds in
  let results = Array.make conns [] in
  let worker k () =
    (* one connection shares the work CPU with tsg-serve: the loop is
       strictly sequential, and a same-CPU switch keeps the hypervisor's
       cross-CPU wake-up latency out of the round trip; two connections
       load tsg-serve from the helper CPU *)
    if conns > 1 then M.pin_help ();
    let c = Server.connect port in
    let rec loop acc =
      let i = Atomic.fetch_and_add next 1 in
      if M.now () >= deadline || i >= upto then acc
      else begin
        let t0 = M.now () in
        let reply = Server.request c reqs.(i mod stream_length).line in
        let rtt = M.now () -. t0 in
        loop ((i, rtt, Digest.string reply) :: acc)
      end
    in
    results.(k) <- loop [];
    Server.close c
  in
  let t0 = M.now () in
  let threads = List.init conns (fun k -> Thread.create (worker k) ()) in
  List.iter Thread.join threads;
  (List.concat (Array.to_list results), M.now () -. t0, Atomic.get next)

(* the process tsg-serve runs at start-up, in-process *)
let load files =
  let taxonomy = Taxonomy_io.load files.tax in
  let edge_labels = Label.create () in
  let db = Serial.load_db ~node_labels:(Taxonomy.labels taxonomy) ~edge_labels files.db in
  let store = Store.load ~taxonomy ~edge_labels ~db [ files.pat ] in
  (taxonomy, edge_labels, store)

let server_args files =
  [ "--patterns"; files.pat; "--taxonomy"; files.tax; "--db"; files.db ]

let ms s = 1000.0 *. s

let us s = 1e6 *. s

(* server-side latency totals from the [stats] verb: (count, seconds)
   summed over the engine's per-verb histograms *)
let server_latency conn =
  List.fold_left
    (fun (n, s) line ->
      match String.split_on_char ' ' line with
      | "hist" :: name :: "count" :: c :: "mean_ms" :: m :: _
        when String.length name > 8 && String.sub name 0 8 = "latency." ->
        let c = int_of_string c in
        (n + c, s +. (float_of_int c *. float_of_string m /. 1000.0))
      | _ -> (n, s))
    (0, 0.0) (Server.stats conn)

let traced (ctx : M.ctx) ~files ~store ~edge_labels ~reqs ~srv ~from ~verify ~expected
    ~params ~attempted ~failed =
  (* 1. tsg-serve's start-up path, one call per layer *)
  let reps =
    List.init 2 (fun _ ->
        let t f = M.time f in
        let c = Tsg_util.Diagnostic.collector () in
        let _, lint = t (fun () -> Tsg_check.Lint.run c ~taxonomy:files.tax ~patterns:[ files.pat ] ()) in
        let taxonomy, tax = t (fun () -> Taxonomy_io.load files.tax) in
        let edge_labels = Label.create () in
        let db, dbl =
          t (fun () -> Serial.load_db ~node_labels:(Taxonomy.labels taxonomy) ~edge_labels files.db)
        in
        let content = M.read_file files.pat in
        let (patterns, db_size), parse =
          t (fun () ->
              Pattern_io.parse ~file:files.pat ~node_labels:(Taxonomy.labels taxonomy)
                ~edge_labels content)
        in
        let _, index = t (fun () -> Store.build ~taxonomy ~db_size patterns) in
        let _, full = t (fun () -> Store.build ~taxonomy ~db ~db_size patterns) in
        let _, epoch =
          t (fun () ->
              let content = Tsg_util.Safe_io.read_file files.pat in
              ignore (Epoch.verify_stamp content);
              Epoch.of_sources [ (files.pat, content) ])
        in
        [ lint; tax; dbl; parse; index; full -. index; epoch ])
  in
  let rep k = M.median (List.map (fun r -> List.nth r k) reps) in
  (* 2. the real server, one connection: round trips per verb, and the
     server's own latency for the same requests from [stats] *)
  let conn = Server.connect srv.Server.port in
  let n0, s0 = server_latency conn in
  let one, _, _ = drive ~port:srv.Server.port ~conns:1 ~seconds:(ctx.seconds /. 4.0) ~from reqs in
  let n1, s1 = server_latency conn in
  Server.close conn;
  Server.stop srv;
  verify one;
  let one = List.sort compare one in
  let rtt v =
    M.median
      (List.filter_map
         (fun (i, r, _) -> if reqs.(i mod stream_length).verb = v then Some r else None)
         one)
  in
  let client_mean = M.mean (List.map (fun (_, r, _) -> r) one) in
  let server_mean = (s1 -. s0) /. float_of_int (max 1 (n1 - n0)) in
  (* 3. the same requests in-process, untraced and then traced *)
  let taxonomy = Store.taxonomy store in
  let lines = List.map (fun (i, _, _) -> reqs.(i mod stream_length)) one in
  (* parsed against the store's own edge-label table, as tsg-serve's
     per-connection copies of it do *)
  let parse r = Option.get (Protocol.parse ~taxonomy ~edge_labels r.line) in
  let candidates q =
    match q with
    | Protocol.Contains g -> Tsg_util.Bitset.cardinal (Store.candidates store g)
    | _ -> 0
  in
  (* run once before the traced pass to warm up, and once after it for
     the overhead ratio *)
  let untraced () =
    let engine = Engine.create ~metrics:(Metrics.create ()) store in
    List.map
      (fun r ->
        let ((q, reply), w), minor, major =
          M.allocation (fun () ->
              M.time (fun () ->
                  let q = parse r in
                  (q, Serve.answer engine q)))
        in
        incr attempted;
        if reply <> Hashtbl.find expected r.line then incr failed;
        (w, candidates q, minor, major))
      lines
  in
  ignore (untraced ());
  let metrics = Metrics.create () in
  let engine = Engine.create ~metrics store in
  Trace.enabled := true;
  let traced =
    List.map
      (fun r ->
        let op = Trace.new_op () in
        let (q, reply), w =
          M.time (fun () ->
              Trace.with_span "request" (fun () ->
                  let q = Trace.with_span "protocol.parse" (fun () -> parse r) in
                  (q, Trace.with_span "serve.answer" (fun () -> Serve.answer engine q))))
        in
        let key =
          match q with
          | Protocol.Contains g -> Some (snd (M.time (fun () -> Engine.cache_key g)))
          | _ -> None
        in
        let results =
          match String.split_on_char ' ' (List.hd (String.split_on_char '\n' reply)) with
          | [ "ok"; n ] -> int_of_string n
          | _ -> 0
        in
        (op, r.verb, w, String.length reply, key, candidates q, results))
      lines
  in
  Trace.enabled := false;
  let untraced = untraced () in
  let total_candidates l = List.fold_left (fun a (_, _, _, _, _, c, _) -> a + c) 0 l in
  if total_candidates traced <> List.fold_left (fun a (_, c, _, _) -> a + c) 0 untraced then
    failwith "exact counts moved between traced repeats (store candidates)";
  let hist name =
    let h = Metrics.histogram metrics name in
    (Metrics.sum h, Metrics.count h)
  in
  let per name =
    let s, n = hist name in
    if n = 0 then 0.0 else us (s /. float_of_int n)
  in
  let engine_s =
    List.fold_left (fun a n -> a +. fst (hist n)) 0.0
      [ "latency.contains"; "latency.by_label"; "latency.top_k" ]
  in
  let n = float_of_int (List.length traced) in
  let span_sum name =
    List.fold_left (fun a (op, _, _, _, _, _, _) -> a +. snd (Trace.breakdown op name)) 0.0 traced
  in
  let parse_s = span_sum "protocol.parse" and answer_s = span_sum "serve.answer" in
  let request_s = List.fold_left (fun a (op, _, _, _, _, _, _) -> a +. fst (Trace.breakdown op "request")) 0.0 traced in
  let contains = List.filter (fun (_, v, _, _, _, _, _) -> v = Contains) traced in
  let keys = List.filter_map (fun (_, _, _, _, k, _, _) -> k) contains in
  let cands = total_candidates contains in
  let matched = List.fold_left (fun a (_, _, _, _, _, _, r) -> a + r) 0 contains in
  {
    M.attempted = !attempted;
    failed = !failed;
    metrics =
      [
        ("check.lint_ms", ms (rep 0));
        ("taxonomy_io.load_ms", ms (rep 1));
        ("serial.load_db_ms", ms (rep 2));
        ("pattern_io.parse_ms", ms (rep 3));
        ("store.index_ms", ms (rep 4));
        ("store.interest_ms", ms (rep 5));
        ("epoch.verify_ms", ms (rep 6));
        ("protocol.parse_us", us (parse_s /. n));
        ("engine.contains_us", per "latency.contains");
        ("engine.contains_key_us", us (M.mean keys));
        ("engine.by_label_us", per "latency.by_label");
        ("engine.top_k_us", per "latency.top_k");
        ( "store.candidates_per_query",
          float_of_int cands /. float_of_int (max 1 (List.length contains)) );
        ("engine.match_ratio", float_of_int matched /. float_of_int (max 1 cands));
        ("engine.cache_hit_rate", Engine.cache_hit_rate engine);
        ("serve.render_us", us ((answer_s -. engine_s) /. n));
        ( "serve.reply_kb",
          M.mean (List.map (fun (_, _, _, b, _, _, _) -> float_of_int b /. 1024.0) traced) );
        ("serve.contains_rtt_ms", ms (rtt Contains));
        ("serve.by_label_rtt_ms", ms (rtt By_label));
        ("serve.top_k_rtt_ms", ms (rtt Top_k));
        ("serve.transport_us", us (client_mean -. server_mean));
        ("gc.minor_mwords", M.mean (List.map (fun (_, _, m, _) -> m) untraced));
        ("gc.major_collections", M.mean (List.map (fun (_, _, _, m) -> m) untraced));
        ("trace.overhead_ratio", request_s /. List.fold_left (fun a (w, _, _, _) -> a +. w) 0.0 untraced);
        ("trace.coverage", (parse_s +. answer_s) /. request_s);
      ];
    details =
      params
      @ [
          ("requests_replayed", M.Int (List.length traced));
          ( "setup_accounted_s",
            M.Num (List.fold_left ( +. ) 0.0 (List.init 7 rep)) );
          ("server_mean_latency_ms", M.Num (ms server_mean));
          ("client_mean_rtt_ms", M.Num (ms client_mean));
        ];
  }

let run (ctx : M.ctx) =
  let files, pattern_count = make_artifact ctx.work in
  let taxonomy, edge_labels, store = load files in
  let reqs = stream (Prng.of_int ctx.seed) ~taxonomy ~edge_labels in
  (* the expected reply of every distinct request, from an unsharded
     in-process engine over the same artifact; parsing interns labels, so
     it stays on this domain, and the answers are split over two *)
  let expected = Hashtbl.create 4096 in
  let prepare results =
    let fresh =
      List.sort_uniq compare
        (List.filter_map
           (fun (i, _, _) ->
             let line = reqs.(i mod stream_length).line in
             if Hashtbl.mem expected line then None else Some line)
           results)
      |> List.map (fun line -> (line, Protocol.parse ~taxonomy ~edge_labels line))
      |> Array.of_list
    in
    let answers lo hi () =
      let engine = Engine.create ~cache_capacity:0 ~metrics:(Metrics.create ()) store in
      Array.init (hi - lo) (fun k ->
          match snd fresh.(lo + k) with
          | Some q -> Serve.answer ~use_cache:false engine q
          | None -> "no request")
    in
    let n = Array.length fresh in
    M.pin_both ();
    let other = Domain.spawn (answers (n / 2) n) in
    let first = answers 0 (n / 2) () in
    let second = Domain.join other in
    M.pin_work ();
    Array.iteri (fun k a -> Hashtbl.replace expected (fst fresh.(k)) a) (Array.append first second)
  in
  let attempted = ref 0 and failed = ref 0 in
  let verify results =
    prepare results;
    List.iter
      (fun (i, _, d) ->
        incr attempted;
        if Digest.string (Hashtbl.find expected reqs.(i mod stream_length).line) <> d then
          incr failed)
      results
  in
  (* set-up: spawn to first healthy reply, several times; the last
     server is the one measured *)
  let start () = Server.start ~exe:ctx.serve_exe ~work:ctx.work (server_args files) in
  let srv, first_setup = start () in
  let setup_times = ref [ first_setup ] in
  let params =
    [
      ("patterns", M.Int pattern_count);
      ("db_graphs", M.Int (Store.db_size store));
      ("theta", M.Num theta);
      ("pool_size", M.Int pool_size);
      ("query_edges", M.Int query_edges);
    ]
  in
  let warm, _, _ = drive ~upto:warmup ~port:srv.Server.port ~conns:1 ~seconds:infinity ~from:0 reqs in
  verify warm;
  let from = warmup in
  if not ctx.traced then begin
    (* rounds through the window: a 1-connection chunk, a 2-connection
       chunk, and set-up samples (other servers started and stopped
       while the measured one is idle). Set-up samples of one run vary
       by about a third, so a run takes nine of them. *)
    let rounds = 4 and setups = 2 in
    let chunk =
      Float.max 1.0
        ((ctx.seconds -. (float_of_int (rounds * setups) *. first_setup))
        /. float_of_int (2 * rounds))
    in
    let one = ref [] and two = ref [] and cpu1 = ref 0.0 and wall2 = ref 0.0 in
    let next = ref from in
    let calibrate () = for _ = 1 to 5 do Server.calibrate () done in
    for _ = 1 to rounds do
      calibrate ();
      let c0 = M.cpu_of_pid srv.Server.pid in
      let r, _, n = drive ~port:srv.Server.port ~conns:1 ~seconds:chunk ~from:!next reqs in
      cpu1 := !cpu1 +. (M.cpu_of_pid srv.Server.pid -. c0);
      one := r @ !one;
      calibrate ();
      let r, w, n = drive ~port:srv.Server.port ~conns:2 ~seconds:chunk ~from:n reqs in
      two := r @ !two;
      wall2 := !wall2 +. w;
      next := n;
      calibrate ();
      for _ = 1 to setups do
        let s, dt = start () in
        Server.stop s;
        setup_times := dt :: !setup_times
      done
    done;
    let one = !one and two = !two and cpu1 = !cpu1 and wall2 = !wall2 in
    let rss = M.peak_rss_mb (Some srv.Server.pid) in
    Server.stop srv;
    verify (one @ two);
    let rtt1 = List.map (fun (_, r, _) -> r) one in
    let rtt2 = List.map (fun (_, r, _) -> r) two in
    let tail, pct, n = M.tail rtt1 in
    {
      M.attempted = !attempted;
      failed = !failed;
      metrics =
        [
          ("setup_s", M.median !setup_times);
          ("op_p50_ms", ms (M.median rtt1));
          ("op_tail_ms", ms tail);
          ("op_cpu_ms", ms (cpu1 /. float_of_int (List.length one)));
          ("op_x2_p50_ms", ms (M.median rtt2));
          ("ops_per_s", float_of_int (List.length two) /. wall2);
          ("peak_rss_mb", rss);
        ];
      details =
        params
        @ [
            ("setup_s", M.summary !setup_times);
            ("op_ms", M.summary (List.map ms rtt1));
            ("op_tail_percentile", M.Num pct);
            ("op_tail_samples", M.Int n);
            ("op_x2_ms", M.summary (List.map ms rtt2));
          ];
    }
  end
  else
    traced ctx ~files ~store ~edge_labels ~reqs ~srv ~from ~verify ~expected ~params
      ~attempted ~failed
