(* pipe-churn: tsg-pipe's commit path (bin/tsg_pipe.ml apply_delta and
   commit) against a live tsg-serve. One op applies a fixed batch of
   deltas — each appended to the WAL with fsync, then folded into the
   corpus — and commits: incremental refresh of the dirty roots, state
   snapshot, render, atomic publish, and a push that reloads the server
   and must be acknowledged with the artifact's checksum. The base
   corpus is a fixed instance; the seed draws the deltas. *)

module M = Measure
module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Prng = Tsg_util.Prng
module Pool = Tsg_util.Pool
module Synth_graph = Tsg_data.Synth_graph
module Taxogram = Tsg_core.Taxogram
module Specialize = Tsg_core.Specialize
module Epoch = Tsg_query.Epoch
module Wal = Tsg_pipeline.Wal
module Corpus = Tsg_pipeline.Corpus
module Incremental = Tsg_pipeline.Incremental
module Publish = Tsg_pipeline.Publish

let base_graphs = 1200

let theta = 0.01

let max_edges = 5

(* The delta shape is assumed, not measured: the repository holds no
   record of real delta traffic. Every op removes the [batch] oldest of
   [churn] small graphs (at most 3 edges) and adds [batch] fresh ones.
   Removing only churn graphs keeps the database size, and with it the
   absolute support threshold, constant, so a commit re-mines only the
   roots the deltas touch, which is the case tsg-pipe's incremental
   refresh exists for, and every op does the same amount of work. *)
let churn = 8

let batch = 2

(* eight independent trees: every tree root is a most-general label, so
   D_mg has many gSpan roots for a delta to stay local in (the forest
   bench/main.ml's pipeline experiment uses) *)
let forest () =
  let names = ref [] and is_a = ref [] in
  for t = 0 to 7 do
    let root = Printf.sprintf "f%d" t in
    names := root :: !names;
    for c = 0 to 3 do
      let mid = Printf.sprintf "f%d_%d" t c in
      names := mid :: !names;
      is_a := (mid, root) :: !is_a;
      for l = 0 to 3 do
        let leaf = Printf.sprintf "f%d_%d_%d" t c l in
        names := leaf :: !names;
        is_a := (leaf, mid) :: !is_a
      done
    done
  done;
  Taxonomy.build ~names:(List.rev !names) ~is_a:(List.rev !is_a)

let edge_names = Label.of_names [ "b0"; "b1"; "b2"; "b3" ]

let serialize taxonomy g =
  Serial.db_to_string ~node_labels:(Taxonomy.labels taxonomy) ~edge_labels:edge_names
    (Db.of_list [ g ])

let churn_graph taxonomy rng =
  serialize taxonomy
    (Synth_graph.generate_graph rng ~max_edges:3 ~edge_density:0.5 ~edge_label_count:4
       ~node_label:(Synth_graph.uniform_labels taxonomy))

(* the base WAL: [base_graphs] corpus graphs, then [churn] small ones *)
let write_base_wal taxonomy path =
  let rng = Prng.of_int (Wl_mine.data_seed + 77) in
  let w = Wal.open_writer path in
  let sampler = Synth_graph.uniform_labels taxonomy in
  for i = 1 to base_graphs + churn do
    let g =
      if i <= base_graphs then
        serialize taxonomy
          (Synth_graph.generate_graph rng ~max_edges:12 ~edge_density:0.35
             ~edge_label_count:4 ~node_label:sampler)
      else churn_graph taxonomy rng
    in
    Wal.append w { Wal.seq = Int64.of_int i; op = Wal.Add g }
  done;
  Wal.close w

type pipe = {
  mutable writer : Wal.writer;
  corpus : Corpus.t;
  mutable engine : Incremental.t;
  mutable fifo : int64 list;  (* removable churn graphs, oldest first *)
}

let config = { Taxogram.min_support = theta; max_edges = Some max_edges; enhancements = Specialize.all_on }

(* tsg-pipe's boot: recover the WAL, replay it into a fresh corpus,
   adopt the state snapshot if there is one (records past its watermark
   mark roots dirty) *)
let boot ~taxonomy ~exec ~wal ~state =
  let recovery = Trace.with_span "wal.recover" (fun () -> Wal.recover wal) in
  let snapshot = if Sys.file_exists state then Some (M.read_file state) else None in
  let watermark =
    match Option.bind snapshot Incremental.state_watermark with Some w -> w | None -> -1L
  in
  let corpus = Corpus.create ~taxonomy () in
  let engine = Incremental.create ~corpus ~config ~exec () in
  Trace.with_span "corpus.replay" (fun () ->
      List.iter
        (fun (r : Wal.record) ->
          match Corpus.apply corpus r with
          | Ok g -> if Int64.compare r.Wal.seq watermark > 0 then Incremental.mark_dirty engine g
          | Error d -> failwith d.Tsg_util.Diagnostic.message)
        recovery.Wal.replayed);
  Option.iter
    (fun text ->
      match Incremental.load_state engine text with
      | Ok () -> ()
      | Error d -> failwith d.Tsg_util.Diagnostic.message)
    snapshot;
  let fifo =
    List.filter_map
      (fun (r : Wal.record) ->
        if Int64.to_int r.Wal.seq > base_graphs then Some r.Wal.seq else None)
      recovery.Wal.replayed
  in
  { writer = Wal.open_writer wal; corpus; engine; fifo }

(* one commit as tsg-pipe makes it: refresh stats, the rendered
   artifact, and the push's answer *)
let commit p ~state ~artifact ~port =
  let stats = Trace.with_span "incremental.refresh" (fun () -> Incremental.refresh p.engine) in
  Trace.with_span "incremental.save_state" (fun () -> Incremental.save_state p.engine state);
  let previous = if Sys.file_exists artifact then Some (M.read_file artifact) else None in
  let text = Trace.with_span "publish.render" (fun () -> Incremental.render p.engine) in
  Trace.with_span "publish.write" (fun () -> Publish.write artifact text);
  let pushed =
    Trace.with_span "publish.push" (fun () ->
        Publish.push ~host:Unix.inet_addr_loopback ~port ~artifact ~previous)
  in
  (stats, text, pushed)

(* one op: [batch] removes of the oldest churn graphs, [batch] adds of
   fresh ones, then a commit. Returns the commit's refresh stats,
   whether the push was acknowledged, and the delta payload bytes. *)
let op p ~taxonomy ~rng ~state ~artifact ~port =
  let delta_bytes = ref 0 in
  let apply o =
    let seq = Int64.add (Corpus.seq p.corpus) 1L in
    let r = { Wal.seq; op = o } in
    Trace.with_span "wal.append" (fun () -> Wal.append p.writer r);
    match Trace.with_span "corpus.apply" (fun () -> Corpus.apply p.corpus r) with
    | Ok g -> Incremental.mark_dirty p.engine g
    | Error d -> failwith d.Tsg_util.Diagnostic.message
  in
  Trace.with_span "op" (fun () ->
      for _ = 1 to batch do
        match p.fifo with
        | target :: rest ->
          p.fifo <- rest;
          delta_bytes := !delta_bytes + 24;
          apply (Wal.Remove target)
        | [] -> failwith "no churn graph left to remove"
      done;
      for _ = 1 to batch do
        let g = churn_graph taxonomy rng in
        delta_bytes := !delta_bytes + String.length g;
        apply (Wal.Add g);
        p.fifo <- p.fifo @ [ Corpus.seq p.corpus ]
      done;
      let stats, text, pushed = commit p ~state ~artifact ~port in
      (stats, text, Result.is_ok pushed, !delta_bytes))

let file_size path = (Unix.stat path).Unix.st_size

let ms s = 1000.0 *. s

let us s = 1e6 *. s

(* copies are made durable at once: a file left with dirty pages would
   be flushed by a later WAL fsync (ext4 data=ordered) and show up as a
   stall in whichever commit came next *)
let copy src dst =
  M.write_file dst (M.read_file src);
  let fd = Unix.openfile dst [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

let files work dir =
  let d = Filename.concat work dir in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  (Filename.concat d "corpus.wal", Filename.concat d "pipe.state", Filename.concat d "patterns.pat")

(* set-up: WAL replay, full mine, first publish, server start *)
let setup ~taxonomy ~exec ~serve_exe ~work ~tax_path ~base_wal dir =
  let wal, state, artifact = files work dir in
  copy base_wal wal;
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ state; artifact ];
  let t0 = M.now () in
  let p = boot ~taxonomy ~exec ~wal ~state in
  ignore (Incremental.refresh p.engine);
  Incremental.save_state p.engine state;
  Publish.write artifact (Incremental.render p.engine);
  let srv, _ = Server.start ~exe:serve_exe ~work [ "--patterns"; artifact; "--taxonomy"; tax_path ] in
  (p, srv, M.now () -. t0)

let base_files work = (Filename.concat work "forest.tax", Filename.concat work "base.wal")

(* [bench.exe --pipe-setup BASE]: one set-up sample over the base files
   a running pipe-churn run keeps in BASE, made in a process of its own
   so its corpus, engine and full mine stay out of the measuring
   process's heap and peak resident set *)
let setup_sample ~base (ctx : M.ctx) =
  let tax_path, base_wal = base_files base in
  let p, srv, dt =
    setup ~taxonomy:(forest ()) ~exec:(Pool.Exec.create ~domains:1 ()) ~serve_exe:ctx.serve_exe
      ~work:ctx.work ~tax_path ~base_wal "side"
  in
  Server.stop srv;
  Wal.close p.writer;
  dt

let run (ctx : M.ctx) =
  let taxonomy = forest () in
  let tax_path, base_wal = base_files ctx.work in
  let base_state = Filename.concat ctx.work "base.state" in
  Taxonomy_io.save tax_path taxonomy;
  write_base_wal taxonomy base_wal;
  let exec1 = Pool.Exec.create ~domains:1 () and exec2 = Pool.Exec.create ~domains:2 () in
  let setup = setup ~taxonomy ~exec:exec1 ~serve_exe:ctx.serve_exe ~work:ctx.work ~tax_path ~base_wal in
  let p, srv, first_setup = setup "main" in
  let setup_times = ref [ first_setup ] in
  let wal, state, artifact = files ctx.work "main" in
  copy state base_state;
  (* the peak resident set from here on is the commit path's *)
  M.reset_peak_rss ();
  let port = srv.Server.port in
  let attempted = ref 0 and failed = ref 0 in
  let count ok =
    incr attempted;
    if not ok then incr failed
  in
  let base_patterns = List.length (Incremental.patterns p.engine) in
  let params =
    [
      ("base_graphs", M.Int base_graphs);
      ("theta", M.Num theta);
      ("max_edges", M.Int max_edges);
      ("base_patterns", M.Int base_patterns);
      ("deltas_per_op", M.Int (2 * batch));
    ]
  in
  let last_text = ref (M.read_file artifact) in
  let ops_done = ref 0 in
  let timed_op rng =
    incr ops_done;
    if !ops_done mod 8 = 0 then Server.calibrate ();
    let c0 = M.cpu_self () in
    let (stats, text, ok, bytes), w =
      M.time (fun () -> op p ~taxonomy ~rng ~state ~artifact ~port)
    in
    let cpu = M.cpu_self () -. c0 in
    count ok;
    last_text := text;
    (stats, w, cpu, bytes)
  in
  (* delta equivalence: the served artifact equals a from-scratch mine
     of the corpus rendered by the publisher *)
  let equivalence p =
    let full = Taxogram.run (Taxogram.Spec.collect ~config ~exec:exec1 ()) taxonomy (Corpus.db p.corpus) in
    let scratch =
      Publish.render ~taxonomy ~edge_labels:(Corpus.edge_labels p.corpus)
        ~db_size:(Corpus.size p.corpus) full.Taxogram.patterns
    in
    count (scratch = Epoch.payload !last_text)
  in
  let rng = Prng.of_int ctx.seed in
  (* warm-up commits, not timed *)
  for _ = 1 to 3 do ignore (timed_op rng) done;
  if not ctx.traced then begin
    (* rounds through the window: a chunk of commits on a 1-domain
       pool, the same pipeline restarted from its state on a 2-domain
       pool for a chunk, back again, and set-up samples, each in a
       helper process with its own server. Set-up samples of one run
       vary by about a quarter, mostly in the server's start, so a run
       takes sixteen of them. *)
    let rounds = 5 and setups = 3 in
    let chunk_s =
      Float.max 0.5
        ((ctx.seconds -. (float_of_int (rounds * setups) *. first_setup))
        /. float_of_int (2 * rounds))
    in
    let chunk seconds =
      let deadline = M.now () +. seconds in
      let cpu0 = M.cpu_of_pid srv.Server.pid in
      let rec go acc =
        if M.now () >= deadline && acc <> [] then acc
        else begin
          let _, w, c, _ = timed_op rng in
          go ((w, c) :: acc)
        end
      in
      let samples = go [] in
      let server_cpu = (M.cpu_of_pid srv.Server.pid -. cpu0) /. float_of_int (List.length samples) in
      (List.map fst samples, List.map (fun (_, c) -> c +. server_cpu) samples)
    in
    let switch exec =
      p.engine <- Incremental.create ~corpus:p.corpus ~config ~exec ();
      match Incremental.load_state p.engine (M.read_file state) with
      | Ok () -> ()
      | Error d -> failwith d.Tsg_util.Diagnostic.message
    in
    let w1 = ref [] and c1 = ref [] and w2 = ref [] in
    for _ = 1 to rounds do
      let w, c = chunk chunk_s in
      w1 := w @ !w1;
      c1 := c @ !c1;
      switch exec2;
      M.pin_both ();
      w2 := fst (chunk chunk_s) @ !w2;
      M.pin_work ();
      switch exec1;
      Server.calibrate ();
      for _ = 1 to setups do
        let dt = Server.run_helper [ "--pipe-setup"; ctx.work ] in
        setup_times := float_of_string (String.trim dt) :: !setup_times
      done
    done;
    let w1 = !w1 and c1 = !c1 and w2 = !w2 and setup_times = !setup_times in
    let rss = M.peak_rss_mb None in
    equivalence p;
    Server.stop srv;
    let tail, pct, n = M.tail w1 in
    {
      M.attempted = !attempted;
      failed = !failed;
      metrics =
        [
          ("setup_s", M.median setup_times);
          ("op_p50_ms", ms (M.median w1));
          ("op_tail_ms", ms tail);
          ("op_cpu_ms", ms (M.median c1));
          ("op_x2_p50_ms", ms (M.median w2));
          ("ops_per_s", float_of_int (List.length w2) /. List.fold_left ( +. ) 0.0 w2);
          ("peak_rss_mb", rss);
        ];
      details =
        params
        @ [
            ("setup_s", M.summary setup_times);
            ("op_ms", M.summary (List.map ms w1));
            ("op_tail_percentile", M.Num pct);
            ("op_tail_samples", M.Int n);
            ("op_cpu_ms", M.summary (List.map ms c1));
            ("op_x2_ms", M.summary (List.map ms w2));
          ];
    }
  end
  else begin
    (* the same delta sequence four times from the same base state:
       untraced (warm-up, and it fixes the op count), traced, untraced
       (the overhead baseline), traced; exact counts must repeat *)
    Wal.close p.writer;
    let pass ~traced ~ops =
      copy base_wal wal;
      copy base_state state;
      let q = boot ~taxonomy ~exec:exec1 ~wal ~state in
      let rng = Prng.of_int ctx.seed in
      let deadline = M.now () +. (ctx.seconds /. 4.0) in
      Trace.enabled := traced;
      let rec go k acc =
        if (ops = 0 && M.now () >= deadline && k >= 5) || (ops > 0 && k >= ops) then List.rev acc
        else begin
          let id = Trace.new_op () in
          let wal0 = file_size wal in
          let ((stats, text, ok, bytes), w), minor, major =
            M.allocation (fun () -> M.time (fun () -> op q ~taxonomy ~rng ~state ~artifact ~port))
          in
          count ok;
          last_text := text;
          let written = file_size wal - wal0 + file_size state + file_size artifact in
          go (k + 1)
            ((id, stats, w, float_of_int written /. float_of_int bytes, (minor, major)) :: acc)
        end
      in
      let r = go 0 [] in
      Trace.enabled := false;
      Wal.close q.writer;
      (r, q)
    in
    let warm, _ = pass ~traced:false ~ops:0 in
    let ops = List.length warm in
    let t1, _ = pass ~traced:true ~ops in
    let plain, _ = pass ~traced:false ~ops in
    let t2, q = pass ~traced:true ~ops in
    let mined l = List.map (fun (_, s, _, _, _) -> s.Incremental.roots_mined) l in
    if mined t1 <> mined t2 || mined t1 <> mined plain || mined t1 <> mined warm then
      failwith "exact counts moved between traced repeats (incremental.roots_mined)";
    equivalence q;
    Server.stop srv;
    let traced = t1 @ t2 in
    let per_op name = M.median (List.map (fun (id, _, _, _, _) -> fst (Trace.breakdown id name)) traced) in
    let per_call name calls = per_op name /. float_of_int calls in
    let layers =
      [ "wal.append"; "corpus.apply"; "incremental.refresh"; "incremental.save_state";
        "publish.render"; "publish.write"; "publish.push" ]
    in
    let coverage =
      M.median
        (List.map
           (fun (id, _, _, _, _) ->
             let b = Trace.breakdown id in
             List.fold_left (fun a n -> a +. fst (b n)) 0.0 layers /. fst (b "op"))
           traced)
    in
    let stats = List.map (fun (_, s, _, _, _) -> s) t1 in
    {
      M.attempted = !attempted;
      failed = !failed;
      metrics =
        [
          ("wal.append_ms", ms (per_call "wal.append" (2 * batch)));
          ("corpus.apply_us", us (per_call "corpus.apply" (2 * batch)));
          ("incremental.refresh_ms", ms (per_op "incremental.refresh"));
          ( "incremental.roots_mined",
            M.mean (List.map (fun s -> float_of_int s.Incremental.roots_mined) stats) );
          ( "incremental.dirty_ratio",
            M.mean
              (List.map
                 (fun s ->
                   float_of_int s.Incremental.roots_mined
                   /. float_of_int (max 1 (s.Incremental.roots_mined + s.Incremental.roots_cached)))
                 stats) );
          ("incremental.save_state_ms", ms (per_op "incremental.save_state"));
          ("publish.render_ms", ms (per_op "publish.render"));
          ("publish.write_ms", ms (per_op "publish.write"));
          ("publish.push_ms", ms (per_op "publish.push"));
          ( "pipe.bytes_written_per_delta_byte",
            M.median (List.map (fun (_, _, _, b, _) -> b) traced) );
          ("gc.minor_mwords", M.median (List.map (fun (_, _, _, _, (m, _)) -> m) plain));
          ("gc.major_collections", M.median (List.map (fun (_, _, _, _, (_, m)) -> m) plain));
          ( "trace.overhead_ratio",
            M.median (List.map (fun (_, _, w, _, _) -> w) traced)
            /. M.median (List.map (fun (_, _, w, _, _) -> w) plain) );
          ("trace.coverage", coverage);
        ];
      details = params @ [ ("traced_ops", M.Int (List.length traced)) ];
    }
  end
