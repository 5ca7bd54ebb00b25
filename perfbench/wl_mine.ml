(* mine-td13 / mine-nc40: one op is one Taxogram.run with the `Collect
   sink over inputs loaded the way tsg-mine loads them. 1-domain and
   2-domain ops alternate through the measured window so both see the
   same host conditions. *)

module M = Measure
module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Prng = Tsg_util.Prng
module Arena = Tsg_util.Arena
module Diagnostic = Tsg_util.Diagnostic
module Datasets = Tsg_data.Datasets
module Synth_graph = Tsg_data.Synth_graph
module Taxogram = Tsg_core.Taxogram
module Specialize = Tsg_core.Specialize
module Occ_index = Tsg_core.Occ_index
module Relabel = Tsg_core.Relabel
module Pattern = Tsg_core.Pattern
module Gspan = Tsg_gspan.Gspan
module Min_code = Tsg_gspan.Min_code

type instance = {
  theta : float;
  edge_count : int;
  build : unit -> Taxonomy.t * Db.t;
  (* the instance's answer at theta, fixed when the benchmark was
     defined: pattern count and {!Present.canonical_digest} *)
  expected_patterns : int;
  expected_digest : string;
}

(* the seed bench/main.ml's paper experiments use *)
let data_seed = 20080325

(* Table 1's TD13 at x0.03 (120 graphs), as bench/main.ml builds it *)
let td13 =
  {
    theta = 0.35;
    edge_count = 10;
    build =
      (fun () ->
        let depth = 13 in
        let rng = Prng.of_int (data_seed + depth) in
        let tax =
          Tsg_taxonomy.Synth_taxonomy.generate rng
            { concepts = 1000; relationships = 2000; depth }
        in
        let spec = Datasets.scale 0.03 (Datasets.td_spec ~depth) in
        (tax, Datasets.build rng ~node_label:(Synth_graph.per_level_labels tax ()) spec));
    expected_patterns = 1601;
    expected_digest = "3eefb5d0251558c2075cdc56b2403528";
  }

(* Table 1's NC40 at x0.02 (80 graphs) over the 800-concept GO stand-in *)
let nc40 =
  {
    theta = 0.2;
    edge_count = 10;
    build =
      (fun () ->
        let go = Tsg_taxonomy.Go_like.generate ~concepts:800 (Prng.of_int data_seed) in
        let spec = Datasets.scale 0.02 (Option.get (Datasets.find "NC40")) in
        let rng = Prng.of_int (data_seed + Hashtbl.hash "NC40") in
        (go, Datasets.build rng ~node_label:(Synth_graph.uniform_labels go) spec));
    expected_patterns = 1062;
    expected_digest = "34be98758218c0fb0f936406dabf47ba";
  }

(* tsg-mine's input path: lint both files, load the taxonomy, load the
   database against it, check every label is a concept *)
let load_inputs ~tax_path ~db_path =
  let fail c what =
    failwith (Printf.sprintf "%s: %s" what (Diagnostic.summary c))
  in
  let c = Diagnostic.collector () in
  Trace.with_span "check.lint" (fun () ->
      ignore (Tsg_check.Lint.run c ~taxonomy:tax_path ~dbs:[ db_path ] ()));
  if Diagnostic.has_errors c then fail c "input lint";
  let taxonomy = Trace.with_span "taxonomy_io.load" (fun () -> Taxonomy_io.load tax_path) in
  let edge_labels = Label.create () in
  let db =
    Trace.with_span "serial.load_db" (fun () ->
        Serial.load_db ~node_labels:(Taxonomy.labels taxonomy) ~edge_labels db_path)
  in
  let c = Diagnostic.collector () in
  Trace.with_span "check.db" (fun () -> Tsg_check.Check_db.validate c ~taxonomy db);
  if Diagnostic.has_errors c then fail c "database labels";
  (taxonomy, db, edge_labels)

let setup_reps = 5

(* Taxogram's sequential pipeline replayed through its public calls, one
   span per layer (lib/core/taxogram.ml run_sequential, minus budget,
   checkpoint and supervision plumbing) *)
type replay = {
  patterns : Pattern.t list;
  stats : Specialize.stats;
  roots : int;
  classes : int;
  entries : int;
  members : int;
}

let replay (config : Taxogram.config) taxonomy db =
  let stats = Specialize.fresh_stats () in
  let roots = ref 0 and classes = ref 0 and entries = ref 0 and members = ref 0 in
  let patterns =
    Trace.with_span "op" (fun () ->
        let relabeled = Trace.with_span "relabel" (fun () -> Relabel.db taxonomy db) in
        let min_support = Db.support_count_to_threshold db config.min_support in
        let keep_label =
          Trace.with_span "taxogram.label_filter" (fun () ->
              if config.enhancements.Specialize.label_prefilter then
                Some (Taxogram.frequent_label_filter taxonomy db ~min_support)
              else None)
        in
        let tasks =
          Trace.with_span "gspan" (fun () ->
              Gspan.mine_seed_tasks ?max_edges:config.max_edges ~min_support relabeled)
        in
        let groups =
          List.map
            (fun (_, subtree) ->
              incr roots;
              let group = ref [] in
              Trace.with_span "gspan" (fun () ->
                  subtree (fun cls ->
                      incr classes;
                      let oi =
                        Trace.with_span "occ_index.build" (fun () ->
                            Occ_index.build ~taxonomy ~original:db ?keep_label cls)
                      in
                      let sz = Occ_index.size oi in
                      entries := !entries + sz.Occ_index.entries;
                      members := !members + sz.Occ_index.set_members;
                      Trace.with_span "specialize" (fun () ->
                          Specialize.enumerate ~taxonomy ~min_support
                            ~enhancements:config.enhancements ~stats oi (fun p ->
                              group := p :: !group))));
              !group)
            tasks
        in
        Trace.with_span "pattern.sort" (fun () ->
            List.iter (fun g -> ignore (Pattern.sort g)) groups;
            Pattern.sort (List.concat groups)))
  in
  { patterns; stats; roots = !roots; classes = !classes; entries = !entries;
    members = !members }

let ms s = 1000.0 *. s

let run inst (ctx : M.ctx) =
  let taxonomy0, db0 = inst.build () in
  let tax_path = Filename.concat ctx.work "instance.tax" in
  let db_path = Filename.concat ctx.work "instance.db" in
  let pres =
    Present.write (Prng.of_int ctx.seed) ~taxonomy:taxonomy0 ~edge_count:inst.edge_count
      db0 ~tax_path ~db_path
  in
  (* set-up: the first load is the one mined; more loads are timed
     through the measured window (traced runs: up front, with spans) *)
  let setup_ops = ref [] in
  let setup () =
    Gc.full_major ();
    setup_ops := Trace.new_op () :: !setup_ops;
    M.time (fun () -> load_inputs ~tax_path ~db_path)
  in
  let (taxonomy, db, edge_labels), first_setup = setup () in
  let setup_times = ref [ first_setup ] in
  if ctx.traced then begin
    Trace.enabled := true;
    for _ = 2 to setup_reps do ignore (setup ()) done;
    Trace.enabled := false
  end;
  let config = { Taxogram.default_config with min_support = inst.theta } in
  let spec1 = Taxogram.Spec.collect ~config ~domains:1 () in
  let spec2 = Taxogram.Spec.collect ~config ~domains:2 () in
  let attempted = ref 0 and failed = ref 0 in
  (* the first op is the seed's reference: its answer mapped back to the
     instance must be the instance's recorded answer *)
  let r0 = Taxogram.run spec1 taxonomy db in
  incr attempted;
  let canonical = Present.canonical_digest pres ~taxonomy ~edge_labels r0.Taxogram.patterns in
  let reference_ok =
    r0.Taxogram.completed
    && canonical = inst.expected_digest
    && r0.Taxogram.pattern_count = inst.expected_patterns
  in
  if not reference_ok then incr failed;
  let reference = Present.raw_digest r0.Taxogram.patterns in
  let check patterns =
    incr attempted;
    let ok = reference_ok && Present.raw_digest patterns = reference in
    if not ok then incr failed
  in
  (* every op starts from the same heap state, as a tsg-mine process
     does, instead of paying for the garbage of whatever ran before it *)
  let op spec =
    Gc.full_major ();
    M.calibrate ();
    let two = Taxogram.Spec.domains spec > 1 in
    if two then M.pin_both ();
    let c0 = M.cpu_self () in
    let r, wall = M.time (fun () -> Taxogram.run spec taxonomy db) in
    let cpu = M.cpu_self () -. c0 in
    if two then M.pin_work ();
    check r.Taxogram.patterns;
    (r, wall, cpu)
  in
  (* warm-up: the heap grows over the first ops; these are not timed *)
  ignore (op spec2);
  ignore (op spec1);
  let params =
    [
      ("theta", M.Num inst.theta);
      ("graphs", M.Int (Db.size db));
      ("concepts", M.Int (Taxonomy.label_count taxonomy));
      ("patterns", M.Int r0.Taxogram.pattern_count);
      ("classes", M.Int r0.Taxogram.class_count);
      ("canonical_digest", M.Str canonical);
    ]
  in
  let deadline = M.now () +. ctx.seconds in
  if not ctx.traced then begin
    let w1 = ref [] and c1 = ref [] and w2 = ref [] in
    while M.now () < deadline || List.length !w1 < 5 do
      setup_times := snd (setup ()) :: !setup_times;
      let _, w, c = op spec1 in
      w1 := w :: !w1;
      c1 := c :: !c1;
      let _, w, _ = op spec2 in
      w2 := w :: !w2
    done;
    let tail, pct, n = M.tail !w1 in
    {
      M.attempted = !attempted;
      failed = !failed;
      metrics =
        [
          ("setup_s", M.median !setup_times);
          ("op_p50_ms", ms (M.median !w1));
          ("op_tail_ms", ms tail);
          ("op_cpu_ms", ms (M.median !c1));
          ("op_x2_p50_ms", ms (M.median !w2));
          ("ops_per_s", float_of_int (List.length !w2) /. List.fold_left ( +. ) 0.0 !w2);
          ("peak_rss_mb", M.peak_rss_mb None);
        ];
      details =
        params
        @ [
            ("setup_s", M.summary !setup_times);
            ("op_ms", M.summary (List.map ms !w1));
            ("op_tail_percentile", M.Num pct);
            ("op_tail_samples", M.Int n);
            ("op_cpu_ms", M.summary (List.map ms !c1));
            ("op_x2_ms", M.summary (List.map ms !w2));
          ];
    }
  end
  else begin
    (* untraced ops for the result fields, allocation and arena counters;
       traced replays for the per-layer spans *)
    let plain = ref [] and pool = ref [] and gc = ref [] and arena = ref [] in
    let traced = ref [] in
    let counts = ref None in
    let key_us = ref nan in
    while M.now () < deadline || List.length !traced < 3 do
      let a0 = Arena.stats () in
      let (r, w, _), minor, major = M.allocation (fun () -> op spec1) in
      let a1 = Arena.stats () in
      plain := (r, w) :: !plain;
      gc := (minor, major) :: !gc;
      arena := (a1.Arena.hits - a0.Arena.hits, a1.Arena.misses - a0.Arena.misses) :: !arena;
      if Float.is_nan !key_us then begin
        let ps = r.Taxogram.patterns in
        let (), dt =
          M.time (fun () -> List.iter (fun p -> ignore (Min_code.canonical_key p.Pattern.graph)) ps)
        in
        key_us := 1e6 *. dt /. float_of_int (max 1 (List.length ps))
      end;
      if List.length !pool < List.length !plain / 2 + 1 then begin
        let r, _, _ = op spec2 in
        pool :=
          (r.Taxogram.mining_cpu_seconds +. r.Taxogram.enumerate_cpu_seconds)
          /. (2.0 *. r.Taxogram.total_wall_seconds)
          :: !pool
      end;
      Trace.enabled := true;
      let id = Trace.new_op () in
      let rp, w = M.time (fun () -> replay config taxonomy db) in
      Trace.enabled := false;
      check rp.patterns;
      let c =
        (rp.stats.Specialize.intersections, rp.classes, rp.entries, rp.roots)
      in
      (match !counts with
      | None -> counts := Some c
      | Some c' when c' = c -> ()
      | Some _ ->
        failwith "exact counts moved between traced repeats (intersections, classes or entries)");
      traced := (id, rp, w) :: !traced
    done;
    let med f l = M.median (List.map f l) in
    let rf f = med (fun (r, _) -> f r) !plain in
    let relabel = rf (fun r -> r.Taxogram.relabel_wall_seconds) in
    let step2 = rf (fun r -> r.Taxogram.mining_wall_seconds) in
    let step3 = rf (fun r -> r.Taxogram.enumerate_wall_seconds) in
    let span name = med (fun (id, _, _) -> snd (Trace.breakdown id name)) !traced in
    let span_total name = med (fun (id, _, _) -> fst (Trace.breakdown id name)) !traced in
    let _, rp, _ = List.hd !traced in
    let st = rp.stats in
    let traced_wall = med (fun (_, _, w) -> w) !traced in
    let layers =
      [ "relabel"; "taxogram.label_filter"; "gspan"; "occ_index.build"; "specialize"; "pattern.sort" ]
    in
    let coverage =
      med
        (fun (id, _, w) ->
          let b = Trace.breakdown id in
          List.fold_left (fun acc n -> acc +. snd (b n)) 0.0 layers /. w)
        !traced
    in
    let hits, misses =
      List.fold_left (fun (h, m) (h', m') -> (h + h', m + m')) (0, 0) !arena
    in
    let setup name = M.median (List.map (fun id -> fst (Trace.breakdown id name)) !setup_ops) in
    let specialize_s = span_total "specialize" in
    {
      M.attempted = !attempted;
      failed = !failed;
      metrics =
        [
          ("specialize.ms", ms specialize_s);
          ("specialize.intersections", float_of_int st.Specialize.intersections);
          ("specialize.visited", float_of_int st.Specialize.visited);
          ("specialize.emitted", float_of_int st.Specialize.emitted);
          ("specialize.over_generalized", float_of_int st.Specialize.over_generalized);
          ( "specialize.yield",
            float_of_int st.Specialize.emitted /. float_of_int (max 1 st.Specialize.visited) );
          ( "specialize.ns_per_intersection",
            1e9 *. specialize_s /. float_of_int (max 1 st.Specialize.intersections) );
          ("arena.hit_rate", float_of_int hits /. float_of_int (max 1 (hits + misses)));
          ("gspan.self_ms", ms (span "gspan"));
          ("gspan.roots", float_of_int rp.roots);
          ("gspan.classes", float_of_int rp.classes);
          ("occ_index.build_ms", ms (span_total "occ_index.build"));
          ("occ_index.entries", float_of_int rp.entries);
          ("occ_index.set_members", float_of_int rp.members);
          ("taxogram.step2_ms", ms step2);
          ("taxogram.step3_ms", ms step3);
          ( "taxogram.residual_ms",
            med
              (fun (r, w) ->
                w -. r.Taxogram.relabel_wall_seconds -. r.Taxogram.mining_wall_seconds
                -. r.Taxogram.enumerate_wall_seconds)
              !plain
            |> ms );
          ("relabel.ms", ms relabel);
          ("taxogram.pool_busy", M.median !pool);
          ("pattern.sort_ms", ms (span_total "pattern.sort"));
          ("min_code.key_us", !key_us);
          ("gc.minor_mwords", med fst !gc);
          ("gc.major_collections", med snd !gc);
          ("check.lint_ms", ms (setup "check.lint"));
          ("taxonomy_io.load_ms", ms (setup "taxonomy_io.load"));
          ("serial.load_db_ms", ms (setup "serial.load_db"));
          ("trace.overhead_ratio", traced_wall /. med snd !plain);
          ("trace.coverage", coverage);
        ];
      details =
        params
        @ [
            ("untraced_op_ms", M.summary (List.map (fun (_, w) -> ms w) !plain));
            ("traced_op_ms", M.summary (List.map (fun (_, _, w) -> ms w) !traced));
            ("traced_label_filter_ms", M.Num (ms (span "taxogram.label_filter")));
            ("traced_relabel_ms", M.Num (ms (span "relabel")));
            ("traced_op_self_ms", M.Num (ms (span "op")));
          ];
    }
  end
