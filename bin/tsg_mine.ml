(* tsg-mine: mine a taxonomy-superimposed graph database from files.

     tsg-mine --db pathways.db --taxonomy go.tax --support 0.2
     tsg-mine --db pte.db --taxonomy atoms.tax --algorithm tacgm --limit 20 *)

module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Pattern = Tsg_core.Pattern
module Taxogram = Tsg_core.Taxogram
module Tacgm = Tsg_core.Tacgm
module Naive = Tsg_core.Naive
module Specialize = Tsg_core.Specialize
module Diagnostic = Tsg_util.Diagnostic

open Cmdliner

type algorithm = Alg_taxogram | Alg_baseline | Alg_tacgm | Alg_naive

let algorithm_conv =
  let parse = function
    | "taxogram" -> Ok Alg_taxogram
    | "baseline" -> Ok Alg_baseline
    | "tacgm" -> Ok Alg_tacgm
    | "naive" -> Ok Alg_naive
    | s -> Error (`Msg ("unknown algorithm: " ^ s))
  in
  let print ppf a =
    Format.pp_print_string ppf
      (match a with
      | Alg_taxogram -> "taxogram"
      | Alg_baseline -> "baseline"
      | Alg_tacgm -> "tacgm"
      | Alg_naive -> "naive")
  in
  Arg.conv (parse, print)

(* fail fast on malformed artifacts, with rule-coded diagnostics; the
   --no-validate escape hatch skips straight to loading *)
let validate_inputs db_path tax_path =
  let c = Diagnostic.collector () in
  ignore (Tsg_check.Lint.run c ~taxonomy:tax_path ~dbs:[ db_path ] ());
  if Diagnostic.has_errors c then begin
    Diagnostic.print stderr c;
    Printf.eprintf
      "tsg-mine: validation failed (%s); --no-validate to override\n"
      (Diagnostic.summary c);
    exit 2
  end

let refuse d =
  Printf.eprintf "tsg-mine: %s\n" (Diagnostic.to_string d);
  exit 2

(* malformed input (unchecked under --no-validate or --directed) is a
   rule-coded diagnostic and exit 2, never an uncaught exception *)
let parsed db_path f =
  try f () with
  | Taxonomy_io.Parse_error d -> refuse d
  | Serial.Parse_error (line, msg) ->
    refuse (Diagnostic.make ~file:db_path ~line ~rule:"DB007" Diagnostic.Error msg)

let load_inputs db_path tax_path =
  parsed db_path @@ fun () ->
  let taxonomy = Taxonomy_io.load tax_path in
  let edge_labels = Label.create () in
  let db =
    Serial.load_db ~node_labels:(Taxonomy.labels taxonomy) ~edge_labels db_path
  in
  (* every node label read from the db must already be a taxonomy concept;
     Serial interns unknown names, which would leave them outside the DAG *)
  let c = Diagnostic.collector () in
  Tsg_check.Check_db.validate c ~taxonomy db;
  if Diagnostic.has_errors c then begin
    Diagnostic.print stderr c;
    Printf.eprintf "tsg-mine: %s uses labels outside the taxonomy (%s)\n"
      db_path (Diagnostic.summary c);
    exit 2
  end;
  (taxonomy, db, edge_labels)

let run_directed db_path tax_path support max_edges limit quiet =
  parsed db_path @@ fun () ->
  let taxonomy = Taxonomy_io.load tax_path in
  let env = Tsg_core.Directed.prepare taxonomy in
  let arc_labels = Label.create () in
  let digraphs =
    Serial.load_digraphs ~node_labels:(Taxonomy.labels taxonomy) ~arc_labels
      db_path
  in
  Printf.printf "directed database: %d graphs, taxonomy: %d concepts\n%!"
    (List.length digraphs)
    (Taxonomy.label_count taxonomy);
  let t = Tsg_util.Timer.start () in
  let max_arcs = max_edges in
  let patterns =
    Tsg_core.Directed.mine ~min_support:support ?max_arcs env digraphs
  in
  let elapsed = Tsg_util.Timer.elapsed_s t in
  let sorted =
    List.sort
      (fun (a : Tsg_core.Directed.pattern) b ->
        compare b.Tsg_core.Directed.support_count
          a.Tsg_core.Directed.support_count)
      patterns
  in
  Printf.printf "%d directed patterns in %.3fs (support >= %.2f)\n"
    (List.length sorted) elapsed support;
  if not quiet then begin
    let shown =
      match limit with
      | Some l -> List.filteri (fun i _ -> i < l) sorted
      | None -> sorted
    in
    let names = Taxonomy.labels (Tsg_core.Directed.taxonomy env) in
    List.iter
      (fun p ->
        Format.printf "  %a@." (Tsg_core.Directed.pp_pattern ~names) p)
      shown
  end;
  0

let run db_path tax_path support algorithm max_edges limit quiet directed out
    domains no_validate checkpoint_path checkpoint_every corpus_seq
    supervised =
  (* the directed miner neither saves nor checkpoints its patterns *)
  if directed && (Option.is_some out || Option.is_some checkpoint_path) then begin
    prerr_endline "tsg-mine: --save and --checkpoint do not apply with --directed";
    exit 2
  end;
  if directed then run_directed db_path tax_path support max_edges limit quiet
  else begin
  (match (checkpoint_path, algorithm) with
  | Some _, (Alg_tacgm | Alg_naive) ->
    prerr_endline
      "tsg-mine: --checkpoint applies to the taxogram and baseline algorithms";
    exit 2
  | Some _, (Alg_taxogram | Alg_baseline) | None, _ -> ());
  if not no_validate then validate_inputs db_path tax_path;
  let taxonomy, db, edge_labels = load_inputs db_path tax_path in
  let domains =
    Option.value ~default:(Tsg_util.Pool.default_domains ()) domains
  in
  Printf.printf
    "database: %d graphs, taxonomy: %d concepts (%d levels), %d domains\n%!"
    (Db.size db)
    (Taxonomy.label_count taxonomy)
    (Taxonomy.level_count taxonomy)
    domains;
  let incomplete = ref false in
  let patterns, elapsed =
    match algorithm with
    | Alg_taxogram | Alg_baseline ->
      let enhancements =
        if algorithm = Alg_taxogram then Specialize.all_on
        else Specialize.all_off
      in
      let config = { Taxogram.min_support = support; max_edges; enhancements } in
      let checkpoint =
        Option.map
          (fun path ->
            { Taxogram.path; every_s = checkpoint_every; corpus_seq })
          checkpoint_path
      in
      let spec =
        Taxogram.Spec.collect ~config ~domains ?checkpoint ~supervised ()
      in
      let r =
        try Taxogram.run spec taxonomy db with
        | Tsg_core.Checkpoint.Error d -> refuse d
        | Tsg_util.Fault.Injected _ as e ->
          Printf.eprintf "tsg-mine: aborted: %s\n" (Printexc.to_string e);
          (match checkpoint_path with
          | Some p ->
            Printf.eprintf
              "tsg-mine: progress saved to %s; rerun with --checkpoint to \
               resume\n"
              p
          | None -> ());
          exit 3
      in
      List.iter
        (fun d -> Printf.eprintf "tsg-mine: %s\n" (Diagnostic.to_string d))
        r.Taxogram.diagnostics;
      if not r.Taxogram.completed then begin
        incomplete := true;
        prerr_endline
          "tsg-mine: run stopped early; reporting the completed prefix"
      end;
      (r.Taxogram.patterns, r.Taxogram.total_wall_seconds)
    | Alg_tacgm ->
      let r = Tacgm.run ?max_edges ~min_support:support taxonomy db in
      (match r.Tacgm.outcome with
      | Tacgm.Completed -> ()
      | Tacgm.Out_of_memory -> prerr_endline "tacgm: embedding budget exceeded"
      | Tacgm.Timed_out -> prerr_endline "tacgm: time budget exceeded");
      (r.Tacgm.patterns, r.Tacgm.total_seconds)
    | Alg_naive ->
      let max_edges = Option.value ~default:3 max_edges in
      let t = Tsg_util.Timer.start () in
      let ps = Naive.mine ~max_edges ~min_support:support taxonomy db in
      (ps, Tsg_util.Timer.elapsed_s t)
  in
  let sorted =
    List.sort
      (fun (a : Pattern.t) b -> compare b.Pattern.support_count a.Pattern.support_count)
      patterns
  in
  Printf.printf "%d patterns in %.3fs (support >= %.2f)\n" (List.length sorted)
    elapsed support;
  (match out with
  | Some path ->
    if not no_validate then begin
      (* make sure we never persist a pattern set that tsg-lint would
         reject: same checks, before any bytes hit the disk *)
      let c = Diagnostic.collector () in
      Tsg_check.Check_patterns.validate c ~taxonomy
        ~node_labels:(Taxonomy.labels taxonomy)
        ~db_size:(Db.size db) sorted;
      if Diagnostic.has_errors c then begin
        Diagnostic.print stderr c;
        Printf.eprintf
          "tsg-mine: refusing to save invalid pattern set (%s); \
           --no-validate to override\n"
          (Diagnostic.summary c);
        exit 2
      end
    end;
    (* save with the db's own edge-label table: pattern edge-label ids are
       the loader's interning, which need not follow the e0..eN name order *)
    Tsg_core.Pattern_io.save path
      ~node_labels:(Taxonomy.labels taxonomy)
      ~edge_labels ~db_size:(Db.size db) sorted;
    Printf.printf "patterns written to %s\n" path
  | None -> ());
  if not quiet then begin
    let shown = match limit with Some l -> List.filteri (fun i _ -> i < l) sorted | None -> sorted in
    let names = Taxonomy.labels taxonomy in
    List.iter (fun p -> print_endline ("  " ^ Pattern.to_string ~names p)) shown;
    match limit with
    | Some l when List.length sorted > l ->
      Printf.printf "  ... (%d more; raise --limit)\n" (List.length sorted - l)
    | _ -> ()
  end;
  if !incomplete then 1 else 0
  end

let db_arg =
  Arg.(required & opt (some file) None & info [ "db" ] ~docv:"FILE"
         ~doc:"Graph database in gSpan-style text format (see tsg-datagen).")

let tax_arg =
  Arg.(required & opt (some file) None & info [ "taxonomy" ] ~docv:"FILE"
         ~doc:"Label taxonomy (c/i line format).")

let support_arg =
  Arg.(value & opt float 0.2 & info [ "theta"; "support"; "s" ] ~docv:"THETA"
         ~doc:"Minimum support threshold in [0,1]. $(b,--support) and \
               $(b,-s) are kept as aliases of $(b,--theta).")

let algorithm_arg =
  Arg.(value & opt algorithm_conv Alg_taxogram & info [ "algorithm"; "a" ]
         ~docv:"ALG" ~doc:"One of taxogram, baseline, tacgm, naive.")

let max_edges_arg =
  Arg.(value & opt (some int) None & info [ "max-edges" ] ~docv:"N"
         ~doc:"Cap patterns at $(docv) edges.")

let limit_arg =
  Arg.(value & opt (some int) (Some 50) & info [ "limit" ] ~docv:"N"
         ~doc:"Print at most $(docv) patterns (highest support first).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print the summary line.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "out"; "save" ] ~docv:"FILE"
         ~doc:"Also write the mined patterns to $(docv) (Pattern_io format, \
               readable by tsg-serve and tsg-dot).")

let domains_arg =
  Arg.(value & opt (some int) None
       & info [ "domains" ] ~docv:"N"
           ~env:(Cmd.Env.info "TSG_DOMAINS")
           ~doc:"Size of the work-stealing domain pool Steps 2 and 3 run \
                 on (taxogram and baseline algorithms only); with 1 each \
                 class is specialized as soon as it is indexed. Defaults \
                 to $(b,TSG_DOMAINS) when \
                 set, else the machine's recommended domain count capped \
                 at 8.")

let directed_arg =
  Arg.(value & flag & info [ "directed" ]
         ~doc:"Treat the database as directed ('a' lines); --max-edges then \
               counts arcs. The algorithm is always taxogram in this mode.")

let no_validate_arg =
  Arg.(value & flag & info [ "no-validate" ]
         ~doc:"Skip the tsg-lint validation pass over inputs and over the \
               pattern set written by --save.")

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Snapshot completed mining roots to $(docv) (written \
               atomically) and resume from it when it already holds a \
               snapshot of the same inputs; the resumed pattern set is \
               identical to an uninterrupted run. The file is removed when \
               mining completes. Taxogram and baseline algorithms only.")

let checkpoint_every_arg =
  Arg.(value & opt float 5.0 & info [ "checkpoint-every" ] ~docv:"SECS"
         ~doc:"Minimum seconds between checkpoint snapshots (0 snapshots \
               after every completed root).")

let corpus_seq_arg =
  Arg.(value & opt int64 0L & info [ "corpus-seq" ] ~docv:"SEQ"
         ~doc:"Corpus version stamped into --checkpoint snapshots: the WAL \
               sequence number of a tsg-pipe-maintained database (see \
               tsg-pipe export), 0 for a static corpus. Resuming a \
               snapshot taken at a different sequence fails with CKPT003 — \
               the corpus moved on, so the snapshot's completed-root \
               prefix no longer describes it.")

let supervised_arg =
  Arg.(value & flag & info [ "supervised" ]
         ~doc:"Quarantine failing mining tasks instead of aborting: the run \
               reports the completed prefix plus rule-coded diagnostics on \
               stderr, and exits 1 when cut short.")

let cmd =
  let doc = "mine frequent patterns from a taxonomy-superimposed graph database" in
  Cmd.v
    (Cmd.info "tsg-mine" ~doc)
    Term.(
      const run $ db_arg $ tax_arg $ support_arg $ algorithm_arg
      $ max_edges_arg $ limit_arg $ quiet_arg $ directed_arg $ out_arg
      $ domains_arg $ no_validate_arg $ checkpoint_arg
      $ checkpoint_every_arg $ corpus_seq_arg $ supervised_arg)

let () =
  (match Tsg_util.Fault.configure_from_env () with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "tsg-mine: %s\n" msg;
    exit 2);
  exit (Cmd.eval' cmd)
