(* tsg-mine: mine a taxonomy-superimposed graph database from files.

     tsg-mine --db pathways.db --taxonomy go.tax --support 0.2
     tsg-mine --db pte.db --taxonomy atoms.tax --algorithm tacgm --limit 20 *)

module Db = Tsg_graph.Db
module Digraph = Tsg_graph.Digraph
module Graph = Tsg_graph.Graph
module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Pattern = Tsg_core.Pattern
module Taxogram = Tsg_core.Taxogram
module Tacgm = Tsg_core.Tacgm
module Naive = Tsg_core.Naive
module Specialize = Tsg_core.Specialize
module Subdivision = Tsg_core.Subdivision
module Directed = Tsg_core.Directed
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
   --no-validate escape hatch skips straight to loading. The db lint reads
   undirected ('e') files only, so a directed run lints just the taxonomy *)
let validate_inputs ~dbs tax_path =
  let c = Diagnostic.collector () in
  ignore (Tsg_check.Lint.run c ~taxonomy:tax_path ~dbs ());
  if Diagnostic.has_errors c then begin
    Diagnostic.print stderr c;
    Printf.eprintf
      "tsg-mine: validation failed (%s); --no-validate to override\n"
      (Diagnostic.summary c);
    exit 2
  end

let usage msg =
  prerr_endline ("tsg-mine: " ^ msg);
  exit 2

let refuse d = usage (Diagnostic.to_string d)

(* malformed input (unchecked under --no-validate, or a directed db) is a
   rule-coded diagnostic and exit 2, never an uncaught exception *)
let parsed db_path f =
  try f () with
  | Taxonomy_io.Parse_error d -> refuse d
  | Serial.Parse_error (line, msg) ->
    refuse (Diagnostic.make ~file:db_path ~line ~rule:"DB007" Diagnostic.Error msg)

(* every node label read from the db must already be a taxonomy concept;
   Serial interns unknown names, which would leave them outside the DAG *)
let check_labels db_path taxonomy db =
  let c = Diagnostic.collector () in
  Tsg_check.Check_db.validate c ~taxonomy db;
  if Diagnostic.has_errors c then begin
    Diagnostic.print stderr c;
    Printf.eprintf "tsg-mine: %s uses labels outside the taxonomy (%s)\n"
      db_path (Diagnostic.summary c);
    exit 2
  end

let load_inputs db_path tax_path domains =
  parsed db_path @@ fun () ->
  let taxonomy = Taxonomy_io.load tax_path in
  let edge_labels = Label.create () in
  let db =
    Serial.load_db ~node_labels:(Taxonomy.labels taxonomy) ~edge_labels db_path
  in
  check_labels db_path taxonomy db;
  Printf.printf
    "database: %d graphs, taxonomy: %d concepts (%d levels), %d domains\n%!"
    (Db.size db)
    (Taxonomy.label_count taxonomy)
    (Taxonomy.level_count taxonomy)
    domains;
  (taxonomy, db, edge_labels)

(* the same label check runs before the arc encoding: an unknown name is
   interned at the next id, which the extended taxonomy gives the reserved
   arc concept *)
let load_directed db_path tax_path =
  parsed db_path @@ fun () ->
  let taxonomy = Taxonomy_io.load tax_path in
  let env =
    try Directed.prepare taxonomy with Invalid_argument msg -> usage msg
  in
  let digraphs =
    Serial.load_digraphs ~node_labels:(Taxonomy.labels taxonomy)
      ~arc_labels:(Label.create ()) db_path
  in
  let node_graph d = Graph.build ~labels:(Digraph.node_labels d) ~edges:[] in
  check_labels db_path taxonomy (Db.of_list (List.map node_graph digraphs));
  Printf.printf "directed database: %d graphs, taxonomy: %d concepts\n%!"
    (List.length digraphs)
    (Taxonomy.label_count taxonomy);
  (env, digraphs)

(* a taxogram or baseline run, over either kind of input *)
let taxogram_run checkpoint_path mine =
  match mine () with
  | patterns, (r : Taxogram.result) ->
    List.iter
      (fun d -> Printf.eprintf "tsg-mine: %s\n" (Diagnostic.to_string d))
      r.diagnostics;
    if not r.completed then
      prerr_endline "tsg-mine: run stopped early; reporting the completed prefix";
    (patterns, r.total_wall_seconds, not r.completed)
  | exception Tsg_core.Checkpoint.Error d -> refuse d
  | exception (Tsg_util.Fault.Injected _ as e) ->
    Printf.eprintf "tsg-mine: aborted: %s\n" (Printexc.to_string e);
    Option.iter
      (Printf.eprintf
         "tsg-mine: progress saved to %s; rerun with --checkpoint to resume\n")
      checkpoint_path;
    exit 3

(* the summary line, [save], then the patterns, highest support first;
   exit 1 when the run stopped early *)
let report ~support ~limit ~quiet ~what ~count ~show ~save
    (patterns, elapsed, incomplete) =
  let sorted = List.sort (fun a b -> compare (count b) (count a)) patterns in
  Printf.printf "%d %s in %.3fs (support >= %.2f)\n" (List.length sorted)
    what elapsed support;
  save sorted;
  if not quiet then begin
    let shown =
      match limit with
      | Some l -> List.filteri (fun i _ -> i < l) sorted
      | None -> sorted
    in
    List.iter (fun p -> print_endline ("  " ^ show p)) shown;
    match limit with
    | Some l when List.length sorted > l ->
      Printf.printf "  ... (%d more; raise --limit)\n" (List.length sorted - l)
    | _ -> ()
  end;
  if incomplete then 1 else 0

let save_patterns ~no_validate taxonomy db edge_labels out sorted =
  out |> Option.iter @@ fun path ->
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

(* --directed changes only how the input loads and how a pattern prints;
   its patterns are neither saved nor checkpointed *)
let run db_path tax_path support algorithm max_edges limit quiet directed out
    domains no_validate checkpoint_path checkpoint_every corpus_seq
    supervised =
  if directed && (Option.is_some out || Option.is_some checkpoint_path) then
    usage "--save and --checkpoint do not apply with --directed";
  (match algorithm with
  | (Alg_tacgm | Alg_naive) when directed ->
    usage "--directed applies to the taxogram and baseline algorithms"
  | (Alg_tacgm | Alg_naive) when Option.is_some checkpoint_path ->
    usage "--checkpoint applies to the taxogram and baseline algorithms"
  | Alg_tacgm | Alg_naive | Alg_taxogram | Alg_baseline -> ());
  if not no_validate then
    validate_inputs ~dbs:(if directed then [] else [ db_path ]) tax_path;
  let spec =
    let enhancements =
      Specialize.(if algorithm = Alg_baseline then all_off else all_on)
    in
    let checkpoint =
      Option.map
        (fun path -> { Taxogram.path; every_s = checkpoint_every; corpus_seq })
        checkpoint_path
    in
    Taxogram.Spec.collect
      ~config:{ Taxogram.min_support = support; max_edges; enhancements }
      ?domains ?checkpoint ~supervised ()
  in
  if directed then begin
    let env, digraphs = load_directed db_path tax_path in
    let names = Taxonomy.labels (Directed.taxonomy env) in
    taxogram_run checkpoint_path (fun () ->
        Subdivision.run env spec digraphs)
    |> report ~support ~limit ~quiet ~what:"directed patterns"
         ~count:(fun (p : Directed.pattern) -> p.support_count)
         ~show:(Format.asprintf "%a" (Directed.pp_pattern ~names))
         ~save:ignore
  end
  else begin
    let taxonomy, db, edge_labels =
      load_inputs db_path tax_path (Taxogram.Spec.domains spec)
    in
    (match algorithm with
    | Alg_taxogram | Alg_baseline ->
      taxogram_run checkpoint_path (fun () ->
          let r = Taxogram.run spec taxonomy db in
          (r.Taxogram.patterns, r))
    | Alg_tacgm ->
      let r = Tacgm.run ?max_edges ~min_support:support taxonomy db in
      (match r.Tacgm.outcome with
      | Tacgm.Completed -> ()
      | Tacgm.Out_of_memory -> prerr_endline "tacgm: embedding budget exceeded"
      | Tacgm.Timed_out -> prerr_endline "tacgm: time budget exceeded");
      (r.Tacgm.patterns, r.Tacgm.total_seconds, false)
    | Alg_naive ->
      let max_edges = Option.value ~default:3 max_edges in
      let t = Tsg_util.Timer.start () in
      let ps = Naive.mine ~max_edges ~min_support:support taxonomy db in
      (ps, Tsg_util.Timer.elapsed_s t, false))
    |> report ~support ~limit ~quiet ~what:"patterns"
         ~count:(fun (p : Pattern.t) -> p.support_count)
         ~show:(Pattern.to_string ~names:(Taxonomy.labels taxonomy))
         ~save:(save_patterns ~no_validate taxonomy db edge_labels out)
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
               counts arcs. Mining runs the taxogram or baseline algorithm \
               over the arc-subdivided graphs; --save and --checkpoint do \
               not apply.")

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
