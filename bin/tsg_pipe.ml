(* tsg-pipe: crash-safe incremental mining from a changing corpus.

     tsg-pipe --wal corpus.wal --taxonomy d.tax --out patterns.pat < deltas
     tsg-pipe --wal corpus.wal --taxonomy d.tax --out patterns.pat \
       --state pipe.state --push 127.0.0.1:7411 --deltas day1.delta
     tsg-pipe --wal corpus.wal --taxonomy d.tax --export corpus.db

   Reads delta commands (below), appends each to the write-ahead log
   (fsynced before anything else sees it), folds it into the in-memory
   corpus, and on [commit] re-mines only the gSpan roots the deltas
   could have touched, publishes the artifact atomically, and (with
   --push) hot-reloads a running tsg-serve, verifying the acknowledged
   checksum. On startup the WAL is recovered (torn tail truncated,
   records replayed), so a crash at any point — including the injected
   faults under TSG_FAULTS — loses at most unacknowledged work.

   Delta command syntax, one command per line:

     add            start a graph; Serial text lines follow, "." ends it
     remove SEQ     remove the graph added by WAL record SEQ
     commit         re-mine, publish, push
     # ...          comment; blank lines are skipped

   An EOF with uncommitted deltas (or no commit at all) commits once
   more, so piping a bare delta stream with no trailing "commit" still
   publishes. After each commit one line is printed to stdout:

     committed seq <head> patterns <n> full <b> mined <r> cached <r> [checksum <hex>]

   and on startup:

     recovered seq <head> graphs <n> truncated <b> rejected <n> *)

module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Taxogram = Tsg_core.Taxogram
module Wal = Tsg_pipeline.Wal
module Corpus = Tsg_pipeline.Corpus
module Incremental = Tsg_pipeline.Incremental
module Publish = Tsg_pipeline.Publish
module Diagnostic = Tsg_util.Diagnostic
module Fault = Tsg_util.Fault
module Pool = Tsg_util.Pool

open Cmdliner

exception Push_failed of Diagnostic.t

let read_file_opt = function
  | None -> None
  | Some path when Sys.file_exists path -> (
    try Some (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error _ -> None)
  | Some _ -> None

type boot = {
  b_writer : Wal.writer;
  b_corpus : Corpus.t;
  b_engine : Incremental.t;
  b_recovery : Wal.recovery;
  b_rejected : int;  (* PIPE001 rejections seen during replay *)
}

(* recovery: WAL -> corpus (full replay, which also fixes the edge-label
   interning order), state snapshot -> cached groups, records past the
   snapshot watermark -> dirty roots *)
let boot ~wal_path ~state_path ~taxonomy ~config ~exec ~quiet =
  let note d = if not quiet then prerr_endline (Diagnostic.to_string d) in
  let recovery = Wal.recover wal_path in
  let snapshot = read_file_opt state_path in
  let watermark =
    match Option.bind snapshot Incremental.state_watermark with
    | Some w -> w
    | None -> -1L
  in
  let corpus = Corpus.create ~taxonomy () in
  let engine = Incremental.create ~corpus ~config ~exec () in
  let rejected = ref 0 in
  List.iter
    (fun (r : Wal.record) ->
      match Corpus.apply corpus r with
      | Ok g ->
        if Int64.compare r.seq watermark > 0 then
          Incremental.mark_dirty engine g
      | Error d ->
        incr rejected;
        note d)
    recovery.replayed;
  (match snapshot with
  | None -> ()
  | Some text -> (
    match Incremental.load_state engine text with
    | Ok () -> ()
    | Error d -> note d));
  {
    b_writer = Wal.open_writer wal_path;
    b_corpus = corpus;
    b_engine = engine;
    b_recovery = recovery;
    b_rejected = !rejected;
  }

type session = {
  wal_path : string;
  state_path : string option;
  taxonomy : Taxonomy.t;
  config : Taxogram.config;
  exec : Pool.Exec.t;
  quiet : bool;
  mutable writer : Wal.writer;
  mutable corpus : Corpus.t;
  mutable engine : Incremental.t;
  mutable rejected : int;  (* PIPE001 rejections, replay + live *)
}

let note session d =
  if not session.quiet then prerr_endline (Diagnostic.to_string d)

let reboot session =
  (try Wal.close session.writer with Unix.Unix_error _ | Sys_error _ -> ());
  let b =
    boot ~wal_path:session.wal_path ~state_path:session.state_path
      ~taxonomy:session.taxonomy ~config:session.config ~exec:session.exec
      ~quiet:session.quiet
  in
  session.writer <- b.b_writer;
  session.corpus <- b.b_corpus;
  session.engine <- b.b_engine;
  session.rejected <- session.rejected + b.b_rejected

(* run one step, treating an injected fault as the crash it simulates:
   recover (WAL replay, state reload) and try the step again, bounded *)
let with_recovery session ~max_restarts ~what f =
  let rec go attempt needs_reboot =
    if attempt > max_restarts then begin
      Printf.eprintf
        "tsg-pipe: %s still failing after %d recovery attempts, giving up\n"
        what max_restarts;
      exit 3
    end;
    match
      if needs_reboot then reboot session;
      f ()
    with
    | v -> v
    | exception Fault.Injected { site; hit } ->
      if not session.quiet then
        Printf.eprintf "tsg-pipe: injected fault at %s (hit %d), recovering\n%!"
          site hit;
      go (attempt + 1) true
    | exception Push_failed d ->
      note session d;
      go (attempt + 1) true
  in
  go 1 false

(* a delta is durable first, applied second; if the crash landed between
   the two, recovery has already applied it and the sequence number tells
   us not to append again *)
let apply_delta session ~max_restarts op =
  let intended = ref 0L in
  with_recovery session ~max_restarts ~what:"delta"
    (fun () ->
      if Int64.compare !intended 0L > 0
         && Int64.compare (Corpus.seq session.corpus) !intended >= 0
      then ()  (* the previous attempt made it into the log after all *)
      else begin
        let seq = Int64.add (Corpus.seq session.corpus) 1L in
        intended := seq;
        let r = { Wal.seq; op } in
        Wal.append session.writer r;
        match Corpus.apply session.corpus r with
        | Ok g -> Incremental.mark_dirty session.engine g
        | Error d ->
          session.rejected <- session.rejected + 1;
          note session d
      end)

let commit session ~max_restarts ~out ~push =
  with_recovery session ~max_restarts ~what:"commit" (fun () ->
      let stats = Incremental.refresh session.engine in
      (match session.state_path with
      | Some path -> Incremental.save_state session.engine path
      | None -> ());
      let checksum =
        match out with
        | None -> None
        | Some path ->
          let previous = read_file_opt (Some path) in
          let artifact = Incremental.render session.engine in
          Publish.write path artifact;
          (match push with
          | None -> None
          | Some (host, port) -> (
            match Publish.push ~host ~port ~artifact:path ~previous with
            | Ok ck -> Some ck
            | Error d -> raise (Push_failed d)))
      in
      Printf.printf "committed seq %Ld patterns %d full %b mined %d cached %d%s\n%!"
        (Incremental.mined_seq session.engine)
        stats.Incremental.patterns stats.Incremental.full
        stats.Incremental.roots_mined stats.Incremental.roots_cached
        (match checksum with
        | None -> ""
        | Some ck -> Printf.sprintf " checksum %016Lx" ck))

(* ------------------------------------------------------------------ *)
(* delta command stream *)

let input_lines paths =
  match paths with
  | [] ->
    fun () -> In_channel.input_line stdin
  | paths ->
    let remaining = ref paths in
    let current = ref None in
    let rec next () =
      match !current with
      | Some ic -> (
        match In_channel.input_line ic with
        | Some _ as line -> line
        | None ->
          In_channel.close ic;
          current := None;
          next ())
      | None -> (
        match !remaining with
        | [] -> None
        | path :: tl ->
          remaining := tl;
          (match In_channel.open_bin path with
          | ic ->
            current := Some ic;
            next ()
          | exception Sys_error msg ->
            Printf.eprintf "tsg-pipe: %s\n" msg;
            exit 2))
    in
    next

let read_graph_payload next_line =
  let buf = Buffer.create 256 in
  let rec go () =
    match next_line () with
    | None ->
      Printf.eprintf "tsg-pipe: EOF inside an add payload (missing \".\")\n";
      exit 2
    | Some "." -> Buffer.contents buf
    | Some line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n';
      go ()
  in
  go ()

let parse_push s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad --push %S (expected HOST:PORT)" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match Tsg_query.Serve.parse_bind_addr host with
    | Error d -> Error (Diagnostic.to_string d)
    | Ok addr -> (
      match int_of_string_opt port with
      | Some port when port > 0 && port < 65536 -> Ok (addr, port)
      | Some _ | None -> Error (Printf.sprintf "bad --push port %S" port)))

(* ------------------------------------------------------------------ *)

let run wal_path tax_path state_path out export deltas push_spec support
    max_edges domains max_restarts quiet =
  (match Fault.configure_from_env () with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "tsg-pipe: bad TSG_FAULTS: %s\n" msg;
    exit 2);
  let push =
    match push_spec with
    | None -> None
    | Some s -> (
      match parse_push s with
      | Ok hp -> Some hp
      | Error msg ->
        Printf.eprintf "tsg-pipe: %s\n" msg;
        exit 2)
  in
  let taxonomy =
    try Taxonomy_io.load tax_path
    with Taxonomy_io.Parse_error d ->
      Printf.eprintf "tsg-pipe: %s\n" (Diagnostic.to_string d);
      exit 2
  in
  let config =
    { Taxogram.default_config with min_support = support; max_edges }
  in
  let exec = Pool.Exec.create ~domains () in
  let rec first_boot attempt =
    match boot ~wal_path ~state_path ~taxonomy ~config ~exec ~quiet with
    | b -> b
    | exception Fault.Injected { site; hit } ->
      if attempt >= max_restarts then begin
        Printf.eprintf
          "tsg-pipe: recovery still failing after %d attempts, giving up\n"
          max_restarts;
        exit 3
      end;
      if not quiet then
        Printf.eprintf "tsg-pipe: injected fault at %s (hit %d), recovering\n%!"
          site hit;
      first_boot (attempt + 1)
  in
  match first_boot 1 with
  | exception Wal.Error d ->
    Printf.eprintf "tsg-pipe: %s\n" (Diagnostic.to_string d);
    exit 1
  | b -> (
    let session =
      {
        wal_path;
        state_path;
        taxonomy;
        config;
        exec;
        quiet;
        writer = b.b_writer;
        corpus = b.b_corpus;
        engine = b.b_engine;
        rejected = b.b_rejected;
      }
    in
    Printf.printf "recovered seq %Ld graphs %d truncated %b rejected %d\n%!"
      (Corpus.seq session.corpus)
      (Corpus.size session.corpus)
      b.b_recovery.Wal.truncated session.rejected;
    match export with
    | Some path ->
      Tsg_util.Safe_io.write_atomic path (Corpus.to_serial session.corpus);
      Printf.printf "exported seq %Ld graphs %d to %s\n"
        (Corpus.seq session.corpus)
        (Corpus.size session.corpus)
        path;
      0
    | None ->
      let next_line = input_lines deltas in
      let commits = ref 0 in
      let applied = ref 0 in
      let rec loop () =
        match next_line () with
        | None -> ()
        | Some line ->
          let line = String.trim line in
          (if String.equal line "" || String.length line > 0 && line.[0] = '#'
           then ()
           else if String.equal line "add" then begin
             let text = read_graph_payload next_line in
             apply_delta session ~max_restarts (Wal.Add text);
             incr applied
           end
           else if String.equal line "commit" then begin
             commit session ~max_restarts ~out ~push;
             incr commits
           end
           else
             match String.split_on_char ' ' line with
             | [ "remove"; target ] -> (
               match Int64.of_string_opt target with
               | Some target ->
                 apply_delta session ~max_restarts (Wal.Remove target);
                 incr applied
               | None ->
                 Printf.eprintf "tsg-pipe: bad remove target %S\n" target;
                 exit 2)
             | _ ->
               Printf.eprintf "tsg-pipe: unknown command %S\n" line;
               exit 2);
          loop ()
      in
      (match loop () with
      | () -> ()
      | exception Wal.Error d ->
        Printf.eprintf "tsg-pipe: %s\n" (Diagnostic.to_string d);
        exit 1);
      (* publish what EOF left behind: uncommitted deltas, or a run that
         never committed at all *)
      if
        !commits = 0
        || Incremental.dirty_count session.engine > 0
        || Int64.compare
             (Incremental.mined_seq session.engine)
             (Corpus.seq session.corpus)
           <> 0
      then begin
        (match commit session ~max_restarts ~out ~push with
        | () -> ()
        | exception Wal.Error d ->
          Printf.eprintf "tsg-pipe: %s\n" (Diagnostic.to_string d);
          exit 1);
        incr commits
      end;
      Wal.close session.writer;
      if not quiet then
        Printf.printf "done: %d deltas applied, %d rejected, %d commits\n"
          !applied session.rejected !commits;
      0)

(* ------------------------------------------------------------------ *)

let wal_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "wal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead log. Created when missing; recovered (torn tail \
           truncated, records replayed) when present.")

let taxonomy_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "taxonomy" ] ~docv:"FILE" ~doc:"Taxonomy file.")

let state_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state" ] ~docv:"FILE"
        ~doc:
          "Pipeline state snapshot: cached per-root pattern groups keyed \
           by the WAL sequence they describe. Lets a restart re-mine only \
           what changed since the last commit; without it every restart \
           re-mines from scratch. An unusable snapshot degrades to a full \
           re-mine (PIPE003), never an error.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Pattern artifact to publish on each commit (atomic rename, \
           content-ordered so bytes are reproducible).")

let export_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "export" ] ~docv:"FILE"
        ~doc:
          "Recover the WAL, write the resulting corpus as a graph \
           database to $(docv), print its sequence number, and exit. The \
           sequence number is what $(b,tsg-mine --corpus-seq) needs for a \
           checkpointed mine of the exported corpus.")

let deltas_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "deltas" ] ~docv:"FILE"
        ~doc:
          "Delta command file(s), processed in order; stdin when none \
           are given.")

let push_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "push" ] ~docv:"HOST:PORT"
        ~doc:
          "After each publish, hot-reload the tsg-serve at $(docv) (the \
           $(b,reload) protocol verb) and verify the acknowledged \
           checksum; on mismatch the previous artifact is restored and \
           re-pushed (PIPE002).")

let support_arg =
  Arg.(
    value
    & opt float 0.2
    & info [ "support" ] ~docv:"THETA" ~doc:"Minimum support in [0, 1].")

let max_edges_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-edges" ] ~docv:"N" ~doc:"Cap pattern size at $(docv) edges.")

let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ] ~docv:"N" ~doc:"Mining domains (see tsg-mine).")

let max_restarts_arg =
  Arg.(
    value
    & opt int 100
    & info [ "max-restarts" ] ~docv:"N"
        ~doc:
          "In-process crash-recovery budget: how many times a step \
           (delta append, commit) may fail — e.g. under TSG_FAULTS \
           injection — and be retried after recovery, before giving up \
           with exit code 3.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-record noise.")

let cmd =
  let doc = "crash-safe incremental mining from a write-ahead delta log" in
  let term =
    Term.(
      const run $ wal_arg $ taxonomy_arg $ state_arg $ out_arg $ export_arg
      $ deltas_arg $ push_arg $ support_arg $ max_edges_arg $ domains_arg
      $ max_restarts_arg $ quiet_arg)
  in
  Cmd.v (Cmd.info "tsg-pipe" ~doc) term

let () = exit (Cmd.eval' cmd)
