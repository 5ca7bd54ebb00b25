(* tsg-serve: serve queries over mined pattern sets without re-mining.

     tsg-mine --db d.db --taxonomy d.tax --save patterns.pat
     tsg-serve --patterns patterns.pat --taxonomy d.tax < requests.txt
     tsg-serve --patterns a.pat --patterns b.pat --taxonomy d.tax \
       --db d.db --requests warmup.txt --requests run.txt
     tsg-serve --patterns patterns.pat --taxonomy d.tax --listen 7411

   Reads the newline protocol (see lib/query/protocol.mli) from request
   files, or stdin when none are given, and prints the metrics table on
   shutdown. With --listen it serves the same protocol over TCP instead:
   one thread per connection, load shedding past --max-conns, graceful
   drain on SIGTERM/SIGINT. *)

module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Store = Tsg_query.Store
module Engine = Tsg_query.Engine
module Epoch = Tsg_query.Epoch
module Serve = Tsg_query.Serve
module Admission = Tsg_query.Admission
module Metrics = Tsg_util.Metrics
module Diagnostic = Tsg_util.Diagnostic
module Lint = Tsg_check.Lint

open Cmdliner

let limits_of timeout max_bytes =
  {
    Serve.max_line_bytes = max_bytes;
    request_deadline_s = (if timeout <= 0.0 then None else Some timeout);
  }

(* --shard i/n: keep only the patterns the consistent hash assigns to
   shard i — the same Shard_map tsg-router uses, so router and replicas
   agree on the partition without talking to each other *)
let parse_shard s =
  match String.split_on_char '/' s with
  | [ i; n ] -> (
    match (int_of_string_opt i, int_of_string_opt n) with
    | Some i, Some n when n >= 1 && i >= 0 && i < n -> Ok (i, n)
    | _ -> Error ())
  | _ -> Error ()

let apply_shard shard store =
  match shard with
  | None -> store
  | Some (i, n) ->
    let map = Tsg_cluster.Shard_map.create ~shards:n () in
    Store.slice store ~keep:(fun idx ->
        Tsg_cluster.Shard_map.shard_of_key map
          (Tsg_core.Pattern.key (Store.pattern store idx))
        = i)

let run patterns tax_path db_path requests domains cache quiet no_validate
    listen_port bind max_conns timeout max_bytes rate burst degrade shard_spec
    require_epoch =
  let shard =
    match shard_spec with
    | None -> None
    | Some s -> (
      match parse_shard s with
      | Ok sh -> Some sh
      | Error () ->
        Printf.eprintf
          "tsg-serve: bad --shard %S (expected i/n with 0 <= i < n)\n" s;
        exit 2)
  in
  let bind_addr =
    match Serve.parse_bind_addr bind with
    | Ok addr -> addr
    | Error d ->
      Printf.eprintf "tsg-serve: %s\n" (Diagnostic.to_string d);
      exit 2
  in
  (* fail fast on malformed artifacts, with rule-coded diagnostics; the
     --no-validate escape hatch skips straight to loading *)
  if not no_validate then begin
    let c = Diagnostic.collector () in
    ignore (Lint.run c ~taxonomy:tax_path ~patterns ());
    if Diagnostic.has_errors c then begin
      Diagnostic.print stderr c;
      Printf.eprintf "tsg-serve: validation failed (%s); --no-validate to \
                      override\n"
        (Diagnostic.summary c);
      exit 2
    end
  end;
  let taxonomy =
    try Taxonomy_io.load tax_path
    with Taxonomy_io.Parse_error d ->
      Printf.eprintf "tsg-serve: %s\n" (Diagnostic.to_string d);
      exit 2
  in
  let metrics = Metrics.create () in
  (* everything label-id-dependent is rebuilt from scratch on every load:
     a fresh edge-label table, the database re-read against it (so pattern
     and db edge ids agree), the same metrics registry so counters survive
     a reload *)
  let build sources =
    let edge_labels = Label.create () in
    let db =
      Option.map
        (fun path ->
          Serial.load_db ~node_labels:(Taxonomy.labels taxonomy) ~edge_labels
            path)
        db_path
    in
    let full = Store.of_strings ~taxonomy ~edge_labels ?db sources in
    let store = apply_shard shard full in
    (match shard with
    | None -> ()
    | Some (i, n) ->
      Printf.eprintf "tsg-serve: shard %d/%d keeps %d of %d patterns\n%!" i n
        (Store.size store) (Store.size full));
    (Engine.create ~cache_capacity:cache ~metrics store, edge_labels)
  in
  let load () = Serve.load ~require_stamp:require_epoch ~build patterns in
  let gen =
    match load () with
    | Ok gen -> gen
    | Error d ->
      Printf.eprintf "tsg-serve: %s\n" (Diagnostic.to_string d);
      exit 2
  in
  let engine = gen.Serve.gen_engine in
  Printf.eprintf
    "tsg-serve: %d patterns over %d concepts (db size %d), cache %d, %d \
     domains, epoch %s\n\
     %!"
    (Store.size (Engine.store engine))
    (Taxonomy.label_count taxonomy)
    (Store.db_size (Engine.store engine))
    cache domains
    (Epoch.to_string (Engine.epoch engine));
  (* one executor for the process: --domains (or TSG_DOMAINS, read once in
     the cmdliner default) is pinned here and survives hot reloads *)
  let exec = Tsg_util.Pool.Exec.create ~domains () in
  let limits = limits_of timeout max_bytes in
  (* the admission gate: always on in --listen mode (the ladder obeys
     --degrade), opt-in for file/stdin serving, where a bulk request file
     is supposed to saturate the server rather than be shed *)
  let admission_config ~ladder ~codel =
    {
      Admission.default_config with
      client_rate = rate;
      client_burst = burst;
      queue_deadline_s = (if codel && timeout > 0.0 then timeout else 0.0);
      ladder;
    }
  in
  let admission =
    match (listen_port, degrade) with
    | Some _, `Off ->
      Some
        (Admission.create
           ~config:(admission_config ~ladder:false ~codel:true)
           ~metrics ())
    | Some _, (`Auto | `On) ->
      Some
        (Admission.create
           ~config:(admission_config ~ladder:true ~codel:true)
           ~metrics ())
    | None, `On ->
      Some
        (Admission.create
           ~config:(admission_config ~ladder:true ~codel:false)
           ~metrics ())
    | None, `Auto when rate > 0.0 ->
      Some
        (Admission.create
           ~config:(admission_config ~ladder:false ~codel:false)
           ~metrics ())
    | None, (`Auto | `Off) -> None
  in
  let outcome =
    match listen_port with
    | Some port ->
      (* graceful shutdown: first signal stops accepting and drains *)
      let stop = ref false in
      let handler = Sys.Signal_handle (fun _ -> stop := true) in
      (try Sys.set_signal Sys.sigterm handler
       with Invalid_argument _ -> ());
      (try Sys.set_signal Sys.sigint handler with Invalid_argument _ -> ());
      let lo =
        Serve.listen ~exec ~limits ~max_conns ~bind_addr ?admission
          ~reload:load
          ~on_listen:(fun p ->
            Printf.eprintf "tsg-serve: listening on %s:%d\n%!"
              (Unix.string_of_inet_addr bind_addr)
              p)
          ~should_stop:(fun () -> !stop)
          gen ~port ()
      in
      Printf.eprintf "tsg-serve: %d connections (%d shed)\n%!"
        lo.Serve.connections lo.Serve.overloaded;
      lo.Serve.aggregate
    | None -> (
      let client = Option.map Admission.client admission in
      let serve ic = Serve.run ~exec ~limits ?admission ?client gen ic stdout in
      match requests with
      | [] -> serve stdin
      | paths ->
        List.fold_left
          (fun (acc : Serve.outcome) path ->
            if acc.Serve.quit then acc
            else
              let ic = open_in path in
              let o =
                Fun.protect
                  ~finally:(fun () -> close_in ic)
                  (fun () -> serve ic)
              in
              {
                Serve.requests = acc.Serve.requests + o.Serve.requests;
                errors = acc.Serve.errors + o.Serve.errors;
                quit = o.Serve.quit;
                disconnected = acc.Serve.disconnected || o.Serve.disconnected;
              })
          { Serve.requests = 0; errors = 0; quit = false; disconnected = false }
          paths)
  in
  if not quiet then begin
    print_endline "begin stats";
    Metrics.print metrics;
    print_endline "end stats"
  end;
  Printf.eprintf "tsg-serve: %d requests (%d errors), cache hit rate %.1f%%\n"
    outcome.Serve.requests outcome.Serve.errors
    (100.0 *. Engine.cache_hit_rate engine);
  if outcome.Serve.errors > 0 then 1 else 0

let patterns_arg =
  Arg.(
    non_empty & opt_all file []
    & info [ "patterns"; "p" ] ~docv:"FILE"
        ~doc:
          "Pattern set written by tsg-mine --save (repeatable; sets are \
           merged).")

let tax_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "taxonomy" ] ~docv:"FILE" ~doc:"Label taxonomy (c/i line format).")

let db_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "db" ] ~docv:"FILE"
        ~doc:
          "The database the patterns were mined from; enables top-k by \
           interest.")

let requests_arg =
  Arg.(
    value & opt_all file []
    & info [ "requests" ] ~docv:"FILE"
        ~doc:
          "Request file in the serve protocol (repeatable, served in order); \
           stdin when absent.")

let domains_arg =
  Arg.(
    value
    & opt int (Tsg_util.Pool.default_domains ())
    & info [ "domains" ] ~docv:"N"
        ~env:(Cmd.Env.info "TSG_DOMAINS")
        ~doc:"Size of the worker-domain pool. Defaults to $(b,TSG_DOMAINS) \
              when set, else the machine's recommended domain count capped \
              at 8 — the same spelling and default as tsg-mine and bench.")

let cache_arg =
  Arg.(
    value & opt int 1024
    & info [ "cache" ] ~docv:"N"
        ~doc:"LRU result-cache capacity (0 disables caching).")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ] ~doc:"Skip the metrics table on shutdown.")

let no_validate_arg =
  Arg.(
    value & flag
    & info [ "no-validate" ]
        ~doc:"Skip the tsg-lint validation pass over the input artifacts.")

let listen_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "listen" ] ~docv:"PORT"
        ~doc:
          "Serve over TCP on 127.0.0.1:$(docv) instead of request files (0 \
           picks a free port). One thread per connection; SIGTERM/SIGINT \
           drain gracefully.")

let bind_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "bind" ] ~docv:"ADDR"
        ~doc:
          "Address to bind in --listen mode (an IPv4 or IPv6 literal; \
           0.0.0.0 faces all interfaces). Default 127.0.0.1.")

let max_conns_arg =
  Arg.(
    value & opt int 64
    & info [ "max-conns" ] ~docv:"N"
        ~doc:
          "Concurrent-connection cap in --listen mode; extra clients are \
           shed with a single OVERLOADED line.")

let timeout_arg =
  Arg.(
    value & opt float 0.0
    & info [ "request-timeout" ] ~docv:"SECS"
        ~doc:
          "Per-request deadline; a request that misses it answers 'error \
           deadline exceeded'. 0 (the default) disables deadlines.")

let max_bytes_arg =
  Arg.(
    value
    & opt int Tsg_query.Protocol.default_max_line_bytes
    & info [ "max-request-bytes" ] ~docv:"N"
        ~doc:
          "Longest accepted request line; longer lines answer with an error \
           without buffering more than $(docv) bytes.")

let rate_arg =
  Arg.(
    value & opt float 0.0
    & info [ "rate" ] ~docv:"R"
        ~doc:
          "Per-client admission rate in requests/second (token bucket; \
           bursts up to --burst pass untouched). 0 (the default) disables \
           per-client rate limiting. Shed requests answer 'error OVERLOADED \
           retry-after <s>'.")

let burst_arg =
  Arg.(
    value & opt float 16.0
    & info [ "burst" ] ~docv:"N"
        ~doc:"Per-client token-bucket capacity used with --rate.")

let degrade_arg =
  Arg.(
    value
    & opt (enum [ ("auto", `Auto); ("on", `On); ("off", `Off) ]) `Auto
    & info [ "degrade" ] ~docv:"MODE"
        ~doc:
          "Adaptive degradation ladder: $(b,auto) (default) enables it in \
           --listen mode only, $(b,on) forces it everywhere, $(b,off) \
           disables it (admission still bounds the queue in --listen \
           mode). Level 1 sheds large top-k and serves contains without \
           the result cache; level 2 sheds everything but contains.")

let shard_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "shard" ] ~docv:"I/N"
        ~doc:
          "Serve shard $(b,i) of an $(b,n)-way consistent-hash partition of \
           the pattern set (e.g. --shard 0/2). Result lines keep the ids of \
           the unsliced store and interest scores are computed before \
           slicing, so a tsg-router scatter-gather over all $(b,n) shards \
           answers byte-identically to one unsharded server.")

let require_epoch_arg =
  Arg.(
    value & flag
    & info [ "require-epoch" ]
        ~doc:
          "Refuse pattern artifacts that carry no '# epoch' stamp, at boot \
           and on every reload or prepare (EPO002). Stamped or not, \
           artifacts whose stamp fingerprint does not match their payload \
           are always refused (EPO002).")

let cmd =
  let doc = "serve contains/by-label/top-k queries over mined pattern sets" in
  Cmd.v
    (Cmd.info "tsg-serve" ~doc)
    Term.(
      const run $ patterns_arg $ tax_arg $ db_arg $ requests_arg $ domains_arg
      $ cache_arg $ quiet_arg $ no_validate_arg $ listen_arg $ bind_arg
      $ max_conns_arg $ timeout_arg $ max_bytes_arg $ rate_arg $ burst_arg
      $ degrade_arg $ shard_arg $ require_epoch_arg)

let () =
  (match Tsg_util.Fault.configure_from_env () with
  | Ok () -> ()
  | Error msg ->
    prerr_endline ("tsg-serve: " ^ msg);
    exit 2);
  exit (Cmd.eval' cmd)
