module Label = Tsg_graph.Label
module Metrics = Tsg_util.Metrics
module Fault = Tsg_util.Fault
module Safe_io = Tsg_util.Safe_io
module Diagnostic = Tsg_util.Diagnostic

type outcome = {
  requests : int;
  errors : int;
  quit : bool;
  disconnected : bool;
}

let no_outcome = { requests = 0; errors = 0; quit = false; disconnected = false }

type limits = { max_line_bytes : int; request_deadline_s : float option }

let default_limits =
  { max_line_bytes = Protocol.default_max_line_bytes; request_deadline_s = None }

(* --- artifact checksums ------------------------------------------------ *)

let checksum_strings = Epoch.contents_sum

let checksum_files paths = checksum_strings (List.map Safe_io.read_file paths)

(* --- bind addresses ---------------------------------------------------- *)

let parse_bind_addr s =
  match Unix.inet_addr_of_string s with
  | addr -> Ok addr
  | exception Failure _ ->
    Error
      (Diagnostic.makef ~rule:"SRV001" Diagnostic.Error
         "invalid bind address %S (expected an IPv4 or IPv6 literal, e.g. \
          0.0.0.0)"
         s)

let result_line ?score store id =
  let score =
    match score with
    | None -> ""
    | Some s -> Printf.sprintf " score %.4f" s
  in
  (* the printed id is the id in the unsliced store, so replies from
     shard slices merge without translation (identity when unsliced) *)
  String.concat ""
    [
      "p ";
      string_of_int (Store.external_id store id);
      score;
      " ";
      Store.reply_text store id;
    ]

let is_error r =
  let _, r = Protocol.split_tag r in
  String.length r >= 5 && String.sub r 0 5 = "error"

let overloaded_line retry_after_s =
  Protocol.error_line Protocol.Overloaded
    (Printf.sprintf "retry-after %.3f" (Float.max 0.0 retry_after_s))

let execute ~use_cache engine query =
  let store = Engine.store engine in
  let listing ids line =
    String.concat "\n"
      (Printf.sprintf "ok %d" (List.length ids) :: List.map line ids)
  in
  match query with
  | Protocol.Contains g ->
    listing (Engine.contains ~use_cache engine g) (result_line store)
  | Protocol.By_label l -> listing (Engine.by_label engine l) (result_line store)
  | Protocol.Top_k (k, order) -> (
    match Engine.top_k engine ~k order with
    | scored ->
      listing scored (fun (id, s) -> result_line ~score:s store id)
    | exception Failure msg -> Protocol.error_line Protocol.Unavailable msg)
  | Protocol.(
      Stats | Health | Epoch_info | Reload | Prepare | Commit | Abort | Quit)
    ->
    assert false (* barriers; see run *)

let answer ?(use_cache = true) engine query =
  match query with
  | Protocol.(
      Stats | Health | Epoch_info | Reload | Prepare | Commit | Abort | Quit)
    ->
    invalid_arg "Serve.answer: barrier verbs have no engine-level answer"
  | Protocol.(Contains _ | By_label _ | Top_k _) as q ->
    execute ~use_cache engine q

(* a request that blew its deadline, crashed, or drew an injected fault
   answers with an error line; the loop itself never dies for one request *)
let execute_guarded ~use_cache engine ~limits ~deadline_c ~fault_c ~arrival
    query =
  let expired () =
    match limits.request_deadline_s with
    | None -> false
    | Some d -> Unix.gettimeofday () -. arrival >= d
  in
  if expired () then begin
    Metrics.incr deadline_c;
    Protocol.error_line Protocol.Deadline "deadline exceeded"
  end
  else
    match
      Fault.inject "serve.request";
      execute ~use_cache engine query
    with
    | reply ->
      if expired () then begin
        Metrics.incr deadline_c;
        Protocol.error_line Protocol.Deadline "deadline exceeded"
      end
      else reply
    | exception Fault.Injected { site; hit } ->
      Metrics.incr fault_c;
      Protocol.error_line Protocol.Fault
        (Printf.sprintf "injected fault at %s (hit %d)" site hit)
    | exception e ->
      Protocol.error_line Protocol.Internal (Printexc.to_string e)

(* one response slot per request; workers pull indices off a shared
   counter — a flat batch has no subtrees to steal, so this stays simpler
   than Tsg_util.Pool. A worker failure is re-raised on the caller with
   the original backtrace (Domain.join alone would lose it). *)
let flush_batch ~domains ~fill batch =
  let batch = Array.of_list (List.rev batch) in
  let n = Array.length batch in
  let out = Array.make n "" in
  let run i = out.(i) <- fill batch.(i) in
  let domains = max 1 (min domains n) in
  if domains = 1 then
    for i = 0 to n - 1 do
      run i
    done
  else begin
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          run i;
          loop ()
        end
      in
      try loop ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failure None (Some (e, bt)))
    in
    let handles = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join handles;
    match Atomic.get failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end;
  out

module Exec = Tsg_util.Pool.Exec

(* read one request line without trusting its length: past [max_bytes]
   the rest of the line is drained (bounded memory) and the line reports
   as oversized. EOF with pending bytes yields them as a final line. *)
let read_bounded_line ic ~max_bytes =
  let buf = Buffer.create 128 in
  let rec go oversized =
    match input_char ic with
    | '\n' -> if oversized then `Too_long else `Line (Buffer.contents buf)
    | c ->
      if oversized || Buffer.length buf >= max_bytes then go true
      else begin
        Buffer.add_char buf c;
        go false
      end
    | exception End_of_file ->
      if oversized then `Too_long
      else if Buffer.length buf = 0 then raise End_of_file
      else `Line (Buffer.contents buf)
  in
  go false

(* --- serving generations ----------------------------------------------- *)

(* what a request executes against: an engine, the edge-label snapshot
   its store was built against, and the checksum of the artifact bytes it
   came from. One generation is shared by every connection; each parses
   against a private overlay table over the snapshot. *)
type generation = {
  gen_engine : Engine.t;
  gen_labels : Label.Snapshot.t;
  gen_checksum : int64 option;
}

(* the one load path — boot, [reload] and [prepare] all come through
   here, so they cannot drift apart *)
let load ~require_stamp ~build paths =
  let fail rule msg = Error (Diagnostic.make ~rule Diagnostic.Error msg) in
  let stamp_error (path, content) =
    match Epoch.verify_stamp content with
    | Error msg -> Some (path ^ ": " ^ msg)
    | Ok () when require_stamp && not (Epoch.has_stamp content) ->
      Some (path ^ ": no epoch stamp, and stamps are required")
    | Ok () -> None
  in
  match List.map (fun p -> (p, Safe_io.read_file p)) paths with
  | exception Sys_error msg -> fail "SRV002" msg
  | sources -> (
    let csum = checksum_strings (List.map snd sources) in
    (* a second read must hash identically: a writer racing the load (no
       atomic rename) would otherwise be parsed half old, half new *)
    let stable =
      match checksum_files paths with
      | c -> Int64.equal c csum
      | exception Sys_error _ -> false
    in
    if not stable then
      fail "SRV003"
        "artifact changed on disk while reloading (checksum instability)"
    else
      match List.find_map stamp_error sources with
      | Some msg -> fail "EPO002" msg
      | None -> (
        match build sources with
        | engine, labels ->
          (* the epoch of exactly the bytes verified above, whatever the
             builder stamped *)
          Ok
            {
              gen_engine = Engine.with_epoch engine (Epoch.of_sources sources);
              gen_labels = Label.Snapshot.of_table labels;
              gen_checksum = Some csum;
            }
        | exception Tsg_core.Pattern_io.Parse_error d ->
          fail "SRV002" (Diagnostic.to_string d)
        | exception (Invalid_argument msg | Failure msg) -> fail "SRV002" msg
        | exception e -> fail "SRV002" (Printexc.to_string e)))

(* --- the staging slot --------------------------------------------------- *)

(* the live generation, at most one staged generation, and the lock that
   serializes loads. The two steps below are the only way a generation
   becomes live: [prepare] is [stage], [commit] is [promote], and
   [reload] is both under one lock. *)
type slot = {
  live : generation Atomic.t;
  staged : generation option Atomic.t;
  lock : Mutex.t;
  load : unit -> (generation, Diagnostic.t) result;
  on_diagnostic : Diagnostic.t -> unit;
  reloads_c : Metrics.counter;
  rollbacks_c : Metrics.counter;
  prepares_c : Metrics.counter;
  commits_c : Metrics.counter;
  aborts_c : Metrics.counter;
}

let slot ~on_diagnostic ~load gen =
  let counter = Metrics.counter (Engine.metrics gen.gen_engine) in
  (* bound in sequence: registration order is the stats table's order *)
  let reloads_c = counter "serve.reloads" in
  let rollbacks_c = counter "serve.reload.rollbacks" in
  let prepares_c = counter "serve.reload.prepares" in
  let commits_c = counter "serve.reload.commits" in
  let aborts_c = counter "serve.reload.aborts" in
  {
    live = Atomic.make gen;
    staged = Atomic.make None;
    lock = Mutex.create ();
    load;
    on_diagnostic;
    reloads_c;
    rollbacks_c;
    prepares_c;
    commits_c;
    aborts_c;
  }

let live s = Atomic.get s.live

let staged s = Atomic.get s.staged

let rollback s (d : Diagnostic.t) =
  Metrics.incr s.rollbacks_c;
  s.on_diagnostic
    (Diagnostic.makef ~rule:d.rule Diagnostic.Error
       "reload rolled back, keeping current artifact: %s" d.message);
  Error d.message

let with_lock s f =
  if not (Mutex.try_lock s.lock) then Error "a reload is already in progress"
  else Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let stage s = match s.load () with Ok g -> Ok g | Error d -> rollback s d

let promote s g =
  Atomic.set s.live g;
  Metrics.incr s.reloads_c

let size_epoch g =
  ( Store.size (Engine.store g.gen_engine),
    Epoch.to_string (Engine.epoch g.gen_engine) )

let checksum_hex g =
  Printf.sprintf "%016Lx" (Option.value ~default:0L g.gen_checksum)

let prepare s =
  with_lock s (fun () ->
      match Fault.inject "reload.prepare" with
      | exception Fault.Injected { site; hit } ->
        rollback s
          (Diagnostic.makef ~rule:"SRV002" Diagnostic.Error
             "injected fault at %s (hit %d)" site hit)
      | () ->
        Result.map
          (fun g ->
            Atomic.set s.staged (Some g);
            Metrics.incr s.prepares_c;
            let patterns, epoch = size_epoch g in
            Printf.sprintf "prepare epoch %s patterns %d checksum %s" epoch
              patterns (checksum_hex g))
          (stage s))

let commit s =
  match Fault.inject "reload.commit" with
  | exception Fault.Injected { site; hit } ->
    Metrics.incr s.rollbacks_c;
    Error (Printf.sprintf "injected fault at %s (hit %d)" site hit)
  | () -> (
    match Atomic.exchange s.staged None with
    | None -> Error "nothing prepared"
    | Some g ->
      promote s g;
      Metrics.incr s.commits_c;
      let patterns, epoch = size_epoch g in
      Ok (Printf.sprintf "commit epoch %s patterns %d" epoch patterns))

let abort s =
  (match Atomic.exchange s.staged None with
  | Some _ -> Metrics.incr s.aborts_c
  | None -> ());
  Ok "abort"

let reload s =
  with_lock s (fun () ->
      Result.map
        (fun g ->
          (* whatever was staged predates the artifact just loaded *)
          Atomic.set s.staged None;
          promote s g;
          let patterns, epoch = size_epoch g in
          Printf.sprintf "reload patterns %d checksum %s epoch %s" patterns
            (checksum_hex g) epoch)
        (stage s))

(* --- the request loop --------------------------------------------------- *)

(* one connection's view of a generation: the engine, a private parse
   table (Label.t is not thread-safe), and the checksum [health] reports *)
type view = { engine : Engine.t; labels : Label.t; checksum : int64 option }

let run ~exec ?(limits = default_limits) ?admission ?client ?checksum ?slot
    ~engine ~edge_labels ic oc =
  (* the executor pins the domain count for the whole loop, never re-read
     behind a live loop's back by a concurrent reload *)
  let domains = Exec.domains exec in
  let metrics = Engine.metrics engine in
  Metrics.set_gauge (Metrics.gauge metrics "serve.domains") domains;
  let oversized_c = Metrics.counter metrics "serve.oversized" in
  let deadline_c = Metrics.counter metrics "serve.deadline_expired" in
  let disconnect_c = Metrics.counter metrics "serve.disconnects" in
  let fault_c = Metrics.counter metrics "serve.injected_faults" in
  let health_c = Metrics.counter metrics "serve.health" in
  let stale_c = Metrics.counter metrics "serve.stale_epoch" in
  (* re-read per request, so a long-lived pooled connection (the router
     keeps them open for hours) serves a reload at its next request; the
     parse table is rebuilt only when the generation changed *)
  let current =
    match slot with
    | None ->
      let static = { engine; labels = edge_labels; checksum } in
      fun () -> static
    | Some s -> (
      let cached = ref None in
      fun () ->
        let g = live s in
        match !cached with
        | Some (g', view) when g' == g -> view
        | _ ->
          let view =
            {
              engine = g.gen_engine;
              labels = Label.Snapshot.to_table g.gen_labels;
              checksum = g.gen_checksum;
            }
          in
          cached := Some (g, view);
          view)
  in
  let client =
    match (admission, client) with
    | Some adm, None -> Some (Admission.client adm)
    | _, c -> c
  in
  let started = Unix.gettimeofday () in
  let requests = ref 0 and errors = ref 0 in
  let disconnected = ref false in
  (* a peer that hangs up mid-reply (EPIPE with SIGPIPE ignored, reset
     sockets) must never kill the loop: note it, stop writing, drain out *)
  let safe_write f =
    if not !disconnected then
      try f ()
      with Sys_error _ ->
        disconnected := true;
        Metrics.incr disconnect_c
  in
  let batch = ref [] in
  let fill (arrival, tag, item) =
    Protocol.tag_reply tag
      (match item with
      | `Error (code, msg) -> Protocol.error_line code msg
      | `Query (gen, q) ->
        execute_guarded ~use_cache:true gen.engine ~limits ~deadline_c
          ~fault_c ~arrival q
      | `Ticket (gen, adm, ticket, q) -> (
        match Admission.start adm ticket with
        | `Expired retry_after_s -> overloaded_line retry_after_s
        | `Run level ->
          let reply =
            execute_guarded ~use_cache:(level = 0) gen.engine ~limits
              ~deadline_c ~fault_c ~arrival q
          in
          Admission.finish adm ticket ~ok:(not (is_error reply));
          reply))
  in
  let flush () =
    let responses = flush_batch ~domains ~fill !batch in
    batch := [];
    Array.iter
      (fun r ->
        if is_error r then incr errors;
        safe_write (fun () ->
            output_string oc r;
            output_char oc '\n'))
      responses;
    safe_write (fun () -> flush oc)
  in
  (* an admitted request the loop abandons (torn connection) must leave
     the admission accounting, or the queue looks full forever *)
  let cancel_pending () =
    List.iter
      (fun (_, _, item) ->
        match item with
        | `Ticket (_, adm, ticket, _) -> Admission.cancel adm ticket
        | `Error _ | `Query _ -> ())
      !batch
  in
  let enqueue ?tag entry =
    batch := (Unix.gettimeofday (), tag, entry) :: !batch
  in
  let data_query ?tag gen pin q =
    (* the epoch pin is enforced against the exact engine this entry will
       execute on — the generation travels with the entry, so the check
       and the computation cannot disagree *)
    let pinned_out =
      match pin with
      | None -> None
      | Some token -> (
        match Epoch.of_string token with
        | None ->
          Some
            ( Protocol.Badreq,
              Printf.sprintf "bad epoch %S in at-pin" token )
        | Some wanted ->
          let serving = Engine.epoch gen.engine in
          if Epoch.equal serving wanted then None
          else begin
            Metrics.incr stale_c;
            Some
              ( Protocol.Stale_epoch,
                Printf.sprintf "serving %s wanted %s"
                  (Epoch.to_string serving) (Epoch.to_string wanted) )
          end)
    in
    (match pinned_out with
    | Some err -> enqueue ?tag (`Error err)
    | None -> (
      match admission with
      | None -> enqueue ?tag (`Query (gen, q))
      | Some adm -> (
        let kind =
          match q with
          | Protocol.Contains _ -> Admission.Contains
          | Protocol.By_label _ -> Admission.By_label
          | Protocol.Top_k (k, _) -> Admission.Top_k k
          | Protocol.(
              Stats | Health | Epoch_info | Reload | Prepare | Commit | Abort
              | Quit) ->
            assert false
        in
        let cl =
          match client with
          | Some c -> c
          | None -> assert false (* built above when admission is present *)
        in
        match Admission.admit adm cl kind with
        | Admission.Admit ticket -> enqueue ?tag (`Ticket (gen, adm, ticket, q))
        | Admission.Shed { reason = _; retry_after_s } ->
          enqueue ?tag
            (`Error
              ( Protocol.Overloaded,
                Printf.sprintf "retry-after %.3f" (Float.max 0.0 retry_after_s)
              )))));
    (* a tagged request announces a pipelined client matching replies by
       id: answer it now rather than at the next barrier *)
    if tag <> None then flush ()
  in
  let barrier_reply tag reply =
    if is_error reply then incr errors;
    safe_write (fun () ->
        output_string oc (Protocol.tag_reply tag reply);
        output_char oc '\n';
        Stdlib.flush oc)
  in
  let slot_reply tag verb step =
    incr requests;
    flush ();
    barrier_reply tag
      (match slot with
      | None ->
        Protocol.error_line Protocol.Unavailable
          (Printf.sprintf "%s is not enabled" verb)
      | Some s -> (
        match step s with
        | Ok msg -> "ok " ^ msg
        | Error msg -> Protocol.error_line Protocol.Reload_failed msg))
  in
  let quit = ref false in
  (try
     (try
        while (not !quit) && not !disconnected do
          match read_bounded_line ic ~max_bytes:limits.max_line_bytes with
          | `Too_long ->
            incr requests;
            Metrics.incr oversized_c;
            enqueue
              (`Error
                ( Protocol.Oversized,
                  Printf.sprintf "request exceeds %d bytes"
                    limits.max_line_bytes ))
          | `Line line -> (
            let gen = current () in
            let taxonomy = Store.taxonomy (Engine.store gen.engine) in
            let tag, body = Protocol.split_tag line in
            let pin, body = Protocol.split_at body in
            match
              Protocol.parse ~max_bytes:limits.max_line_bytes ~taxonomy
                ~edge_labels:gen.labels body
            with
            | None -> ()
            | Some Protocol.Stats ->
              incr requests;
              flush ();
              safe_write (fun () ->
                  output_string oc (Protocol.tag_reply tag "begin stats");
                  output_char oc '\n';
                  output_string oc (Metrics.render_machine metrics);
                  output_string oc "end stats\n";
                  Stdlib.flush oc)
            | Some Protocol.Health ->
              incr requests;
              Metrics.incr health_c;
              flush ();
              let gen = current () in
              let csum =
                match gen.checksum with
                | Some c -> Printf.sprintf "%016Lx" c
                | None -> "-"
              in
              let level, inflight =
                match admission with
                | Some adm -> (Admission.level adm, Admission.in_flight adm)
                | None -> (0, 0)
              in
              barrier_reply tag
                (Printf.sprintf
                   "ok health patterns %d uptime %.3f checksum %s degrade %d \
                    inflight %d domains %d epoch %s"
                   (Store.size (Engine.store gen.engine))
                   (Unix.gettimeofday () -. started)
                   csum level inflight domains
                   (Epoch.to_string (Engine.epoch gen.engine)))
            | Some Protocol.Epoch_info ->
              incr requests;
              flush ();
              let gen = current () in
              barrier_reply tag
                (Printf.sprintf "ok epoch %s"
                   (Epoch.to_string (Engine.epoch gen.engine)))
            | Some Protocol.Reload -> slot_reply tag "reload" reload
            | Some Protocol.Prepare -> slot_reply tag "prepare" prepare
            | Some Protocol.Commit -> slot_reply tag "commit" commit
            | Some Protocol.Abort -> slot_reply tag "abort" abort
            | Some Protocol.Quit ->
              incr requests;
              quit := true
            | Some (Protocol.(Contains _ | By_label _ | Top_k _) as q) ->
              incr requests;
              data_query ?tag gen pin q
            | exception Protocol.Parse_error msg ->
              incr requests;
              enqueue ?tag (`Error (Protocol.Badreq, msg));
              if tag <> None then flush ())
        done
      with End_of_file -> ());
     flush ()
   with e ->
     cancel_pending ();
     raise e);
  {
    requests = !requests;
    errors = !errors;
    quit = !quit;
    disconnected = !disconnected;
  }

(* --- TCP mode ---------------------------------------------------------- *)

type listen_outcome = {
  connections : int;
  overloaded : int;
  aggregate : outcome;
}

let merge_outcome a b =
  {
    requests = a.requests + b.requests;
    errors = a.errors + b.errors;
    quit = a.quit || b.quit;
    disconnected = a.disconnected || b.disconnected;
  }

let ignore_sigpipe () =
  (* a write to a reset socket must surface as EPIPE, not kill the server *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let default_on_diagnostic d = prerr_endline (Diagnostic.to_string d)

let listen ?exec ?(limits = default_limits) ?(max_conns = 64) ?(drain_s = 5.0)
    ?(bind_addr = Unix.inet_addr_loopback) ?admission ?reload
    ?(on_diagnostic = default_on_diagnostic) ?on_listen
    ?(should_stop = fun () -> false) gen ~port () =
  ignore_sigpipe ();
  (* one executor for the whole listener: the per-connection domain count
     is decided here, once, and every generation of hot-reloaded engine
     serves under it — a reload can no longer observe a changed
     TSG_DOMAINS mid-flight *)
  let exec =
    match exec with Some e -> e | None -> Exec.create ~domains:1 ()
  in
  let metrics = Engine.metrics gen.gen_engine in
  Metrics.set_gauge (Metrics.gauge metrics "serve.domains") (Exec.domains exec);
  let conns_c = Metrics.counter metrics "serve.connections" in
  let overloaded_c = Metrics.counter metrics "serve.overloaded" in
  let disconnect_c = Metrics.counter metrics "serve.disconnects" in
  let slot = Option.map (fun load -> slot ~on_diagnostic ~load gen) reload in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let actual_port =
    try
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (bind_addr, port));
      Unix.listen sock 64;
      match Unix.getsockname sock with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> port
    with e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      raise e
  in
  Option.iter (fun f -> f actual_port) on_listen;
  let active = Atomic.make 0 in
  let agg_lock = Mutex.create () in
  let connections = ref 0 in
  let overloaded = ref 0 in
  let aggregate = ref no_outcome in
  let handle fd =
    (* replies flush in small writes; without this, Nagle holds the final
       short segment for the client's delayed ACK (tens of ms) *)
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    let finished o =
      Mutex.lock agg_lock;
      aggregate := merge_outcome !aggregate o;
      Mutex.unlock agg_lock;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Atomic.decr active
    in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let client = Option.map Admission.client admission in
    (* Protocol.parse interns edge labels and Label.t is not thread-safe,
       so each connection parses against its own O(1) overlay table over
       the shared snapshot: a label first seen on another connection
       matches no stored pattern here, exactly what an unseen label means *)
    match
      run ~exec ~limits ?admission ?client ?checksum:gen.gen_checksum ?slot
        ~engine:gen.gen_engine
        ~edge_labels:(Label.Snapshot.to_table gen.gen_labels)
        ic oc
    with
    | o ->
      (try flush oc with Sys_error _ -> ());
      finished o
    | exception _ ->
      (* a connection torn down mid-read (ECONNRESET and friends) *)
      Metrics.incr disconnect_c;
      finished { no_outcome with disconnected = true }
  in
  let running = ref true in
  while !running do
    if should_stop () then running := false
    else begin
      match Unix.select [ sock ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept sock with
        | fd, _ ->
          incr connections;
          Metrics.incr conns_c;
          if Atomic.get active >= max_conns then begin
            (* load shedding: tell the client and hang up — on a detached
               thread, with a bounded drain of whatever the client already
               sent, so the close doesn't RST the reply out of the
               client's receive queue (and never stalls the accept loop) *)
            incr overloaded;
            Metrics.incr overloaded_c;
            ignore
              (Thread.create
                 (fun fd ->
                   (try ignore (Unix.write_substring fd "OVERLOADED\n" 0 11)
                    with Unix.Unix_error _ -> ());
                   (try Unix.shutdown fd Unix.SHUTDOWN_SEND
                    with Unix.Unix_error _ -> ());
                   (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.5
                    with Unix.Unix_error _ | Invalid_argument _ -> ());
                   let buf = Bytes.create 1024 in
                   (try
                      while Unix.read fd buf 0 (Bytes.length buf) > 0 do
                        ()
                      done
                    with Unix.Unix_error _ -> ());
                   try Unix.close fd with Unix.Unix_error _ -> ())
                 fd)
          end
          else begin
            Atomic.incr active;
            ignore (Thread.create handle fd)
          end
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (* graceful drain: in-flight connections get [drain_s] to finish *)
  let t0 = Unix.gettimeofday () in
  while Atomic.get active > 0 && Unix.gettimeofday () -. t0 < drain_s do
    Thread.delay 0.02
  done;
  Mutex.lock agg_lock;
  let aggregate = !aggregate in
  Mutex.unlock agg_lock;
  { connections = !connections; overloaded = !overloaded; aggregate }
