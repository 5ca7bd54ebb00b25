module Protocol = Tsg_query.Protocol
module Serve = Tsg_query.Serve
module Epoch = Tsg_query.Epoch
module Taxonomy = Tsg_taxonomy.Taxonomy
module Label = Tsg_graph.Label
module Metrics = Tsg_util.Metrics
module Limiter = Tsg_util.Limiter
module Diagnostic = Tsg_util.Diagnostic
module Fault = Tsg_util.Fault
module Prng = Tsg_util.Prng
module Checksum = Tsg_util.Checksum

type config = {
  hedge_min_s : float;
  hedge_pctl : float;
  deadline_s : float;
  probe_interval_s : float;
  reload_gate_s : float;
  scrub_interval_s : float;
  resync : bool;
}

let default_config =
  {
    hedge_min_s = 0.002;
    hedge_pctl = 95.0;
    deadline_s = 2.0;
    probe_interval_s = 1.0;
    reload_gate_s = 10.0;
    scrub_interval_s = 5.0;
    resync = true;
  }

type t = {
  cfg : config;
  taxonomy : Taxonomy.t option;
  shard_array : Replica.t array array;
  metrics : Metrics.t;
  started : float;
  reload_lock : Mutex.t;
  on_diagnostic : Diagnostic.t -> unit;
  target : Epoch.t option Atomic.t;
  prng_lock : Mutex.t;
  prng : Prng.t;  (** guarded by [prng_lock] *)
  c_requests : Metrics.counter;
  c_hedges : Metrics.counter;
  c_hedge_wins : Metrics.counter;
  c_failovers : Metrics.counter;
  c_replica_errors : Metrics.counter;
  c_stale : Metrics.counter;
  c_deadline : Metrics.counter;
  c_unavailable : Metrics.counter;
  c_reloads : Metrics.counter;
  c_reload_aborts : Metrics.counter;
  c_probe_down : Metrics.counter;
  c_scrubs : Metrics.counter;
  c_scrub_faults : Metrics.counter;
  c_resyncs : Metrics.counter;
  g_up : Metrics.gauge;
  g_degraded : Metrics.gauge;
  h_latency : Metrics.histogram;
}

let default_on_diagnostic d = prerr_endline (Diagnostic.to_string d)

let create ?(config = default_config) ?taxonomy
    ?(on_diagnostic = default_on_diagnostic) ~metrics ~shards () =
  Array.iteri
    (fun i reps ->
      if Array.length reps = 0 then
        invalid_arg (Printf.sprintf "Router.create: shard %d has no replicas" i))
    shards;
  if Array.length shards = 0 then invalid_arg "Router.create: no shards";
  {
    cfg = config;
    taxonomy;
    shard_array = shards;
    metrics;
    started = Unix.gettimeofday ();
    reload_lock = Mutex.create ();
    on_diagnostic;
    target = Atomic.make None;
    prng_lock = Mutex.create ();
    prng =
      Prng.create
        (Checksum.mix64
           (Checksum.fnv1a64 "router.probe")
           (Int64.of_float (Unix.gettimeofday () *. 1e6)));
    c_requests = Metrics.counter metrics "cluster.requests";
    c_hedges = Metrics.counter metrics "cluster.hedges";
    c_hedge_wins = Metrics.counter metrics "cluster.hedge_wins";
    c_failovers = Metrics.counter metrics "cluster.failovers";
    c_replica_errors = Metrics.counter metrics "cluster.replica_errors";
    c_stale = Metrics.counter metrics "cluster.stale_epoch";
    c_deadline = Metrics.counter metrics "cluster.deadline_giveups";
    c_unavailable = Metrics.counter metrics "cluster.unavailable";
    c_reloads = Metrics.counter metrics "cluster.reloads";
    c_reload_aborts = Metrics.counter metrics "cluster.reload_aborts";
    c_probe_down = Metrics.counter metrics "cluster.probe_down";
    c_scrubs = Metrics.counter metrics "cluster.scrubs";
    c_scrub_faults = Metrics.counter metrics "cluster.scrub_faults";
    c_resyncs = Metrics.counter metrics "cluster.resyncs";
    g_up = Metrics.gauge metrics "cluster.replicas_up";
    g_degraded = Metrics.gauge metrics "cluster.replicas_degraded";
    h_latency = Metrics.histogram metrics "cluster.latency";
  }

let config t = t.cfg

let shards t = t.shard_array

let target_epoch t = Atomic.get t.target

(* --- request affinity ---------------------------------------------------- *)

(* [by-label] queries for any label of one closure share their shard
   key: the most general ancestor. Repeats land on the same replica. *)
let by_label_key t name =
  match t.taxonomy with
  | None -> "root:" ^ name
  | Some tax -> (
    match Taxonomy.id_of_name tax name with
    | id -> "root:" ^ Label.name (Taxonomy.labels tax) (Taxonomy.most_general tax id)
    | exception Not_found -> "root:" ^ name)

(* --- cached helper threads --------------------------------------------- *)

(* Every data request needs short-lived helpers — one per extra shard in
   the scatter, one per replica attempt in the hedged fan-out. At serving
   rates, creating and destroying real threads for each is measurable
   runtime-lock and scheduler churn, so finished helpers park on an idle
   list and are handed the next closure instead. The pool grows on
   demand (a helper can block for a full request deadline, so a fixed
   size could starve concurrent requests) and only the idle cache is
   bounded; parked threads cost one waiting condvar each. *)
module Workers = struct
  type worker = {
    w_lock : Mutex.t;
    w_cond : Condition.t;
    mutable w_job : (unit -> unit) option;
  }

  let idle : worker list ref = ref []

  let idle_lock = Mutex.create ()

  let max_idle = 32

  let rec run w job =
    (try job () with _ -> ());
    let parked =
      Mutex.lock idle_lock;
      let ok = List.length !idle < max_idle in
      if ok then idle := w :: !idle;
      Mutex.unlock idle_lock;
      ok
    in
    if parked then begin
      Mutex.lock w.w_lock;
      while w.w_job = None do
        Condition.wait w.w_cond w.w_lock
      done;
      let next = Option.get w.w_job in
      w.w_job <- None;
      Mutex.unlock w.w_lock;
      run w next
    end

  let submit job =
    let reused =
      Mutex.lock idle_lock;
      let w =
        match !idle with
        | [] -> None
        | w :: rest ->
          idle := rest;
          Some w
      in
      Mutex.unlock idle_lock;
      w
    in
    match reused with
    | Some w ->
      Mutex.lock w.w_lock;
      w.w_job <- Some job;
      Condition.signal w.w_cond;
      Mutex.unlock w.w_lock
    | None ->
      let w =
        { w_lock = Mutex.create (); w_cond = Condition.create (); w_job = None }
      in
      ignore (Thread.create (fun () -> run w job) ())
end

(* --- attempt outcome classes ------------------------------------------- *)

type error_class = Retryable | Stale | Terminal

let error_class = function
  | Protocol.(Overloaded | Unavailable | Fault | Internal) -> Retryable
  | Protocol.Stale_epoch -> Stale
  | Protocol.(Badreq | Oversized | Deadline | Reload_failed) -> Terminal

(* --- hedged, breaker-aware call to one shard --------------------------- *)

let hedge_delay t rep =
  Float.max t.cfg.hedge_min_s
    (Limiter.Window.percentile (Replica.window rep) t.cfg.hedge_pctl)

(* Returns the winning block plus the winning replica's serving epoch
   (as last observed around the reply) — the router's input to the
   mixed-merge refusal when no target pin is in force. *)
let shard_call t si ~key line ~deadline =
  let replicas = t.shard_array.(si) in
  let r = Array.length replicas in
  let pref = Int64.to_int (Shard_map.fingerprint key) land max_int mod r in
  let rotated = Array.init r (fun j -> replicas.((pref + j) mod r)) in
  (* healthy-looking replicas first; open-breaker, probed-down, or
     scrubber-fenced ones stay reachable as a last resort (trying them
     is itself a probe) *)
  let eligible, suspect =
    List.partition
      (fun rep ->
        Replica.up rep
        && (not (Replica.degraded rep))
        && Limiter.Breaker.state (Replica.breaker rep) <> Limiter.Breaker.Open)
      (Array.to_list rotated)
  in
  let order = Array.of_list (eligible @ suspect) in
  (* attempt threads push outcomes here and poke the pipe; the pipe (not
     a condvar) because systhreads has no timed wait and the hedge timer
     needs one *)
  let lock = Mutex.create () in
  let inbox = ref [] in
  let closed = ref false in
  let pipe_r, pipe_w = Unix.pipe () in
  let push res =
    Mutex.lock lock;
    inbox := res :: !inbox;
    if not !closed then (
      try ignore (Unix.write_substring pipe_w "x" 0 1)
      with Unix.Unix_error _ -> ());
    Mutex.unlock lock
  in
  let finish reply =
    Mutex.lock lock;
    closed := true;
    Mutex.unlock lock;
    (try Unix.close pipe_r with Unix.Unix_error _ -> ());
    (try Unix.close pipe_w with Unix.Unix_error _ -> ());
    reply
  in
  let launched = ref 0 in
  let pending = ref 0 in
  let next_hedge_at = ref infinity in
  let launch ~hedge () =
    let rep = order.(!launched) in
    incr launched;
    incr pending;
    if hedge then Metrics.incr t.c_hedges;
    next_hedge_at := Unix.gettimeofday () +. hedge_delay t rep;
    Workers.submit (fun () ->
        let t0 = Unix.gettimeofday () in
        let timeout = deadline -. t0 in
        let res =
          if timeout <= 0.0 then Error "cluster deadline exhausted"
          else Replica.call ~timeout_s:timeout rep line
        in
        let elapsed = Unix.gettimeofday () -. t0 in
        (* the attempt records its own outcome, win or lose *)
        let ok =
          match res with
          | Ok block -> (
            match Protocol.reply_error block with
            | None ->
              Limiter.Window.observe (Replica.window rep) elapsed;
              true
            (* a stale or terminal answer: the server is responsive, the
               request just can't win *)
            | Some code -> error_class code <> Retryable)
          | Error _ -> false
        in
        Limiter.Breaker.record (Replica.breaker rep) ~ok;
        push (hedge, Replica.epoch rep, res))
  in
  launch ~hedge:false ();
  let last_shed = ref None in
  let last_transport = ref "no replica reachable" in
  let rec loop () =
    let now = Unix.gettimeofday () in
    if now >= deadline then begin
      Metrics.incr t.c_deadline;
      finish
        (Protocol.error_line Protocol.Deadline "cluster budget exhausted", None)
    end
    else begin
      let fresh =
        Mutex.lock lock;
        let f = List.rev !inbox in
        inbox := [];
        Mutex.unlock lock;
        f
      in
      let winner = ref None in
      (* this attempt cannot win: try the next replica, if any is left *)
      let fail_over counter =
        decr pending;
        Metrics.incr counter;
        if !launched < r then begin
          Metrics.incr t.c_failovers;
          launch ~hedge:false ()
        end
      in
      List.iter
        (fun (was_hedge, rep_epoch, res) ->
          if !winner = None then
            match res with
            | Ok block -> (
              match Protocol.reply_error block with
              | None ->
                if was_hedge then Metrics.incr t.c_hedge_wins;
                winner := Some (block, rep_epoch)
              | Some code -> (
                match error_class code with
                | Terminal ->
                  if code = Protocol.Deadline then Metrics.incr t.c_deadline;
                  winner := Some (block, rep_epoch)
                | Stale ->
                  (* the replica is healthy but serves the wrong artifact
                     version: fail over without a breaker penalty; if every
                     replica is stale the client gets this stable coded
                     error, never a mixed-version merge *)
                  last_shed := Some block;
                  fail_over t.c_stale
                | Retryable ->
                  last_shed := Some block;
                  fail_over t.c_replica_errors))
            | Error msg ->
              last_transport := msg;
              fail_over t.c_replica_errors)
        fresh;
      match !winner with
      | Some (block, rep_epoch) -> finish (block, rep_epoch)
      | None ->
        if !pending = 0 && !launched >= r then
          finish
            (match !last_shed with
            | Some block -> (block, None)
            | None ->
              Metrics.incr t.c_unavailable;
              ( Protocol.error_line Protocol.Unavailable
                  (Printf.sprintf "shard %d: %s" si !last_transport),
                None ))
        else begin
          let hedge_armed = !launched < r && !pending > 0 in
          let wake =
            if hedge_armed then Float.min deadline !next_hedge_at else deadline
          in
          let timeout = Float.max 0.0 (wake -. Unix.gettimeofday ()) in
          (match Unix.select [ pipe_r ] [] [] timeout with
          | [], _, _ ->
            if hedge_armed && Unix.gettimeofday () >= !next_hedge_at then
              launch ~hedge:true ()
          | _ :: _, _, _ -> (
            let buf = Bytes.create 16 in
            try ignore (Unix.read pipe_r buf 0 16)
            with Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
    end
  in
  loop ()

(* --- verbs -------------------------------------------------------------- *)

let replica_count t =
  Array.fold_left (fun acc reps -> acc + Array.length reps) 0 t.shard_array

let up_count t =
  Array.fold_left
    (fun acc reps ->
      Array.fold_left
        (fun acc rep -> if Replica.up rep then acc + 1 else acc)
        acc reps)
    0 t.shard_array

let degraded_count t =
  Array.fold_left
    (fun acc reps ->
      Array.fold_left
        (fun acc rep -> if Replica.degraded rep then acc + 1 else acc)
        acc reps)
    0 t.shard_array

let probe_all t =
  let up = ref 0 in
  Array.iter
    (Array.iter (fun rep ->
         if Replica.probe rep then incr up else Metrics.incr t.c_probe_down))
    t.shard_array;
  Metrics.set_gauge t.g_up !up;
  !up

(* --- two-phase rolling reload ------------------------------------------- *)

(* wait until [rep] probes healthy again and reports serving [epoch] *)
let gate t ~epoch rep =
  let t0 = Unix.gettimeofday () in
  let settled () =
    Replica.probe ~force:true rep
    &&
    match Replica.epoch rep with
    | Some e -> Epoch.equal e epoch
    | None -> false
  in
  let rec go () =
    if settled () then true
    else if Unix.gettimeofday () -. t0 > t.cfg.reload_gate_s then false
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* "ok prepare epoch <e> patterns <n> checksum <hex>" *)
let prepare_epoch block =
  match String.split_on_char ' ' block with
  | "ok" :: "prepare" :: "epoch" :: e :: _ -> Epoch.of_string e
  | _ -> None

let all_replicas t =
  Array.to_list t.shard_array |> List.concat_map Array.to_list

let two_phase_reload t =
  (* phase 1 — prepare: every replica stages and verifies the new
     artifact set; nothing serves it yet *)
  let prepared = ref [] in
  let failure = ref None in
  let epoch_seen = ref None in
  List.iter
    (fun rep ->
      if !failure = None then
        match Replica.call ~timeout_s:30.0 rep "prepare" with
        | Ok block when String.starts_with ~prefix:"ok prepare" block -> (
          prepared := rep :: !prepared;
          match prepare_epoch block with
          | None ->
            failure :=
              Some
                (Printf.sprintf "replica %s: unparseable prepare ack %S"
                   (Replica.name rep) block)
          | Some e -> (
            match !epoch_seen with
            | None -> epoch_seen := Some e
            | Some e0 when Epoch.equal e0 e -> ()
            | Some e0 ->
              failure :=
                Some
                  (Printf.sprintf
                     "prepare staged mixed epochs %s (earlier replicas) and \
                      %s (replica %s) — artifact push incomplete?"
                     (Epoch.to_string e0) (Epoch.to_string e)
                     (Replica.name rep))))
        | Ok block ->
          failure :=
            Some (Printf.sprintf "replica %s: %s" (Replica.name rep) block)
        | Error msg -> failure := Some msg)
    (all_replicas t);
  let abort_prepared () =
    if !prepared <> [] then begin
      Metrics.incr t.c_reload_aborts;
      List.iter
        (fun rep -> ignore (Replica.call ~timeout_s:10.0 rep "abort"))
        !prepared
    end
  in
  match !failure with
  | Some msg ->
    abort_prepared ();
    Error msg
  | None -> (
    let epoch = Option.get !epoch_seen (* shards are non-empty *) in
    (* phase 2a — first wave: commit one replica per shard and gate on
       it serving the new epoch; if any shard cannot field the new
       epoch, release everything — flipping the target would strand
       that shard behind STALE_EPOCH *)
    let committed = ref [] in
    let wave0 =
      Array.to_list t.shard_array
      |> List.map (fun reps ->
             match Array.to_list reps |> List.find_opt Replica.up with
             | Some rep -> rep
             | None -> reps.(0))
    in
    let commit_one rep =
      match Replica.call ~timeout_s:30.0 rep "commit" with
      | Ok block when String.starts_with ~prefix:"ok commit" block ->
        committed := rep :: !committed;
        Replica.set_epoch rep (Some epoch);
        Ok ()
      | Ok block ->
        Error (Printf.sprintf "replica %s: %s" (Replica.name rep) block)
      | Error msg -> Error msg
    in
    let wave0_failure = ref None in
    List.iter
      (fun rep ->
        if !wave0_failure = None then
          match commit_one rep with
          | Error msg -> wave0_failure := Some msg
          | Ok () ->
            if not (gate t ~epoch rep) then
              wave0_failure :=
                Some
                  (Printf.sprintf
                     "replica %s did not serve epoch %s within %.0fs of \
                      committing"
                     (Replica.name rep) (Epoch.to_string epoch)
                     t.cfg.reload_gate_s))
      wave0;
    match !wave0_failure with
    | Some msg ->
      (* release replicas still holding a staged swap; replicas that
         already committed are ahead of the (unchanged) target and the
         scrubber fences them until a later reload succeeds *)
      prepared :=
        List.filter
          (fun rep -> not (List.memq rep !committed))
          !prepared;
      abort_prepared ();
      Error msg
    | None ->
      (* the new epoch is live on every shard: flip the pin so new
         requests target it, then commit the remaining replicas *)
      Atomic.set t.target (Some epoch);
      let stragglers = ref 0 in
      List.iter
        (fun rep ->
          if not (List.memq rep !committed) then
            match commit_one rep with
            | Ok () ->
              if Replica.degraded rep then Replica.set_degraded rep false
            | Error msg ->
              incr stragglers;
              Replica.set_degraded rep true;
              t.on_diagnostic
                (Diagnostic.makef ~rule:"RSY001" Diagnostic.Warning
                   "replica %s failed to commit epoch %s (%s): fenced \
                    until the scrubber repairs it"
                   (Replica.name rep) (Epoch.to_string epoch) msg))
        (all_replicas t);
      Metrics.set_gauge t.g_degraded (degraded_count t);
      Metrics.incr t.c_reloads;
      let total = List.length !committed in
      Ok (Printf.sprintf "replicas %d epoch %s" total (Epoch.to_string epoch)))

let rolling_reload t =
  if not (Mutex.try_lock t.reload_lock) then
    Error "a reload is already in progress"
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.reload_lock)
      (fun () -> two_phase_reload t)

(* --- anti-entropy scrub -------------------------------------------------- *)

let scrub t =
  match Fault.inject "scrub.probe" with
  | exception Fault.Injected _ ->
    (* chaos: this scrub round is lost; the next one repairs *)
    Metrics.incr t.c_scrub_faults;
    degraded_count t
  | () ->
    if not (Mutex.try_lock t.reload_lock) then
      (* a rolling reload is moving epochs on purpose; scrubbing through
         it would fence replicas mid-walk *)
      degraded_count t
    else begin
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.reload_lock)
        (fun () ->
          Metrics.incr t.c_scrubs;
          Array.iter
            (Array.iter (fun rep -> ignore (Replica.probe ~force:true rep)))
            t.shard_array;
          (* the newest epoch served by at least one up replica of every
             shard — the only epoch the whole cluster can answer *)
          let shard_epochs =
            Array.map
              (fun reps ->
                Array.to_list reps
                |> List.filter_map (fun rep ->
                       if Replica.up rep then Replica.epoch rep else None))
              t.shard_array
          in
          let all_reporting = Array.for_all (fun l -> l <> []) shard_epochs in
          (match Array.to_list shard_epochs with
          | [] -> ()
          | first :: rest -> (
            let common =
              List.filter
                (fun e -> List.for_all (List.exists (Epoch.equal e)) rest)
                first
            in
            match common with
            | [] ->
              if all_reporting then
                t.on_diagnostic
                  (Diagnostic.makef ~rule:"EPO001" Diagnostic.Error
                     "no common artifact epoch across %d shards — cluster \
                      cannot answer any single-version query"
                     (Array.length t.shard_array))
            | e :: es ->
              let newest =
                List.fold_left
                  (fun a e -> if Epoch.compare e a > 0 then e else a)
                  e es
              in
              Atomic.set t.target (Some newest)));
          (match Atomic.get t.target with
          | None -> ()
          | Some tgt ->
            Array.iter
              (Array.iter (fun rep ->
                   if Replica.up rep then
                     match Replica.epoch rep with
                     | Some e when Epoch.equal e tgt ->
                       if Replica.degraded rep then
                         Replica.set_degraded rep false
                     | e ->
                       if not (Replica.degraded rep) then begin
                         Replica.set_degraded rep true;
                         t.on_diagnostic
                           (Diagnostic.makef ~rule:"RSY001" Diagnostic.Warning
                              "replica %s serves epoch %s, cluster target is \
                               %s: fenced from merges"
                              (Replica.name rep)
                              (match e with
                              | Some e -> Epoch.to_string e
                              | None -> "none")
                              (Epoch.to_string tgt))
                       end;
                       let behind =
                         match e with
                         | None -> true
                         | Some e -> Epoch.compare e tgt < 0
                       in
                       if behind && t.cfg.resync then begin
                         Metrics.incr t.c_resyncs;
                         let repaired =
                           match Replica.call ~timeout_s:30.0 rep "reload" with
                           | Ok block
                             when String.starts_with ~prefix:"ok reload" block
                             ->
                             ignore (Replica.probe ~force:true rep);
                             (match Replica.epoch rep with
                             | Some e' when Epoch.equal e' tgt ->
                               Replica.set_degraded rep false;
                               true
                             | _ -> false)
                           | Ok _ | Error _ -> false
                         in
                         if not repaired then
                           t.on_diagnostic
                             (Diagnostic.makef ~rule:"RSY002" Diagnostic.Error
                                "replica %s resync did not reach epoch %s — \
                                 re-push the artifact set"
                                (Replica.name rep) (Epoch.to_string tgt))
                       end))
              t.shard_array);
          let d = degraded_count t in
          Metrics.set_gauge t.g_degraded d;
          d)
    end

let start_probes t ~stop =
  Thread.create
    (fun () ->
      let next_scrub =
        ref (Unix.gettimeofday () +. t.cfg.scrub_interval_s)
      in
      while not (stop ()) do
        ignore (probe_all t);
        if Unix.gettimeofday () >= !next_scrub then begin
          ignore (scrub t);
          next_scrub := Unix.gettimeofday () +. t.cfg.scrub_interval_s
        end;
        (* jittered cadence: many routers fronting one fleet must not
           probe (or scrub) in lockstep *)
        let u =
          Mutex.lock t.prng_lock;
          let u = Prng.float t.prng 1.0 in
          Mutex.unlock t.prng_lock;
          u
        in
        let interval = t.cfg.probe_interval_s *. (0.75 +. (0.5 *. u)) in
        let until = Unix.gettimeofday () +. interval in
        while (not (stop ())) && Unix.gettimeofday () < until do
          Thread.delay 0.05
        done
      done)
    ()

(* one data query: pinned, scattered to every shard, merged by its plan *)
let scatter t query ~key body =
  let verb =
    match Merge.verb_of_query query with
    | Some verb -> verb
    | None -> invalid_arg "Router.scatter: not a data query"
  in
  Metrics.incr t.c_requests;
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. t.cfg.deadline_s in
  (* the pin: every scattered request names the cluster target epoch,
     so each shard block is either served at that epoch or answered
     STALE_EPOCH (and failed over) — a mixed-version merge cannot be
     assembled in the first place *)
  let scatter_at target =
    let sent =
      match target with
      | Some e -> Printf.sprintf "at %s %s" (Epoch.to_string e) body
      | None -> body
    in
    let n = Array.length t.shard_array in
    let results =
      if n = 1 then [| shard_call t 0 ~key sent ~deadline |]
      else begin
        (* scatter: the last shard runs in the dispatching thread — one
           helper per extra shard, not per shard *)
        let out = Array.make n (("", None) : string * Epoch.t option) in
        let join_lock = Mutex.create () in
        let join_cond = Condition.create () in
        let left = ref (n - 1) in
        for i = 0 to n - 2 do
          Workers.submit (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  Mutex.lock join_lock;
                  decr left;
                  if !left = 0 then Condition.signal join_cond;
                  Mutex.unlock join_lock)
                (fun () -> out.(i) <- shard_call t i ~key sent ~deadline))
        done;
        out.(n - 1) <- shard_call t (n - 1) ~key sent ~deadline;
        Mutex.lock join_lock;
        while !left > 0 do
          Condition.wait join_cond join_lock
        done;
        Mutex.unlock join_lock;
        out
      end
    in
    let blocks = Array.to_list results |> List.map fst in
    (* under a pin the epochs are equal by construction; unpinned, the
       winners' observed epochs feed the merge-layer refusal *)
    let epochs =
      Array.to_list results
      |> List.map (fun (_, e) -> Option.map Epoch.to_string e)
    in
    try Merge.merge ~epochs verb blocks
    with Failure msg -> Protocol.error_line Protocol.Internal msg
  in
  let target = Atomic.get t.target in
  let reply = scatter_at target in
  (* a two-phase reload flips the pin and then commits the remaining
     replicas: a request that read the old pin can find a whole shard
     already serving the new epoch. The cluster moved, not the request —
     re-send it once at the new pin, within the same deadline. *)
  let reply =
    let moved = Atomic.get t.target in
    if
      Protocol.reply_error reply = Some Protocol.Stale_epoch
      && not (Option.equal Epoch.equal moved target)
    then scatter_at moved
    else reply
  in
  Metrics.observe t.h_latency (Unix.gettimeofday () -. t0);
  reply

let target_string t =
  match Atomic.get t.target with Some e -> Epoch.to_string e | None -> "none"

let dispatch t line =
  let tag, body = Protocol.split_tag line in
  let reply r = `Reply (Protocol.tag_reply tag r) in
  match Protocol.split body with
  | exception Protocol.Parse_error msg ->
    (* what the shards would answer: the same split rejects it there *)
    reply (Protocol.error_line Protocol.Badreq msg)
  | None -> `None
  | Some (Protocol.By_label name as q) ->
    reply (scatter t q ~key:(by_label_key t name) body)
  | Some (Protocol.(Contains _ | Top_k _) as q) ->
    reply (scatter t q ~key:body body)
  | Some Protocol.Quit -> `Quit
  | Some Protocol.Health ->
    reply
      (Printf.sprintf
         "ok health shards %d replicas %d up %d degraded %d uptime %.3f \
          epoch %s"
         (Array.length t.shard_array)
         (replica_count t) (up_count t) (degraded_count t)
         (Unix.gettimeofday () -. t.started)
         (target_string t))
  | Some Protocol.Epoch_info -> reply ("ok epoch " ^ target_string t)
  | Some Protocol.Stats ->
    reply ("begin stats\n" ^ Metrics.render_machine t.metrics ^ "end stats")
  | Some Protocol.Reload ->
    reply
      (match rolling_reload t with
      | Ok msg -> "ok reload " ^ msg
      | Error msg -> Protocol.error_line Protocol.Reload_failed msg)
  | Some Protocol.(Prepare | Commit | Abort) ->
    (* staging is the router's to drive across replicas (see
       [rolling_reload]), not a client's: these verbs answer as unknown *)
    reply (Protocol.error_line Protocol.Badreq (Protocol.unknown_command body))

(* --- front TCP listener ------------------------------------------------- *)

type listen_outcome = Serve.front = { connections : int; overloaded : int }

let listen ?(max_conns = 256) ?(drain_s = 5.0)
    ?(bind_addr = Unix.inet_addr_loopback)
    ?(max_line_bytes = Protocol.default_max_line_bytes) ?(on_listen = ignore)
    ?(should_stop = fun () -> false) t ~port () =
  let accepted = Metrics.counter t.metrics "cluster.connections" in
  let shed = Metrics.counter t.metrics "cluster.shed_connections" in
  let handle ic oc =
    let rec loop () =
      let answer r =
        output_string oc r;
        output_char oc '\n';
        flush oc;
        loop ()
      in
      match Serve.read_bounded_line ic ~max_bytes:max_line_bytes with
      | `Too_long ->
        answer
          (Protocol.error_line Protocol.Oversized
             (Printf.sprintf "request exceeds %d bytes" max_line_bytes))
      | `Line line -> (
        match dispatch t line with
        | `None -> loop ()
        | `Quit -> ()
        | `Reply r -> answer r)
    in
    loop ()
  in
  let stopping = Atomic.make false in
  let prober = start_probes t ~stop:(fun () -> Atomic.get stopping) in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stopping true;
      Thread.join prober)
    (fun () ->
      Serve.accept_loop ~max_conns ~drain_s ~bind_addr ~on_listen ~should_stop
        ~accepted ~shed ~port handle)
