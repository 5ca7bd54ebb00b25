module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Timer = Tsg_util.Timer
module Pool = Tsg_util.Pool
module Fault = Tsg_util.Fault
module Diagnostic = Tsg_util.Diagnostic
module Gspan = Tsg_gspan.Gspan

type config = {
  min_support : float;
  max_edges : int option;
  enhancements : Specialize.enhancements;
}

let default_config =
  { min_support = 0.2; max_edges = None; enhancements = Specialize.all_on }

let baseline_config = { default_config with enhancements = Specialize.all_off }

type result = {
  patterns : Pattern.t list;
  class_count : int;
  pattern_count : int;
  completed : bool;
  diagnostics : Diagnostic.t list;
  relabel_wall_seconds : float;
  mining_wall_seconds : float;
  mining_cpu_seconds : float;
  enumerate_wall_seconds : float;
  enumerate_cpu_seconds : float;
  total_wall_seconds : float;
  total_cpu_seconds : float;
  spec_stats : Specialize.stats;
  oi_entries : int;
  oi_set_members : int;
  covered_graph_count : int;
  root_groups : Checkpoint.entry list;
}

type sink = [ `Collect | `Stream of (Pattern.t -> unit) ]

type checkpoint_spec = { path : string; every_s : float; corpus_seq : int64 }

type class_miner = [ `Gspan | `Level_wise ]

exception Out_of_time_in_mining

let frequent_label_filter taxonomy db ~min_support =
  let counts = Interest.label_frequencies taxonomy db in
  let n = Array.length counts in
  fun l -> l >= 0 && l < n && counts.(l) >= min_support

let add_stats (dst : Specialize.stats) (s : Specialize.stats) =
  dst.Specialize.intersections <-
    dst.Specialize.intersections + s.Specialize.intersections;
  dst.Specialize.visited <- dst.Specialize.visited + s.Specialize.visited;
  dst.Specialize.emitted <- dst.Specialize.emitted + s.Specialize.emitted;
  dst.Specialize.over_generalized <-
    dst.Specialize.over_generalized + s.Specialize.over_generalized

let keep_label_of config taxonomy db ~min_support =
  if config.enhancements.Specialize.label_prefilter then
    Some (frequent_label_filter taxonomy db ~min_support)
  else None

(* --- the run specification -------------------------------------------- *)

module Spec = struct
  type nonrec t = {
    config : config;
    budget : Timer.Budget.budget;
    class_miner : class_miner;
    exec : Pool.Exec.t;
    checkpoint : checkpoint_spec option;
    supervised : bool;
    sink : sink;
    root_select : (int * int * int -> bool) option;
  }

  let make ?(config = default_config) ?(budget = Timer.Budget.unlimited)
      ?(class_miner = `Gspan) ?exec ?domains ?checkpoint ?(supervised = false)
      ?root_select sink =
    let exec =
      match exec with Some e -> e | None -> Pool.Exec.create ?domains ()
    in
    {
      config;
      budget;
      class_miner;
      exec;
      checkpoint;
      supervised;
      sink;
      root_select;
    }

  let collect ?config ?budget ?class_miner ?exec ?domains ?checkpoint
      ?supervised ?root_select () =
    make ?config ?budget ?class_miner ?exec ?domains ?checkpoint ?supervised
      ?root_select `Collect

  let stream ?config ?budget ?class_miner ?exec ?domains ?supervised emit =
    make ?config ?budget ?class_miner ?exec ?domains ?supervised (`Stream emit)

  let domains t = Pool.Exec.domains t.exec
end

(* --- checkpoint plumbing ---------------------------------------------- *)

(* the spec plus everything resolved up front in [run]: the fingerprint of
   this run's inputs and the previous snapshot, if one was on disk *)
type ckpt_ctx = {
  ck_spec : checkpoint_spec;
  ck_params : string;
  ck_fp : int64;
  ck_loaded : Checkpoint.t option;
}

let fingerprint_params ~config ~class_miner =
  Printf.sprintf "v1 ms=%h me=%s a=%b b=%b c=%b d=%b miner=%s"
    config.min_support
    (match config.max_edges with None -> "-" | Some n -> string_of_int n)
    config.enhancements.Specialize.child_pruning
    config.enhancements.Specialize.label_prefilter
    config.enhancements.Specialize.start_preprocess
    config.enhancements.Specialize.collapse_equal_children
    (match class_miner with `Gspan -> "gspan" | `Level_wise -> "level")

(* validate the loaded snapshot once the run knows its root count, and
   return the completed-root prefix to skip *)
let stored_entries ckpt ~db_size ~roots_total =
  match ckpt with
  | None -> []
  | Some { ck_loaded = None; _ } -> []
  | Some { ck_spec; ck_fp; ck_loaded = Some t; _ } ->
    Checkpoint.check ~fingerprint:ck_fp ~corpus_seq:ck_spec.corpus_seq
      ~db_size ~roots_total t;
    t.Checkpoint.entries

(* accumulates the completed-root prefix and writes snapshots, at most one
   per [every_s] (a forced flush ignores the interval) *)
type saver = {
  sv_ctx : ckpt_ctx;
  sv_db_size : int;
  sv_roots_total : int;
  mutable sv_prefix : Checkpoint.entry list;  (* newest first *)
  mutable sv_last : float;
}

let saver_flush sv =
  Checkpoint.save sv.sv_ctx.ck_spec.path
    {
      Checkpoint.fingerprint = sv.sv_ctx.ck_fp;
      params = sv.sv_ctx.ck_params;
      corpus_seq = sv.sv_ctx.ck_spec.corpus_seq;
      db_size = sv.sv_db_size;
      roots_total = sv.sv_roots_total;
      entries = List.rev sv.sv_prefix;
    };
  sv.sv_last <- Unix.gettimeofday ()

(* a finished run deletes its checkpoint; an early stop snapshots it *)
let saver_finish sv ~completed =
  if completed then (
    try Sys.remove sv.sv_ctx.ck_spec.path with Sys_error _ -> ())
  else saver_flush sv

(* --- task outcomes and the checkpoint tracker ------------------------ *)

(* Every pool task returns a list of these, one per root it processed;
   results merge at the join, where bitset unions and stat sums replace
   any hot-path locking. [t_root] ties an outcome to its root directly,
   so the completed-prefix rule survives root batching (a task id no
   longer maps 1:1 to a root). *)
type task_outcome = {
  t_root : int;
  t_ok : bool;  (* root mined / classes enumerated to completion *)
  t_classes : int;
  t_patterns : Pattern.t list;  (* newest first; Step-3 tasks only *)
  t_stats : Specialize.stats option;
  t_mine_s : float;  (* step-2 CPU: root mining + OI building *)
  t_enum_s : float;  (* step-3 CPU: specialization *)
  t_entries : int;
  t_members : int;
  t_covered : Bitset.t option;
}

(* stand-in for a quarantined supervised task at the join: not-ok, so the
   completed-prefix rule cuts the result before its first root *)
let failed_outcome ~root =
  {
    t_root = root;
    t_ok = false;
    t_classes = 0;
    t_patterns = [];
    t_stats = None;
    t_mine_s = 0.0;
    t_enum_s = 0.0;
    t_entries = 0;
    t_members = 0;
    t_covered = None;
  }

(* a root's record before any of its outcomes *)
let blank ~seed ~db_size root =
  {
    Checkpoint.root;
    seed = seed root;
    classes = 0;
    oi_entries = 0;
    oi_set_members = 0;
    enum_seconds = 0.0;
    stats = Specialize.fresh_stats ();
    covered = Bitset.create db_size;
    patterns = [];
  }

(* one outcome added into its root's record: the join sums every
   reported root's outcomes this way, the checkpoint tracker as they
   arrive *)
let absorb (e : Checkpoint.entry) o =
  Option.iter (add_stats e.Checkpoint.stats) o.t_stats;
  {
    e with
    Checkpoint.classes = e.Checkpoint.classes + o.t_classes;
    oi_entries = e.Checkpoint.oi_entries + o.t_entries;
    oi_set_members = e.Checkpoint.oi_set_members + o.t_members;
    enum_seconds = e.Checkpoint.enum_seconds +. o.t_enum_s;
    covered = Option.value o.t_covered ~default:e.Checkpoint.covered;
    patterns = List.rev_append o.t_patterns e.Checkpoint.patterns;
  }

(* Checkpointing a pool run needs to know when a *root* is done — its
   mining work and every specialization class it forked — while tasks
   finish in whatever order the schedule produces. One accumulator per
   root gathers both sides under a lock; the completed-root prefix
   advances (and snapshots) as accumulators fill in. *)
type root_acc = {
  mutable a_mining_done : bool;
  mutable a_ok : bool;
  mutable a_forked : int;  (* spec classes the mining side handed off *)
  mutable a_spec_done : int;
  mutable a_entry : Checkpoint.entry;
}

type tracker = {
  tk_lock : Mutex.t;
  tk_skip : int;  (* resumed roots; accs cover roots [skip..] *)
  tk_accs : root_acc array;
  tk_sv : saver;
  mutable tk_next : int;  (* next root awaiting completion *)
}

let with_tracker tk f =
  Mutex.lock tk.tk_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock tk.tk_lock) (fun () -> f ())

(* lock held: advance the done-prefix over filled accumulators; snapshot
   when it moved and the save interval elapsed *)
let tracker_advance tk =
  let advanced = ref false in
  let scanning = ref true in
  while !scanning do
    let idx = tk.tk_next - tk.tk_skip in
    if idx >= Array.length tk.tk_accs then scanning := false
    else begin
      let a = tk.tk_accs.(idx) in
      if a.a_mining_done && a.a_ok && a.a_spec_done = a.a_forked then begin
        tk.tk_sv.sv_prefix <- a.a_entry :: tk.tk_sv.sv_prefix;
        tk.tk_next <- tk.tk_next + 1;
        advanced := true
      end
      else scanning := false
    end
  done;
  if
    !advanced
    && Unix.gettimeofday () -. tk.tk_sv.sv_last
       >= tk.tk_sv.sv_ctx.ck_spec.every_s
  then saver_flush tk.tk_sv

(* one outcome into its root's accumulator *)
let record tk o ~update =
  with_tracker tk (fun () ->
      let a = tk.tk_accs.(o.t_root - tk.tk_skip) in
      update a;
      a.a_ok <- a.a_ok && o.t_ok;
      a.a_entry <- absorb a.a_entry o;
      tracker_advance tk)

let make_tracker ckpt ~blank ~db_size ~roots_total ~stored ~remaining =
  let skip = List.length stored in
  Option.map
    (fun c ->
      {
        tk_lock = Mutex.create ();
        tk_skip = skip;
        tk_accs =
          Array.init remaining (fun p ->
              {
                a_mining_done = false;
                a_ok = true;
                a_forked = 0;
                a_spec_done = 0;
                a_entry = blank (skip + p);
              });
        tk_sv =
          {
            sv_ctx = c;
            sv_db_size = db_size;
            sv_roots_total = roots_total;
            sv_prefix = List.rev stored;
            sv_last = neg_infinity;
          };
        tk_next = skip;
      })
    ckpt

(* consecutive chunks of at most [size]; preserves order *)
let chunk size l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
      if n = size then go (List.rev cur :: acc) [ x ] 1 tl
      else go acc (x :: cur) (n + 1) tl
  in
  go [] [] 0 l

(* --- the one entry point ---------------------------------------------- *)

let run (spec : Spec.t) taxonomy db =
  let {
    Spec.config;
    budget;
    class_miner;
    exec;
    checkpoint;
    supervised;
    sink;
    root_select;
  } =
    spec
  in
  (match root_select with
  | None -> ()
  | Some _ ->
    (match class_miner with
    | `Level_wise ->
      invalid_arg
        "Taxogram.run: root_select requires the `Gspan class miner (the \
         level-wise miner has no seed decomposition)"
    | `Gspan -> ());
    if Option.is_some checkpoint then
      invalid_arg
        "Taxogram.run: root_select cannot be combined with checkpointing \
         (snapshot prefixes index the full root sequence)");
  let ckpt =
    match checkpoint with
    | None -> None
    | Some cs ->
      (match sink with
      | `Stream _ ->
        invalid_arg "Taxogram.run: checkpointing requires the `Collect sink"
      | `Collect -> ());
      let params = fingerprint_params ~config ~class_miner in
      let loaded =
        if Sys.file_exists cs.path then Some (Checkpoint.load cs.path)
        else None
      in
      Some
        {
          ck_spec = cs;
          ck_params = params;
          ck_fp = Checkpoint.fingerprint ~taxonomy ~db ~params;
          ck_loaded = loaded;
        }
  in
  let total_timer = Timer.start () in
  let relabeled, relabel_wall =
    Timer.time (fun () -> Relabel.db taxonomy db)
  in
  (* hand every domain a read-only view of the interned labels: after the
     freeze, lookups touch only immutable structures, so the hot paths
     never contend on (or race with) the label table *)
  Label.freeze (Taxonomy.labels taxonomy);
  (* and the taxonomy's flat arrays, built here once rather than by
     whichever domains first reach an occurrence-index build *)
  ignore (Taxonomy.flat taxonomy);
  let min_support_count = Db.support_count_to_threshold db config.min_support in
  let keep_label =
    keep_label_of config taxonomy db ~min_support:min_support_count
  in
  let db_size = Db.size db in
  let domains = Pool.Exec.domains exec in
  (* classes per Step-3 task. With one domain a fork runs at once
     ([Pool.fork]), so single classes keep one occurrence index alive at a
     time; with more, batches of four amortize steal traffic *)
  let spec_batch = if domains = 1 then 1 else 4 in
  let emit_mutex = Mutex.create () in
  let stream_classes = Atomic.make 0 in
  let stream_emitted = Atomic.make 0 in
  let mining_timer = Timer.start () in
  (* step-3 wall-clock span across all domains, in µs since mining start *)
  let spec_first_us = Atomic.make max_int in
  let spec_last_us = Atomic.make min_int in
  let now_us () = int_of_float (Timer.elapsed_s mining_timer *. 1e6) in
  let atomic_min a v =
    let rec go () =
      let c = Atomic.get a in
      if v < c && not (Atomic.compare_and_set a c v) then go ()
    in
    go ()
  in
  let atomic_max a v =
    let rec go () =
      let c = Atomic.get a in
      if v > c && not (Atomic.compare_and_set a c v) then go ()
    in
    go ()
  in
  (* step-3 work for a batch of same-root occurrence indexes, forked from
     the root's mining task *)
  let specialize_batch ~track ~root ois ctx =
    let start_us = now_us () in
    atomic_min spec_first_us start_us;
    let stats = Specialize.fresh_stats () in
    let acc = ref [] in
    let ok =
      List.fold_left
        (fun ok oi ->
          ok
          && (match
                Specialize.enumerate ~taxonomy ~min_support:min_support_count
                  ~enhancements:config.enhancements ~stats ~budget oi (fun p ->
                    Pool.check_deadline ctx;
                    match sink with
                    | `Collect -> acc := p :: !acc
                    | `Stream emit ->
                      Atomic.incr stream_emitted;
                      Mutex.lock emit_mutex;
                      Fun.protect
                        ~finally:(fun () -> Mutex.unlock emit_mutex)
                        (fun () -> emit p))
              with
             | () -> true
             | exception Specialize.Out_of_time -> false))
        true ois
    in
    let end_us = now_us () in
    atomic_max spec_last_us end_us;
    let enum_s = float_of_int (end_us - start_us) *. 1e-6 in
    let o =
      {
        t_root = root;
        t_ok = ok;
        t_classes = 0;
        t_patterns = !acc;
        t_stats = Some stats;
        t_mine_s = 0.0;
        t_enum_s = enum_s;
        t_entries = 0;
        t_members = 0;
        t_covered = None;
      }
    in
    Option.iter
      (fun tk ->
        record tk o ~update:(fun a ->
            a.a_spec_done <- a.a_spec_done + List.length ois))
      track;
    [ o ]
  in
  (* Step 2's roots in canonical order: a gSpan seed subtree each, or a
     single level-wise class each. The level-wise miner is breadth-first
     and sequential, so it mines every class up front; indexing and
     Step 3 then run per root, as for gSpan. *)
  let seeds, roots, mining_ok =
    match class_miner with
    | `Gspan ->
      let l =
        Gspan.mine_seed_tasks ?max_edges:config.max_edges
          ~min_support:min_support_count relabeled
      in
      let l =
        match root_select with
        | None -> l
        | Some keep -> List.filter (fun (seed, _) -> keep seed) l
      in
      (Array.of_list (List.map fst l), List.map snd l, true)
    | `Level_wise ->
      let classes = ref [] in
      let ok =
        try
          Tsg_gspan.Level_miner.mine ?max_edges:config.max_edges
            ~min_support:min_support_count relabeled (fun cp ->
              if Timer.Budget.exceeded budget then raise Out_of_time_in_mining;
              classes := cp :: !classes);
          true
        with Out_of_time_in_mining -> false
      in
      ([||], List.rev_map (fun cp visit -> visit cp) !classes, ok)
  in
  (* step-2 time spent before the fan-out: gSpan's seeds, or all of the
     level-wise mining *)
  let discover_s = Timer.elapsed_s mining_timer in
  (* the level-wise root count is only known after mining, and a budget
     can cut mining short, so its snapshots record it as unknown *)
  let roots_total =
    match class_miner with `Gspan -> List.length roots | `Level_wise -> -1
  in
  let stored = stored_entries ckpt ~db_size ~roots_total in
  let skip = List.length stored in
  let remaining = List.filteri (fun i _ -> i >= skip) roots in
  let n_remaining = List.length remaining in
  let blank =
    blank ~db_size ~seed:(fun root ->
        if root < Array.length seeds then Some seeds.(root) else None)
  in
  let track =
    make_tracker ckpt ~blank ~db_size ~roots_total ~stored
      ~remaining:n_remaining
  in
  (* ~4 mining tasks per domain: coarse enough to amortize steal traffic,
     fine enough to balance skewed subtrees *)
  let root_batch = max 1 (n_remaining / (domains * 4)) in
  (* one root: mine its classes and index each on this domain, forking
     Step-3 batches as they fill *)
  let process_root ctx (root, visit) =
    Fault.inject "taxogram.root";
    let t0 = Timer.start () in
    let classes = ref 0 in
    let entries = ref 0 in
    let members = ref 0 in
    let forked = ref 0 in
    (* time spent inside [fork], which runs the batch itself at one
       domain: Step 3's, not this root's *)
    let fork_s = ref 0.0 in
    let covered = Bitset.create db_size in
    let pending = ref [] in
    let pending_n = ref 0 in
    let flush () =
      if !pending_n > 0 then begin
        let ois = List.rev !pending in
        forked := !forked + !pending_n;
        pending := [];
        pending_n := 0;
        let t = Timer.start () in
        Pool.fork ctx (specialize_batch ~track ~root ois);
        fork_s := !fork_s +. Timer.elapsed_s t
      end
    in
    let ok =
      try
        visit (fun (cp : Gspan.pattern) ->
            if Timer.Budget.exceeded budget then raise Out_of_time_in_mining;
            Pool.check_deadline ctx;
            incr classes;
            Bitset.union_into ~dst:covered covered cp.Gspan.support_set;
            let oi = Occ_index.build ~taxonomy ~original:db ?keep_label cp in
            let sz = Occ_index.size oi in
            entries := !entries + sz.Occ_index.entries;
            members := !members + sz.Occ_index.set_members;
            (match sink with
            | `Stream _ -> Atomic.incr stream_classes
            | `Collect -> ());
            pending := oi :: !pending;
            incr pending_n;
            if !pending_n >= spec_batch then flush ());
        flush ();
        true
      with Out_of_time_in_mining ->
        (* drop the unforked indexes: the root is cut either way *)
        pending := [];
        pending_n := 0;
        false
    in
    let o =
      {
        t_root = root;
        t_ok = ok;
        t_classes = !classes;
        t_patterns = [];
        t_stats = None;
        t_mine_s = Timer.elapsed_s t0 -. !fork_s;
        t_enum_s = 0.0;
        t_entries = !entries;
        t_members = !members;
        t_covered = Some covered;
      }
    in
    Option.iter
      (fun tk ->
        record tk o ~update:(fun a ->
            a.a_mining_done <- true;
            a.a_forked <- !forked))
      track;
    o
  in
  let batches =
    chunk root_batch (List.mapi (fun p visit -> (skip + p, visit)) remaining)
  in
  let mining_left = Atomic.make (List.length batches) in
  let mining_wall = Atomic.make discover_s in
  let batch_task batch ctx =
    let outs = List.map (process_root ctx) batch in
    if Atomic.fetch_and_add mining_left (-1) = 1 then
      Atomic.set mining_wall (Timer.elapsed_s mining_timer);
    outs
  in
  let tasks = List.map batch_task batches in
  (* supervision turns escaped failures into diagnostics; an unsupervised
     crash snapshots progress before propagating *)
  let outcomes, diags =
    if supervised then begin
      let policy =
        match sink with
        (* a failed attempt may already have streamed patterns out; a
           retry would emit them twice *)
        | `Stream _ -> { Pool.default_policy with Pool.max_attempts = 1 }
        | `Collect -> Pool.default_policy
      in
      let res = Pool.Exec.run_supervised exec ~policy tasks in
      ( List.concat_map
          (fun (id, r) ->
            match r with
            | Ok os -> os
            | Error _ ->
              (* a quarantined task never produced its outcomes: stand in
                 a failure at the first root of its batch (batch [b] of a
                 task id [b :: _] starts at root [skip + b * root_batch]) *)
              [ failed_outcome ~root:(skip + (List.hd id * root_batch)) ])
          res,
        List.filter_map
          (fun (_, r) -> match r with Error d -> Some d | Ok _ -> None)
          res )
    end
    else
      match Pool.Exec.run exec tasks with
      | outs -> (List.concat_map snd outs, [])
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (match track with
        | Some tk -> with_tracker tk (fun () -> saver_flush tk.tk_sv)
        | None -> ());
        Printexc.raise_with_backtrace e bt
  in
  (* the join: a root is complete when its mining work and every
     specialization class it handed off finished; only the maximal
     complete prefix of roots is reported, so what a budgeted [`Collect]
     run returns is a prefix of the canonical root sequence no matter how
     work was scheduled, batched, or stolen. *)
  let first_bad =
    List.fold_left
      (fun acc o -> if o.t_ok then acc else min acc o.t_root)
      max_int outcomes
  in
  let included = List.filter (fun o -> o.t_root < first_bad) outcomes in
  let completed = mining_ok && first_bad = max_int in
  (match track with
  | Some tk -> with_tracker tk (fun () -> saver_finish tk.tk_sv ~completed)
  | None -> ());
  (* one entry per reported root: the resumed prefix, then this run's
     roots, each summed from its mining outcome and its Step-3 batches *)
  let fresh =
    Array.init (min n_remaining (first_bad - skip)) (fun p -> blank (skip + p))
  in
  let mining_cpu = ref discover_s in
  List.iter
    (fun o ->
      fresh.(o.t_root - skip) <- absorb fresh.(o.t_root - skip) o;
      mining_cpu := !mining_cpu +. o.t_mine_s)
    included;
  let entries = stored @ Array.to_list fresh in
  (* the resumed prefix counts exactly as if mined in this run (its
     mining CPU was spent in the previous run, so it is not re-counted) *)
  let spec_stats = Specialize.fresh_stats () in
  let covered = Bitset.create db_size in
  let class_count, oi_entries, oi_set_members, enumerate_cpu =
    List.fold_left
      (fun (c, oe, om, en) (e : Checkpoint.entry) ->
        add_stats spec_stats e.Checkpoint.stats;
        Bitset.union_into ~dst:covered covered e.Checkpoint.covered;
        ( c + e.Checkpoint.classes,
          oe + e.Checkpoint.oi_entries,
          om + e.Checkpoint.oi_set_members,
          en +. e.Checkpoint.enum_seconds ))
      (0, 0, 0, 0.0) entries
  in
  let patterns, root_groups =
    match sink with
    | `Stream _ -> ([], [])
    | `Collect ->
      (* outcomes land per root in schedule order; restore determinism
         by sorting inside each group *)
      let groups, patterns =
        Pattern.sort_groups
          (List.map (fun (e : Checkpoint.entry) -> (e, e.Checkpoint.patterns))
             entries)
      in
      ( patterns,
        List.map (fun (e, ps) -> { e with Checkpoint.patterns = ps }) groups )
  in
  let enumerate_wall =
    let f = Atomic.get spec_first_us and l = Atomic.get spec_last_us in
    if l > f then float_of_int (l - f) *. 1e-6 else 0.0
  in
  {
    patterns;
    class_count =
      (match sink with
      | `Collect -> class_count
      | `Stream _ -> Atomic.get stream_classes);
    pattern_count =
      (match sink with
      | `Collect -> List.length patterns
      | `Stream _ -> Atomic.get stream_emitted);
    completed;
    diagnostics = diags;
    relabel_wall_seconds = relabel_wall;
    mining_wall_seconds = Atomic.get mining_wall;
    mining_cpu_seconds = !mining_cpu;
    enumerate_wall_seconds = enumerate_wall;
    enumerate_cpu_seconds = enumerate_cpu;
    total_wall_seconds = Timer.elapsed_s total_timer;
    total_cpu_seconds = relabel_wall +. !mining_cpu +. enumerate_cpu;
    spec_stats;
    oi_entries;
    oi_set_members;
    covered_graph_count = Bitset.cardinal covered;
    root_groups;
  }
