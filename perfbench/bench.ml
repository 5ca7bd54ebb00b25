(* The repository benchmark: one process is one run of one workload.

     bench.exe --workload mine-td13 --seed 7 --seconds 25 --trace 0

   Prints a details line (ledger fields, parameters, per-run medians and
   quartiles) and, as the last line of stdout, the result object with
   every end-to-end metric (--trace 0) or every per-layer metric
   (--trace 1). End-to-end numbers come only from untraced runs.
   [--emit-config] prints BENCHMARK.json from the tables below, so the
   declared metrics and the emitted ones cannot drift apart. *)

module M = Measure

type metric = { name : string; unit_ : string; better : string; bound : float }

let e2e name unit_ better bound = { name; unit_; better; bound }

let layer name unit_ better = { name; unit_; better; bound = nan }

(* bounds are shares of the parent's median. Times (every unit but MiB)
   are reported at the calibration kernel's reference host speed (see
   Measure); memory as measured. Peak RSS spread by at most 0.07 over
   10-seed sweeps of every workload, so its bound is tighter. *)
let end_to_end =
  [
    e2e "setup_s" "s" "lower" 0.25;
    e2e "op_p50_ms" "ms" "lower" 0.25;
    e2e "op_tail_ms" "ms" "lower" 0.25;
    e2e "op_cpu_ms" "ms" "lower" 0.25;
    e2e "op_x2_p50_ms" "ms" "lower" 0.25;
    e2e "ops_per_s" "1/s" "higher" 0.25;
    e2e "peak_rss_mb" "MiB" "lower" 0.15;
  ]

let per_layer =
  [
    layer "specialize.ms" "ms" "lower";
    layer "specialize.intersections" "count" "lower";
    layer "specialize.visited" "count" "lower";
    layer "specialize.emitted" "count" "higher";
    layer "specialize.over_generalized" "count" "lower";
    layer "specialize.yield" "ratio" "higher";
    layer "specialize.ns_per_intersection" "ns" "lower";
    layer "arena.hit_rate" "ratio" "higher";
    layer "gspan.self_ms" "ms" "lower";
    layer "gspan.roots" "count" "lower";
    layer "gspan.classes" "count" "lower";
    layer "occ_index.build_ms" "ms" "lower";
    layer "occ_index.entries" "count" "lower";
    layer "occ_index.set_members" "count" "lower";
    layer "taxogram.step2_ms" "ms" "lower";
    layer "taxogram.step3_ms" "ms" "lower";
    layer "taxogram.residual_ms" "ms" "lower";
    layer "relabel.ms" "ms" "lower";
    layer "taxogram.pool_busy" "ratio" "higher";
    layer "pattern.sort_ms" "ms" "lower";
    layer "min_code.key_us" "us" "lower";
    layer "gc.minor_mwords" "Mwords" "lower";
    layer "gc.major_collections" "count" "lower";
    layer "check.lint_ms" "ms" "lower";
    layer "pattern_io.parse_ms" "ms" "lower";
    layer "store.index_ms" "ms" "lower";
    layer "store.interest_ms" "ms" "lower";
    layer "epoch.verify_ms" "ms" "lower";
    layer "taxonomy_io.load_ms" "ms" "lower";
    layer "serial.load_db_ms" "ms" "lower";
    layer "protocol.parse_us" "us" "lower";
    layer "engine.contains_us" "us" "lower";
    layer "engine.contains_key_us" "us" "lower";
    layer "engine.by_label_us" "us" "lower";
    layer "engine.top_k_us" "us" "lower";
    layer "store.candidates_per_query" "count" "lower";
    layer "engine.match_ratio" "ratio" "higher";
    layer "engine.cache_hit_rate" "ratio" "higher";
    layer "serve.render_us" "us" "lower";
    layer "serve.reply_kb" "KiB" "lower";
    layer "serve.contains_rtt_ms" "ms" "lower";
    layer "serve.by_label_rtt_ms" "ms" "lower";
    layer "serve.top_k_rtt_ms" "ms" "lower";
    layer "serve.transport_us" "us" "lower";
    layer "wal.append_ms" "ms" "lower";
    layer "corpus.apply_us" "us" "lower";
    layer "incremental.refresh_ms" "ms" "lower";
    layer "incremental.roots_mined" "count" "lower";
    layer "incremental.dirty_ratio" "ratio" "lower";
    layer "incremental.save_state_ms" "ms" "lower";
    layer "publish.render_ms" "ms" "lower";
    layer "publish.write_ms" "ms" "lower";
    layer "publish.push_ms" "ms" "lower";
    layer "pipe.bytes_written_per_delta_byte" "ratio" "lower";
    layer "trace.overhead_ratio" "ratio" "lower";
    layer "trace.coverage" "ratio" "higher";
  ]

type workload = { wname : string; why : string; run : M.ctx -> M.outcome }

let workloads =
  [
    {
      wname = "mine-td13";
      why =
        "TD13 x0.03: depth-13 1000-concept DAG, 120 graphs <=40 edges d=0.2, \
         per-level labels, theta 0.35; Step 3 dominates, so Specialize/Bitset/PNS \
         changes show here";
      run = Wl_mine.run Wl_mine.td13;
    };
    {
      wname = "mine-nc40";
      why =
        "NC40 x0.02: 800-concept GO-like DAG, 80 graphs <=40 edges d=0.2, uniform \
         labels, theta 0.2; Step 2 (gSpan, min-DFS-code, OI build) dominates";
      run = Wl_mine.run Wl_mine.nc40;
    };
    {
      wname = "serve";
      why =
        "tsg-serve --listen, default flags, ~2k-pattern D1000 x0.1 artifact+DB; closed \
         loop 1 then 2 conns; assumed, unmeasured mix: 90% contains (uniform pool 3x \
         LRU), 6% by-label, 4% top-k";
      run = Wl_serve.run;
    };
    {
      wname = "pipe-churn";
      why =
        "tsg-pipe commit path vs live tsg-serve: 1.2k-graph forest corpus, theta 0.01, \
         5-edge cap; op = assumed, unmeasured batch of 2 removes + 2 adds (WAL fsync), \
         then refresh, state, render, publish, push";
      run = Wl_pipe.run;
    };
  ]

let emit_config run_seconds =
  let open M in
  let metric m =
    Obj
      ([ ("name", Str m.name); ("unit", Str m.unit_); ("better", Str m.better) ]
      @ if Float.is_nan m.bound then [] else [ ("bound", Num m.bound) ])
  in
  print_endline
    (to_string
       (Obj
          [
            ("command", Arr [ Str "bash"; Str "perfbench/run.sh" ]);
            ("paths", Arr [ Str "perfbench" ]);
            ("run_seconds", Int run_seconds);
            ( "workloads",
              Arr
                (List.map
                   (fun w -> Obj [ ("name", Str w.wname); ("why", Str w.why) ])
                   workloads) );
            ("end_to_end", Arr (List.map metric end_to_end));
            ("per_layer", Arr (List.map metric per_layer));
          ]))

(* the commit of the checkout, if it is the top of a git work tree; git
   looks no further up than the checkout and reads no configuration
   from outside it *)
let git_sha root =
  let cmd =
    Printf.sprintf
      "GIT_CEILING_DIRECTORIES=%s GIT_CONFIG_NOSYSTEM=1 GIT_CONFIG_GLOBAL=/dev/null git \
       rev-parse HEAD 2>/dev/null"
      (Filename.quote (Filename.dirname root))
  in
  try
    let ic = Unix.open_process_in cmd in
    let out = String.trim (In_channel.input_all ic) in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when out <> "" -> out
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 25 and trace = ref 0 in
  let config = ref false and pipe_setup = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--emit-config", Arg.Set config, " print BENCHMARK.json and exit");
      ( "--pipe-setup",
        Arg.Set_string pipe_setup,
        "DIR print the seconds of one pipe-churn set-up over DIR's base files (pipe-churn \
         runs this itself)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !config then (emit_config !seconds; exit 0);
  let helper = !pipe_setup <> "" in
  let w =
    match List.find_opt (fun w -> w.wname = !workload) workloads with
    | Some w -> w
    | None when helper -> List.find (fun w -> w.wname = "pipe-churn") workloads
    | None ->
      prerr_endline ("bench: unknown workload " ^ !workload);
      exit 2
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not helper then M.start_calibrator ();
  M.pin_work ();
  let root = Sys.getcwd () in
  let out = Filename.concat root ".perfbench" in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let work = Filename.concat out (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Sys.mkdir work 0o755;
  let cleanup ?signal () =
    Server.stop_all ?signal ();
    M.stop_calibrator ();
    remove_tree work
  in
  (* a stopped run still stops and reaps the processes it started, and
     prints no result *)
  let interrupted =
    Sys.Signal_handle
      (fun _ ->
        cleanup ~signal:Sys.sigkill ();
        Unix._exit 1)
  in
  Sys.set_signal Sys.sigterm interrupted;
  Sys.set_signal Sys.sigint interrupted;
  let ctx =
    {
      M.seed = !seed;
      seconds = float_of_int !seconds;
      traced = !trace = 1;
      work;
      serve_exe = Filename.concat root "_build/default/bin/tsg_serve.exe";
    }
  in
  let protect f =
    match Fun.protect ~finally:(fun () -> cleanup ()) f with
    | v -> v
    | exception e ->
      Printf.eprintf "bench: %s failed: %s\n%s%!" w.wname (Printexc.to_string e)
        (Printexc.get_backtrace ());
      exit 1
  in
  if helper then begin
    Printf.printf "%.9f\n" (protect (fun () -> Wl_pipe.setup_sample ~base:!pipe_setup ctx));
    exit 0
  end;
  let outcome = protect (fun () -> w.run ctx) in
  let declared = if ctx.traced then per_layer else end_to_end in
  (* end-to-end times at the calibration kernel's reference host speed;
     the raw values go to the details line *)
  let host_slowdown = M.slowdown () in
  let scale m v =
    if ctx.traced || m.unit_ = "MiB" then v
    else if m.better = "higher" then v *. host_slowdown
    else v /. host_slowdown
  in
  let value m =
    match List.assoc_opt m.name outcome.M.metrics with
    | Some v -> scale m v
    | None when ctx.traced -> 0.0 (* a layer this workload does not exercise *)
    | None ->
      Printf.eprintf "bench: %s did not report %s\n" w.wname m.name;
      exit 1
  in
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun m -> m.name = n) declared) then begin
        Printf.eprintf "bench: %s reported undeclared metric %s\n" w.wname n;
        exit 1
      end)
    outcome.M.metrics;
  if ctx.traced then Trace.write (Filename.concat out (Printf.sprintf "trace-%s-seed%d.jsonl" w.wname !seed));
  let open M in
  print_endline
    (to_string
       (Obj
          [
            ("workload", Str w.wname);
            ("seed", Int !seed);
            ("trace", Int !trace);
            ("git_sha", Str (git_sha root));
            ("host_cores", Int (List.length M.host_cpus));
            ("ocaml", Str Sys.ocaml_version);
            ("fail_ratio", Num (float_of_int outcome.failed /. float_of_int (max 1 outcome.attempted)));
            ("work_cpu", Int M.work_cpu);
            ("help_cpu", Int M.help_cpu);
            ("host_slowdown", Num host_slowdown);
            ("slowdown_work_cpu", Num (M.slowdown_work ()));
            ("slowdown_help_cpu", Num (M.slowdown_help ()));
            ("calibration_samples", Int (List.length !M.calib_work));
            ("raw_metrics", Obj (List.map (fun (n, v) -> (n, Num v)) outcome.M.metrics));
            ("details", Obj outcome.details);
          ]));
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (outcome.failed = 0));
            ("attempted", Int outcome.attempted);
            ("failed", Int outcome.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun m -> (m.name, Obj [ ("value", Num (value m)); ("unit", Str m.unit_) ]))
                   declared) );
          ]))
