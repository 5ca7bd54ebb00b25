(* Pipeline chaos suite: the WAL's framing and recovery contract, the
   incremental engine's delta equivalence, and the kill-matrix over the
   pipeline failpoints. The headline property: for any random delta
   sequence and any crash point, recover-and-replay publishes a pattern
   artifact byte-identical to mining the final corpus from scratch with a
   fresh interning history. *)

module Db = Tsg_graph.Db
module Graph = Tsg_graph.Graph
module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Taxonomy = Tsg_taxonomy.Taxonomy
module Prng = Tsg_util.Prng
module Pool = Tsg_util.Pool
module Fault = Tsg_util.Fault
module Checksum = Tsg_util.Checksum
module Diagnostic = Tsg_util.Diagnostic
module Safe_io = Tsg_util.Safe_io
module Pattern = Tsg_core.Pattern
module Specialize = Tsg_core.Specialize
module Taxogram = Tsg_core.Taxogram
module Checkpoint = Tsg_core.Checkpoint
module Pattern_io = Tsg_core.Pattern_io
module Wal = Tsg_pipeline.Wal
module Corpus = Tsg_pipeline.Corpus
module Incremental = Tsg_pipeline.Incremental
module Publish = Tsg_pipeline.Publish
module Epoch = Tsg_query.Epoch
module Serve = Tsg_query.Serve

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let with_faults ?seed schedule f =
  Fault.configure ?seed schedule;
  Fun.protect ~finally:Fault.clear f

let temp_path suffix =
  let path = Filename.temp_file "tsg_pipe" suffix in
  Sys.remove path;
  path

let rm_f path = if Sys.file_exists path then Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Streaming CRC --------------------------------------------------------- *)

let crc_stream_prop =
  (* feeding any split of a string through the stream equals the one-shot
     CRC of the whole *)
  QCheck.Test.make ~name:"streaming CRC = one-shot CRC on any split"
    ~count:200
    QCheck.(pair (string_of_size Gen.(int_bound 64)) (small_nat))
    (fun (s, seed) ->
      let rng = Prng.of_int seed in
      let rec cuts acc pos =
        if pos >= String.length s then List.rev acc
        else
          let step = 1 + Prng.int rng 7 in
          let pos' = min (String.length s) (pos + step) in
          cuts (String.sub s pos (pos' - pos) :: acc) pos'
      in
      let pieces = cuts [] 0 in
      let st = List.fold_left Checksum.feed Checksum.init pieces in
      Int32.equal (Checksum.finish st) (Checksum.crc32 s))

let test_crc_stream_empty () =
  check bool "empty stream = crc of empty" true
    (Int32.equal (Checksum.finish Checksum.init) (Checksum.crc32 ""))

(* --- WAL framing and recovery ---------------------------------------------- *)

let nasty_payload =
  (* newlines, NULs, hex-looking bytes: framing must be binary-safe *)
  "t # 0\nv 0 a\x00b\ne 0 0 0123abcd\n"

let sample_records =
  [
    { Wal.seq = 1L; op = Wal.Add "t # 0\nv 0 A\n" };
    { Wal.seq = 2L; op = Wal.Add nasty_payload };
    { Wal.seq = 3L; op = Wal.Remove 1L };
  ]

let write_log path records =
  rm_f path;
  let w = Wal.open_writer path in
  List.iter (Wal.append w) records;
  Wal.close w

let record_eq (a : Wal.record) (b : Wal.record) =
  Int64.equal a.seq b.seq
  &&
  match (a.op, b.op) with
  | Wal.Add x, Wal.Add y -> String.equal x y
  | Wal.Remove x, Wal.Remove y -> Int64.equal x y
  | (Wal.Add _ | Wal.Remove _), _ -> false

let test_wal_roundtrip () =
  let path = temp_path ".wal" in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      write_log path sample_records;
      let r = Wal.recover path in
      check int "record count" 3 (List.length r.Wal.replayed);
      check bool "records equal" true
        (List.for_all2 record_eq sample_records r.Wal.replayed);
      check bool "head" true (Int64.equal 3L r.Wal.head);
      check bool "clean tail" false r.Wal.truncated;
      (* appending after recovery keeps the log valid *)
      let w = Wal.open_writer path in
      Wal.append w { Wal.seq = 4L; op = Wal.Remove 2L };
      Wal.close w;
      check int "grown log" 4 (List.length (Wal.recover path).Wal.replayed))

let test_wal_missing_is_empty () =
  let path = temp_path ".wal" in
  let r = Wal.recover path in
  check int "no records" 0 (List.length r.Wal.replayed);
  check bool "head 0" true (Int64.equal 0L r.Wal.head)

let test_wal_torn_tail () =
  let path = temp_path ".wal" in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      write_log path sample_records;
      let full = read_file path in
      (* cut into the last frame at every possible byte: recovery must
         always yield exactly the first two records, never an error *)
      let boundary =
        (* end of record 2 = start of record 3's frame *)
        let scanned = Wal.scan full in
        ignore scanned;
        (* recompute by writing only two records *)
        let p2 = temp_path ".wal" in
        write_log p2 (List.filteri (fun i _ -> i < 2) sample_records);
        let n = String.length (read_file p2) in
        rm_f p2;
        n
      in
      for cut = boundary + 1 to String.length full - 1 do
        Safe_io.write_atomic path (String.sub full 0 cut);
        let r = Wal.recover path in
        check bool "truncated" true r.Wal.truncated;
        check int "prefix records" 2 (List.length r.Wal.replayed);
        (* the repair is durable: a second recovery is clean *)
        let r2 = Wal.recover path in
        check bool "repaired" false r2.Wal.truncated;
        check int "still two records" 2 (List.length r2.Wal.replayed)
      done)

let test_wal_torn_header () =
  let path = temp_path ".wal" in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      Safe_io.write_atomic path "tsgw";
      let r = Wal.recover path in
      check int "empty after torn header" 0 (List.length r.Wal.replayed);
      check bool "truncated" true r.Wal.truncated)

let expect_wal_error code f =
  match f () with
  | _ -> Alcotest.fail ("expected " ^ code)
  | exception Wal.Error d -> check string "rule" code d.Diagnostic.rule

let test_wal_bad_magic () =
  let path = temp_path ".wal" in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      Safe_io.write_atomic path "bogus 9\n";
      expect_wal_error "WAL001" (fun () -> Wal.recover path);
      Safe_io.write_atomic path "tsgwal 2\n";
      expect_wal_error "WAL001" (fun () -> Wal.recover path))

let test_wal_midlog_corruption () =
  let path = temp_path ".wal" in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      write_log path sample_records;
      let full = Bytes.of_string (read_file path) in
      (* flip a payload byte of the FIRST record: invalid frame with valid
         frames after it = rot under committed data, fatal *)
      let header_end = 1 + Bytes.index full '\n' in
      let target = header_end + 18 in
      Bytes.set full target
        (Char.chr (Char.code (Bytes.get full target) lxor 0x01));
      Safe_io.write_atomic path (Bytes.to_string full);
      expect_wal_error "WAL002" (fun () -> Wal.recover path))

let test_wal_non_monotonic () =
  let path = temp_path ".wal" in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      write_log path
        [
          { Wal.seq = 1L; op = Wal.Add "t # 0\nv 0 A\n" };
          { Wal.seq = 3L; op = Wal.Remove 1L };
          { Wal.seq = 2L; op = Wal.Remove 1L };
        ];
      expect_wal_error "WAL003" (fun () -> Wal.recover path))

let rules_of c = List.map (fun d -> d.Diagnostic.rule) (Diagnostic.items c)

let test_wal_validate () =
  let path = temp_path ".wal" in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      (* clean log: no findings *)
      write_log path sample_records;
      let c = Diagnostic.collector () in
      Wal.validate c path;
      check int "clean log lints clean" 0 (List.length (Diagnostic.items c));
      (* torn tail: warning, not error *)
      let full = read_file path in
      Safe_io.write_atomic path (String.sub full 0 (String.length full - 3));
      let c = Diagnostic.collector () in
      Wal.validate c path;
      check bool "torn tail is WAL002" true (List.mem "WAL002" (rules_of c));
      check bool "torn tail is only a warning" false (Diagnostic.has_errors c);
      (* bad magic: error *)
      Safe_io.write_atomic path "nope\n";
      let c = Diagnostic.collector () in
      Wal.validate c path;
      check bool "bad magic is WAL001" true (List.mem "WAL001" (rules_of c));
      check bool "and an error" true (Diagnostic.has_errors c);
      (* out-of-order sequence numbers: error *)
      write_log path
        [
          { Wal.seq = 2L; op = Wal.Add "t # 0\nv 0 A\n" };
          { Wal.seq = 2L; op = Wal.Remove 2L };
        ];
      let c = Diagnostic.collector () in
      Wal.validate c path;
      check bool "duplicate seq is WAL003" true (List.mem "WAL003" (rules_of c));
      check bool "and an error" true (Diagnostic.has_errors c))

(* --- Random instances ------------------------------------------------------ *)

let config theta =
  {
    Taxogram.min_support = theta;
    max_edges = Some 4;
    enhancements = Specialize.all_on;
  }

let random_instance rng =
  let concepts = 4 + Prng.int rng 6 in
  let tax =
    Tsg_taxonomy.Synth_taxonomy.generate rng
      {
        concepts;
        relationships = concepts + Prng.int rng 4;
        depth = 2 + Prng.int rng 3;
      }
  in
  let sampler = Tsg_data.Synth_graph.uniform_labels tax in
  let graphs =
    Db.to_list
      (Tsg_data.Synth_graph.generate rng
         {
           Tsg_data.Synth_graph.graph_count = 6 + Prng.int rng 4;
           max_edges = 5;
           edge_density = 0.35;
           edge_label_count = 2;
           node_label = sampler;
         })
  in
  (tax, graphs)

(* generated edge-label ids are dense small ints with no table of their
   own; name them for serialization *)
let gen_edge_labels = Label.of_names [ "bond0"; "bond1"; "bond2"; "bond3" ]

let serialize_graph tax g =
  Serial.db_to_string
    ~node_labels:(Taxonomy.labels tax)
    ~edge_labels:gen_edge_labels (Db.of_list [ g ])

(* --- The daemon loop in miniature ------------------------------------------ *)

(* The same WAL-first / recover-and-retry discipline bin/tsg_pipe.ml
   runs, compacted for tests: every step that crashes (Fault.Injected)
   triggers a cold boot — WAL recovery, corpus replay, state reload —
   and is retried. *)
type harness = {
  h_wal : string;
  h_state : string;
  h_out : string;
  h_tax : Taxonomy.t;
  h_config : Taxogram.config;
  h_exec : Pool.Exec.t;
  mutable h_writer : Wal.writer;
  mutable h_corpus : Corpus.t;
  mutable h_engine : Incremental.t;
  mutable h_restarts : int;
  mutable h_rejected : int;
}

let hboot h =
  let recovery = Wal.recover h.h_wal in
  let snapshot =
    if Sys.file_exists h.h_state then Some (read_file h.h_state) else None
  in
  let watermark =
    match Option.bind snapshot Incremental.state_watermark with
    | Some w -> w
    | None -> -1L
  in
  let corpus = Corpus.create ~taxonomy:h.h_tax () in
  let engine =
    Incremental.create ~corpus ~config:h.h_config ~exec:h.h_exec ()
  in
  List.iter
    (fun (r : Wal.record) ->
      match Corpus.apply corpus r with
      | Ok g ->
        if Int64.compare r.seq watermark > 0 then
          Incremental.mark_dirty engine g
      | Error _ -> h.h_rejected <- h.h_rejected + 1)
    recovery.Wal.replayed;
  (match snapshot with
  | None -> ()
  | Some text -> (
    match Incremental.load_state engine text with
    | Ok () -> ()
    | Error _ -> ()));
  h.h_corpus <- corpus;
  h.h_engine <- engine;
  h.h_writer <- Wal.open_writer h.h_wal

let make_harness ~tax ~config ~domains =
  let wal = temp_path ".wal" and state = temp_path ".state" in
  let out = temp_path ".pat" in
  let corpus = Corpus.create ~taxonomy:tax () in
  let exec = Pool.Exec.create ~domains () in
  {
    h_wal = wal;
    h_state = state;
    h_out = out;
    h_tax = tax;
    h_config = config;
    h_exec = exec;
    h_writer = Wal.open_writer wal;
    h_corpus = corpus;
    h_engine = Incremental.create ~corpus ~config ~exec ();
    h_restarts = 0;
    h_rejected = 0;
  }

let cleanup_harness h = List.iter rm_f [ h.h_wal; h.h_state; h.h_out ]

let crash h =
  h.h_restarts <- h.h_restarts + 1;
  if h.h_restarts > 500 then Alcotest.fail "crash loop did not converge"

let rec reboot h =
  match hboot h with
  | () -> ()
  | exception Fault.Injected _ ->
    crash h;
    reboot h

let rec attempt h f =
  match f () with
  | v -> v
  | exception Fault.Injected _ ->
    crash h;
    reboot h;
    attempt h f

let apply h op =
  let intended = ref 0L in
  attempt h (fun () ->
      if
        Int64.compare !intended 0L > 0
        && Int64.compare (Corpus.seq h.h_corpus) !intended >= 0
      then () (* durable before the crash; replay already applied it *)
      else begin
        let seq = Int64.add (Corpus.seq h.h_corpus) 1L in
        intended := seq;
        let r = { Wal.seq; op } in
        Wal.append h.h_writer r;
        match Corpus.apply h.h_corpus r with
        | Ok g -> Incremental.mark_dirty h.h_engine g
        | Error _ -> h.h_rejected <- h.h_rejected + 1
      end)

let commit h =
  attempt h (fun () ->
      let stats = Incremental.refresh h.h_engine in
      Incremental.save_state h.h_engine h.h_state;
      Publish.write h.h_out (Incremental.render h.h_engine);
      stats)

let play h script =
  List.iter
    (function
      | `Add text -> apply h (Wal.Add text)
      | `Remove target -> apply h (Wal.Remove target)
      | `Commit -> ignore (commit h))
    script

(* from-scratch reference: the daemon's final corpus re-parsed with a
   FRESH edge-label table (a different interning history), fully mined on
   one domain — published bytes must still match exactly *)
let scratch_artifact h =
  let text = Corpus.to_serial h.h_corpus in
  let edge_labels = Label.create () in
  let db =
    Serial.parse_db ~node_labels:(Taxonomy.labels h.h_tax) ~edge_labels text
  in
  let r =
    Taxogram.run
      (Taxogram.Spec.collect ~config:h.h_config ~domains:1 ())
      h.h_tax db
  in
  Publish.render ~taxonomy:h.h_tax ~edge_labels ~db_size:(Db.size db)
    r.Taxogram.patterns

(* the published artifact's stamp payload: the daemon stamps its WAL
   watermark, the from-scratch reference has no WAL — equality is over
   payload bytes, after the stamp itself verifies *)
let published h =
  let bytes = read_file h.h_out in
  (match Epoch.verify_stamp bytes with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "published artifact stamp: %s" msg);
  Epoch.payload bytes

(* fixed 10-step script over an instance's graphs: adds, two removes, a
   commit in the middle and one at the end; sequence numbers are
   positional (every add/remove consumes one) *)
let fixed_script tax graphs =
  match List.map (serialize_graph tax) graphs with
  | g1 :: g2 :: g3 :: g4 :: g5 :: _ ->
    [
      `Add g1 (* seq 1 *);
      `Add g2 (* seq 2 *);
      `Add g3 (* seq 3 *);
      `Commit;
      `Add g4 (* seq 4 *);
      `Remove 2L (* seq 5 *);
      `Commit;
      `Add g5 (* seq 6 *);
      `Remove 4L (* seq 7 *);
      `Commit;
    ]
  | _ -> Alcotest.fail "instance too small"

(* --- Kill-matrix ------------------------------------------------------------ *)

(* each case arms one (or two, to reach the replay path) failpoints with a
   deterministic trigger, runs the fixed script with recover-and-retry,
   and requires the published artifact to be byte-identical to the
   from-scratch mine — and the fault to have actually fired *)
let kill_matrix_cases =
  [
    ("wal.append@1", [ ("wal.append", Fault.On_hit 1) ], "wal.append");
    ("wal.append@5", [ ("wal.append", Fault.On_hit 5) ], "wal.append");
    ("wal.fsync@1", [ ("wal.fsync", Fault.On_hit 1) ], "wal.fsync");
    ("wal.fsync@4", [ ("wal.fsync", Fault.On_hit 4) ], "wal.fsync");
    ("pipeline.remine@1", [ ("pipeline.remine", Fault.On_hit 1) ],
     "pipeline.remine");
    ("pipeline.remine@2", [ ("pipeline.remine", Fault.On_hit 2) ],
     "pipeline.remine");
    ("pipeline.publish@1", [ ("pipeline.publish", Fault.On_hit 1) ],
     "pipeline.publish");
    ("pipeline.publish@3", [ ("pipeline.publish", Fault.On_hit 3) ],
     "pipeline.publish");
    ( "wal.replay@1 (via wal.fsync@2)",
      [ ("wal.fsync", Fault.On_hit 2); ("wal.replay", Fault.On_hit 1) ],
      "wal.replay" );
    ( "wal.replay@1 (via pipeline.remine@1)",
      [ ("pipeline.remine", Fault.On_hit 1); ("wal.replay", Fault.On_hit 1) ],
      "wal.replay" );
    (* the state snapshot is a checkpoint: its write and its read *)
    ("checkpoint.save@1", [ ("checkpoint.save", Fault.On_hit 1) ],
     "checkpoint.save");
    ("checkpoint.save@3", [ ("checkpoint.save", Fault.On_hit 3) ],
     "checkpoint.save");
    ( "checkpoint.load@1 (via pipeline.publish@1)",
      [ ("pipeline.publish", Fault.On_hit 1); ("checkpoint.load", Fault.On_hit 1) ],
      "checkpoint.load" );
  ]

let kill_matrix_case ~domains schedule fired_site () =
  let rng = Prng.of_int 20260809 in
  let tax, graphs = random_instance rng in
  let h = make_harness ~tax ~config:(config 0.34) ~domains in
  Fun.protect
    ~finally:(fun () -> cleanup_harness h)
    (fun () ->
      with_faults schedule (fun () ->
          play h (fixed_script tax graphs);
          check bool "the fault fired" true (Fault.fired_count fired_site > 0);
          check bool "at least one recovery" true (h.h_restarts > 0));
      check string "published = from-scratch" (scratch_artifact h)
        (published h))

let kill_matrix_tests ~domains =
  List.map
    (fun (name, schedule, fired_site) ->
      Alcotest.test_case
        (Printf.sprintf "%s, domains=%d" name domains)
        `Quick
        (kill_matrix_case ~domains schedule fired_site))
    kill_matrix_cases

(* --- Incremental equivalence ------------------------------------------------ *)

(* no faults at all: pure incremental maintenance across a random delta
   sequence must match from-scratch, and clean commits must reuse roots *)
let test_incremental_reuses_roots () =
  let rng = Prng.of_int 7 in
  let tax, graphs = random_instance rng in
  let h = make_harness ~tax ~config:(config 0.34) ~domains:1 in
  Fun.protect
    ~finally:(fun () -> cleanup_harness h)
    (fun () ->
      List.iter (fun g -> apply h (Wal.Add (serialize_graph tax g))) graphs;
      let first = commit h in
      check bool "first commit is full" true first.Incremental.full;
      (* a delta-free commit re-mines nothing *)
      let idle = commit h in
      check bool "idle commit is incremental" false idle.Incremental.full;
      check int "idle commit mines no roots" 0 idle.Incremental.roots_mined;
      check string "published = from-scratch" (scratch_artifact h)
        (published h))

let random_script rng tax graphs =
  let seq = ref 0L in
  let live = ref [] in
  let script = ref [] in
  List.iter
    (fun g ->
      (if !live <> [] && Prng.int rng 3 = 0 then begin
         let target = List.nth !live (Prng.int rng (List.length !live)) in
         live := List.filter (fun s -> not (Int64.equal s target)) !live;
         seq := Int64.add !seq 1L;
         script := `Remove target :: !script
       end);
      seq := Int64.add !seq 1L;
      script := `Add (serialize_graph tax g) :: !script;
      live := !seq :: !live;
      if Prng.int rng 3 = 0 then script := `Commit :: !script)
    graphs;
  List.rev (`Commit :: !script)

let arb_seed = QCheck.make QCheck.Gen.(int_bound 1_000_000)

let delta_equivalence_prop ~domains =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "random deltas + random crashes = from-scratch bytes, domains=%d"
         domains)
    ~count:12 arb_seed
    (fun seed ->
      let rng = Prng.of_int seed in
      let tax, graphs = random_instance rng in
      let theta = match Prng.int rng 3 with 0 -> 0.5 | 1 -> 0.34 | _ -> 0.25 in
      let h = make_harness ~tax ~config:(config theta) ~domains in
      Fun.protect
        ~finally:(fun () -> cleanup_harness h)
        (fun () ->
          let script = random_script rng tax graphs in
          with_faults
            ~seed:(Int64.of_int (seed + 1))
            [
              ("wal.append", Fault.Probability 0.04);
              ("wal.fsync", Fault.Probability 0.04);
              ("wal.replay", Fault.Probability 0.04);
              ("pipeline.remine", Fault.Probability 0.06);
              ("pipeline.publish", Fault.Probability 0.06);
            ]
            (fun () -> play h script);
          String.equal (scratch_artifact h) (published h)))

(* a cold process restart (not a crash retry loop): drop every in-memory
   structure, boot from WAL + state, apply more deltas, commit — the
   incremental path across the restart must still match from-scratch *)
let test_restart_resumes_incrementally () =
  let rng = Prng.of_int 42 in
  let tax, graphs = random_instance rng in
  let h = make_harness ~tax ~config:(config 0.34) ~domains:1 in
  Fun.protect
    ~finally:(fun () -> cleanup_harness h)
    (fun () ->
      let script = fixed_script tax graphs in
      let first_half = List.filteri (fun i _ -> i < 4) script in
      let second_half = List.filteri (fun i _ -> i >= 4) script in
      play h first_half;
      Wal.close h.h_writer;
      (* cold boot *)
      hboot h;
      check bool "watermark restored from state snapshot" true
        (Int64.compare (Incremental.mined_seq h.h_engine) 0L > 0);
      play h second_half;
      check string "published = from-scratch" (scratch_artifact h)
        (published h))

let test_corrupt_state_snapshot_degrades () =
  let rng = Prng.of_int 43 in
  let tax, graphs = random_instance rng in
  let h = make_harness ~tax ~config:(config 0.34) ~domains:1 in
  Fun.protect
    ~finally:(fun () -> cleanup_harness h)
    (fun () ->
      List.iter (fun g -> apply h (Wal.Add (serialize_graph tax g))) graphs;
      ignore (commit h);
      (* damage the snapshot *)
      let original = read_file h.h_state in
      let damaged = Bytes.of_string original in
      let mid = Bytes.length damaged / 2 in
      Bytes.set damaged mid
        (Char.chr (Char.code (Bytes.get damaged mid) lxor 1));
      Safe_io.write_atomic h.h_state (Bytes.to_string damaged);
      (* the load must reject it (PIPE003) and refresh must fall back to a
         full re-mine, not fail *)
      let corpus = Corpus.create ~taxonomy:tax () in
      let engine =
        Incremental.create ~corpus ~config:h.h_config ~exec:h.h_exec ()
      in
      let recovery = Wal.recover h.h_wal in
      List.iter
        (fun r -> ignore (Corpus.apply corpus r))
        recovery.Wal.replayed;
      (match Incremental.load_state engine (read_file h.h_state) with
      | Ok () -> Alcotest.fail "loaded a damaged snapshot"
      | Error d -> check string "rule" "PIPE003" d.Diagnostic.rule);
      let stats = Incremental.refresh engine in
      check bool "fell back to a full re-mine" true stats.Incremental.full;
      check string "and still matches from-scratch" (scratch_artifact h)
        (Publish.render ~taxonomy:tax
           ~edge_labels:(Corpus.edge_labels corpus)
           ~db_size:(Corpus.size corpus)
           (Incremental.patterns engine)))

let test_state_snapshot_rejects_config_drift () =
  let rng = Prng.of_int 44 in
  let tax, graphs = random_instance rng in
  let h = make_harness ~tax ~config:(config 0.34) ~domains:1 in
  Fun.protect
    ~finally:(fun () -> cleanup_harness h)
    (fun () ->
      List.iter (fun g -> apply h (Wal.Add (serialize_graph tax g))) graphs;
      ignore (commit h);
      let corpus = Corpus.create ~taxonomy:tax () in
      let engine =
        Incremental.create ~corpus ~config:(config 0.5) ~exec:h.h_exec ()
      in
      let recovery = Wal.recover h.h_wal in
      List.iter
        (fun r -> ignore (Corpus.apply corpus r))
        recovery.Wal.replayed;
      match Incremental.load_state engine (read_file h.h_state) with
      | Ok () -> Alcotest.fail "adopted a snapshot mined under another theta"
      | Error d -> check string "rule" "PIPE003" d.Diagnostic.rule)

(* --- State snapshots: the one root-group reader ------------------------------ *)

(* a harness after one full commit of a random instance *)
let committed_harness ?(theta = 0.34) seed =
  let rng = Prng.of_int seed in
  let tax, graphs = random_instance rng in
  let h = make_harness ~tax ~config:(config theta) ~domains:1 in
  List.iter (fun g -> apply h (Wal.Add (serialize_graph tax g))) graphs;
  ignore (commit h);
  h

(* a fresh engine over a replay of [h]'s log, as a restart builds it *)
let replayed_engine h =
  let corpus = Corpus.create ~taxonomy:h.h_tax () in
  List.iter
    (fun r -> ignore (Corpus.apply corpus r))
    (Wal.recover h.h_wal).Wal.replayed;
  Incremental.create ~corpus ~config:h.h_config ~exec:h.h_exec ()

let expect_pipe003 what = function
  | Ok () -> Alcotest.failf "adopted %s" what
  | Error d -> check string ("rule for " ^ what) "PIPE003" d.Diagnostic.rule

let test_state_refuses_incomplete () =
  let h = committed_harness 47 in
  Fun.protect
    ~finally:(fun () -> cleanup_harness h)
    (fun () ->
      let image = read_file h.h_state in
      let s = Checkpoint.parse ~file:"state" image in
      let n = List.length s.Checkpoint.entries in
      check bool "the instance has roots" true (n > 1);
      check int "a complete snapshot" n s.Checkpoint.roots_total;
      (* a killed run's prefix: fewer entries than roots *)
      let prefix =
        { s with Checkpoint.entries = List.filteri (fun i _ -> i < n - 1) s.Checkpoint.entries }
      in
      expect_pipe003 "an incomplete snapshot"
        (Incremental.load_state (replayed_engine h) (Checkpoint.to_string prefix));
      check bool "the complete snapshot is adopted" true
        (Result.is_ok (Incremental.load_state (replayed_engine h) image)))

let test_state_refuses_unknown_ids () =
  let h = committed_harness 48 in
  Fun.protect
    ~finally:(fun () -> cleanup_harness h)
    (fun () ->
      let s = Checkpoint.parse ~file:"state" (read_file h.h_state) in
      let nodes = Taxonomy.label_count h.h_tax in
      let edges = Label.size (Corpus.edge_labels h.h_corpus) in
      let edge_list g = Array.to_list (Graph.edges g) in
      let forge what f =
        let first = List.hd s.Checkpoint.entries in
        let first =
          {
            first with
            Checkpoint.patterns =
              List.map
                (fun (p : Pattern.t) -> { p with Pattern.graph = f p.Pattern.graph })
                first.Checkpoint.patterns;
          }
        in
        let forged =
          { s with Checkpoint.entries = first :: List.tl s.Checkpoint.entries }
        in
        expect_pipe003 what
          (Incremental.load_state (replayed_engine h) (Checkpoint.to_string forged))
      in
      forge "a node label id past the taxonomy" (fun g ->
          Graph.build
            ~labels:(Array.map (fun _ -> nodes) (Graph.node_labels g))
            ~edges:(edge_list g));
      forge "an edge label id the log never interned" (fun g ->
          Graph.build ~labels:(Graph.node_labels g)
            ~edges:(List.map (fun (u, v, _) -> (u, v, edges)) (edge_list g))))

(* the cache keeps exact support sets, not just their sizes: removals
   shift later graph ids, and a restart adopts sets indexed at its
   watermark while the log has moved past it *)
let test_cached_supports_exact () =
  let rng = Prng.of_int 49 in
  let tax, graphs = random_instance rng in
  let h = make_harness ~tax ~config:(config 0.34) ~domains:1 in
  let agree what =
    let scratch =
      Taxogram.run
        (Taxogram.Spec.collect ~config:h.h_config ~domains:1 ())
        tax (Corpus.db h.h_corpus)
    in
    check bool what true
      (Pattern.equal_sets scratch.Taxogram.patterns
         (Incremental.patterns h.h_engine))
  in
  (* remove graph [seq] and add it back as a new graph: the size, and
     with it the threshold, stays, so the commit keeps clean groups *)
  let swap seq =
    apply h (Wal.Remove seq);
    apply h (Wal.Add (serialize_graph tax (List.nth graphs (Int64.to_int seq - 1))))
  in
  Fun.protect
    ~finally:(fun () -> cleanup_harness h)
    (fun () ->
      List.iter (fun g -> apply h (Wal.Add (serialize_graph tax g))) graphs;
      ignore (commit h);
      agree "after the first commit";
      swap 1L;
      check bool "incremental commit" false (commit h).Incremental.full;
      agree "after a removal shifted graph ids";
      (* deltas past the watermark, then a cold restart *)
      swap 2L;
      Wal.close h.h_writer;
      check bool "state adopted past its watermark" true
        (Result.is_ok
           (Incremental.load_state (replayed_engine h) (read_file h.h_state)));
      hboot h;
      check bool "incremental commit after the restart" false
        (commit h).Incremental.full;
      agree "after the restart")

(* at every commit, the groups' cached entries render what Publish.render
   makes of the engine's patterns. The script adds the graphs one commit
   each (the threshold ceil (0.34 n) moves at n = 3 and 6: full
   re-mines, between re-mines of dirty roots), removes the first graph
   and adds one back (same size: every clean group re-indexed), restarts
   cold through [load_state], and commits deltas after the restart *)
let cached_render_prop =
  QCheck.Test.make
    ~name:"Incremental.render = Publish.render of its patterns, every commit"
    ~count:10 arb_seed
    (fun seed ->
      let rng = Prng.of_int seed in
      let tax, graphs = random_instance rng in
      let h = make_harness ~tax ~config:(config 0.34) ~domains:1 in
      let add () =
        apply h (Wal.Add (serialize_graph tax (Prng.choose rng (Array.of_list graphs))))
      in
      let commit_agrees () =
        let stats = commit h in
        let e = h.h_engine in
        let fresh =
          Publish.render ~taxonomy:tax
            ~edge_labels:(Corpus.edge_labels h.h_corpus)
            ~db_size:(Corpus.size h.h_corpus) (Incremental.patterns e)
        in
        if not (String.equal (Epoch.payload (Incremental.render e)) fresh) then
          QCheck.Test.fail_reportf "commit at seq %Ld renders stale text"
            (Corpus.seq h.h_corpus);
        stats.Incremental.full
      in
      Fun.protect
        ~finally:(fun () -> cleanup_harness h)
        (fun () ->
          let fulls =
            List.map
              (fun g ->
                apply h (Wal.Add (serialize_graph tax g));
                commit_agrees ())
              graphs
          in
          apply h (Wal.Remove 1L);
          add ();
          let swap_full = commit_agrees () in
          Wal.close h.h_writer;
          hboot h;
          let restart_full = commit_agrees () in
          apply h (Wal.Remove 2L);
          add ();
          ignore (commit_agrees ());
          List.length (List.filter Fun.id fulls) >= 3
          && (not swap_full) && not restart_full))

(* a snapshot image with its body changed and its CRC recomputed, so the
   change reaches the parser instead of the checksum (and the body still
   ends its last line, so the trailer stays a line of its own) *)
let reframe image mutate =
  let cut = String.rindex_from image (String.length image - 2) '\n' + 1 in
  let body = mutate (String.sub image 0 cut) in
  let body =
    if String.ends_with ~suffix:"\n" body then body else body ^ "\n"
  in
  Printf.sprintf "%send %s\n" body (Checksum.to_hex (Checksum.crc32 body))

let mutate rng body =
  let n = String.length body in
  let i = Prng.int rng (max 1 n) in
  let set c =
    let b = Bytes.of_string body in
    Bytes.set b i c;
    Bytes.to_string b
  in
  if n = 0 then body
  else
    match Prng.int rng 4 with
    | 0 -> set (Char.chr (Char.code body.[i] lxor (1 lsl Prng.int rng 8)))
    | 1 ->
      let alphabet = "0123456789 \n-,pcr" in
      set alphabet.[Prng.int rng (String.length alphabet)]
    | 2 -> String.sub body 0 i
    | _ -> String.sub body 0 i ^ String.sub body (i + 1) (n - i - 1)

(* real images from both writers: a killed tsg-mine checkpoint and a
   tsg-pipe state snapshot, plus the log that state describes *)
let snapshot_fixtures =
  lazy
    (let h = committed_harness ~theta:0.2 50 in
     at_exit (fun () -> cleanup_harness h);
     let state = read_file h.h_state in
     (* killed at its last root, the run leaves all but one on disk *)
     let roots = (Checkpoint.parse ~file:"state" state).Checkpoint.roots_total in
     let path = temp_path ".ck" in
     (with_faults [ ("taxogram.root", Fault.On_hit roots) ] (fun () ->
          match
            Taxogram.run
              (Taxogram.Spec.collect ~config:h.h_config ~domains:1
                 ~checkpoint:{ Taxogram.path; every_s = 0.0; corpus_seq = 0L }
                 ())
              h.h_tax (Corpus.db h.h_corpus)
          with
          | _ -> Alcotest.fail "expected the injected fault to stop the run"
          | exception Fault.Injected _ -> ()));
     let mine_image = read_file path in
     rm_f path;
     (h, [ mine_image; state ]))

let snapshot_robustness_prop =
  QCheck.Test.make
    ~name:"mutated snapshots: only Checkpoint.Error or PIPE003, never another exception"
    ~count:400 arb_seed
    (fun seed ->
      let h, images = Lazy.force snapshot_fixtures in
      let rng = Prng.of_int seed in
      let path = temp_path ".ck" in
      Fun.protect
        ~finally:(fun () -> rm_f path)
        (fun () ->
          List.for_all
            (fun image ->
              let text =
                reframe image (fun body ->
                    let rec go k body = if k = 0 then body else go (k - 1) (mutate rng body) in
                    go (1 + Prng.int rng 3) body)
              in
              Out_channel.with_open_bin path (fun oc -> output_string oc text);
              (match Checkpoint.load path with
              | _ | (exception Checkpoint.Error _) -> ());
              ignore (Incremental.state_watermark text);
              let engine = replayed_engine h in
              match Incremental.load_state engine text with
              | Error d -> String.equal d.Diagnostic.rule "PIPE003"
              | Ok () ->
                (* an adopted image must also serve a refresh *)
                ignore (Incremental.refresh engine);
                ignore (Incremental.render engine);
                true)
            images))

(* --- Corpus rejection ------------------------------------------------------- *)

let test_corpus_rejects () =
  let rng = Prng.of_int 45 in
  let tax, graphs = random_instance rng in
  let corpus = Corpus.create ~taxonomy:tax () in
  let g1 = serialize_graph tax (List.hd graphs) in
  let expect_reject r =
    match Corpus.apply corpus r with
    | Ok _ -> Alcotest.fail "expected a PIPE001 rejection"
    | Error d -> check string "rule" "PIPE001" d.Diagnostic.rule
  in
  (match Corpus.apply corpus { Wal.seq = 1L; op = Wal.Add g1 } with
  | Ok _ -> ()
  | Error d -> Alcotest.fail d.Diagnostic.message);
  (* stale sequence number *)
  expect_reject { Wal.seq = 1L; op = Wal.Add g1 };
  (* unknown remove target; still consumes seq 2 *)
  expect_reject { Wal.seq = 2L; op = Wal.Remove 99L };
  (* unparseable payload *)
  expect_reject { Wal.seq = 3L; op = Wal.Add "not a graph\n" };
  (* multi-graph payload *)
  expect_reject { Wal.seq = 4L; op = Wal.Add (g1 ^ g1) };
  check bool "rejections consumed their sequence numbers" true
    (Int64.equal 4L (Corpus.seq corpus));
  check int "corpus still holds one graph" 1 (Corpus.size corpus);
  (* the one real graph can be removed *)
  match Corpus.apply corpus { Wal.seq = 5L; op = Wal.Remove 1L } with
  | Ok _ -> check int "empty" 0 (Corpus.size corpus)
  | Error d -> Alcotest.fail d.Diagnostic.message

(* A 4-line block whose second node index is 50,000,000. Each reader
   (the database reader, the pattern reader and a pipeline add) must
   report "missing node 1" at the block's header line, allocating a
   small multiple of the input rather than a 400 MB node array. *)
let test_node_index_bomb () =
  let tax = Taxonomy.build ~names:[ "c0"; "c1" ] ~is_a:[ ("c1", "c0") ] in
  let body = "v 0 c0\nv 50000000 c1\ne 0 50000000 e0\n" in
  let bounded what input f =
    let before = Gc.allocated_bytes () in
    let outcome = f input in
    let grew = Gc.allocated_bytes () -. before in
    if grew > 64.0 *. float_of_int (String.length input) then
      Alcotest.failf "%s: %.0f bytes allocated for a %d-byte input" what grew
        (String.length input);
    outcome
  in
  let graph = "t # 0\n" ^ body in
  check
    Alcotest.(option (pair int string))
    "Serial.parse_db" (Some (1, "missing node 1"))
    (bounded "Serial.parse_db" graph (fun text ->
         match
           Serial.parse_db ~node_labels:(Taxonomy.labels tax)
             ~edge_labels:(Label.create ()) text
         with
         | _ -> None
         | exception Serial.Parse_error (line, msg) -> Some (line, msg)));
  check
    Alcotest.(option (pair (option int) string))
    "Pattern_io.parse" (Some (Some 1, "missing node 1"))
    (bounded "Pattern_io.parse" ("p # 0 support 1/1\n" ^ body) (fun text ->
         match
           Pattern_io.parse ~node_labels:(Taxonomy.labels tax)
             ~edge_labels:(Label.create ()) text
         with
         | _ -> None
         | exception Pattern_io.Parse_error d ->
           Some (d.Diagnostic.line, d.Diagnostic.message)));
  let corpus = Corpus.create ~taxonomy:tax () in
  check
    Alcotest.(option string)
    "Corpus.apply" (Some "delta 1 rejected: graph line 1: missing node 1")
    (bounded "Corpus.apply" graph (fun text ->
         match Corpus.apply corpus { Wal.seq = 1L; op = Wal.Add text } with
         | Ok _ -> None
         | Error d -> Some d.Diagnostic.message));
  check int "the rejected add left the corpus empty" 0 (Corpus.size corpus)

(* --- Checkpoint corpus fingerprint (CKPT003) -------------------------------- *)

let test_checkpoint_rejects_moved_corpus () =
  let rng = Prng.of_int 46 in
  let tax, graphs = random_instance rng in
  let db = Db.of_list graphs in
  let cfg = config 0.34 in
  let path = temp_path ".ck" in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      (* kill a checkpointed run against corpus version 7 *)
      (with_faults [ ("taxogram.root", Fault.On_hit 1) ] (fun () ->
           let checkpoint =
             { Taxogram.path; every_s = 0.0; corpus_seq = 7L }
           in
           match
             Taxogram.run
               (Taxogram.Spec.collect ~config:cfg ~domains:1 ~checkpoint ())
               tax db
           with
           | _ -> Alcotest.fail "expected the injected fault to stop the run"
           | exception Fault.Injected _ -> ()));
      check bool "checkpoint written" true (Sys.file_exists path);
      (* resuming against corpus version 9 must refuse with CKPT003, even
         though taxonomy/db/config are identical *)
      (match
         Taxogram.run
           (Taxogram.Spec.collect ~config:cfg ~domains:1
              ~checkpoint:{ Taxogram.path; every_s = 0.0; corpus_seq = 9L }
              ())
           tax db
       with
      | _ -> Alcotest.fail "resumed a snapshot of a corpus that moved on"
      | exception Checkpoint.Error d ->
        check string "rule" "CKPT003" d.Diagnostic.rule);
      (* against the original version it resumes and completes *)
      let r =
        Taxogram.run
          (Taxogram.Spec.collect ~config:cfg ~domains:1
             ~checkpoint:{ Taxogram.path; every_s = 0.0; corpus_seq = 7L }
             ())
          tax db
      in
      check bool "resumed run completed" true r.Taxogram.completed)

(* --- Suite ------------------------------------------------------------------ *)

(* --- Publish.render --------------------------------------------------------- *)

(* the content order as first defined: sort the one-pattern renderings,
   then render the sorted list *)
let render_reference ?epoch_seq ~taxonomy ~edge_labels ~db_size patterns =
  let node_labels = Taxonomy.labels taxonomy in
  let one p = Pattern_io.to_string ~node_labels ~edge_labels ~db_size [ p ] in
  let sorted =
    List.map snd
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (List.map (fun p -> (one p, p)) patterns))
  in
  let payload = Pattern_io.to_string ~node_labels ~edge_labels ~db_size sorted in
  match epoch_seq with None -> payload | Some seq -> Epoch.stamp ~seq payload

(* each graph of a random instance twice, at support counts on both sides
   of the 1-, 2- and 3-digit boundaries, where byte order and numeric
   order disagree *)
let render_oracle_prop =
  QCheck.Test.make ~name:"Publish.render = sorted one-pattern renderings"
    ~count:50 arb_seed
    (fun seed ->
      let rng = Prng.of_int seed in
      let tax, graphs = random_instance rng in
      let db_size = 120 in
      let pattern g =
        let set = Tsg_util.Bitset.create db_size in
        for i = 0 to Prng.choose rng [| 1; 2; 9; 10; 11; 12; 99; 100; 101 |] - 1 do
          Tsg_util.Bitset.set set i
        done;
        Pattern.make ~db_size g set
      in
      let patterns = List.concat_map (fun g -> [ pattern g; pattern g ]) graphs in
      let epoch_seq = if Prng.bool rng then Some 7L else None in
      String.equal
        (Publish.render ?epoch_seq ~taxonomy:tax ~edge_labels:gen_edge_labels
           ~db_size patterns)
        (render_reference ?epoch_seq ~taxonomy:tax
           ~edge_labels:gen_edge_labels ~db_size patterns))

(* --- Publish.push ---------------------------------------------------------- *)

(* a stub server: one connection at a time, every request line answered
   with [reply]; returns its port and a stop function *)
let reply_stub reply =
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lsock Unix.SO_REUSEADDR true;
  Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lsock 4;
  let port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> Alcotest.fail "inet socket expected"
  in
  let stop = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ lsock ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ :: _, _, _ ->
            let fd, _ = Unix.accept lsock in
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            (try
               ignore (input_line ic);
               output_string oc (reply ^ "\n");
               flush oc
             with End_of_file | Sys_error _ -> ());
            Unix.close fd
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done)
      ()
  in
  ( port,
    fun () ->
      Atomic.set stop true;
      Thread.join server;
      Unix.close lsock )

(* the artifact lives in a directory of its own: atomic writes leave
   transient temp files beside their target *)
let push_to reply ~previous =
  let dir = Filename.temp_dir "tsg_push" "" in
  let artifact = Filename.concat dir "served.pat" in
  Safe_io.write_atomic artifact "new artifact\n";
  let port, stop = reply_stub (reply artifact) in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      rm_f artifact;
      Sys.rmdir dir)
    (fun () ->
      let r =
        Publish.push ~host:Unix.inet_addr_loopback ~port ~artifact ~previous
      in
      (r, read_file artifact))

let test_push_reports_error_code () =
  let r, left =
    push_to (fun _ -> "error RELOAD artifact rejected") ~previous:(Some "old\n")
  in
  (match r with
  | Ok _ -> Alcotest.fail "a refused reload was reported as pushed"
  | Error d ->
    check string "rule" "PIPE002" d.Diagnostic.rule;
    let prefix = "push of " in
    check bool "starts as a push failure" true
      (String.starts_with ~prefix d.Diagnostic.message);
    check bool
      ("the refusal's code is named: " ^ d.Diagnostic.message)
      true
      (List.mem "RELOAD:"
         (String.split_on_char ' ' d.Diagnostic.message)));
  check string "previous artifact restored" "old\n" left;
  let r, _ =
    push_to
      (fun artifact ->
        Printf.sprintf "ok reload patterns 1 checksum %016Lx epoch 0.0"
          (Serve.checksum_files [ artifact ]))
      ~previous:None
  in
  check bool "an ack of the artifact's checksum is a push" true
    (Result.is_ok r)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "pipeline"
    [
      ( "checksum-stream",
        Alcotest.test_case "empty" `Quick test_crc_stream_empty
        :: qsuite [ crc_stream_prop ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "missing file is empty" `Quick
            test_wal_missing_is_empty;
          Alcotest.test_case "torn tail truncated at every cut" `Quick
            test_wal_torn_tail;
          Alcotest.test_case "torn header" `Quick test_wal_torn_header;
          Alcotest.test_case "bad magic/version" `Quick test_wal_bad_magic;
          Alcotest.test_case "mid-log corruption is fatal" `Quick
            test_wal_midlog_corruption;
          Alcotest.test_case "non-monotonic sequences" `Quick
            test_wal_non_monotonic;
          Alcotest.test_case "lint pass (WAL001-WAL003)" `Quick
            test_wal_validate;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "rejections" `Quick test_corpus_rejects;
          Alcotest.test_case "node-index bomb: header line, bounded allocation"
            `Quick test_node_index_bomb;
        ] );
      ( "kill-matrix",
        kill_matrix_tests ~domains:1 @ kill_matrix_tests ~domains:4 );
      ( "incremental",
        [
          Alcotest.test_case "clean commits reuse roots" `Quick
            test_incremental_reuses_roots;
          Alcotest.test_case "cold restart resumes incrementally" `Quick
            test_restart_resumes_incrementally;
          Alcotest.test_case "corrupt state snapshot degrades to full" `Quick
            test_corrupt_state_snapshot_degrades;
          Alcotest.test_case "state snapshot rejects config drift" `Quick
            test_state_snapshot_rejects_config_drift;
          Alcotest.test_case "state snapshot refuses an incomplete prefix"
            `Quick test_state_refuses_incomplete;
          Alcotest.test_case "state snapshot refuses unknown label ids" `Quick
            test_state_refuses_unknown_ids;
          Alcotest.test_case "cached support sets stay exact" `Quick
            test_cached_supports_exact;
        ]
        @ qsuite
            [
              delta_equivalence_prop ~domains:1;
              delta_equivalence_prop ~domains:4;
              snapshot_robustness_prop;
              cached_render_prop;
            ] );
      ( "checkpoint",
        [
          Alcotest.test_case "CKPT003 on a moved corpus" `Quick
            test_checkpoint_rejects_moved_corpus;
        ] );
      ( "publish",
        [
          Alcotest.test_case "push names the server's error code" `Quick
            test_push_reports_error_code;
        ]
        @ qsuite [ render_oracle_prop ] );
    ]
