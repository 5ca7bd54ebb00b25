(* Chaos suite: the failpoint framework (Tsg_util.Fault), supervised pool
   runs, checkpoint/resume byte-identity under injected kills, and the
   hardened serve loop. Every test here wires real faults through the real
   seams — no mocks — and asserts the system's recovery contract: partial
   results are canonical prefixes, resumed runs are byte-identical, and
   one poisoned request or task never takes down its run. *)

module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy
module Prng = Tsg_util.Prng
module Pool = Tsg_util.Pool
module Fault = Tsg_util.Fault
module Checksum = Tsg_util.Checksum
module Diagnostic = Tsg_util.Diagnostic
module Safe_io = Tsg_util.Safe_io
module Metrics = Tsg_util.Metrics
module Pattern = Tsg_core.Pattern
module Specialize = Tsg_core.Specialize
module Taxogram = Tsg_core.Taxogram
module Checkpoint = Tsg_core.Checkpoint
module Store = Tsg_query.Store
module Engine = Tsg_query.Engine
module Serve = Tsg_query.Serve

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* every test leaves the global schedule disarmed, whatever happened *)
let with_faults ?seed schedule f =
  Fault.configure ?seed schedule;
  Fun.protect ~finally:Fault.clear f

(* --- Fault framework ------------------------------------------------------- *)

let test_spec_parsing () =
  (match[@warning "-4"] Fault.parse_spec "a:0.25, b:once ,c:@3" with
  | Ok [ ("a", Fault.Probability p); ("b", Fault.Once); ("c", Fault.On_hit 3) ]
    ->
    check (Alcotest.float 1e-9) "probability" 0.25 p
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Fault.parse_spec bad with
      | Ok _ -> Alcotest.fail ("accepted " ^ bad)
      | Error _ -> ())
    [ "a:1.5"; "a:-0.1"; "a"; ":0.5"; "a:@0"; "a:@x"; "a:maybe" ]

let test_disarmed_is_noop () =
  Fault.clear ();
  check bool "disarmed" false (Fault.armed ());
  Fault.inject "anything";
  check int "no hits counted" 0 (Fault.hit_count "anything")

let test_once_and_on_hit () =
  with_faults [ ("s", Fault.Once) ] (fun () ->
      (match Fault.inject "s" with
      | () -> Alcotest.fail "Once did not fire"
      | exception Fault.Injected { site; hit } ->
        check Alcotest.string "site" "s" site;
        check int "hit" 1 hit);
      Fault.inject "s";
      Fault.inject "s";
      check int "fired exactly once" 1 (Fault.fired_count "s");
      check int "hits keep counting" 3 (Fault.hit_count "s"));
  with_faults [ ("s", Fault.On_hit 3) ] (fun () ->
      Fault.inject "s";
      Fault.inject "s";
      (match Fault.inject "s" with
      | () -> Alcotest.fail "On_hit 3 did not fire on hit 3"
      | exception Fault.Injected { hit; _ } -> check int "hit" 3 hit);
      Fault.inject "s";
      check int "fired exactly once" 1 (Fault.fired_count "s"))

let count_fired site n =
  let fired = ref [] in
  for i = 1 to n do
    match Fault.inject site with
    | () -> ()
    | exception Fault.Injected _ -> fired := i :: !fired
  done;
  List.rev !fired

let test_probability_deterministic () =
  let run seed =
    with_faults ~seed [ ("p", Fault.Probability 0.5) ] (fun () ->
        count_fired "p" 200)
  in
  let a = run 7L and b = run 7L and c = run 8L in
  check bool "some fired" true (a <> []);
  check bool "some survived" true (List.length a < 200);
  check bool "same seed, same schedule" true (a = b);
  check bool "different seed, different schedule" true (a <> c);
  with_faults [ ("p", Fault.Probability 0.0) ] (fun () ->
      check (Alcotest.list int) "p=0 never fires" [] (count_fired "p" 100));
  with_faults [ ("p", Fault.Probability 1.0) ] (fun () ->
      check int "p=1 always fires" 100 (List.length (count_fired "p" 100)))

let test_independent_streams () =
  (* a site's firing pattern must not depend on how often other sites are
     hit — that is what makes schedules replay across domain interleavings *)
  let solo =
    with_faults ~seed:11L [ ("x", Fault.Probability 0.4) ] (fun () ->
        count_fired "x" 100)
  in
  let interleaved =
    with_faults ~seed:11L
      [ ("x", Fault.Probability 0.4); ("noise", Fault.Probability 0.9) ]
      (fun () ->
        let fired = ref [] in
        for i = 1 to 100 do
          (try Fault.inject "noise" with Fault.Injected _ -> ());
          (try Fault.inject "noise" with Fault.Injected _ -> ());
          match Fault.inject "x" with
          | () -> ()
          | exception Fault.Injected _ -> fired := i :: !fired
        done;
        List.rev !fired)
  in
  check bool "x's stream unmoved by noise hits" true (solo = interleaved)

let test_env_configuration () =
  Unix.putenv "TSG_FAULTS" "e:once";
  Unix.putenv "TSG_FAULT_SEED" "42";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "TSG_FAULTS" "";
      Fault.clear ())
    (fun () ->
      (match Fault.configure_from_env () with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      check bool "armed from env" true (Fault.armed ());
      (match Fault.inject "e" with
      | () -> Alcotest.fail "env schedule did not fire"
      | exception Fault.Injected _ -> ());
      Unix.putenv "TSG_FAULTS" "bad spec!";
      (match Fault.configure_from_env () with
      | Ok () -> Alcotest.fail "accepted malformed TSG_FAULTS"
      | Error _ -> ());
      Unix.putenv "TSG_FAULTS" "";
      (match Fault.configure_from_env () with
      | Ok () -> check bool "empty env disarms" false (Fault.armed ())
      | Error e -> Alcotest.fail e))

let test_fault_diagnostic () =
  (match Fault.diagnostic (Fault.Injected { site = "s"; hit = 3 }) with
  | Some d -> check Alcotest.string "rule" "FLT001" d.Diagnostic.rule
  | None -> Alcotest.fail "no diagnostic for Injected");
  check bool "other exceptions pass" true
    (Fault.diagnostic (Failure "x") = None)

(* --- Checksum -------------------------------------------------------------- *)

let test_crc32_vector () =
  (* the IEEE 802.3 check value: CRC-32("123456789") *)
  check Alcotest.int32 "known vector" 0xCBF43926l
    (Checksum.crc32 "123456789");
  check bool "empty" true (Checksum.crc32 "" = 0l);
  check bool "order matters" true (Checksum.crc32 "ab" <> Checksum.crc32 "ba")

(* epoch stamps, shard fingerprints and checkpoint fingerprints are these
   exact values: the FNV-1a 64 reference vectors *)
let test_fnv1a64 () =
  check bool "deterministic" true
    (Checksum.fnv1a64 "taxogram" = Checksum.fnv1a64 "taxogram");
  check bool "distinguishes" true
    (Checksum.fnv1a64 "taxogram" <> Checksum.fnv1a64 "taxogran");
  List.iter
    (fun (s, h) ->
      check Alcotest.int64 (Printf.sprintf "fnv1a64 %S" s) h (Checksum.fnv1a64 s))
    [
      ("", 0xcbf29ce484222325L);
      ("a", 0xaf63dc4c8601ec8cL);
      ("foobar", 0x85944171f73967e8L);
    ]

(* the kernels against their textbook definitions: FNV-1a as a fold over
   the bytes, CRC-32 bit by bit with no table *)
let fnv1a64_reference s =
  String.fold_left
    (fun h c ->
      Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001b3L)
    0xcbf29ce484222325L s

let crc32_reference s =
  let crc =
    String.fold_left
      (fun crc c ->
        let crc = ref (Int32.logxor crc (Int32.of_int (Char.code c))) in
        for _ = 0 to 7 do
          crc :=
            if Int32.logand !crc 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !crc 1)
            else Int32.shift_right_logical !crc 1
        done;
        !crc)
      0xFFFFFFFFl s
  in
  Int32.logxor crc 0xFFFFFFFFl

let kernels_prop =
  QCheck.Test.make ~name:"fnv1a64 and crc32 = reference definitions"
    ~count:300
    QCheck.(string_of_size Gen.(int_bound 300))
    (fun s ->
      Int64.equal (Checksum.fnv1a64 s) (fnv1a64_reference s)
      && Int32.equal (Checksum.crc32 s) (crc32_reference s))

(* --- Safe_io --------------------------------------------------------------- *)

(* each torn-write test writes into a fresh directory of its own: other
   suites run in parallel and write atomically into the shared temp
   directory, so only a private one shows what this write left behind *)
let in_fresh_dir f =
  let dir = Filename.temp_dir "tsg_fault" "" in
  let path = Filename.concat dir "artifact.txt" in
  let litter () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) (litter ());
      Sys.rmdir dir)
    (fun () -> f path litter)

let test_write_atomic_survives_fault () =
  in_fresh_dir (fun path litter ->
      Safe_io.write_atomic path "first\n";
      with_faults [ ("safe_io.write", Fault.Once) ] (fun () ->
          match Safe_io.write_atomic path "second\n" with
          | () -> Alcotest.fail "fault did not fire"
          | exception Fault.Injected _ -> ());
      (* the torn write must not have damaged the previous content *)
      check Alcotest.string "old content intact" "first\n"
        (Safe_io.read_file path);
      check (Alcotest.list Alcotest.string) "no temp litter"
        [ Filename.basename path ] (litter ()))

let test_write_atomic_survives_dirsync_fault () =
  in_fresh_dir (fun path litter ->
      Safe_io.write_atomic path "first\n";
      with_faults [ ("safe_io.dirsync", Fault.Once) ] (fun () ->
          match Safe_io.write_atomic path "second\n" with
          | () -> Alcotest.fail "fault did not fire"
          | exception Fault.Injected { site; _ } ->
            check Alcotest.string "fault site" "safe_io.dirsync" site);
      (* the directory fsync comes after the rename: by the time it can
         fail, the new version is already the directory entry — only its
         crash-durability was at risk, never its content *)
      check Alcotest.string "new content already in place" "second\n"
        (Safe_io.read_file path);
      check (Alcotest.list Alcotest.string) "no temp litter"
        [ Filename.basename path ] (litter ());
      (* and the writer stays usable once the fault clears *)
      Safe_io.write_atomic path "third\n";
      check Alcotest.string "subsequent write lands" "third\n"
        (Safe_io.read_file path))

(* --- Supervised pool ------------------------------------------------------- *)

let rule_of = function
  | Ok _ -> "ok"
  | Error d -> d.Diagnostic.rule

let test_transient_retried () =
  let pool = Pool.Exec.create ~domains:2 () in
  let attempts = Array.make 4 0 in
  let task i _ctx =
    attempts.(i) <- attempts.(i) + 1;
    if i = 2 && attempts.(i) < 3 then raise (Pool.Transient "flaky");
    i * 10
  in
  let results = Pool.Exec.run_supervised pool (List.init 4 task) in
  check int "all tasks reported" 4 (List.length results);
  List.iter
    (fun (tid, r) ->
      match[@warning "-4"] (tid, r) with
      | [ i ], Ok v -> check int "value" (i * 10) v
      | _, Error d -> Alcotest.fail (Diagnostic.to_string d)
      | _ -> Alcotest.fail "unexpected id shape")
    results;
  check int "flaky task took 3 attempts" 3 attempts.(2);
  check int "healthy tasks ran once" 1 attempts.(0)

let test_permanent_quarantined () =
  let pool = Pool.Exec.create ~domains:2 () in
  let task i _ctx = if i = 1 then failwith "poisoned" else i in
  let results = Pool.Exec.run_supervised pool (List.init 3 task) in
  check (Alcotest.list Alcotest.string) "one casualty, run completes"
    [ "ok"; "POOL001"; "ok" ]
    (List.map (fun (_, r) -> rule_of r) results)

let test_fail_after_fork_not_retried () =
  let pool = Pool.Exec.create ~domains:2 () in
  let attempts = ref 0 in
  let task ctx =
    incr attempts;
    Pool.fork ctx (fun _ -> 99);
    raise (Pool.Transient "late failure")
  in
  let results = Pool.Exec.run_supervised pool [ task ] in
  (* the forked child is already scheduled under its id: retrying the
     parent would schedule it twice, so one attempt is all it gets *)
  check int "no retry after fork" 1 !attempts;
  check (Alcotest.list Alcotest.string) "parent quarantined, child ran"
    [ "POOL001"; "ok" ]
    (List.map (fun (_, r) -> rule_of r) results);
  match List.assoc [ 0; 0 ] results with
  | Ok v -> check int "child result kept" 99 v
  | Error d -> Alcotest.fail (Diagnostic.to_string d)

let test_deadline_quarantine () =
  let pool = Pool.Exec.create ~domains:2 () in
  let policy =
    { Pool.default_policy with Pool.deadline_s = Some 0.005 }
  in
  let task i ctx =
    if i = 0 then begin
      (* spin past the deadline, polling like a long mining task would *)
      let t0 = Unix.gettimeofday () in
      while Unix.gettimeofday () -. t0 < 0.05 do
        Pool.check_deadline ctx
      done
    end;
    i
  in
  let results = Pool.Exec.run_supervised pool ~policy (List.init 2 task) in
  check (Alcotest.list Alcotest.string) "overrun quarantined as POOL002"
    [ "POOL002"; "ok" ]
    (List.map (fun (_, r) -> rule_of r) results)

let test_inline_children_off_parent_deadline () =
  (* one domain runs each fork inside [Pool.fork]; the children's 120 ms
     must not count against the parent's 100 ms deadline *)
  let pool = Pool.Exec.create ~domains:1 () in
  let policy = { Pool.default_policy with Pool.deadline_s = Some 0.1 } in
  let task ctx =
    for _ = 1 to 2 do
      Pool.fork ctx (fun _ -> Unix.sleepf 0.06)
    done;
    Pool.check_deadline ctx
  in
  let results = Pool.Exec.run_supervised pool ~policy [ task ] in
  check (Alcotest.list Alcotest.string) "parent and children all ok"
    [ "ok"; "ok"; "ok" ]
    (List.map (fun (_, r) -> rule_of r) results)

let test_injected_fault_retried_then_ok () =
  (* pool.task fires once; the default policy treats Injected as
     transient, so the victim retries and the run is casualty-free *)
  with_faults [ ("pool.task", Fault.Once) ] (fun () ->
      let pool = Pool.Exec.create ~domains:2 () in
      let results = Pool.Exec.run_supervised pool (List.init 5 (fun i _ -> i)) in
      check bool "no casualties" true
        (List.for_all (fun (_, r) -> Result.is_ok r) results);
      check int "the fault did fire" 1 (Fault.fired_count "pool.task"))

let test_injected_fault_exhausts_to_flt001 () =
  with_faults [ ("pool.task", Fault.Probability 1.0) ] (fun () ->
      let pool = Pool.Exec.create ~domains:2 () in
      let results = Pool.Exec.run_supervised pool [ (fun _ -> 0) ] in
      match[@warning "-4"] results with
      | [ (_, Error d) ] ->
        check Alcotest.string "injected faults carry FLT001" "FLT001"
          d.Diagnostic.rule
      | _ -> Alcotest.fail "expected a single quarantined task")

(* --- Checkpoint / resume --------------------------------------------------- *)

let config theta =
  { Taxogram.min_support = theta; max_edges = Some 4;
    enhancements = Specialize.all_on }

let random_instance rng =
  let concepts = 4 + Prng.int rng 6 in
  let tax =
    Tsg_taxonomy.Synth_taxonomy.generate rng
      { concepts; relationships = concepts + Prng.int rng 4;
        depth = 2 + Prng.int rng 3 }
  in
  let sampler = Tsg_data.Synth_graph.uniform_labels tax in
  let db =
    Tsg_data.Synth_graph.generate rng
      { Tsg_data.Synth_graph.graph_count = 3 + Prng.int rng 5; max_edges = 6;
        edge_density = 0.3; edge_label_count = 2; node_label = sampler }
  in
  (tax, db)

let fingerprint tax (r : Taxogram.result) =
  let names = Taxonomy.labels tax in
  String.concat "\n"
    (List.map
       (fun (p : Pattern.t) ->
         Printf.sprintf "%d %s" p.Pattern.support_count
           (Pattern.to_string ~names p))
       (Pattern.sort r.Taxogram.patterns))

let temp_ckpt () =
  let path = Filename.temp_file "tsg_ckpt" ".ck" in
  Sys.remove path;
  path

let rm_f path = if Sys.file_exists path then Sys.remove path

(* kill a run at root k via the taxogram.root failpoint, leaving a
   checkpoint on disk; None when the run had fewer than k roots *)
let killed_run ?domains ~cfg ~path ~k tax db =
  with_faults [ ("taxogram.root", Fault.On_hit k) ] (fun () ->
      let checkpoint = { Taxogram.path; every_s = 0.0; corpus_seq = 0L } in
      match Taxogram.run (Taxogram.Spec.collect ~config:cfg ?domains ~checkpoint ()) tax db with
      | r -> Some r
      | exception Fault.Injected _ -> None)

let test_kill_resume_sequential () =
  let rng = Prng.of_int 20260807 in
  let tax, db = random_instance rng in
  let cfg = config 0.34 in
  let full = Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains:1 ()) tax db in
  let path = temp_ckpt () in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      (match killed_run ~domains:1 ~cfg ~path ~k:2 tax db with
      | None -> check bool "checkpoint written" true (Sys.file_exists path)
      | Some _ -> ());
      let resumed =
        Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains:1 ~checkpoint:{ Taxogram.path; every_s = 0.0; corpus_seq = 0L } ()) tax db
      in
      check Alcotest.string "byte-identical to uninterrupted"
        (fingerprint tax full) (fingerprint tax resumed);
      check bool "checkpoint deleted on completion" false
        (Sys.file_exists path))

let test_checkpoint_corruption () =
  let rng = Prng.of_int 99 in
  let tax, db = random_instance rng in
  let cfg = config 0.34 in
  let path = temp_ckpt () in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      ignore (killed_run ~domains:1 ~cfg ~path ~k:1 tax db);
      check bool "checkpoint exists" true (Sys.file_exists path);
      let original = Safe_io.read_file path in
      let expect_code code s =
        Safe_io.write_atomic path s;
        match Checkpoint.load path with
        | _ -> Alcotest.fail ("loaded damaged checkpoint (" ^ code ^ ")")
        | exception Checkpoint.Error d ->
          check Alcotest.string "rule" code d.Diagnostic.rule
      in
      (* bit-flip in the middle *)
      let flipped = Bytes.of_string original in
      let mid = Bytes.length flipped / 2 in
      Bytes.set flipped mid
        (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
      expect_code "CKPT001" (Bytes.to_string flipped);
      (* truncation: a torn tail must read as torn, not as fewer roots *)
      expect_code "CKPT001"
        (String.sub original 0 (String.length original / 2));
      expect_code "CKPT001" "";
      (* intact file still loads *)
      Safe_io.write_atomic path original;
      let ck = Checkpoint.load path in
      check bool "prefix shape" true
        (List.mapi (fun i _ -> i) ck.Checkpoint.entries
        = List.map (fun (e : Checkpoint.entry) -> e.Checkpoint.root)
            ck.Checkpoint.entries);
      (* fingerprint mismatch *)
      match
        Checkpoint.check ~fingerprint:1L
          ~corpus_seq:ck.Checkpoint.corpus_seq
          ~db_size:ck.Checkpoint.db_size
          ~roots_total:ck.Checkpoint.roots_total ck
      with
      | () -> Alcotest.fail "accepted foreign fingerprint"
      | exception Checkpoint.Error d ->
        check Alcotest.string "rule" "CKPT002" d.Diagnostic.rule)

let test_resume_rejects_other_config () =
  let rng = Prng.of_int 512 in
  let tax, db = random_instance rng in
  let path = temp_ckpt () in
  Fun.protect
    ~finally:(fun () -> rm_f path)
    (fun () ->
      ignore (killed_run ~domains:1 ~cfg:(config 0.34) ~path ~k:1 tax db);
      check bool "checkpoint exists" true (Sys.file_exists path);
      (* same path, different theta: the fingerprint must refuse *)
      match
        Taxogram.run (Taxogram.Spec.collect ~config:(config 0.5) ~domains:1 ~checkpoint:{ Taxogram.path; every_s = 0.0; corpus_seq = 0L } ()) tax db
      with
      | _ -> Alcotest.fail "resumed under a different configuration"
      | exception Checkpoint.Error d ->
        check Alcotest.string "rule" "CKPT002" d.Diagnostic.rule)

(* one transient fault on the first root: a supervised run retries the
   task and ends clean, at one domain as at four *)
let test_supervised_root_fault_retried () =
  let rng = Prng.of_int 20260807 in
  let tax, db = random_instance rng in
  let cfg = config 0.34 in
  let clean = Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains:1 ()) tax db in
  check bool "instance has patterns" true (clean.Taxogram.pattern_count > 0);
  List.iter
    (fun domains ->
      let r =
        with_faults [ ("taxogram.root", Fault.On_hit 1) ] (fun () ->
            Taxogram.run
              (Taxogram.Spec.collect ~config:cfg ~domains ~supervised:true ())
              tax db)
      in
      let at what = Printf.sprintf "%s, domains=%d" what domains in
      check bool (at "completed") true r.Taxogram.completed;
      check int (at "no diagnostics") 0 (List.length r.Taxogram.diagnostics);
      check Alcotest.string (at "clean fingerprint") (fingerprint tax clean)
        (fingerprint tax r))
    [ 1; 4 ]

let arb_instance =
  QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) (int_bound 3))

let kill_resume_prop ~domains =
  QCheck.Test.make
    ~name:(Printf.sprintf "kill+resume byte-identical, domains=%d" domains)
    ~count:15 arb_instance
    (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let cfg = config 0.34 in
      let full = Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains ()) tax db in
      let path = temp_ckpt () in
      Fun.protect
        ~finally:(fun () -> rm_f path)
        (fun () ->
          ignore (killed_run ~domains ~cfg ~path ~k:(1 + k) tax db);
          let resumed =
            Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains ~checkpoint:{ Taxogram.path; every_s = 0.0; corpus_seq = 0L } ()) tax db
          in
          fingerprint tax full = fingerprint tax resumed
          && not (Sys.file_exists path)))

(* the one reader inverts the one writer on real mining output: seeds
   (gSpan) or none (level-wise), support sets, coverage and statistics *)
let snapshot_roundtrip_prop =
  QCheck.Test.make ~name:"snapshot round trip: parse (to_string t) = t"
    ~count:30 arb_instance
    (fun (seed, m) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let config = config 0.34 in
      let class_miner = if m land 1 = 0 then `Gspan else `Level_wise in
      let r =
        Taxogram.run
          (Taxogram.Spec.collect ~config ~class_miner ~domains:1 ())
          tax db
      in
      let t =
        {
          Checkpoint.fingerprint = Prng.next_int64 rng;
          params = Taxogram.fingerprint_params ~config ~class_miner;
          corpus_seq = Int64.of_int (Prng.int rng 1000);
          db_size = Db.size db;
          roots_total =
            (match class_miner with
            | `Gspan -> List.length r.Taxogram.root_groups
            | `Level_wise -> -1);
          entries = r.Taxogram.root_groups;
        }
      in
      List.for_all
        (fun (e : Checkpoint.entry) ->
          Option.is_some e.Checkpoint.seed = (class_miner = `Gspan))
        t.Checkpoint.entries
      && Checkpoint.parse ~file:"roundtrip" (Checkpoint.to_string t) = t)

let chaos_supervised_prop =
  (* any probabilistic schedule over the mining failpoints: a supervised
     run always completes, casualties surface as coded diagnostics, and
     surviving patterns are a subset of the clean run with equal supports *)
  QCheck.Test.make ~name:"supervised chaos: complete, coded, subset"
    ~count:15
    (QCheck.make
       QCheck.Gen.(triple (int_bound 1_000_000) (int_bound 2) (int_bound 1)))
    (fun (seed, p_idx, d_idx) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let cfg = config 0.34 in
      let clean = Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains:1 ()) tax db in
      let p = [| 0.0; 0.15; 0.5 |].(p_idx) in
      let domains = [| 1; 4 |].(d_idx) in
      let r =
        with_faults ~seed:(Int64.of_int seed)
          [
            ("pool.task", Fault.Probability p);
            ("taxogram.root", Fault.Probability p);
            ("occ_index.build", Fault.Probability (p /. 2.0));
          ]
          (fun () ->
            Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains ~supervised:true ())
              tax db)
      in
      let coded =
        List.for_all
          (fun (d : Diagnostic.t) ->
            List.mem d.Diagnostic.rule [ "FLT001"; "POOL001"; "POOL002" ])
          r.Taxogram.diagnostics
      in
      let by_key =
        List.map (fun (q : Pattern.t) -> (Pattern.key q, q)) clean.Taxogram.patterns
      in
      let subset =
        List.for_all
          (fun (q : Pattern.t) ->
            match List.assoc_opt (Pattern.key q) by_key with
            | Some full_p ->
              full_p.Pattern.support_count = q.Pattern.support_count
            | None -> false)
          r.Taxogram.patterns
      in
      let complete_when_quiet =
        r.Taxogram.diagnostics <> [] || r.Taxogram.completed
      in
      coded && subset && complete_when_quiet)

(* --- Hardened serve -------------------------------------------------------- *)

let serve_store () =
  let tax =
    Taxonomy.build ~names:[ "a"; "b"; "c" ] ~is_a:[ ("b", "a"); ("c", "a") ]
  in
  let db =
    Db.of_list
      [
        Tsg_graph.Graph.build
          ~labels:[| Taxonomy.id_of_name tax "b"; Taxonomy.id_of_name tax "c" |]
          ~edges:[ (0, 1, 0) ];
        Tsg_graph.Graph.build
          ~labels:[| Taxonomy.id_of_name tax "b"; Taxonomy.id_of_name tax "c" |]
          ~edges:[ (0, 1, 0) ];
      ]
  in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 0.5) ~domains:1 ()) tax db in
  Store.build ~taxonomy:tax ~db_size:2 r.Taxogram.patterns

(* what [Serve.run] serves: [engine] over a snapshot of [edge_labels] *)
let generation engine edge_labels =
  {
    Serve.gen_engine = engine;
    gen_labels = Label.Snapshot.of_table edge_labels;
    gen_checksum = None;
  }

let run_serve ?limits requests =
  let store = serve_store () in
  let edge_labels = Label.of_names [ "e0" ] in
  let metrics = Metrics.create () in
  let engine = Engine.create ~metrics store in
  let req_path = Filename.temp_file "tsg_fault_serve" ".req" in
  let out_path = Filename.temp_file "tsg_fault_serve" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove req_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out req_path in
      output_string oc requests;
      close_out oc;
      let ic = open_in req_path and oc = open_out out_path in
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            close_in ic;
            close_out oc)
          (fun () ->
            Serve.run ~exec:(Tsg_util.Pool.Exec.create ~domains:1 ()) ?limits (generation engine edge_labels) ic oc)
      in
      let ic = open_in out_path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (outcome, text, metrics))

let contains_line text prefix =
  List.exists
    (fun l ->
      String.length l >= String.length prefix
      && String.sub l 0 (String.length prefix) = prefix)
    (String.split_on_char '\n' text)

let test_serve_health () =
  let outcome, text, _ = run_serve "health\nquit\n" in
  check bool "health reply" true (contains_line text "ok health patterns 1");
  check int "both counted" 2 outcome.Serve.requests;
  check bool "clean quit" true outcome.Serve.quit

let test_serve_oversized () =
  let limits = { Serve.default_limits with Serve.max_line_bytes = 32 } in
  let big = "contains " ^ String.concat "," (List.init 40 (fun _ -> "b")) in
  let outcome, text, metrics =
    run_serve ~limits (big ^ "\nhealth\nquit\n")
  in
  check bool "rejected with error" true
    (contains_line text "error OVERSIZED request exceeds 32 bytes");
  check bool "loop survived to health" true
    (contains_line text "ok health");
  check int "errors counted" 1 outcome.Serve.errors;
  check int "metric" 1
    (Metrics.value (Metrics.counter metrics "serve.oversized"))

let test_serve_deadline () =
  let limits =
    { Serve.default_limits with Serve.request_deadline_s = Some 0.0 }
  in
  let outcome, text, metrics =
    run_serve ~limits "contains b,c 0-1/e0\ncontains b,c 0-1/e0\nquit\n"
  in
  check bool "deadline reply" true
    (contains_line text "error DEADLINE deadline exceeded");
  check int "both expired" 2 outcome.Serve.errors;
  check int "metric" 2
    (Metrics.value (Metrics.counter metrics "serve.deadline_expired"))

let test_serve_survives_injected_faults () =
  with_faults [ ("serve.request", Fault.Probability 1.0) ] (fun () ->
      let outcome, text, metrics =
        run_serve "contains b,c 0-1/e0\ntop-k 1 support\nhealth\nquit\n"
      in
      check bool "fault reported per request" true
        (contains_line text "error FAULT injected fault at serve.request");
      check bool "loop survived" true outcome.Serve.quit;
      check int "both data queries failed" 2 outcome.Serve.errors;
      check bool "health barrier unaffected" true
        (contains_line text "ok health");
      check int "metric" 2
        (Metrics.value (Metrics.counter metrics "serve.injected_faults")))

let test_serve_disconnect () =
  (* the peer is a closed channel: every write raises, the loop must end
     with [disconnected] set instead of crashing *)
  let store = serve_store () in
  let edge_labels = Label.of_names [ "e0" ] in
  let metrics = Metrics.create () in
  let engine = Engine.create ~metrics store in
  let req_path = Filename.temp_file "tsg_fault_serve" ".req" in
  let out_path = Filename.temp_file "tsg_fault_serve" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove req_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out req_path in
      output_string oc "contains b,c 0-1/e0\nhealth\nquit\n";
      close_out oc;
      let ic = open_in req_path in
      let oc = open_out out_path in
      close_out oc;
      let outcome =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Serve.run ~exec:(Tsg_util.Pool.Exec.create ~domains:1 ()) (generation engine edge_labels) ic oc)
      in
      check bool "disconnect detected" true outcome.Serve.disconnected;
      check int "metric" 1
        (Metrics.value (Metrics.counter metrics "serve.disconnects")))

(* --- TCP mode -------------------------------------------------------------- *)

let with_listener ?max_conns f =
  let store = serve_store () in
  let edge_labels = Label.of_names [ "e0" ] in
  let metrics = Metrics.create () in
  let engine = Engine.create ~metrics store in
  let stop = Atomic.make false in
  let port = Atomic.make 0 in
  let server =
    Thread.create
      (fun () ->
        Serve.listen ?max_conns ~drain_s:2.0
          ~on_listen:(fun p -> Atomic.set port p)
          ~should_stop:(fun () -> Atomic.get stop)
          {
            Serve.gen_engine = engine;
            gen_labels = Label.Snapshot.of_table edge_labels;
            gen_checksum = None;
          }
          ~port:0 ())
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  check bool "listener came up" true (Atomic.get port <> 0);
  let result =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () -> f (Atomic.get port))
  in
  (result, Thread.join server)

let tcp_request port lines =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      output_string oc lines;
      flush oc;
      (* a load-shed peer may have hung up already: ENOTCONN is fine *)
      (try Unix.shutdown fd Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ -> ());
      let buf = Buffer.create 256 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      Buffer.contents buf)

let test_tcp_roundtrip () =
  let text, () =
    with_listener (fun port -> tcp_request port "health\nquit\n")
  in
  check bool "served over tcp" true (contains_line text "ok health patterns 1")

let test_tcp_overloaded () =
  (* max_conns = 0: every connection is load-shed with OVERLOADED *)
  let text, () =
    with_listener ~max_conns:0 (fun port -> tcp_request port "health\n")
  in
  check Alcotest.string "shed reply" "OVERLOADED\n" text

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Fault.clear ();
  Alcotest.run "fault"
    [
      ( "failpoints",
        [
          Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "disarmed is a no-op" `Quick test_disarmed_is_noop;
          Alcotest.test_case "once and on-hit triggers" `Quick
            test_once_and_on_hit;
          Alcotest.test_case "probability is seed-deterministic" `Quick
            test_probability_deterministic;
          Alcotest.test_case "per-site streams are independent" `Quick
            test_independent_streams;
          Alcotest.test_case "TSG_FAULTS environment" `Quick
            test_env_configuration;
          Alcotest.test_case "FLT001 diagnostic" `Quick test_fault_diagnostic;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "crc32 known vector" `Quick test_crc32_vector;
          Alcotest.test_case "fnv1a64" `Quick test_fnv1a64;
        ]
        @ qsuite [ kernels_prop ] );
      ( "safe_io",
        [
          Alcotest.test_case "atomic write survives a torn write" `Quick
            test_write_atomic_survives_fault;
          Alcotest.test_case "atomic write survives a torn directory fsync"
            `Quick test_write_atomic_survives_dirsync_fault;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "transient failures retried" `Quick
            test_transient_retried;
          Alcotest.test_case "permanent failures quarantined" `Quick
            test_permanent_quarantined;
          Alcotest.test_case "no retry after fork" `Quick
            test_fail_after_fork_not_retried;
          Alcotest.test_case "deadline overrun is POOL002" `Quick
            test_deadline_quarantine;
          Alcotest.test_case "one domain: inline children off the deadline"
            `Quick test_inline_children_off_parent_deadline;
          Alcotest.test_case "injected fault retried to success" `Quick
            test_injected_fault_retried_then_ok;
          Alcotest.test_case "exhausted injections carry FLT001" `Quick
            test_injected_fault_exhausts_to_flt001;
          Alcotest.test_case
            "supervised one-domain run retries a transient root fault" `Quick
            test_supervised_root_fault_retried;
        ] );
      ( "checkpoint",
        Alcotest.test_case "kill and resume, sequential" `Quick
          test_kill_resume_sequential
        :: Alcotest.test_case "corruption detection" `Quick
             test_checkpoint_corruption
        :: Alcotest.test_case "config mismatch refused" `Quick
             test_resume_rejects_other_config
        :: qsuite
             [
               kill_resume_prop ~domains:1;
               kill_resume_prop ~domains:4;
               chaos_supervised_prop;
               snapshot_roundtrip_prop;
             ] );
      ( "serve",
        [
          Alcotest.test_case "health verb" `Quick test_serve_health;
          Alcotest.test_case "oversized request bounded" `Quick
            test_serve_oversized;
          Alcotest.test_case "request deadline" `Quick test_serve_deadline;
          Alcotest.test_case "loop survives injected faults" `Quick
            test_serve_survives_injected_faults;
          Alcotest.test_case "peer disconnect is clean" `Quick
            test_serve_disconnect;
          Alcotest.test_case "tcp round-trip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "tcp load shedding" `Quick test_tcp_overloaded;
        ] );
    ]
