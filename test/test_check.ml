(* tsg_check: the lint passes, the diagnostics engine, and the
   occurrence-index self check.

   The corruption tests follow one scheme: take a well-formed artifact,
   break exactly one invariant, and assert that the lint run reports
   exactly the matching rule code anchored to the offending file:line. *)

module Prng = Tsg_util.Prng
module Diagnostic = Tsg_util.Diagnostic
module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Synth_taxonomy = Tsg_taxonomy.Synth_taxonomy
module Gspan = Tsg_gspan.Gspan
module Pattern_io = Tsg_core.Pattern_io
module Relabel = Tsg_core.Relabel
module Occ_index = Tsg_core.Occ_index
module Taxogram = Tsg_core.Taxogram
module Synth_graph = Tsg_data.Synth_graph
module Bitset = Tsg_util.Bitset
module Gen_iso = Tsg_iso.Gen_iso
module Pattern = Tsg_core.Pattern
module Store = Tsg_query.Store
module Lint = Tsg_check.Lint
module Check_patterns = Tsg_check.Check_patterns
module Check_cross = Tsg_check.Check_cross

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- harness ---------------------------------------------------------------- *)

let write_tmp suffix content =
  let path = Filename.temp_file "tsgcheck" suffix in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

(* run the full lint driver over throwaway files built from the given
   artifact texts and hand back the collector *)
let lint ?tax ?db ?pat ?(deep = false) () =
  let files = ref [] in
  let mk suffix content =
    let path = write_tmp suffix content in
    files := path :: !files;
    path
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove !files)
    (fun () ->
      let c = Diagnostic.collector () in
      let taxonomy = Option.map (mk ".tax") tax in
      let dbs = match db with None -> [] | Some s -> [ mk ".db" s ] in
      let patterns = match pat with None -> [] | Some s -> [ mk ".pat" s ] in
      ignore (Lint.run c ?taxonomy ~dbs ~patterns ~deep ());
      c)

let rules c =
  String.concat "; "
    (List.map (fun d -> Diagnostic.to_string d) (Diagnostic.items c))

(* the seeded corruption contract: the rule code fires, carries a file,
   and anchors to the expected line *)
let assert_rule ?line c rule =
  match
    List.find_opt (fun d -> d.Diagnostic.rule = rule) (Diagnostic.items c)
  with
  | None -> Alcotest.failf "expected %s among [%s]" rule (rules c)
  | Some d ->
    check bool (rule ^ " carries a file") true (d.Diagnostic.file <> None);
    (match line with
    | Some l ->
      check (Alcotest.option int) (rule ^ " line") (Some l) d.Diagnostic.line
    | None ->
      check bool (rule ^ " carries a line") true (d.Diagnostic.line <> None))

let assert_no_rule c rule =
  if List.exists (fun d -> d.Diagnostic.rule = rule) (Diagnostic.items c) then
    Alcotest.failf "unexpected %s among [%s]" rule (rules c)

(* --- well-formed baselines -------------------------------------------------- *)

let tax_ok = "c root\nc a\nc b\nc x\ni a root\ni b root\ni x root\n"
let db_ok = "t # 0\nv 0 a\nv 1 b\ne 0 1 e0\nt # 1\nv 0 a\nv 1 b\ne 0 1 e0\n"
let pat_ab support = Printf.sprintf "p # 0 support %d/2\nv 0 a\nv 1 b\ne 0 1 e0\n" support

let test_clean_artifacts () =
  let c = lint ~tax:tax_ok ~db:db_ok ~pat:(pat_ab 2) ~deep:true () in
  check int "no findings" 0 (List.length (Diagnostic.items c));
  check int "exit 0" 0 (Diagnostic.exit_code c)

(* --- taxonomy corruptions --------------------------------------------------- *)

let test_tax001_duplicate_decl () =
  let c = lint ~tax:(tax_ok ^ "c a\n") () in
  assert_rule ~line:8 c "TAX001";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_tax002_unknown_concept () =
  let c = lint ~tax:(tax_ok ^ "i zzz root\n") () in
  assert_rule ~line:8 c "TAX002";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_tax003_self_edge () =
  let c = lint ~tax:(tax_ok ^ "i a a\n") () in
  assert_rule ~line:8 c "TAX003";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_tax004_duplicate_edge () =
  let c = lint ~tax:(tax_ok ^ "i a root\n") () in
  assert_rule ~line:8 c "TAX004";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_tax005_cycle () =
  let c = lint ~tax:(tax_ok ^ "i root x\n") () in
  assert_rule c "TAX005";
  check int "exit 2" 2 (Diagnostic.exit_code c);
  (* the witness names a concrete closed is-a walk *)
  let d =
    List.find (fun d -> d.Diagnostic.rule = "TAX005") (Diagnostic.items c)
  in
  check bool "cycle witness" true
    (String.length d.Diagnostic.message > 0
    && String.contains d.Diagnostic.message '>')

let test_tax007_isolated_concept () =
  let c = lint ~tax:"c root\nc a\nc iso\ni a root\n" () in
  assert_rule ~line:3 c "TAX007";
  check int "warning only: exit 1" 1 (Diagnostic.exit_code c)

let test_tax009_syntax () =
  let c = lint ~tax:"c root\nbogus line\n" () in
  assert_rule ~line:2 c "TAX009";
  check int "exit 2" 2 (Diagnostic.exit_code c)

(* --- database corruptions --------------------------------------------------- *)

let test_db001_duplicate_node () =
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 1 b\nv 1 a\ne 0 1 e0\n" () in
  assert_rule ~line:4 c "DB001";
  check int "exit 2" 2 (Diagnostic.exit_code c)

(* every gap in a graph's node ids is its own finding at the graph's 't'
   line, in every graph (the fail-fast parse stops at the first), while a
   stray huge index is one finding, not one per gap *)
let test_db001_missing_nodes () =
  let db = "t # 0\nv 0 a\nv 2 b\ne 0 2 e0\nt # 1\nv 0 a\nv 3 b\ne 0 3 e0\n" in
  let c = lint ~tax:tax_ok ~db () in
  check
    Alcotest.(list (pair (option int) string))
    "three gaps"
    [
      (Some 1, "graph 0: missing node 1");
      (Some 5, "graph 1: missing node 1");
      (Some 5, "graph 1: missing node 2");
    ]
    (List.map
       (fun d ->
         check Alcotest.string "rule" "DB001" d.Diagnostic.rule;
         (d.Diagnostic.line, d.Diagnostic.message))
       (Diagnostic.items c));
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 99999 b\ne 0 99999 e0\n" () in
  check Alcotest.(list string) "one finding for a stray index"
    [ "graph 0: 99998 missing nodes below 99999" ]
    (List.map (fun d -> d.Diagnostic.message) (Diagnostic.items c))

let test_db002_dangling_endpoint () =
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 1 b\ne 0 5 e0\n" () in
  assert_rule ~line:4 c "DB002";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_db003_self_loop () =
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 1 b\ne 0 0 e0\n" () in
  assert_rule ~line:4 c "DB003";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_db004_duplicate_edge () =
  let c =
    lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 1 b\ne 0 1 e0\ne 1 0 e1\n" ()
  in
  assert_rule ~line:5 c "DB004";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_db005_unknown_label () =
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nv 1 zzz\ne 0 1 e0\n" () in
  assert_rule ~line:3 c "DB005";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_db007_bad_line () =
  let c = lint ~tax:tax_ok ~db:"t # 0\nv 0 a\nwhat is this\n" () in
  assert_rule ~line:3 c "DB007";
  check int "exit 2" 2 (Diagnostic.exit_code c)

(* --- pattern-set corruptions ------------------------------------------------ *)

let test_pat001_disconnected () =
  let c = lint ~tax:tax_ok ~pat:"p # 0 support 1/2\nv 0 a\nv 1 b\n" () in
  assert_rule ~line:1 c "PAT001";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_pat002_non_canonical () =
  (* label a precedes b, so the minimum DFS code roots at the a node;
     numbering the b node 0 breaks canonical form *)
  let c = lint ~tax:tax_ok ~pat:"p # 0 support 1/2\nv 0 b\nv 1 a\ne 0 1 e0\n" () in
  assert_rule ~line:1 c "PAT002";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_pat003_duplicate () =
  let c = lint ~tax:tax_ok ~pat:(pat_ab 1 ^ pat_ab 1) () in
  assert_rule ~line:5 c "PAT003";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_pat004_support_monotonicity () =
  (* root-root generalizes a-b, yet records smaller support *)
  let general = "p # 0 support 1/2\nv 0 root\nv 1 root\ne 0 1 e0\n" in
  let c = lint ~tax:tax_ok ~pat:(general ^ pat_ab 2) () in
  assert_rule ~line:1 c "PAT004";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_pat005_over_generalized () =
  (* equal support: the equal-support rule should have eliminated root-root *)
  let general = "p # 0 support 2/2\nv 0 root\nv 1 root\ne 0 1 e0\n" in
  let c = lint ~tax:tax_ok ~pat:(general ^ pat_ab 2) () in
  assert_rule ~line:1 c "PAT005";
  check int "warning only: exit 1" 1 (Diagnostic.exit_code c)

let test_pat006_db_size_mismatch () =
  let other = "p # 1 support 1/3\nv 0 a\nv 1 a\ne 0 1 e0\n" in
  let c = lint ~tax:tax_ok ~pat:(pat_ab 1 ^ other) () in
  assert_rule ~line:5 c "PAT006";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_pat007_unknown_label () =
  let c = lint ~tax:tax_ok ~pat:"p # 0 support 1/2\nv 0 zzz\n" () in
  assert_rule ~line:1 c "PAT007";
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_pat009_syntax () =
  let c = lint ~tax:tax_ok ~pat:"p # 0 support 1/2\nv 0 a\nbogus\n" () in
  assert_rule ~line:3 c "PAT009";
  check int "exit 2" 2 (Diagnostic.exit_code c)

(* --- cross-artifact corruptions --------------------------------------------- *)

let test_x001_unmatchable_pattern () =
  (* x is a taxonomy concept, but nothing in the database specializes it *)
  let c = lint ~tax:tax_ok ~db:db_ok ~pat:"p # 0 support 1/2\nv 0 x\n" () in
  assert_rule ~line:1 c "X001";
  check int "warning only: exit 1" 1 (Diagnostic.exit_code c)

let test_x003_support_mismatch () =
  (* a-b occurs in both graphs, the header claims one *)
  let c = lint ~tax:tax_ok ~db:db_ok ~pat:(pat_ab 1) ~deep:true () in
  assert_rule ~line:1 c "X003";
  check int "exit 2" 2 (Diagnostic.exit_code c);
  (* without --deep the mismatch goes unnoticed (it needs brute force) *)
  assert_no_rule (lint ~tax:tax_ok ~db:db_ok ~pat:(pat_ab 1) ()) "X003"

(* X002: every single-bit corruption of a label index is caught, and
   named at the label it corrupts *)
let test_x002_store_index_flip () =
  let tax = Taxonomy_io.parse tax_ok in
  let id = Taxonomy.id_of_name tax in
  let pat labels edges support =
    Pattern.make ~db_size:2
      (Graph.build ~labels:(Array.map id labels) ~edges)
      (Bitset.of_list 2 (List.init support Fun.id))
  in
  let store =
    Store.build ~taxonomy:tax ~db_size:2
      [
        pat [| "a"; "b" |] [ (0, 1, 0) ] 2;
        pat [| "root"; "root" |] [ (0, 1, 0) ] 2;
        pat [| "x" |] [] 1;
        pat [| "a"; "root"; "b" |] [ (0, 1, 0); (1, 2, 1) ] 1;
      ]
  in
  let findings () =
    let c = Diagnostic.collector () in
    Check_cross.check_store c store;
    Diagnostic.items c
  in
  check int "clean store, no findings" 0 (List.length (findings ()));
  for l = 0 to Taxonomy.label_count tax - 1 do
    List.iter
      (fun (index, set) ->
        let i = l mod Store.size store in
        let flip () =
          if Bitset.mem set i then Bitset.unset set i else Bitset.set set i
        in
        flip ();
        let found = findings () in
        flip ();
        let what = Printf.sprintf "%s flip at %s" index (Taxonomy.name tax l) in
        match found with
        | [ d ] ->
          check Alcotest.string (what ^ ": rule") "X002" d.Diagnostic.rule;
          check Alcotest.string (what ^ ": message")
            (Printf.sprintf "%s index disagrees at label %s" index
               (Taxonomy.name tax l))
            d.Diagnostic.message
        | ds ->
          Alcotest.failf "%s: expected one X002, got [%s]" what
            (String.concat "; " (List.map Diagnostic.to_string ds)))
      [
        ("generalizing", Store.generalizing store l);
        ("mentioning", Store.mentioning store l);
      ]
  done;
  check int "restored store, no findings" 0 (List.length (findings ()))

let test_io001_unreadable () =
  let c = Diagnostic.collector () in
  ignore (Lint.run c ~taxonomy:"/nonexistent/no.tax" ());
  match
    List.find_opt (fun d -> d.Diagnostic.rule = "IO001") (Diagnostic.items c)
  with
  | None -> Alcotest.failf "expected IO001 among [%s]" (rules c)
  | Some d ->
    (* a whole-file failure: named file, no line *)
    check (Alcotest.option Alcotest.string) "file" (Some "/nonexistent/no.tax")
      d.Diagnostic.file;
    check (Alcotest.option int) "no line" None d.Diagnostic.line;
    check int "exit 2" 2 (Diagnostic.exit_code c)

(* --- diagnostics engine ----------------------------------------------------- *)

let test_suppression () =
  let c = Diagnostic.collector ~suppress:[ "TAX007" ] () in
  Diagnostic.emitf c ~rule:"TAX007" Diagnostic.Warning "dropped";
  Diagnostic.emitf c ~rule:"TAX005" Diagnostic.Error "kept";
  check int "kept" 1 (List.length (Diagnostic.items c));
  check int "suppressed" 1 (Diagnostic.suppressed_count c);
  check int "exit 2" 2 (Diagnostic.exit_code c)

let test_rendering () =
  let d =
    Diagnostic.make ~file:"f.tax" ~line:3 ~rule:"TAX005" Diagnostic.Error
      "is-a cycle: a -> b -> a"
  in
  check Alcotest.string "human form"
    "f.tax:3: error [TAX005] is-a cycle: a -> b -> a" (Diagnostic.to_string d);
  check Alcotest.string "machine form"
    "f.tax\t3\terror\tTAX005\tis-a cycle: a -> b -> a"
    (Diagnostic.to_machine d);
  let bare = Diagnostic.make ~rule:"X002" Diagnostic.Warning "w" in
  check Alcotest.string "no location" "warning [X002] w"
    (Diagnostic.to_string bare);
  check Alcotest.string "machine placeholders" "-\t-\twarning\tX002\tw"
    (Diagnostic.to_machine bare)

(* --- generated artifacts lint clean (qcheck) -------------------------------- *)

let arb_seed = QCheck.make QCheck.Gen.(int_bound 1_000_000)

let random_taxonomy rng =
  let concepts = 4 + Prng.int rng 12 in
  Synth_taxonomy.generate rng
    {
      Synth_taxonomy.concepts;
      relationships = concepts + Prng.int rng 6;
      depth = 2 + Prng.int rng 3;
    }

let edge_label_names n = Label.of_names (List.init n (Printf.sprintf "e%d"))

let random_db rng tax =
  Synth_graph.generate rng
    {
      Synth_graph.graph_count = 3 + Prng.int rng 5;
      max_edges = 6;
      edge_density = 0.3;
      edge_label_count = 2;
      node_label = Synth_graph.uniform_labels tax;
    }

let synth_lint_clean_prop =
  QCheck.Test.make ~name:"synth taxonomy + database lint clean" ~count:60
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax = random_taxonomy rng in
      let db = random_db rng tax in
      let c =
        lint
          ~tax:(Taxonomy_io.to_string tax)
          ~db:
            (Serial.db_to_string
               ~node_labels:(Taxonomy.labels tax)
               ~edge_labels:(edge_label_names 2) db)
          ()
      in
      not (Diagnostic.has_errors c))

let miner_output_lint_clean_prop =
  QCheck.Test.make ~name:"tsg-mine output lints clean (deep)" ~count:25
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax = random_taxonomy rng in
      let db = random_db rng tax in
      let r =
        Taxogram.run (Taxogram.Spec.collect ~config:{ Taxogram.min_support = 0.5; max_edges = Some 3; enhancements = Tsg_core.Specialize.all_on; } ())
          tax db
      in
      let edge_labels = edge_label_names 2 in
      let c =
        lint
          ~tax:(Taxonomy_io.to_string tax)
          ~db:
            (Serial.db_to_string
               ~node_labels:(Taxonomy.labels tax)
               ~edge_labels db)
          ~pat:
            (Pattern_io.to_string
               ~node_labels:(Taxonomy.labels tax)
               ~edge_labels ~db_size:(Db.size db) r.Taxogram.patterns)
          ~deep:true ()
      in
      if Diagnostic.has_errors c then
        QCheck.Test.fail_reportf "lint errors: %s" (rules c)
      else true)

(* --- pairwise rules against the all-pairs loop (qcheck) ---------------------- *)

(* A pattern set built so that PAT003..PAT005 all fire: 2-4 base graphs
   on 2-4 nodes with edge labels e0..e2 (one in five on 3-4 nodes is
   disconnected), each followed by variants — an exact duplicate, one or
   two node labels moved to an ancestor or a descendant, one edge
   relabeled, or one edge dropped — all under random supports out of 4,
   in random order. *)
let random_pattern_set rng tax =
  let edge_label () = Prng.int rng 3 in
  let base () =
    let n = 2 + Prng.int rng 3 in
    let labels =
      Array.init n (fun _ -> Prng.int rng (Taxonomy.label_count tax))
    in
    let edges =
      if n >= 3 && Prng.int rng 5 = 0 then
        (* edge 0-1; the other nodes isolated, or nodes 2-3 joined *)
        (0, 1, edge_label ())
        :: (if n = 4 && Prng.bool rng then [ (2, 3, edge_label ()) ] else [])
      else
        let tree =
          List.init (n - 1) (fun v ->
              (Prng.int rng (v + 1), v + 1, edge_label ()))
        in
        let u = Prng.int rng n and v = Prng.int rng n in
        let taken (a, b, _) = (a = u && b = v) || (a = v && b = u) in
        if u <> v && not (List.exists taken tree) then
          (u, v, edge_label ()) :: tree
        else tree
    in
    Graph.build ~labels ~edges
  in
  let variant g =
    let labels = Graph.node_labels g and edges = Graph.edges g in
    let move () =
      let v = Prng.int rng (Array.length labels) in
      let related =
        Bitset.to_list
          ((if Prng.bool rng then Taxonomy.ancestor_set
            else Taxonomy.descendant_set)
             tax labels.(v))
      in
      labels.(v) <- List.nth related (Prng.int rng (List.length related))
    in
    let k = Prng.int rng (Array.length edges) in
    let edges =
      match Prng.int rng 4 with
      | 0 -> Array.to_list edges
      | 1 ->
        move ();
        if Prng.bool rng then move ();
        Array.to_list edges
      | 2 ->
        let u, v, _ = edges.(k) in
        edges.(k) <- (u, v, edge_label ());
        Array.to_list edges
      | _ -> List.filteri (fun i _ -> i <> k) (Array.to_list edges)
    in
    Graph.build ~labels ~edges
  in
  let graphs =
    List.concat_map
      (fun _ ->
        let g = base () in
        g :: List.init (1 + Prng.int rng 3) (fun _ -> variant g))
      (List.init (2 + Prng.int rng 3) Fun.id)
  in
  let patterns =
    Array.of_list
      (List.map
         (fun g ->
           Pattern.make ~db_size:4 g
             (Bitset.of_list 4 (List.init (1 + Prng.int rng 4) Fun.id)))
         graphs)
  in
  Prng.shuffle rng patterns;
  Array.to_list patterns

(* the set written in canonical numbering and parsed back, as lint sees it *)
let located_pattern_set rng =
  let tax = random_taxonomy rng in
  let text =
    Pattern_io.to_string ~node_labels:(Taxonomy.labels tax)
      ~edge_labels:(edge_label_names 3) ~db_size:4
      (random_pattern_set rng tax)
  in
  let node_labels =
    Label.of_names (Array.to_list (Label.names (Taxonomy.labels tax)))
  and edge_labels = edge_label_names 3 in
  let located, _ = Pattern_io.parse_located ~node_labels ~edge_labels text in
  (tax, node_labels, edge_labels, located)

let check_located_findings (tax, node_labels, edge_labels, located) =
  let c = Diagnostic.collector () in
  Check_patterns.check_located c ~taxonomy:tax ~node_labels ~edge_labels
    located;
  Diagnostic.items c

(* the oracle: PAT001, then the pairwise rules tried on every pair of
   equal node and edge counts, in both directions *)
let all_pairs_findings (tax, _, _, located) =
  let c = Diagnostic.collector () in
  let entries =
    Array.of_list
      (List.map
         (fun (l : Pattern_io.located) ->
           (l.Pattern_io.pattern, l.Pattern_io.header_line))
         located)
  in
  let key i =
    let p, _ = entries.(i) in
    if Graph.is_connected p.Pattern.graph then Some (Pattern.key p) else None
  in
  Array.iteri
    (fun i ((p : Pattern.t), line) ->
      if not (Graph.is_connected p.Pattern.graph) then
        Diagnostic.emitf c ~line ~rule:"PAT001" Diagnostic.Error
          "pattern #%d is not connected" i)
    entries;
  let report gen_idx spec_idx =
    let (gen : Pattern.t), line = entries.(gen_idx)
    and (spec : Pattern.t), _ = entries.(spec_idx) in
    if gen.Pattern.support_count < spec.Pattern.support_count then
      Diagnostic.emitf c ~line ~rule:"PAT004" Diagnostic.Error
        "pattern #%d generalizes pattern #%d but records smaller support (%d \
         < %d)"
        gen_idx spec_idx gen.Pattern.support_count spec.Pattern.support_count
    else if gen.Pattern.support_count = spec.Pattern.support_count then
      Diagnostic.emitf c ~line ~rule:"PAT005" Diagnostic.Warning
        "pattern #%d is over-generalized: specialization #%d has equal \
         support %d"
        gen_idx spec_idx gen.Pattern.support_count
  in
  let n = Array.length entries in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let gi = (fst entries.(i)).Pattern.graph
      and gj = (fst entries.(j)).Pattern.graph in
      if
        Graph.node_count gi = Graph.node_count gj
        && Graph.edge_count gi = Graph.edge_count gj
      then
        if key i <> None && key i = key j then
          Diagnostic.emitf c ~line:(snd entries.(j)) ~rule:"PAT003"
            Diagnostic.Error "pattern #%d duplicates pattern #%d" j i
        else if Gen_iso.graph_isomorphic tax gi gj then report i j
        else if Gen_iso.graph_isomorphic tax gj gi then report j i
    done
  done;
  Diagnostic.items c

let pairwise_rules_prop =
  QCheck.Test.make ~name:"pairwise rules = all-pairs gen-iso loop" ~count:100
    arb_seed (fun seed ->
      let set = located_pattern_set (Prng.of_int seed) in
      let render ds = List.map Diagnostic.to_string ds in
      let got = render (check_located_findings set)
      and want = render (all_pairs_findings set) in
      if got = want then true
      else
        QCheck.Test.fail_reportf "check_located:\n%s\nall pairs:\n%s"
          (String.concat "\n" got) (String.concat "\n" want))

(* the generator reaches every pairwise rule, and relates disconnected
   patterns, so the property above is not vacuous *)
let test_pairwise_generator_coverage () =
  let sets =
    List.init 100 (fun seed ->
        all_pairs_findings (located_pattern_set (Prng.of_int seed)))
  in
  let is rule (d : Diagnostic.t) = d.Diagnostic.rule = rule in
  List.iter
    (fun rule ->
      check bool (rule ^ " drawn") true
        (List.exists (List.exists (is rule)) sets))
    [ "PAT003"; "PAT004"; "PAT005" ];
  (* generalized isomorphism keeps connectivity, so a PAT004/PAT005
     anchored on a PAT001 line relates two disconnected patterns *)
  check bool "disconnected patterns related" true
    (List.exists
       (fun ds ->
         List.exists
           (fun d ->
             (is "PAT004" d || is "PAT005" d)
             && List.exists
                  (fun d' ->
                    is "PAT001" d' && d'.Diagnostic.line = d.Diagnostic.line)
                  ds)
           ds)
       sets)

(* --- occurrence-index self check (qcheck) ------------------------------------ *)

let random_instance rng =
  let tax = random_taxonomy rng in
  let nlabels = Taxonomy.label_count tax in
  let graphs =
    List.init
      (2 + Prng.int rng 3)
      (fun _ ->
        let n = 2 + Prng.int rng 3 in
        let labels = Array.init n (fun _ -> Prng.int rng nlabels) in
        let edges = ref [] in
        for v = 1 to n - 1 do
          edges := (v, Prng.int rng v, Prng.int rng 2) :: !edges
        done;
        Graph.build ~labels ~edges:!edges)
  in
  (tax, Db.of_list graphs)

let occ_index_self_check_prop =
  QCheck.Test.make
    ~name:"occ_index self_check agrees with brute-force gen-iso" ~count:40
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let relabeled = Relabel.db tax db in
      let classes = Gspan.mine_list ~max_edges:3 ~min_support:2 relabeled in
      List.for_all
        (fun cls ->
          let oi = Occ_index.build ~taxonomy:tax ~original:db cls in
          match Occ_index.self_check ~taxonomy:tax ~original:db oi with
          | [] -> true
          | problems ->
            QCheck.Test.fail_reportf "self_check: %s"
              (String.concat "; " problems))
        classes)

let occ_index_self_check_filtered_prop =
  QCheck.Test.make ~name:"occ_index self_check honours keep_label" ~count:40
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let keep_label l = l mod 2 = 0 in
      let relabeled = Relabel.db tax db in
      let classes = Gspan.mine_list ~max_edges:3 ~min_support:2 relabeled in
      List.for_all
        (fun cls ->
          let oi = Occ_index.build ~taxonomy:tax ~original:db ~keep_label cls in
          Occ_index.self_check ~taxonomy:tax ~original:db ~keep_label oi = [])
        classes)

(* --- suites ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "check"
    [
      ( "baseline",
        [
          Alcotest.test_case "clean artifacts, zero findings" `Quick
            test_clean_artifacts;
        ] );
      ( "taxonomy corruptions",
        [
          Alcotest.test_case "TAX001 duplicate decl" `Quick
            test_tax001_duplicate_decl;
          Alcotest.test_case "TAX002 unknown concept" `Quick
            test_tax002_unknown_concept;
          Alcotest.test_case "TAX003 self is-a" `Quick test_tax003_self_edge;
          Alcotest.test_case "TAX004 duplicate is-a" `Quick
            test_tax004_duplicate_edge;
          Alcotest.test_case "TAX005 cycle" `Quick test_tax005_cycle;
          Alcotest.test_case "TAX007 isolated concept" `Quick
            test_tax007_isolated_concept;
          Alcotest.test_case "TAX009 syntax" `Quick test_tax009_syntax;
        ] );
      ( "database corruptions",
        [
          Alcotest.test_case "DB001 duplicate node" `Quick
            test_db001_duplicate_node;
          Alcotest.test_case "DB001 missing nodes" `Quick
            test_db001_missing_nodes;
          Alcotest.test_case "DB002 dangling endpoint" `Quick
            test_db002_dangling_endpoint;
          Alcotest.test_case "DB003 self loop" `Quick test_db003_self_loop;
          Alcotest.test_case "DB004 duplicate edge" `Quick
            test_db004_duplicate_edge;
          Alcotest.test_case "DB005 unknown label" `Quick
            test_db005_unknown_label;
          Alcotest.test_case "DB007 bad line" `Quick test_db007_bad_line;
        ] );
      ( "pattern corruptions",
        [
          Alcotest.test_case "PAT001 disconnected" `Quick
            test_pat001_disconnected;
          Alcotest.test_case "PAT002 non-canonical numbering" `Quick
            test_pat002_non_canonical;
          Alcotest.test_case "PAT003 duplicate" `Quick test_pat003_duplicate;
          Alcotest.test_case "PAT004 support monotonicity" `Quick
            test_pat004_support_monotonicity;
          Alcotest.test_case "PAT005 over-generalized" `Quick
            test_pat005_over_generalized;
          Alcotest.test_case "PAT006 db size mismatch" `Quick
            test_pat006_db_size_mismatch;
          Alcotest.test_case "PAT007 unknown label" `Quick
            test_pat007_unknown_label;
          Alcotest.test_case "PAT009 syntax" `Quick test_pat009_syntax;
        ] );
      ( "cross-artifact",
        [
          Alcotest.test_case "X001 unmatchable pattern" `Quick
            test_x001_unmatchable_pattern;
          Alcotest.test_case "X002 store index bit flips" `Quick
            test_x002_store_index_flip;
          Alcotest.test_case "X003 support mismatch (deep)" `Quick
            test_x003_support_mismatch;
          Alcotest.test_case "IO001 unreadable file" `Quick
            test_io001_unreadable;
        ] );
      ( "diagnostics engine",
        [
          Alcotest.test_case "suppression" `Quick test_suppression;
          Alcotest.test_case "rendering" `Quick test_rendering;
        ] );
      ( "properties",
        qsuite
          [
            synth_lint_clean_prop;
            miner_output_lint_clean_prop;
            occ_index_self_check_prop;
            occ_index_self_check_filtered_prop;
          ] );
      ( "pairwise rules",
        Alcotest.test_case "generator reaches every rule" `Quick
          test_pairwise_generator_coverage
        :: qsuite [ pairwise_rules_prop ] );
    ]
