module Label = Tsg_graph.Label
module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Serial = Tsg_graph.Serial

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let flt = Alcotest.float 1e-9

(* --- Label --------------------------------------------------------------- *)

let test_label_intern () =
  let t = Label.create () in
  let a = Label.intern t "alpha" in
  let b = Label.intern t "beta" in
  check int "first id" 0 a;
  check int "second id" 1 b;
  check int "re-intern stable" a (Label.intern t "alpha");
  check int "size" 2 (Label.size t);
  check Alcotest.string "name" "beta" (Label.name t b);
  check (Alcotest.option int) "find" (Some 0) (Label.find t "alpha");
  check (Alcotest.option int) "find missing" None (Label.find t "gamma");
  check bool "mem" true (Label.mem t "alpha")

let test_label_find_exn () =
  let t = Label.of_names [ "x"; "y" ] in
  check int "find_exn" 1 (Label.find_exn t "y");
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Label.find_exn t "z"))

let test_label_of_names_dup () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Label.of_names: duplicate name a") (fun () ->
      ignore (Label.of_names [ "a"; "b"; "a" ]))

let test_label_name_bounds () =
  let t = Label.of_names [ "a" ] in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Label.name: id 5 out of range") (fun () ->
      ignore (Label.name t 5))

let test_label_growth () =
  let t = Label.create () in
  for i = 0 to 99 do
    ignore (Label.intern t (string_of_int i))
  done;
  check int "hundred labels" 100 (Label.size t);
  check Alcotest.string "lookup survives growth" "57" (Label.name t 57);
  check int "names array length" 100 (Array.length (Label.names t))

(* --- Graph --------------------------------------------------------------- *)

let path3 () =
  (* 0:a - 1:b - 2:c with edge labels 7, 8 *)
  Graph.build ~labels:[| 0; 1; 2 |] ~edges:[ (0, 1, 7); (1, 2, 8) ]

let triangle () =
  Graph.build ~labels:[| 0; 0; 1 |] ~edges:[ (0, 1, 0); (1, 2, 0); (0, 2, 0) ]

let test_graph_basics () =
  let g = path3 () in
  check int "nodes" 3 (Graph.node_count g);
  check int "edges" 2 (Graph.edge_count g);
  check int "label" 1 (Graph.node_label g 1);
  check int "degree mid" 2 (Graph.degree g 1);
  check int "degree end" 1 (Graph.degree g 0);
  check bool "has edge" true (Graph.has_edge g 1 0);
  check bool "no edge" false (Graph.has_edge g 0 2);
  check (Alcotest.option int) "edge label" (Some 8) (Graph.edge_label g 2 1);
  check (Alcotest.option int) "missing edge label" None (Graph.edge_label g 0 2)

let test_graph_build_validation () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.build: self loop at node 0") (fun () ->
      ignore (Graph.build ~labels:[| 0 |] ~edges:[ (0, 0, 0) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.build: duplicate edge (1,0)") (fun () ->
      ignore (Graph.build ~labels:[| 0; 1 |] ~edges:[ (0, 1, 0); (1, 0, 3) ]));
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.build: edge (0,5) out of range [0,2)") (fun () ->
      ignore (Graph.build ~labels:[| 0; 1 |] ~edges:[ (0, 5, 0) ]))

let test_graph_edges_normalized () =
  let g = Graph.build ~labels:[| 0; 1; 2 |] ~edges:[ (2, 0, 5); (1, 0, 6) ] in
  check
    (Alcotest.list (Alcotest.triple int int int))
    "sorted, fst<snd"
    [ (0, 1, 6); (0, 2, 5) ]
    (Array.to_list (Graph.edges g))

let test_graph_neighbors_symmetric () =
  let g = triangle () in
  let n0 = Array.to_list (Graph.neighbors g 0) in
  check bool "0 sees 1 and 2" true (List.mem (1, 0) n0 && List.mem (2, 0) n0);
  let n2 = Array.to_list (Graph.neighbors g 2) in
  check bool "2 sees 0 and 1" true (List.mem (0, 0) n2 && List.mem (1, 0) n2)

let test_graph_density () =
  let g = triangle () in
  check flt "triangle density" (2.0 *. 3.0 /. 9.0) (Graph.edge_density g);
  check flt "empty density" 0.0 (Graph.edge_density Graph.empty)

let test_graph_connectivity () =
  check bool "empty connected" true (Graph.is_connected Graph.empty);
  check bool "single connected" true
    (Graph.is_connected (Graph.build ~labels:[| 0 |] ~edges:[]));
  check bool "path connected" true (Graph.is_connected (path3 ()));
  let disconnected =
    Graph.build ~labels:[| 0; 1; 2; 3 |] ~edges:[ (0, 1, 0); (2, 3, 0) ]
  in
  check bool "two components" false (Graph.is_connected disconnected);
  check
    (Alcotest.list (Alcotest.list int))
    "component membership"
    [ [ 0; 1 ]; [ 2; 3 ] ]
    (Graph.connected_components disconnected)

let test_graph_relabel () =
  let g = path3 () in
  let g' = Graph.relabel g (fun v -> 10 + Graph.node_label g v) in
  check int "relabeled" 11 (Graph.node_label g' 1);
  check int "structure kept" 2 (Graph.edge_count g');
  check int "original untouched" 1 (Graph.node_label g 1)

let test_graph_induced () =
  let g = triangle () in
  let sub, mapping = Graph.induced g [ 0; 2 ] in
  check int "sub nodes" 2 (Graph.node_count sub);
  check int "sub edges" 1 (Graph.edge_count sub);
  check (Alcotest.array int) "mapping" [| 0; 2 |] mapping;
  check int "labels follow" 1 (Graph.node_label sub 1);
  Alcotest.check_raises "dup node"
    (Invalid_argument "Graph.induced: duplicate node") (fun () ->
      ignore (Graph.induced g [ 0; 0 ]))

let test_graph_distinct_labels () =
  let g = Graph.build ~labels:[| 3; 1; 3; 2 |] ~edges:[ (0, 1, 0) ] in
  check (Alcotest.list int) "sorted unique" [ 1; 2; 3 ]
    (Graph.distinct_node_labels g)

let test_graph_fold_edges () =
  let g = triangle () in
  let total = Graph.fold_edges (fun _ _ _ acc -> acc + 1) g 0 in
  check int "fold counts edges" 3 total

let test_graph_equal () =
  check bool "equal" true (Graph.equal (path3 ()) (path3 ()));
  let other =
    Graph.build ~labels:[| 0; 1; 9 |] ~edges:[ (0, 1, 7); (1, 2, 8) ]
  in
  check bool "label differs" false (Graph.equal (path3 ()) other)

(* --- Db ------------------------------------------------------------------ *)

let sample_db () = Db.of_list [ path3 (); triangle () ]

let test_db_stats () =
  let db = sample_db () in
  check int "size" 2 (Db.size db);
  check flt "avg nodes" 3.0 (Db.avg_nodes db);
  check flt "avg edges" 2.5 (Db.avg_edges db);
  check int "distinct labels" 3 (Db.distinct_label_count db);
  check (Alcotest.list int) "labels" [ 0; 1; 2 ] (Db.distinct_labels db);
  check (Alcotest.list int) "edge labels" [ 0; 7; 8 ]
    (Db.distinct_edge_labels db);
  check int "max nodes" 3 (Db.max_graph_nodes db);
  check int "max edges" 3 (Db.max_graph_edges db);
  let s = Db.statistics db in
  check int "stat graphs" 2 s.Db.graphs

let test_db_threshold () =
  let db = Db.of_list (List.init 10 (fun _ -> path3 ())) in
  check int "theta 0.2" 2 (Db.support_count_to_threshold db 0.2);
  check int "theta 1.0" 10 (Db.support_count_to_threshold db 1.0);
  check int "theta 0 gives 1" 1 (Db.support_count_to_threshold db 0.0);
  check int "theta 0.15 ceil" 2 (Db.support_count_to_threshold db 0.15);
  Alcotest.check_raises "theta > 1"
    (Invalid_argument "Db.support_count_to_threshold: theta outside [0,1]")
    (fun () -> ignore (Db.support_count_to_threshold db 1.5))

let test_db_map_fold () =
  let db = sample_db () in
  let db' = Db.map (fun g -> Graph.relabel g (fun _ -> 0)) db in
  check int "map keeps size" 2 (Db.size db');
  check int "map applied" 1 (Db.distinct_label_count db');
  let nodes = Db.fold (fun acc g -> acc + Graph.node_count g) 0 db in
  check int "fold" 6 nodes;
  let ids = ref [] in
  Db.iteri (fun i _ -> ids := i :: !ids) db;
  check (Alcotest.list int) "iteri order" [ 0; 1 ] (List.rev !ids)

let test_db_empty () =
  let db = Db.of_list [] in
  check flt "avg nodes 0" 0.0 (Db.avg_nodes db);
  check flt "density 0" 0.0 (Db.avg_edge_density db);
  check int "distinct" 0 (Db.distinct_label_count db)

(* --- Serial -------------------------------------------------------------- *)

let test_serial_roundtrip () =
  let node_labels = Label.of_names [ "a"; "b"; "c" ] in
  let edge_labels = Label.of_names [ "x"; "y" ] in
  let g1 = Graph.build ~labels:[| 0; 1 |] ~edges:[ (0, 1, 0) ] in
  let g2 = Graph.build ~labels:[| 2; 2; 0 |] ~edges:[ (0, 1, 1); (1, 2, 0) ] in
  let db = Db.of_list [ g1; g2 ] in
  let text = Serial.db_to_string ~node_labels ~edge_labels db in
  let db' = Serial.parse_db ~node_labels ~edge_labels text in
  check int "size" 2 (Db.size db');
  check bool "g1 equal" true (Graph.equal (Db.get db' 0) g1);
  check bool "g2 equal" true (Graph.equal (Db.get db' 1) g2)

let test_serial_new_labels_interned () =
  let node_labels = Label.create () in
  let edge_labels = Label.create () in
  let db =
    Serial.parse_db ~node_labels ~edge_labels
      "t # 0\nv 0 enzyme\nv 1 carrier\ne 0 1 bond\n"
  in
  check int "parsed one graph" 1 (Db.size db);
  check bool "node labels interned" true (Label.mem node_labels "carrier");
  check bool "edge labels interned" true (Label.mem edge_labels "bond")

let test_serial_errors () =
  let nl = Label.create () and el = Label.create () in
  let expect_err text =
    match Serial.parse_db ~node_labels:nl ~edge_labels:el text with
    | exception Serial.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect_err "v 0 a\n";
  expect_err "t # 0\ne 0 1 z\n";
  expect_err "t # 0\nv 0 a\nv 0 b\n";
  expect_err "t # 0\nv 0 a\nnonsense line\n";
  expect_err "t # 0\nv 0 a\nv 1 b\ne 0 0 x\n"

let test_serial_comments_and_blanks () =
  let nl = Label.create () and el = Label.create () in
  let db =
    Serial.parse_db ~node_labels:nl ~edge_labels:el
      "# comment\n\nt # 0\nv 0 a\n\n# more\nv 1 b\ne 0 1 x\n"
  in
  check int "one graph" 1 (Db.size db);
  check int "two nodes" 2 (Graph.node_count (Db.get db 0))

let test_serial_file_roundtrip () =
  let nl = Label.of_names [ "n" ] and el = Label.of_names [ "e" ] in
  let db = Db.of_list [ Graph.build ~labels:[| 0; 0 |] ~edges:[ (0, 1, 0) ] ] in
  let path = Filename.temp_file "tsg_test" ".db" in
  Serial.save_db path ~node_labels:nl ~edge_labels:el db;
  let db' = Serial.load_db ~node_labels:nl ~edge_labels:el path in
  Sys.remove path;
  check bool "file roundtrip" true (Graph.equal (Db.get db 0) (Db.get db' 0))

(* --- Serial: directed -------------------------------------------------------- *)

let test_serial_directed_roundtrip () =
  let nl = Label.of_names [ "k"; "t" ] and al = Label.of_names [ "act"; "inh" ] in
  let d1 =
    Tsg_graph.Digraph.build ~labels:[| 0; 1 |] ~arcs:[ (0, 1, 0); (1, 0, 1) ]
  in
  let d2 = Tsg_graph.Digraph.build ~labels:[| 1; 0; 0 |] ~arcs:[ (2, 0, 1) ] in
  let text = Serial.digraphs_to_string ~node_labels:nl ~arc_labels:al [ d1; d2 ] in
  match Serial.parse_digraphs ~node_labels:nl ~arc_labels:al text with
  | [ d1'; d2' ] ->
    check bool "d1 roundtrip" true (Tsg_graph.Digraph.equal d1 d1');
    check bool "d2 roundtrip" true (Tsg_graph.Digraph.equal d2 d2')
  | _ -> Alcotest.fail "expected two digraphs"

let test_serial_directed_rejects_edges () =
  let nl = Label.create () and al = Label.create () in
  match
    Serial.parse_digraphs ~node_labels:nl ~arc_labels:al
      "t # 0\nv 0 a\nv 1 b\ne 0 1 x\n"
  with
  | exception Serial.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error on 'e' line"

let test_serial_directed_file_roundtrip () =
  let nl = Label.of_names [ "n" ] and al = Label.of_names [ "a" ] in
  let d = Tsg_graph.Digraph.build ~labels:[| 0; 0 |] ~arcs:[ (1, 0, 0) ] in
  let path = Filename.temp_file "tsg_test" ".ddb" in
  Serial.save_digraphs path ~node_labels:nl ~arc_labels:al [ d ];
  let loaded = Serial.load_digraphs ~node_labels:nl ~arc_labels:al path in
  Sys.remove path;
  check bool "file roundtrip" true
    (match loaded with [ d' ] -> Tsg_graph.Digraph.equal d d' | _ -> false)

(* --- Serial: the readers agree ------------------------------------------- *)

let parse_outcome f =
  match f () with
  | _ -> None
  | exception Serial.Parse_error (line, msg) -> Some (line, msg)

(* each kind of bad line: the fail-fast readers raise, and the collecting
   reader records, the same message at the same line. In a case's text,
   "E" stands for the file's own edge keyword ('e', or 'a' when directed). *)
let test_serial_bad_lines_agree () =
  let cases =
    [
      ("node before any header", "# c\n\nv 0 n\n",
       Some (3, "'v' before any 't' header"),
       Some (3, "'v' before any 't' header"));
      ("edge before any header", "E 0 1 x\nt # 0\n",
       Some (1, "'e' before any 't' header"),
       Some (1, "'a' before any 't' header"));
      ("bad node index", "t # 0\nv q n\n", Some (2, "bad node index q"),
       Some (2, "bad node index q"));
      ("bad endpoints", "t # 0\nv 0 n\nv 1 n\nE 0 q x\n",
       Some (4, "bad edge endpoints"), Some (4, "bad arc endpoints"));
      ("unrecognized", "t # 0\nv 0 n extra\n",
       Some (2, "unrecognized line: v 0 n extra"),
       Some (2, "unrecognized line: v 0 n extra"));
      ("'e' line in a directed file", "t # 0\nv 0 n\nv 1 n\ne 0 1 x\n", None,
       Some (4, "'e' line in a directed database (expected 'a')"));
      ("'a' line in an undirected file", "t # 0\nv 0 n\nv 1 n\na 0 1 x\n",
       Some (4, "unrecognized line: a 0 1 x"), None);
    ]
  in
  let outcome = Alcotest.(option (pair int string)) in
  List.iter
    (fun (kind, text, undirected, directed) ->
      let with_keyword k = String.concat k (String.split_on_char 'E' text) in
      let nl = Label.create () and el = Label.create () in
      let text_e = with_keyword "e" and text_a = with_keyword "a" in
      check outcome (kind ^ ": parse_db") undirected
        (parse_outcome (fun () ->
             Serial.parse_db ~node_labels:nl ~edge_labels:el text_e));
      check outcome (kind ^ ": parse_db_raw") undirected
        (List.nth_opt (Serial.parse_db_raw text_e).Serial.bad_lines 0);
      check outcome (kind ^ ": parse_digraphs") directed
        (parse_outcome (fun () ->
             Serial.parse_digraphs ~node_labels:nl ~arc_labels:el text_a)))
    cases

(* a malformed graph is reported at its own 't' line, not at the line that
   closed it (the next header, or past the end of the file) *)
let test_serial_graph_errors_at_header () =
  let nl = Label.create () and el = Label.create () in
  let outcome = Alcotest.(option (pair int string)) in
  let undirected what expected text =
    check outcome what (Some expected)
      (parse_outcome (fun () ->
           Serial.parse_db ~node_labels:nl ~edge_labels:el text))
  in
  undirected "missing node, next graph follows" (1, "missing node 1")
    "t # 0\nv 0 a\nv 2 b\ne 0 2 x\nt # 1\nv 0 a\n";
  undirected "missing node, last graph" (5, "missing node 1")
    "t # 0\nv 0 a\nv 1 b\ne 0 1 x\nt # 1\nv 0 a\nv 2 b\ne 0 2 x\n";
  undirected "duplicate node" (2, "duplicate node 0")
    "# c\nt # 0\nv 0 a\nv 0 b\n\nt # 1\n";
  undirected "refused by Graph.build" (1, "Graph.build: self loop at node 1")
    "t # 0\nv 0 a\nv 1 b\ne 0 1 x\ne 1 1 x\n";
  check outcome "refused by Digraph.build"
    (Some (3, "Digraph.build: duplicate arc (0,1)"))
    (parse_outcome (fun () ->
         Serial.parse_digraphs ~node_labels:nl ~arc_labels:el
           "t # 0\nv 0 a\nt # 1\nv 0 a\nv 1 b\na 0 1 x\na 0 1 y\n"))

(* --- Dot ------------------------------------------------------------------ *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_dot_render () =
  let nl = Label.of_names [ "enzyme"; "carrier" ] in
  let el = Label.of_names [ "binds" ] in
  let g = Graph.build ~labels:[| 0; 1 |] ~edges:[ (0, 1, 0) ] in
  let dot = Tsg_graph.Dot.graph ~name:"demo" ~node_labels:nl ~edge_labels:el g in
  check bool "graph block" true (contains dot "graph \"demo\" {");
  check bool "node names" true (contains dot "label=\"carrier\"");
  check bool "edge names" true (contains dot "n0 -- n1 [label=\"binds\"]");
  let bare = Tsg_graph.Dot.graph g in
  check bool "numeric fallback" true (contains bare "label=\"1\"")

let test_dot_escaping () =
  let nl = Label.of_names [ "say \"hi\"" ] in
  let g = Graph.build ~labels:[| 0 |] ~edges:[] in
  let dot = Tsg_graph.Dot.graph ~node_labels:nl g in
  check bool "quotes escaped" true (contains dot "say \\\"hi\\\"")

(* --- properties ---------------------------------------------------------- *)

let random_graph_gen =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    array_size (return n) (int_bound 4) >>= fun labels ->
    let all_pairs =
      List.concat (List.init n (fun u -> List.init u (fun v -> (u, v))))
    in
    let pick_edges =
      List.fold_left
        (fun acc (u, v) ->
          acc >>= fun acc ->
          bool >>= fun keep ->
          if not keep then return acc
          else int_bound 2 >>= fun l -> return ((u, v, l) :: acc))
        (return []) all_pairs
    in
    pick_edges >>= fun edges -> return (Graph.build ~labels ~edges))

let arb_graph = QCheck.make random_graph_gen

let graph_invariants_prop =
  QCheck.Test.make ~name:"graph invariants" ~count:300 arb_graph (fun g ->
      let n = Graph.node_count g in
      let degree_sum =
        List.init n (fun v -> Graph.degree g v) |> List.fold_left ( + ) 0
      in
      degree_sum = 2 * Graph.edge_count g
      && Array.for_all
           (fun (u, v, l) ->
             u < v
             && Graph.has_edge g u v && Graph.has_edge g v u
             && Graph.edge_label g u v = Some l)
           (Graph.edges g)
      && List.fold_left ( + ) 0
           (List.map List.length (Graph.connected_components g))
         = n)

let induced_full_prop =
  QCheck.Test.make ~name:"induced over all nodes is identity" ~count:200
    arb_graph (fun g ->
      let nodes = List.init (Graph.node_count g) (fun i -> i) in
      let sub, _ = Graph.induced g nodes in
      Graph.equal sub g)

let serial_roundtrip_prop =
  QCheck.Test.make ~name:"serialization roundtrip" ~count:200 arb_graph
    (fun g ->
      let nl = Label.create () and el = Label.create () in
      for i = 0 to 9 do
        ignore (Label.intern nl (Printf.sprintf "n%d" i));
        ignore (Label.intern el (Printf.sprintf "e%d" i))
      done;
      let db = Db.of_list [ g ] in
      let text = Serial.db_to_string ~node_labels:nl ~edge_labels:el db in
      let db' = Serial.parse_db ~node_labels:nl ~edge_labels:el text in
      Graph.equal (Db.get db' 0) g)

(* parsers must reject garbage with Parse_error, never crash otherwise *)
let parser_fuzz_prop =
  QCheck.Test.make ~name:"serial parsers never crash on garbage" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_bound 80) QCheck.Gen.printable)
    (fun text ->
      let nl = Label.create () and el = Label.create () in
      let ok_undirected =
        match Serial.parse_db ~node_labels:nl ~edge_labels:el text with
        | _ -> true
        | exception Serial.Parse_error _ -> true
      in
      let ok_directed =
        match Serial.parse_digraphs ~node_labels:nl ~arc_labels:el text with
        | _ -> true
        | exception Serial.Parse_error _ -> true
      in
      ok_undirected && ok_directed)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "graph"
    [
      ( "label",
        [
          Alcotest.test_case "intern" `Quick test_label_intern;
          Alcotest.test_case "find_exn" `Quick test_label_find_exn;
          Alcotest.test_case "of_names dup" `Quick test_label_of_names_dup;
          Alcotest.test_case "name bounds" `Quick test_label_name_bounds;
          Alcotest.test_case "growth" `Quick test_label_growth;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "validation" `Quick test_graph_build_validation;
          Alcotest.test_case "normalized edges" `Quick
            test_graph_edges_normalized;
          Alcotest.test_case "neighbors symmetric" `Quick
            test_graph_neighbors_symmetric;
          Alcotest.test_case "density" `Quick test_graph_density;
          Alcotest.test_case "connectivity" `Quick test_graph_connectivity;
          Alcotest.test_case "relabel" `Quick test_graph_relabel;
          Alcotest.test_case "induced" `Quick test_graph_induced;
          Alcotest.test_case "distinct labels" `Quick
            test_graph_distinct_labels;
          Alcotest.test_case "fold edges" `Quick test_graph_fold_edges;
          Alcotest.test_case "equal" `Quick test_graph_equal;
        ]
        @ qsuite [ graph_invariants_prop; induced_full_prop ] );
      ( "db",
        [
          Alcotest.test_case "statistics" `Quick test_db_stats;
          Alcotest.test_case "support threshold" `Quick test_db_threshold;
          Alcotest.test_case "map/fold/iteri" `Quick test_db_map_fold;
          Alcotest.test_case "empty db" `Quick test_db_empty;
        ] );
      ( "serial",
        [
          Alcotest.test_case "roundtrip" `Quick test_serial_roundtrip;
          Alcotest.test_case "interning" `Quick test_serial_new_labels_interned;
          Alcotest.test_case "errors" `Quick test_serial_errors;
          Alcotest.test_case "comments/blanks" `Quick
            test_serial_comments_and_blanks;
          Alcotest.test_case "file roundtrip" `Quick test_serial_file_roundtrip;
          Alcotest.test_case "directed roundtrip" `Quick
            test_serial_directed_roundtrip;
          Alcotest.test_case "directed rejects edges" `Quick
            test_serial_directed_rejects_edges;
          Alcotest.test_case "directed file roundtrip" `Quick
            test_serial_directed_file_roundtrip;
          Alcotest.test_case "readers agree on bad lines" `Quick
            test_serial_bad_lines_agree;
          Alcotest.test_case "graph errors at the header" `Quick
            test_serial_graph_errors_at_header;
        ]
        @ qsuite [ serial_roundtrip_prop; parser_fuzz_prop ] );
      ( "dot",
        [
          Alcotest.test_case "render" `Quick test_dot_render;
          Alcotest.test_case "escaping" `Quick test_dot_escaping;
        ] );
    ]
