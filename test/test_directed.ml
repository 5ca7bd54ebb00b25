module Graph = Tsg_graph.Graph
module Digraph = Tsg_graph.Digraph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Prng = Tsg_util.Prng
module Directed = Tsg_core.Directed
module Subdivision = Tsg_core.Subdivision

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let dg ~labels ~arcs = Digraph.build ~labels ~arcs

(* --- Digraph ---------------------------------------------------------------- *)

let test_digraph_basics () =
  let g = dg ~labels:[| 0; 1; 2 |] ~arcs:[ (0, 1, 5); (1, 2, 6); (2, 0, 7) ] in
  check int "nodes" 3 (Digraph.node_count g);
  check int "arcs" 3 (Digraph.arc_count g);
  check int "label" 1 (Digraph.node_label g 1);
  check int "out degree" 1 (Digraph.out_degree g 0);
  check int "in degree" 1 (Digraph.in_degree g 0);
  check bool "has arc" true (Digraph.has_arc g ~src:0 ~dst:1);
  check bool "direction matters" false (Digraph.has_arc g ~src:1 ~dst:0);
  check (Alcotest.option int) "arc label" (Some 6)
    (Digraph.arc_label g ~src:1 ~dst:2);
  check (Alcotest.option int) "no reverse label" None
    (Digraph.arc_label g ~src:2 ~dst:1)

let test_digraph_antiparallel () =
  let g = dg ~labels:[| 0; 1 |] ~arcs:[ (0, 1, 2); (1, 0, 3) ] in
  check int "two arcs" 2 (Digraph.arc_count g);
  check bool "both directions" true
    (Digraph.has_arc g ~src:0 ~dst:1 && Digraph.has_arc g ~src:1 ~dst:0)

let test_digraph_validation () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Digraph.build: self loop at node 0") (fun () ->
      ignore (dg ~labels:[| 0 |] ~arcs:[ (0, 0, 0) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Digraph.build: duplicate arc (0,1)") (fun () ->
      ignore (dg ~labels:[| 0; 1 |] ~arcs:[ (0, 1, 0); (0, 1, 2) ]));
  Alcotest.check_raises "range"
    (Invalid_argument "Digraph.build: arc (0,3) out of range [0,1)") (fun () ->
      ignore (dg ~labels:[| 0 |] ~arcs:[ (0, 3, 0) ]))

let test_digraph_connectivity () =
  let connected = dg ~labels:[| 0; 1; 2 |] ~arcs:[ (0, 1, 0); (2, 1, 0) ] in
  check bool "weakly connected ignores direction" true
    (Digraph.is_weakly_connected connected);
  let split = dg ~labels:[| 0; 1; 2; 3 |] ~arcs:[ (0, 1, 0); (2, 3, 0) ] in
  check bool "disconnected" false (Digraph.is_weakly_connected split)

(* --- encode / decode --------------------------------------------------------- *)

(* taxonomy a over {b, c} *)
let small_env () =
  let t = Taxonomy.build ~names:[ "a"; "b"; "c" ] ~is_a:[ ("b", "a"); ("c", "a") ] in
  (t, Directed.prepare t)

let test_prepare () =
  let t, env = small_env () in
  let ext = Directed.taxonomy env in
  check int "one extra concept" (Taxonomy.label_count t + 1)
    (Taxonomy.label_count ext);
  let arc = Directed.arc_label env in
  check Alcotest.string "reserved name" Directed.arc_concept_name
    (Taxonomy.name ext arc);
  check bool "arc concept is an isolated root" true
    (Taxonomy.is_root ext arc && Taxonomy.is_leaf ext arc);
  (* original is-a structure is preserved *)
  check bool "b still under a" true
    (Taxonomy.is_ancestor ext ~anc:(Taxonomy.id_of_name ext "a")
       (Taxonomy.id_of_name ext "b"));
  Alcotest.check_raises "reserved name collision"
    (Invalid_argument
       ("Directed.prepare: taxonomy already defines " ^ Directed.arc_concept_name))
    (fun () ->
      ignore
        (Directed.prepare
           (Taxonomy.build ~names:[ Directed.arc_concept_name ] ~is_a:[])))

let test_encode_shape () =
  let t, env = small_env () in
  let id n = Taxonomy.id_of_name t n in
  let d = dg ~labels:[| id "b"; id "c" |] ~arcs:[ (0, 1, 3) ] in
  let g = Directed.encode env d in
  check int "nodes = real + arc" 3 (Graph.node_count g);
  check int "edges = 2 per arc" 2 (Graph.edge_count g);
  check int "arc node labeled" (Directed.arc_label env) (Graph.node_label g 2);
  check (Alcotest.option int) "source edge label 2e" (Some 6)
    (Graph.edge_label g 0 2);
  check (Alcotest.option int) "target edge label 2e+1" (Some 7)
    (Graph.edge_label g 2 1)

let test_encode_decode_roundtrip () =
  let t, env = small_env () in
  let id n = Taxonomy.id_of_name t n in
  let cases =
    [
      dg ~labels:[| id "b"; id "c" |] ~arcs:[ (0, 1, 0) ];
      dg ~labels:[| id "a"; id "b"; id "c" |]
        ~arcs:[ (0, 1, 1); (1, 2, 0); (2, 0, 2) ];
      dg ~labels:[| id "b"; id "b" |] ~arcs:[ (0, 1, 0); (1, 0, 0) ];
    ]
  in
  List.iter
    (fun d ->
      match Directed.decode env (Directed.encode env d) with
      | Some d' -> check bool "roundtrip" true (Digraph.equal d d')
      | None -> Alcotest.fail "decode failed on an encoding")
    cases

let test_decode_rejects_partial_arcs () =
  let _, env = small_env () in
  let arc = Directed.arc_label env in
  (* a dangling arc node: real node - arc node, one edge only *)
  let partial = Graph.build ~labels:[| 1; arc |] ~edges:[ (0, 1, 0) ] in
  check bool "partial arc rejected" true (Directed.decode env partial = None);
  (* arc node with mismatched source/target labels *)
  let mismatched =
    Graph.build ~labels:[| 1; arc; 2 |] ~edges:[ (0, 1, 0); (1, 2, 3) ]
  in
  check bool "mismatched labels rejected" true
    (Directed.decode env mismatched = None);
  (* direct real-real edge *)
  let direct = Graph.build ~labels:[| 1; 2 |] ~edges:[ (0, 1, 0) ] in
  check bool "real-real edge rejected" true (Directed.decode env direct = None)

let test_canonical_key_directed () =
  let t, env = small_env () in
  let id n = Taxonomy.id_of_name t n in
  let d1 = dg ~labels:[| id "b"; id "c" |] ~arcs:[ (0, 1, 0) ] in
  let d1' = dg ~labels:[| id "c"; id "b" |] ~arcs:[ (1, 0, 0) ] in
  let reversed = dg ~labels:[| id "b"; id "c" |] ~arcs:[ (1, 0, 0) ] in
  check Alcotest.string "isomorphic digraphs same key"
    (Directed.canonical_key env d1)
    (Directed.canonical_key env d1');
  check bool "reversed arc differs" true
    (Directed.canonical_key env d1 <> Directed.canonical_key env reversed)

(* --- mining -------------------------------------------------------------------- *)

let test_direction_sensitive_mining () =
  let t, env = small_env () in
  let id n = Taxonomy.id_of_name t n in
  (* g1: b -> c, g2: c -> b. Undirected mining would report b-c with
     support 1.0; direction-aware mining must generalize to a -> a. *)
  let d1 = dg ~labels:[| id "b"; id "c" |] ~arcs:[ (0, 1, 0) ] in
  let d2 = dg ~labels:[| id "c"; id "b" |] ~arcs:[ (0, 1, 0) ] in
  let patterns = Directed.mine ~min_support:1.0 env [ d1; d2 ] in
  check int "single minimal pattern" 1 (List.length patterns);
  let p = List.hd patterns in
  check int "support both graphs" 2 p.Subdivision.support_count;
  let ext = Directed.taxonomy env in
  let a = Taxonomy.id_of_name ext "a" in
  check (Alcotest.array int) "a -> a" [| a; a |]
    (Digraph.node_labels p.Subdivision.graph);
  (* the undirected view of the same data is more specific *)
  let undirected =
    Db.of_list
      [
        Graph.build ~labels:[| id "b"; id "c" |] ~edges:[ (0, 1, 0) ];
        Graph.build ~labels:[| id "c"; id "b" |] ~edges:[ (0, 1, 0) ];
      ]
  in
  let u =
    Tsg_core.Taxogram.run (Tsg_core.Taxogram.Spec.collect ~config:{ Tsg_core.Taxogram.default_config with min_support = 1.0 } ())
      t undirected
  in
  check int "undirected keeps b-c" 1 (List.length u.Tsg_core.Taxogram.patterns);
  let labels =
    Graph.node_labels (List.hd u.Tsg_core.Taxogram.patterns).Tsg_core.Pattern.graph
  in
  Array.sort compare labels;
  check (Alcotest.array int) "b-c survives undirected" [| id "b"; id "c" |] labels

let test_directed_mining_specific_pattern () =
  let t, env = small_env () in
  let id n = Taxonomy.id_of_name t n in
  (* both graphs contain b -> c: the specific directed pattern must win *)
  let d1 = dg ~labels:[| id "b"; id "c" |] ~arcs:[ (0, 1, 0) ] in
  let d2 =
    dg ~labels:[| id "b"; id "c"; id "a" |] ~arcs:[ (0, 1, 0); (1, 2, 1) ]
  in
  let patterns = Directed.mine ~min_support:1.0 env [ d1; d2 ] in
  check int "one pattern" 1 (List.length patterns);
  let p = List.hd patterns in
  let ext = Directed.taxonomy env in
  check (Alcotest.array int) "b -> c"
    [| Taxonomy.id_of_name ext "b"; Taxonomy.id_of_name ext "c" |]
    (Digraph.node_labels p.Subdivision.graph);
  check
    (Alcotest.list (Alcotest.triple int int int))
    "arc direction" [ (0, 1, 0) ]
    (Array.to_list (Digraph.arcs p.Subdivision.graph))

let test_directed_supports_verified () =
  (* mined supports must equal direct generalized-subiso recounts on the
     encodings *)
  let rng = Prng.of_int 31 in
  let t =
    Tsg_taxonomy.Synth_taxonomy.generate rng
      { concepts = 12; relationships = 18; depth = 3 }
  in
  let env = Directed.prepare t in
  let random_digraph () =
    let n = 2 + Prng.int rng 3 in
    let labels = Array.init n (fun _ -> Prng.int rng 12) in
    let arcs = ref [] in
    for v = 1 to n - 1 do
      let u = Prng.int rng v in
      let src, dst = if Prng.bool rng then (u, v) else (v, u) in
      arcs := (src, dst, Prng.int rng 2) :: !arcs
    done;
    dg ~labels ~arcs:!arcs
  in
  let digraphs = List.init 5 (fun _ -> random_digraph ()) in
  let patterns = Directed.mine ~min_support:0.4 ~max_arcs:2 env digraphs in
  check bool "mining returned something" true (patterns <> []);
  let encoded = List.map (Directed.encode env) digraphs in
  let db = Db.of_list encoded in
  List.iter
    (fun (p : Directed.pattern) ->
      let recount =
        Tsg_iso.Gen_iso.support_set (Directed.taxonomy env)
          ~pattern:(Directed.encode env p.Subdivision.graph)
          db
      in
      check bool "support verified" true
        (Bitset.equal recount p.Subdivision.support_set))
    patterns

(* directed mining agrees with the naive specification applied to the
   encodings: mine the encoded database naively, decode, keep proper
   patterns — must be the same set *)
let directed_equals_naive_prop =
  QCheck.Test.make ~name:"directed mining = naive spec on encodings"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let t =
        Tsg_taxonomy.Synth_taxonomy.generate rng
          { concepts = 6; relationships = 8; depth = 2 }
      in
      let env = Directed.prepare t in
      let random_digraph () =
        let n = 2 + Prng.int rng 2 in
        let labels = Array.init n (fun _ -> Prng.int rng 6) in
        let arcs = ref [] in
        for v = 1 to n - 1 do
          let u = Prng.int rng v in
          let src, dst = if Prng.bool rng then (u, v) else (v, u) in
          arcs := (src, dst, 0) :: !arcs
        done;
        dg ~labels ~arcs:!arcs
      in
      let digraphs = List.init 3 (fun _ -> random_digraph ()) in
      Subdivision_oracle.equals_naive env ~max_edges:2 ~min_support:0.67
        digraphs
        (Directed.mine ~min_support:0.67 ~max_arcs:2 env digraphs))

(* Subdivision.run under a caller's spec: the decoded list is the same at
   any domain count, and a streaming spec, whose callback would see
   encoded patterns, is refused *)
let test_run_under_spec () =
  let rng = Prng.of_int 77 in
  let t =
    Tsg_taxonomy.Synth_taxonomy.generate rng
      { concepts = 12; relationships = 18; depth = 3 }
  in
  let env = Directed.prepare t in
  let digraphs =
    List.init 8 (fun _ ->
        let n = 2 + Prng.int rng 3 in
        dg
          ~labels:(Array.init n (fun _ -> Prng.int rng 12))
          ~arcs:(List.init (n - 1) (fun i -> (Prng.int rng (i + 1), i + 1, 0))))
  in
  let run domains =
    let config =
      { Tsg_core.Taxogram.default_config with min_support = 0.25 }
    in
    fst
      (Subdivision.run env
         (Tsg_core.Taxogram.Spec.collect ~config ~domains ())
         digraphs)
    |> List.map (fun (p : Directed.pattern) ->
           (Directed.canonical_key env p.graph, Bitset.to_list p.support_set))
  in
  let one = run 1 in
  check bool "patterns found" true (one <> []);
  check
    Alcotest.(list (pair string (list int)))
    "1 domain = 2 domains" one (run 2);
  match Subdivision.run env (Tsg_core.Taxogram.Spec.stream ignore) digraphs with
  | _ -> Alcotest.fail "a streaming spec was accepted"
  | exception Invalid_argument _ -> ()

let test_max_arcs () =
  let t, env = small_env () in
  let id n = Taxonomy.id_of_name t n in
  let chain =
    dg ~labels:[| id "b"; id "c"; id "b" |] ~arcs:[ (0, 1, 0); (1, 2, 0) ]
  in
  let patterns = Directed.mine ~min_support:1.0 ~max_arcs:1 env [ chain ] in
  check bool "all single-arc" true
    (List.for_all
       (fun p -> Digraph.arc_count p.Subdivision.graph = 1)
       patterns)

let () =
  Alcotest.run "directed"
    [
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick test_digraph_basics;
          Alcotest.test_case "antiparallel" `Quick test_digraph_antiparallel;
          Alcotest.test_case "validation" `Quick test_digraph_validation;
          Alcotest.test_case "connectivity" `Quick test_digraph_connectivity;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "prepare" `Quick test_prepare;
          Alcotest.test_case "encode shape" `Quick test_encode_shape;
          Alcotest.test_case "roundtrip" `Quick test_encode_decode_roundtrip;
          Alcotest.test_case "partial arcs rejected" `Quick
            test_decode_rejects_partial_arcs;
          Alcotest.test_case "canonical key" `Quick test_canonical_key_directed;
        ] );
      ( "mining",
        [
          Alcotest.test_case "direction sensitivity" `Quick
            test_direction_sensitive_mining;
          Alcotest.test_case "specific pattern" `Quick
            test_directed_mining_specific_pattern;
          Alcotest.test_case "supports verified" `Quick
            test_directed_supports_verified;
          Alcotest.test_case "max arcs" `Quick test_max_arcs;
          Alcotest.test_case "run under a spec" `Quick test_run_under_spec;
          QCheck_alcotest.to_alcotest directed_equals_naive_prop;
        ] );
    ]
