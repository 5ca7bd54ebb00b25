module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Edge_labeled = Tsg_core.Edge_labeled
module Subdivision = Tsg_core.Subdivision

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* node labels: protein -> {kinase, receptor}
   edge labels: interaction -> {binds, inhibits} *)
let envs () =
  let nodes =
    Taxonomy.build
      ~names:[ "protein"; "kinase"; "receptor" ]
      ~is_a:[ ("kinase", "protein"); ("receptor", "protein") ]
  in
  let edges =
    Taxonomy.build
      ~names:[ "interaction"; "binds"; "inhibits" ]
      ~is_a:[ ("binds", "interaction"); ("inhibits", "interaction") ]
  in
  (nodes, edges, Edge_labeled.prepare ~node_taxonomy:nodes ~edge_taxonomy:edges)

let test_prepare () =
  let nodes, edges, env = envs () in
  let combined = Edge_labeled.taxonomy env in
  check int "six concepts" 6 (Taxonomy.label_count combined);
  let k = Taxonomy.id_of_name nodes "kinase" in
  let b = Taxonomy.id_of_name edges "binds" in
  check Alcotest.string "node concept maps by name" "kinase"
    (Taxonomy.name combined (Edge_labeled.node_concept env k));
  check Alcotest.string "edge concept maps by name" "binds"
    (Taxonomy.name combined (Edge_labeled.edge_concept env b));
  check (Alcotest.option int) "back maps node" (Some k)
    (Edge_labeled.node_concept_back env (Edge_labeled.node_concept env k));
  check (Alcotest.option int) "back maps edge" (Some b)
    (Edge_labeled.edge_concept_back env (Edge_labeled.edge_concept env b));
  check (Alcotest.option int) "node is not an edge concept" None
    (Edge_labeled.edge_concept_back env (Edge_labeled.node_concept env k));
  (* hierarchy preserved on both sides *)
  check bool "binds under interaction" true
    (Taxonomy.is_ancestor combined
       ~anc:(Taxonomy.id_of_name combined "interaction")
       (Taxonomy.id_of_name combined "binds"));
  check bool "kinase under protein" true
    (Taxonomy.is_ancestor combined
       ~anc:(Taxonomy.id_of_name combined "protein")
       (Taxonomy.id_of_name combined "kinase"))

let test_prepare_name_clash () =
  let t = Taxonomy.build ~names:[ "x" ] ~is_a:[] in
  Alcotest.check_raises "clash"
    (Invalid_argument "Edge_labeled.prepare: name used by both taxonomies: x")
    (fun () -> ignore (Edge_labeled.prepare ~node_taxonomy:t ~edge_taxonomy:t))

let test_encode_decode_roundtrip () =
  let nodes, edges, env = envs () in
  let nid n = Taxonomy.id_of_name nodes n in
  let eid n = Taxonomy.id_of_name edges n in
  let cases =
    [
      Graph.build ~labels:[| nid "kinase"; nid "receptor" |]
        ~edges:[ (0, 1, eid "binds") ];
      Graph.build
        ~labels:[| nid "kinase"; nid "protein"; nid "receptor" |]
        ~edges:[ (0, 1, eid "binds"); (1, 2, eid "inhibits") ];
    ]
  in
  List.iter
    (fun g ->
      let encoded = Edge_labeled.encode env g in
      check int "subdivision adds edge nodes"
        (Graph.node_count g + Graph.edge_count g)
        (Graph.node_count encoded);
      match Edge_labeled.decode env encoded with
      | Some g' -> check bool "roundtrip" true (Graph.equal g g')
      | None -> Alcotest.fail "decode failed")
    cases

let test_decode_rejects_artifacts () =
  let _, edges, env = envs () in
  let binds = Edge_labeled.edge_concept env (Taxonomy.id_of_name edges "binds") in
  let combined = Edge_labeled.taxonomy env in
  let kinase = Taxonomy.id_of_name combined "kinase" in
  (* dangling edge node *)
  let dangling = Graph.build ~labels:[| kinase; binds |] ~edges:[ (0, 1, 0) ] in
  check bool "dangling rejected" true (Edge_labeled.decode env dangling = None);
  (* direct node-node edge *)
  let direct = Graph.build ~labels:[| kinase; kinase |] ~edges:[ (0, 1, 0) ] in
  check bool "direct edge rejected" true (Edge_labeled.decode env direct = None)

(* the motivating case: databases that share no exact edge label still share
   a generalized interaction *)
let test_edge_generalization_mining () =
  let nodes, edges, env = envs () in
  let nid n = Taxonomy.id_of_name nodes n in
  let eid n = Taxonomy.id_of_name edges n in
  let g1 =
    Graph.build ~labels:[| nid "kinase"; nid "receptor" |]
      ~edges:[ (0, 1, eid "binds") ]
  in
  let g2 =
    Graph.build ~labels:[| nid "kinase"; nid "receptor" |]
      ~edges:[ (0, 1, eid "inhibits") ]
  in
  (* plain taxogram with exact edge labels finds nothing at support 1.0 *)
  let plain =
    Tsg_core.Taxogram.run (Tsg_core.Taxogram.Spec.collect ~config:{ Tsg_core.Taxogram.default_config with min_support = 1.0 } ())
      nodes
      (Db.of_list [ g1; g2 ])
  in
  check int "exact edge labels: no shared pattern" 0
    plain.Tsg_core.Taxogram.pattern_count;
  (* edge-taxonomy mining finds kinase -interaction- receptor *)
  let patterns = Edge_labeled.mine ~min_support:1.0 env [ g1; g2 ] in
  check int "one generalized pattern" 1 (List.length patterns);
  let p = List.hd patterns in
  check int "support 2" 2 p.Subdivision.support_count;
  let g = p.Subdivision.graph in
  let labels = Graph.node_labels g in
  Array.sort compare labels;
  check (Alcotest.array int) "kinase, receptor"
    [| nid "kinase"; nid "receptor" |]
    labels;
  check
    (Alcotest.option int)
    "edge generalized to interaction"
    (Some (Taxonomy.id_of_name edges "interaction"))
    (Graph.edge_label g 0 1)

let test_specific_edge_label_wins () =
  let nodes, edges, env = envs () in
  let nid n = Taxonomy.id_of_name nodes n in
  let eid n = Taxonomy.id_of_name edges n in
  let mk e =
    Graph.build ~labels:[| nid "kinase"; nid "receptor" |] ~edges:[ (0, 1, e) ]
  in
  (* both graphs use binds: the specific label must win, interaction is
     over-generalized *)
  let patterns =
    Edge_labeled.mine ~min_support:1.0 env [ mk (eid "binds"); mk (eid "binds") ]
  in
  check int "one pattern" 1 (List.length patterns);
  check (Alcotest.option int) "binds survives"
    (Some (eid "binds"))
    (Graph.edge_label (List.hd patterns).Subdivision.graph 0 1)

let test_supports_verified () =
  let nodes, edges, env = envs () in
  let nid n = Taxonomy.id_of_name nodes n in
  let eid n = Taxonomy.id_of_name edges n in
  let rng = Tsg_util.Prng.of_int 5 in
  let random_graph () =
    let n = 2 + Tsg_util.Prng.int rng 3 in
    let node_pool = [| nid "protein"; nid "kinase"; nid "receptor" |] in
    let edge_pool = [| eid "interaction"; eid "binds"; eid "inhibits" |] in
    let labels = Array.init n (fun _ -> Tsg_util.Prng.choose rng node_pool) in
    let es = ref [] in
    for v = 1 to n - 1 do
      es := (v, Tsg_util.Prng.int rng v, Tsg_util.Prng.choose rng edge_pool) :: !es
    done;
    Graph.build ~labels ~edges:!es
  in
  let graphs = List.init 6 (fun _ -> random_graph ()) in
  let patterns = Edge_labeled.mine ~min_support:0.5 ~max_edges:2 env graphs in
  check bool "found patterns" true (patterns <> []);
  let encoded_db = Db.of_list (List.map (Edge_labeled.encode env) graphs) in
  List.iter
    (fun (p : Edge_labeled.pattern) ->
      let recount =
        Tsg_iso.Gen_iso.support_set (Edge_labeled.taxonomy env)
          ~pattern:(Edge_labeled.encode env p.Subdivision.graph)
          encoded_db
      in
      check bool "support verified" true
        (Bitset.equal recount p.Subdivision.support_set))
    patterns

(* edge-labeled mining agrees with the naive specification applied to the
   encodings, over random node and edge taxonomies *)
let edge_labeled_equals_naive_prop =
  QCheck.Test.make ~name:"edge-labeled mining = naive spec on encodings"
    ~count:25
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Tsg_util.Prng.of_int seed in
      let synth concepts =
        Tsg_taxonomy.Synth_taxonomy.generate rng
          { concepts; relationships = concepts + 1; depth = 3 }
      in
      let nodes = synth 6 in
      (* edge concepts renamed apart from the node concepts *)
      let edges =
        let t = synth 4 in
        let name l = "r" ^ Taxonomy.name t l in
        let ids = List.init (Taxonomy.label_count t) Fun.id in
        Taxonomy.build ~names:(List.map name ids)
          ~is_a:
            (List.concat_map
               (fun l -> List.map (fun p -> (name l, name p)) (Taxonomy.parents t l))
               ids)
      in
      let env = Edge_labeled.prepare ~node_taxonomy:nodes ~edge_taxonomy:edges in
      let random_graph () =
        let n = 2 + Tsg_util.Prng.int rng 2 in
        let labels = Array.init n (fun _ -> Tsg_util.Prng.int rng 6) in
        Graph.build ~labels
          ~edges:
            (List.init (n - 1) (fun i ->
                 (i + 1, Tsg_util.Prng.int rng (i + 1), Tsg_util.Prng.int rng 4)))
      in
      let graphs = List.init 4 (fun _ -> random_graph ()) in
      let code =
        {
          Subdivision.taxonomy = Edge_labeled.taxonomy env;
          encode = Edge_labeled.encode env;
          decode = Edge_labeled.decode env;
        }
      in
      Subdivision_oracle.equals_naive code ~max_edges:2 ~min_support:0.5
        graphs
        (Edge_labeled.mine ~min_support:0.5 ~max_edges:2 env graphs))

let () =
  Alcotest.run "edge_labeled"
    [
      ( "setup",
        [
          Alcotest.test_case "prepare" `Quick test_prepare;
          Alcotest.test_case "name clash" `Quick test_prepare_name_clash;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "roundtrip" `Quick test_encode_decode_roundtrip;
          Alcotest.test_case "artifacts rejected" `Quick
            test_decode_rejects_artifacts;
        ] );
      ( "mining",
        [
          Alcotest.test_case "edge generalization" `Quick
            test_edge_generalization_mining;
          Alcotest.test_case "specific edge wins" `Quick
            test_specific_edge_label_wins;
          Alcotest.test_case "supports verified" `Quick test_supports_verified;
          QCheck_alcotest.to_alcotest edge_labeled_equals_naive_prop;
        ] );
    ]
