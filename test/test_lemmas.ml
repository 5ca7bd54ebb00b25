(* The paper's lemmas (Sections 2-3), re-stated as executable checks.

   Lemma 1  — the number of generalized patterns of P is the product of its
              nodes' ancestor counts (O(d^n)).
   Lemma 2  — support sets grow along generalization: SS(P) ⊆ SS(Pg).
   Lemma 3  — an over-generalized pattern may have a generalization that is
              not over-generalized (downward closure fails on the
              generalization axis).
   Lemma 6  — pattern classes mined from the relabeled database coincide
              with the classes of the taxonomy-superimposed pattern set.
   Lemma 7  — OcS(Ps) = OcS(P) ∩ OcS(child-label entry), so specialized
              supports need no isomorphism tests.
   Lemma 8  — Taxogram's output is minimal (no over-generalized patterns).
   Lemma 9  — Taxogram's output is complete (every non-over-generalized
              frequent pattern).

   Lemmas 4 and 5 are complexity bounds; the occurrence-index size check
   here verifies the space side on concrete instances. *)

module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Prng = Tsg_util.Prng
module Gen_iso = Tsg_iso.Gen_iso
module Gspan = Tsg_gspan.Gspan
module Min_code = Tsg_gspan.Min_code
module Pattern = Tsg_core.Pattern
module Relabel = Tsg_core.Relabel
module Occ_index = Tsg_core.Occ_index
module Specialize = Tsg_core.Specialize
module Taxogram = Tsg_core.Taxogram
module Naive = Tsg_core.Naive

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

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

let arb_seed = QCheck.make QCheck.Gen.(int_bound 1_000_000)

(* --- Lemma 1 ---------------------------------------------------------------- *)

let lemma1_prop =
  QCheck.Test.make ~name:"lemma 1: |generalizations| = prod |ancestors|"
    ~count:100 arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let g = Db.get db 0 in
      let expected =
        Array.fold_left
          (fun acc l -> acc * List.length (Taxonomy.ancestors tax l))
          1 (Graph.node_labels g)
      in
      List.length (Naive.generalizations tax g) = expected)

(* --- Lemma 2 ---------------------------------------------------------------- *)

let lemma2_prop =
  QCheck.Test.make
    ~name:"lemma 2: support sets grow under single-step generalization"
    ~count:60 arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      (* take a random small pattern from the data and generalize one node *)
      let g = Db.get db 0 in
      let sub = List.hd (Naive.connected_subgraphs ~max_edges:2 g) in
      let ss = Gen_iso.support_set tax ~pattern:sub db in
      let ok = ref true in
      for pos = 0 to Graph.node_count sub - 1 do
        List.iter
          (fun parent ->
            let general =
              Graph.relabel sub (fun v ->
                  if v = pos then parent else Graph.node_label sub v)
            in
            let ssg = Gen_iso.support_set tax ~pattern:general db in
            if not (Bitset.subset ss ssg) then ok := false)
          (Taxonomy.parents tax (Graph.node_label sub pos))
      done;
      !ok)

(* --- Lemma 3 ---------------------------------------------------------------- *)

(* the paper's Example 2.8 shape: an over-generalized pattern whose
   generalization is not over-generalized. Constructed instance:
   taxonomy a -> {b, c}; b -> d.
   D = { d-x, d-x & c-x }. Then:
     (b-x): sup 2, specialization (d-x) sup 2 -> over-generalized;
     (a-x): sup 2, specializations (b-x) sup 2... also over-generalized;
   use support sets that differ: D = { d-x , c-x }:
     (a-x) sup 2; (b-x) sup 1; (c-x) sup 1; (d-x) sup 1.
     (b-x) over-generalized (d-x same support), its generalization (a-x)
     is NOT over-generalized (all children drop support). *)
let test_lemma3_witness () =
  let tax =
    Taxonomy.build
      ~names:[ "a"; "b"; "c"; "d"; "x" ]
      ~is_a:[ ("b", "a"); ("c", "a"); ("d", "b") ]
  in
  let id n = Taxonomy.id_of_name tax n in
  let edge l r = Graph.build ~labels:[| id l; id r |] ~edges:[ (0, 1, 0) ] in
  let db = Db.of_list [ edge "d" "x"; edge "c" "x" ] in
  let pattern l r =
    Pattern.make ~db_size:2 (edge l r)
      (Gen_iso.support_set tax ~pattern:(edge l r) db)
  in
  let over_generalized p =
    (* single-step specializations with equal support *)
    let g = (p : Pattern.t).Pattern.graph in
    List.exists
      (fun pos ->
        List.exists
          (fun child ->
            let spec =
              Graph.relabel g (fun v ->
                  if v = pos then child else Graph.node_label g v)
            in
            Gen_iso.support_count tax ~pattern:spec db = p.Pattern.support_count)
          (Taxonomy.children tax (Graph.node_label g pos)))
      [ 0; 1 ]
  in
  let bx = pattern "b" "x" and ax = pattern "a" "x" in
  check int "b-x support" 1 bx.Pattern.support_count;
  check bool "b-x over-generalized" true (over_generalized bx);
  check int "a-x support" 2 ax.Pattern.support_count;
  check bool "a-x (its generalization) is not" false (over_generalized ax);
  (* and Taxogram indeed emits a-x but not b-x *)
  let r =
    Taxogram.run (Taxogram.Spec.collect ~config:{ Taxogram.min_support = 0.5; max_edges = Some 2; enhancements = Specialize.all_on } ())
      tax db
  in
  let keys = List.map Pattern.key r.Taxogram.patterns in
  check bool "taxogram keeps a-x" true (List.mem (Pattern.key ax) keys);
  check bool "taxogram drops b-x" true (not (List.mem (Pattern.key bx) keys))

(* --- Lemma 6 ---------------------------------------------------------------- *)

(* class of a pattern = canonical key of its most-general relabeling *)
let class_key tax g = Min_code.canonical_key (Relabel.graph tax g)

let lemma6_prop =
  QCheck.Test.make
    ~name:"lemma 6: relabeled-db classes = taxonomy-mining classes" ~count:60
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let min_support = 1 + Prng.int rng 2 in
      let mg_classes =
        Gspan.mine_list ~max_edges:3 ~min_support (Relabel.db tax db)
        |> List.map (fun p -> Min_code.canonical_key p.Gspan.graph)
        |> List.sort_uniq compare
      in
      let naive_classes =
        Naive.mine ~max_edges:3
          ~min_support:
            (float_of_int min_support /. float_of_int (Db.size db))
          tax db
        |> List.map (fun (p : Pattern.t) -> class_key tax p.Pattern.graph)
        |> List.sort_uniq compare
      in
      (* every class with a surviving member appears among the relabeled
         classes, and every relabeled class has at least one non-over-
         generalized member *)
      naive_classes = mg_classes)

(* --- Lemma 7 ---------------------------------------------------------------- *)

let test_lemma7_intersection () =
  (* build an occurrence index by hand and re-derive a specialized
     occurrence set from embeddings directly *)
  let tax =
    Taxonomy.build
      ~names:[ "a"; "b"; "c"; "d"; "e"; "f" ]
      ~is_a:[ ("b", "a"); ("c", "a"); ("d", "b"); ("e", "b"); ("f", "c") ]
  in
  let id n = Taxonomy.id_of_name tax n in
  let g labels edges = Graph.build ~labels ~edges in
  let db =
    Db.of_list
      [
        g [| id "d"; id "f"; id "e" |] [ (0, 1, 0); (1, 2, 0) ];
        g [| id "e"; id "f" |] [ (0, 1, 0) ];
      ]
  in
  let classes = Gspan.mine_list ~min_support:2 (Relabel.db tax db) in
  List.iter
    (fun cls ->
      let oi = Occ_index.build ~taxonomy:tax ~original:db cls in
      let positions = Graph.node_count oi.Occ_index.class_graph in
      (* choose label b at each position in turn and verify lemma 7 *)
      for pos = 0 to positions - 1 do
        match Occ_index.occurrence_set oi ~position:pos (id "b") with
        | None -> ()
        | Some child_set ->
          let derived = Bitset.inter oi.Occ_index.all_occs child_set in
          (* recount from raw embeddings: occurrences whose original label
             at [pos] descends from b *)
          let expected = Bitset.create oi.Occ_index.occ_count in
          List.iteri
            (fun occ (e : Gspan.embedding) ->
              let original = Db.get db e.Gspan.graph_id in
              let l = Graph.node_label original e.Gspan.map.(pos) in
              if Taxonomy.is_ancestor tax ~anc:(id "b") l then
                Bitset.set expected occ)
            cls.Gspan.embeddings;
          check bool "lemma 7 intersection = recount" true
            (Bitset.equal derived expected)
      done)
    classes

(* --- Lemmas 8 & 9 ------------------------------------------------------------ *)

let lemma8_minimality_prop =
  QCheck.Test.make ~name:"lemma 8: output minimal (definition-checked)"
    ~count:60 arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let ps =
        (Taxogram.run (Taxogram.Spec.collect ~config:{ Taxogram.min_support = 0.5; max_edges = Some 3; enhancements = Specialize.all_on } ())
           tax db)
          .Taxogram.patterns
      in
      List.for_all
        (fun (p : Pattern.t) ->
          not
            (List.exists
               (fun (q : Pattern.t) ->
                 Pattern.key p <> Pattern.key q
                 && p.Pattern.support_count = q.Pattern.support_count
                 && Pattern.node_count p = Pattern.node_count q
                 && Pattern.edge_count p = Pattern.edge_count q
                 && Gen_iso.graph_isomorphic tax p.Pattern.graph
                      q.Pattern.graph)
               ps))
        ps)

let lemma9_completeness_prop =
  QCheck.Test.make ~name:"lemma 9: output complete (vs specification)"
    ~count:60 arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let naive = Naive.mine ~max_edges:3 ~min_support:0.5 tax db in
      let taxogram =
        (Taxogram.run (Taxogram.Spec.collect ~config:{ Taxogram.min_support = 0.5; max_edges = Some 3; enhancements = Specialize.all_on } ())
           tax db)
          .Taxogram.patterns
      in
      (* completeness direction: every specification pattern is found *)
      let keys = List.map Pattern.key taxogram in
      List.for_all (fun p -> List.mem (Pattern.key p) keys) naive)

(* --- Remarks 2.1/2.2: (non-)commutativity and transitivity ------------------- *)

let remark_transitivity_prop =
  QCheck.Test.make
    ~name:"remark 2.2: generalized subgraph isomorphism is transitive"
    ~count:60 arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      (* build a chain: sub is a subgraph of g; gen generalizes sub;
         gen2 generalizes gen. Then gen2 must occur in g. *)
      let g = Db.get db 0 in
      let sub = List.hd (Naive.connected_subgraphs ~max_edges:2 g) in
      let generalize graph =
        Graph.relabel graph (fun v ->
            let l = Graph.node_label graph v in
            match Taxonomy.parents tax l with
            | [] -> l
            | p :: _ -> if Prng.bool rng then p else l)
      in
      let gen = generalize sub in
      let gen2 = generalize gen in
      Gen_iso.subgraph_isomorphic tax ~pattern:gen ~target:g
      && Gen_iso.subgraph_isomorphic tax ~pattern:gen2 ~target:gen
      && Gen_iso.subgraph_isomorphic tax ~pattern:gen2 ~target:g)

let test_remark_non_commutative () =
  (* remark 2.1: IS_GEN_ISO is not commutative *)
  let tax = Taxonomy.build ~names:[ "a"; "b" ] ~is_a:[ ("b", "a") ] in
  let id n = Taxonomy.id_of_name tax n in
  let general = Graph.build ~labels:[| id "a"; id "a" |] ~edges:[ (0, 1, 0) ] in
  let specific = Graph.build ~labels:[| id "b"; id "b" |] ~edges:[ (0, 1, 0) ] in
  check bool "general ~ specific" true
    (Gen_iso.graph_isomorphic tax general specific);
  check bool "specific !~ general" false
    (Gen_iso.graph_isomorphic tax specific general)

(* --- occurrence-index size (the space side of Lemmas 4/5) -------------------- *)

let oi_size_bound_prop =
  QCheck.Test.make
    ~name:"occurrence-index entries bounded by |positions| * |T|" ~count:60
    arb_seed (fun seed ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let classes = Gspan.mine_list ~max_edges:3 ~min_support:1 (Relabel.db tax db) in
      List.for_all
        (fun cls ->
          let oi = Occ_index.build ~taxonomy:tax ~original:db cls in
          let positions = Graph.node_count oi.Occ_index.class_graph in
          let entries =
            Array.fold_left
              (fun acc (e : Occ_index.entry) -> acc + Array.length e.labels)
              0 oi.Occ_index.entries
          in
          entries <= positions * Taxonomy.label_count tax
          && entries = (Occ_index.size oi).Occ_index.entries)
        classes)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lemmas"
    [
      ( "witnesses",
        [
          Alcotest.test_case "lemma 3 witness" `Quick test_lemma3_witness;
          Alcotest.test_case "lemma 7 intersection" `Quick
            test_lemma7_intersection;
          Alcotest.test_case "remark 2.1 non-commutativity" `Quick
            test_remark_non_commutative;
        ] );
      ( "properties",
        qsuite
          [
            lemma1_prop;
            lemma2_prop;
            lemma6_prop;
            remark_transitivity_prop;
            lemma8_minimality_prop;
            lemma9_completeness_prop;
            oi_size_bound_prop;
          ] );
    ]
