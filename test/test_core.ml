module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Prng = Tsg_util.Prng
module Gen_iso = Tsg_iso.Gen_iso
module Gspan = Tsg_gspan.Gspan
module Pattern = Tsg_core.Pattern
module Relabel = Tsg_core.Relabel
module Occ_index = Tsg_core.Occ_index
module Specialize = Tsg_core.Specialize
module Taxogram = Tsg_core.Taxogram
module Tacgm = Tsg_core.Tacgm
module Naive = Tsg_core.Naive

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let g ~labels ~edges = Graph.build ~labels ~edges

(* taxonomy: a -> {b, c}; b -> {d, e}; c -> {f} *)
let small_taxonomy () =
  Taxonomy.build
    ~names:[ "a"; "b"; "c"; "d"; "e"; "f" ]
    ~is_a:[ ("b", "a"); ("c", "a"); ("d", "b"); ("e", "b"); ("f", "c") ]

(* the GO excerpt of the paper's Figure 1.1, with a two-pathway database in
   the spirit of Figure 1.2 *)
let go_excerpt () =
  Taxonomy.build
    ~names:
      [ "molecular_function"; "transporter"; "catalytic_activity"; "carrier";
        "cation_transporter"; "helicase"; "dna_helicase" ]
    ~is_a:
      [
        ("transporter", "molecular_function");
        ("catalytic_activity", "molecular_function");
        ("carrier", "transporter");
        ("cation_transporter", "transporter");
        ("helicase", "catalytic_activity");
        ("dna_helicase", "helicase");
      ]

let id t n = Taxonomy.id_of_name t n

let config ?(max_edges = Some 3) theta =
  { Taxogram.min_support = theta; max_edges;
    enhancements = Specialize.all_on }

let pattern_strings t ps =
  let names = Taxonomy.labels t in
  List.map (Pattern.to_string ~names) (Pattern.sort ps)

(* --- Pattern -------------------------------------------------------------- *)

let test_pattern_make () =
  let set = Bitset.of_list 4 [ 0; 2 ] in
  let p = Pattern.make ~db_size:4 (g ~labels:[| 1; 2 |] ~edges:[ (0, 1, 0) ]) set in
  check int "count" 2 p.Pattern.support_count;
  check (Alcotest.float 1e-9) "support" 0.5 p.Pattern.support;
  check int "edges" 1 (Pattern.edge_count p);
  check int "nodes" 2 (Pattern.node_count p)

let test_pattern_key_iso () =
  let set = Bitset.of_list 1 [ 0 ] in
  let p1 = Pattern.make ~db_size:1 (g ~labels:[| 1; 2 |] ~edges:[ (0, 1, 0) ]) set in
  let p2 = Pattern.make ~db_size:1 (g ~labels:[| 2; 1 |] ~edges:[ (0, 1, 0) ]) set in
  check Alcotest.string "isomorphic same key" (Pattern.key p1) (Pattern.key p2);
  check int "compare 0" 0 (Pattern.compare p1 p2);
  check bool "equal_sets" true (Pattern.equal_sets [ p1 ] [ p2 ]);
  let p3 = Pattern.make ~db_size:1 (g ~labels:[| 1; 3 |] ~edges:[ (0, 1, 0) ]) set in
  check bool "different not equal" false (Pattern.equal_sets [ p1 ] [ p3 ])

(* sorting on keys computed once must give [List.sort compare]'s order,
   ties (isomorphic patterns, here told apart by support set) included *)
let test_pattern_sort_groups () =
  let edge a b members =
    Pattern.make ~db_size:2
      (g ~labels:[| a; b |] ~edges:[ (0, 1, 0) ])
      (Bitset.of_list 2 members)
  in
  let x = [ edge 3 1 [ 0 ]; edge 1 2 [ 0 ]; edge 2 1 [ 1 ] ] in
  let z = [ edge 2 2 [ 0 ]; edge 1 1 [ 1 ]; edge 2 1 [ 0; 1 ]; edge 3 3 [ 0 ] ] in
  let tags l =
    List.map (fun p -> (Pattern.key p, Bitset.to_list p.Pattern.support_set)) l
  in
  let tags_t = Alcotest.(list (pair string (list int))) in
  let reference l = tags (List.sort Pattern.compare l) in
  check tags_t "sort" (reference (x @ z)) (tags (Pattern.sort (x @ z)));
  let groups, all = Pattern.sort_groups [ ("x", x); ("y", []); ("z", z) ] in
  check tags_t "union" (reference (x @ z)) (tags all);
  check
    Alcotest.(list (pair string tags_t))
    "groups"
    [ ("x", reference x); ("y", []); ("z", reference z) ]
    (List.map (fun (name, l) -> (name, tags l)) groups)

(* --- Relabel --------------------------------------------------------------- *)

let test_relabel () =
  let t = small_taxonomy () in
  let graph = g ~labels:[| id t "d"; id t "f"; id t "a" |] ~edges:[ (0, 1, 0); (1, 2, 1) ] in
  let relabeled = Relabel.graph t graph in
  List.iter
    (fun v -> check int "most general" (id t "a") (Graph.node_label relabeled v))
    [ 0; 1; 2 ];
  check int "edges kept" 2 (Graph.edge_count relabeled);
  let db = Relabel.db t (Db.of_list [ graph ]) in
  check int "db size" 1 (Db.size db)

(* --- Occ_index ------------------------------------------------------------ *)

let two_graph_db t =
  Db.of_list
    [
      g ~labels:[| id t "d"; id t "f" |] ~edges:[ (0, 1, 0) ];
      g ~labels:[| id t "e"; id t "f" |] ~edges:[ (0, 1, 0) ];
    ]

let build_oi ?keep_label t db =
  let relabeled = Relabel.db t db in
  let classes = Gspan.mine_list ~min_support:2 relabeled in
  check int "one class" 1 (List.length classes);
  Occ_index.build ~taxonomy:t ~original:db ?keep_label (List.hd classes)

let test_occ_index_build () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let oi = build_oi t db in
  check int "positions" 2 (Graph.node_count oi.Occ_index.class_graph);
  (* the a-a class: both orientations of both edges = 4 occurrences *)
  check int "occurrences" 4 oi.Occ_index.occ_count;
  check (Alcotest.list int) "occ graph ids sorted per embedding order" [ 0; 1 ]
    (List.sort_uniq compare (Array.to_list oi.Occ_index.occ_gid));
  (* position tables: label a covers everything *)
  (match Occ_index.occurrence_set oi ~position:0 (id t "a") with
  | Some s -> check int "a covers all" 4 (Bitset.cardinal s)
  | None -> Alcotest.fail "a missing");
  (* d appears at position 0 only via graph 0's orientations *)
  (match Occ_index.occurrence_set oi ~position:0 (id t "d") with
  | Some s ->
    let ranks = Bitset.create oi.Occ_index.graph_count in
    check int "d occurrences" 1 (Occ_index.ranks_into oi ~dst:ranks s)
  | None -> Alcotest.fail "d missing");
  check bool "c covered via f's ancestors" true
    (Occ_index.occurrence_set oi ~position:0 (id t "c") <> None);
  let covered = Occ_index.covered_labels oi ~position:0 in
  check bool "covered contains a,b" true
    (List.mem (id t "a") covered && List.mem (id t "b") covered)

let test_occ_index_graph_set () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let oi = build_oi t db in
  let all = oi.Occ_index.all_occs in
  let ranks = Bitset.create oi.Occ_index.graph_count in
  check int "distinct graphs" 2 (Occ_index.ranks_into oi ~dst:ranks all);
  check (Alcotest.list int) "rank set" [ 0; 1 ] (Bitset.to_list ranks);
  check (Alcotest.list int) "graph set" [ 0; 1 ]
    (Bitset.to_list (Occ_index.graph_set oi all))

let test_occ_index_keep_label () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  (* filter out 'd' (frequency 1 of 2) *)
  let keep l = l <> id t "d" in
  let oi = build_oi ~keep_label:keep t db in
  check bool "d filtered" true
    (Occ_index.occurrence_set oi ~position:0 (id t "d") = None);
  check bool "b kept" true
    (Occ_index.occurrence_set oi ~position:0 (id t "b") <> None)

(* graph ranks rely on embedding lists in graph-id order: a list out of
   that order is refused, not indexed with wrong supports *)
let test_occ_index_rejects_unordered () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let cls = List.hd (Gspan.mine_list ~min_support:2 (Relabel.db t db)) in
  let reversed = { cls with Gspan.embeddings = List.rev cls.Gspan.embeddings } in
  Alcotest.check_raises "out of graph-id order"
    (Invalid_argument "Occ_index.build: embeddings out of graph-id order")
    (fun () -> ignore (Occ_index.build ~taxonomy:t ~original:db reversed))

(* Reference build: the index as built before the slot table, one hash
   lookup per (occurrence, position, ancestor) visit; each position also
   lists its labels in the order first met *)
let reference_entries ~taxonomy ~original ~keep_label (p : Gspan.pattern) =
  let embeddings = Array.of_list p.Gspan.embeddings in
  let occ_count = Array.length embeddings in
  let entries =
    Array.init (Graph.node_count p.Gspan.graph) (fun _ ->
        (Hashtbl.create 16, ref []))
  in
  Array.iteri
    (fun occ (e : Gspan.embedding) ->
      let gr = Db.get original e.graph_id in
      Array.iteri
        (fun pos (table, met) ->
          let class_label = Graph.node_label p.Gspan.graph pos in
          Bitset.iter
            (fun anc ->
              if anc = class_label || keep_label anc then begin
                let set =
                  match Hashtbl.find_opt table anc with
                  | Some s -> s
                  | None ->
                    let s = Bitset.create occ_count in
                    Hashtbl.add table anc s;
                    met := anc :: !met;
                    s
                in
                Bitset.set set occ
              end)
            (Taxonomy.ancestor_set taxonomy (Graph.node_label gr e.map.(pos))))
        entries)
    embeddings;
  Array.map (fun (table, met) -> (table, List.rev !met)) entries

(* a position's entry as plain data: per slot its label, set capacity,
   members and member count, its children (as labels), then the class
   slot's label *)
let dense_entry (e : Occ_index.entry) =
  ( List.init (Array.length e.labels) (fun k ->
        ( e.labels.(k),
          Bitset.capacity e.sets.(k),
          Bitset.to_list e.sets.(k),
          e.members.(k),
          List.init
            (e.first_child.(k + 1) - e.first_child.(k))
            (fun j -> e.labels.(e.children.(e.first_child.(k) + j))) )),
    e.labels.(e.class_slot) )

(* the same from the reference: slots in first-met order, children in
   taxonomy order filtered to the entry *)
let reference_dense ~taxonomy ~class_label (table, met) =
  ( List.map
      (fun l ->
        let s = Hashtbl.find table l in
        ( l,
          Bitset.capacity s,
          Bitset.to_list s,
          Bitset.cardinal s,
          List.filter (Hashtbl.mem table) (Taxonomy.children taxonomy l) ))
      met,
    class_label )

(* rank of each occurrence's graph among the class's distinct graphs *)
let reference_ranks gids =
  let rec go prev rank = function
    | [] -> []
    | gid :: rest ->
      let rank = if Some gid = prev then rank else rank + 1 in
      rank :: go (Some gid) rank rest
  in
  go None (-1) gids

let occ_index_matches_reference_prop =
  QCheck.Test.make
    ~name:"occ_index build = per-visit hash-table reference, size = recount"
    ~count:100
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let concepts = 3 + Prng.int rng 12 in
      let taxonomy =
        Tsg_taxonomy.Synth_taxonomy.generate rng
          {
            concepts;
            relationships = concepts + Prng.int rng concepts;
            depth = 2 + Prng.int rng 4;
          }
      in
      let nlabels = Taxonomy.label_count taxonomy in
      let original =
        Db.of_list
          (List.init (2 + Prng.int rng 4) (fun _ ->
               let n = 2 + Prng.int rng 4 in
               let labels = Array.init n (fun _ -> Prng.int rng nlabels) in
               let edges = ref [] in
               for v = 1 to n - 1 do
                 edges := (v, Prng.int rng v, Prng.int rng 2) :: !edges
               done;
               g ~labels ~edges:!edges))
      in
      let salt = Prng.int rng 5 in
      let keep l = (l + salt) mod 3 <> 0 in
      let filters = [ (None, fun _ -> true); (Some keep, keep) ] in
      let classes =
        Gspan.mine_list ~max_edges:3 ~min_support:1
          (Relabel.db taxonomy original)
      in
      List.for_all
        (fun (cls : Gspan.pattern) ->
          List.for_all
            (fun (keep_label, keep) ->
              let oi = Occ_index.build ~taxonomy ~original ?keep_label cls in
              let expected =
                reference_entries ~taxonomy ~original ~keep_label:keep cls
              in
              let recount =
                {
                  Occ_index.positions = Array.length expected;
                  entries =
                    Array.fold_left
                      (fun n (t, _) -> n + Hashtbl.length t)
                      0 expected;
                  set_members =
                    Array.fold_left
                      (fun n (t, _) ->
                        Hashtbl.fold (fun _ s n -> n + Bitset.cardinal s) t n)
                      0 expected;
                }
              in
              let gids =
                List.map
                  (fun (e : Gspan.embedding) -> e.graph_id)
                  cls.Gspan.embeddings
              in
              let ranks = reference_ranks gids in
              Array.map dense_entry oi.Occ_index.entries
              = Array.mapi
                  (fun pos entry ->
                    reference_dense ~taxonomy
                      ~class_label:(Graph.node_label cls.Gspan.graph pos)
                      entry)
                  expected
              && Occ_index.size oi = recount
              && oi.Occ_index.occ_gid = Array.of_list gids
              && oi.Occ_index.occ_rank = Array.of_list ranks
              && oi.Occ_index.graph_count
                 = List.length (List.sort_uniq compare gids))
            filters)
        classes)

(* --- Specialize & Taxogram: hand-computed examples ------------------------- *)

(* D = { d-f, e-f }, theta = 1: the only non-over-generalized pattern with
   support 2 is b-f (see DESIGN.md): every generalization of it has the same
   support, and every specialization has support 1. *)
let test_taxogram_hand_example () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 1.0) ()) t db in
  check int "one class" 1 r.Taxogram.class_count;
  check int "one pattern" 1 r.Taxogram.pattern_count;
  check (Alcotest.list Alcotest.string) "pattern is b-f"
    [ "pattern[sup=2 (1.00)] 0:b 1:f (0-1)" ]
    (pattern_strings t r.Taxogram.patterns)

(* Example 1.1 of the paper: two pathways share no explicit edge, yet the
   generalized pattern transporter-helicase is in both. *)
let test_taxogram_go_excerpt () =
  let t = go_excerpt () in
  let db =
    Db.of_list
      [
        g ~labels:[| id t "carrier"; id t "dna_helicase" |] ~edges:[ (0, 1, 0) ];
        g ~labels:[| id t "cation_transporter"; id t "helicase" |] ~edges:[ (0, 1, 0) ];
      ]
  in
  (* traditional (exact) mining finds nothing *)
  let exact = Gspan.mine_list ~min_support:2 db in
  check int "gspan alone finds nothing" 0 (List.length exact);
  (* Taxogram finds the implicit pattern *)
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 1.0) ()) t db in
  check (Alcotest.list Alcotest.string) "transporter-helicase"
    [ "pattern[sup=2 (1.00)] 0:transporter 1:helicase (0-1)" ]
    (pattern_strings t r.Taxogram.patterns)

let test_taxogram_no_patterns_below_support () =
  let t = small_taxonomy () in
  let db =
    Db.of_list
      [
        g ~labels:[| id t "d"; id t "d" |] ~edges:[ (0, 1, 0) ];
        g ~labels:[| id t "f"; id t "f" |] ~edges:[ (0, 1, 1) ];
      ]
  in
  (* different edge labels: no pattern occurs in both graphs *)
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 1.0) ()) t db in
  check int "nothing at theta 1" 0 r.Taxogram.pattern_count;
  (* at theta 0.5 both a-a variants qualify *)
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 0.5) ()) t db in
  check bool "patterns at theta 0.5" true (r.Taxogram.pattern_count > 0)

let test_taxogram_flat_taxonomy_equals_gspan () =
  (* with a flat taxonomy Taxogram degenerates to plain gSpan *)
  let t =
    Taxonomy.build ~names:[ "x"; "y"; "z" ] ~is_a:[]
  in
  let db =
    Db.of_list
      [
        g ~labels:[| 0; 1; 2 |] ~edges:[ (0, 1, 0); (1, 2, 0) ];
        g ~labels:[| 0; 1; 1 |] ~edges:[ (0, 1, 0); (1, 2, 0) ];
      ]
  in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 1.0) ()) t db in
  let mined = Gspan.mine_list ~min_support:2 db in
  check int "same count" (List.length mined) r.Taxogram.pattern_count;
  let keys l = List.sort compare (List.map (fun p -> Pattern.key p) l) in
  let gspan_keys =
    List.sort compare
      (List.map
         (fun p -> Tsg_gspan.Min_code.canonical_key p.Gspan.graph)
         mined)
  in
  check (Alcotest.list Alcotest.string) "same patterns" gspan_keys
    (keys r.Taxogram.patterns)

let test_taxogram_max_edges () =
  let t = small_taxonomy () in
  let db =
    Db.of_list
      [ g ~labels:[| id t "d"; id t "f"; id t "d" |] ~edges:[ (0, 1, 0); (1, 2, 0) ] ]
  in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config ~max_edges:(Some 1) 1.0) ()) t db in
  check bool "only 1-edge patterns" true
    (List.for_all (fun p -> Pattern.edge_count p = 1) r.Taxogram.patterns)

let test_taxogram_streaming_equals_run () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let streamed = ref [] in
  let result =
    Taxogram.run (Taxogram.Spec.stream ~config:(config 0.5) ~domains:1 (fun p -> streamed := p :: !streamed))
      t db
  in
  let direct = Taxogram.run (Taxogram.Spec.collect ~config:(config 0.5) ()) t db in
  check bool "same patterns" true
    (Pattern.equal_sets !streamed direct.Taxogram.patterns);
  check int "count matches" result.Taxogram.pattern_count
    (List.length !streamed);
  check int "empty patterns field" 0 (List.length result.Taxogram.patterns)

let test_taxogram_timing_fields () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 1.0) ()) t db in
  check bool "timings non-negative" true
    (r.Taxogram.relabel_wall_seconds >= 0.0
    && r.Taxogram.mining_wall_seconds >= 0.0
    && r.Taxogram.enumerate_wall_seconds >= 0.0
    && r.Taxogram.total_wall_seconds >= 0.0);
  check bool "stats populated" true
    (r.Taxogram.spec_stats.Specialize.intersections > 0);
  check bool "occurrence-index accounting populated" true
    (r.Taxogram.oi_entries > 0 && r.Taxogram.oi_set_members > 0);
  (* without the label prefilter the indices can only grow *)
  let r' = Taxogram.run (Taxogram.Spec.collect ~config:(Taxogram.baseline_config) ()) t db in
  check bool "prefilter shrinks indices" true
    (r.Taxogram.oi_entries <= r'.Taxogram.oi_entries)

let test_frequent_label_filter () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let keep = Taxogram.frequent_label_filter t db ~min_support:2 in
  check bool "a frequent" true (keep (id t "a"));
  check bool "b frequent (d,e under it)" true (keep (id t "b"));
  check bool "f frequent" true (keep (id t "f"));
  check bool "d infrequent" false (keep (id t "d"));
  check bool "out of range" false (keep 999);
  (* upward closure: every ancestor of a kept label is kept *)
  List.iter
    (fun l ->
      if keep l then
        List.iter
          (fun anc -> check bool "upward closed" true (keep anc))
          (Taxonomy.strict_ancestors t l))
    (List.init (Taxonomy.label_count t) (fun i -> i))

(* over-generalization subtleties: Lemma 3 — an over-generalized pattern can
   have a non-over-generalized generalization. *)
let test_lemma3_shape () =
  (* taxonomy: a -> {b, c}; D: two graphs both containing b-x; one also c-x.
     With x flat. Pattern (a-x) support 2; (b-x) support 2 -> (a-x)
     over-generalized. *)
  let t =
    Taxonomy.build ~names:[ "a"; "b"; "c"; "x" ]
      ~is_a:[ ("b", "a"); ("c", "a") ]
  in
  let db =
    Db.of_list
      [
        g ~labels:[| id t "b"; id t "x" |] ~edges:[ (0, 1, 0) ];
        g
          ~labels:[| id t "b"; id t "x"; id t "c" |]
          ~edges:[ (0, 1, 0); (1, 2, 0) ];
      ]
  in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 1.0) ()) t db in
  let strings = pattern_strings t r.Taxogram.patterns in
  check bool "b-x survives" true
    (List.exists (fun s -> s = "pattern[sup=2 (1.00)] 0:b 1:x (0-1)") strings);
  check bool "a-x eliminated as over-generalized" true
    (not (List.exists (fun s -> s = "pattern[sup=2 (1.00)] 0:a 1:x (0-1)") strings))

(* --- edge cases ------------------------------------------------------------- *)

let test_taxogram_empty_db () =
  let t = small_taxonomy () in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 0.5) ()) t (Db.of_list []) in
  check int "no classes" 0 r.Taxogram.class_count;
  check int "no patterns" 0 r.Taxogram.pattern_count

let test_taxogram_single_graph () =
  let t = small_taxonomy () in
  let db = Db.of_list [ g ~labels:[| id t "d"; id t "f" |] ~edges:[ (0, 1, 0) ] ] in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 1.0) ()) t db in
  (* with one graph, the only non-over-generalized pattern is the fully
     specific d-f (all generalizations share its support) *)
  check (Alcotest.list Alcotest.string) "most specific survives"
    [ "pattern[sup=1 (1.00)] 0:d 1:f (0-1)" ]
    (pattern_strings t r.Taxogram.patterns)

let test_taxogram_edgeless_graphs () =
  let t = small_taxonomy () in
  let db =
    Db.of_list
      [
        Graph.build ~labels:[| id t "d" |] ~edges:[];
        Graph.build ~labels:[| id t "e" |] ~edges:[];
      ]
  in
  (* patterns need at least one edge: nothing to mine *)
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 1.0) ()) t db in
  check int "no patterns from edgeless graphs" 0 r.Taxogram.pattern_count

let test_edge_labels_distinguish_patterns () =
  let t = small_taxonomy () in
  let db =
    Db.of_list
      [
        g ~labels:[| id t "d"; id t "f" |] ~edges:[ (0, 1, 7) ];
        g ~labels:[| id t "e"; id t "f" |] ~edges:[ (0, 1, 7) ];
        g ~labels:[| id t "d"; id t "f" |] ~edges:[ (0, 1, 8) ];
      ]
  in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 0.5) ()) t db in
  let with_edge_label l =
    List.filter
      (fun (p : Pattern.t) ->
        Array.exists (fun (_, _, el) -> el = l) (Graph.edges p.Pattern.graph))
      r.Taxogram.patterns
  in
  (* b-f via edge label 7 has support 2; via edge label 8 only 1 *)
  check bool "label-7 patterns found" true (with_edge_label 7 <> []);
  check bool "label-8 patterns infrequent" true (with_edge_label 8 = []);
  List.iter
    (fun (p : Pattern.t) ->
      check int "support 2" 2 p.Pattern.support_count)
    r.Taxogram.patterns

let test_specialize_stats_consistent () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let stats = Specialize.fresh_stats () in
  let relabeled = Relabel.db t db in
  let classes = Gspan.mine_list ~min_support:2 relabeled in
  let oi = Occ_index.build ~taxonomy:t ~original:db (List.hd classes) in
  Specialize.enumerate ~taxonomy:t ~min_support:2
    ~enhancements:Specialize.all_off ~stats oi (fun _ -> ());
  check bool "emitted <= visited" true
    (stats.Specialize.emitted <= stats.Specialize.visited);
  check bool "over-generalized <= visited" true
    (stats.Specialize.over_generalized <= stats.Specialize.visited);
  check bool "did some intersections" true (stats.Specialize.intersections > 0)

let test_taxogram_time_budget () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let expired = Tsg_util.Timer.Budget.of_seconds (-1.0) in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 1.0) ~budget:expired ()) t db in
  check bool "reported incomplete" false r.Taxogram.completed;
  let r' = Taxogram.run (Taxogram.Spec.collect ~config:(config 1.0) ()) t db in
  check bool "unlimited completes" true r'.Taxogram.completed

let test_run_parallel_equals_sequential () =
  let rng = Prng.of_int 17 in
  let t =
    Tsg_taxonomy.Synth_taxonomy.generate rng
      { concepts = 60; relationships = 90; depth = 5 }
  in
  let sampler = Tsg_data.Synth_graph.uniform_labels t in
  let db =
    Tsg_data.Synth_graph.generate rng
      {
        Tsg_data.Synth_graph.graph_count = 25;
        max_edges = 8;
        edge_density = 0.3;
        edge_label_count = 2;
        node_label = sampler;
      }
  in
  let cfg = config ~max_edges:(Some 3) 0.2 in
  let sequential = Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains:1 ()) t db in
  List.iter
    (fun domains ->
      let parallel = Taxogram.run (Taxogram.Spec.collect ~config:cfg ~domains ()) t db in
      check bool
        (Printf.sprintf "parallel(%d) = sequential" domains)
        true
        (Pattern.equal_sets sequential.Taxogram.patterns
           parallel.Taxogram.patterns);
      check int "class counts agree" sequential.Taxogram.class_count
        parallel.Taxogram.class_count;
      check int "stats: visited agree"
        sequential.Taxogram.spec_stats.Specialize.visited
        parallel.Taxogram.spec_stats.Specialize.visited)
    [ 1; 2; 4 ]

let test_pattern_pp_edge_labels () =
  let set = Bitset.of_list 1 [ 0 ] in
  let names = Taxonomy.labels (small_taxonomy ()) in
  let p0 =
    Pattern.make ~db_size:1 (g ~labels:[| 0; 1 |] ~edges:[ (0, 1, 0) ]) set
  in
  let p9 =
    Pattern.make ~db_size:1 (g ~labels:[| 0; 1 |] ~edges:[ (0, 1, 9) ]) set
  in
  check Alcotest.string "label 0 implicit" "pattern[sup=1 (1.00)] 0:a 1:b (0-1)"
    (Pattern.to_string ~names p0);
  check Alcotest.string "label 9 shown" "pattern[sup=1 (1.00)] 0:a 1:b (0-1/9)"
    (Pattern.to_string ~names p9)

(* --- enhancement configurations ------------------------------------------- *)

let enhancement_configs =
  [
    ("all on", Specialize.all_on);
    ("all off", Specialize.all_off);
    ("only (a)", { Specialize.all_off with child_pruning = true });
    ("only (b)", { Specialize.all_off with label_prefilter = true });
    ("only (c)", { Specialize.all_off with start_preprocess = true });
    ("only (d)", { Specialize.all_off with collapse_equal_children = true });
    ("(a)+(b)", { Specialize.all_off with child_pruning = true; label_prefilter = true });
    ("(c)+(d)", { Specialize.all_off with start_preprocess = true; collapse_equal_children = true });
  ]

let test_enhancements_equivalent () =
  let t = small_taxonomy () in
  let db =
    Db.of_list
      [
        g ~labels:[| id t "d"; id t "f"; id t "e" |] ~edges:[ (0, 1, 0); (1, 2, 0) ];
        g ~labels:[| id t "e"; id t "f"; id t "d" |] ~edges:[ (0, 1, 0); (1, 2, 0) ];
        g ~labels:[| id t "d"; id t "c" |] ~edges:[ (0, 1, 0) ];
      ]
  in
  let reference =
    (Taxogram.run (Taxogram.Spec.collect ~config:(config 0.5) ()) t db).Taxogram.patterns
  in
  List.iter
    (fun (name, enh) ->
      let r =
        Taxogram.run (Taxogram.Spec.collect ~config:{ (config 0.5) with enhancements = enh } ())
          t db
      in
      check bool (name ^ " equals all-on") true
        (Pattern.equal_sets reference r.Taxogram.patterns))
    enhancement_configs

(* enhancement (c) on a DAG: a -> b, b -> {c1, c2}, and d under both c1
   and c2. Every node label descends from b, so OcS(b) = OcS(a) and each
   start label advances from a to b: every covered label below a is
   below b. It stops there: OcS(c1) = OcS(b) too, but c2 (covered through
   d) is not below c1. *)
let test_start_preprocess_advances_on_dag () =
  let t =
    Taxonomy.build
      ~names:[ "a"; "b"; "c1"; "c2"; "d" ]
      ~is_a:[ ("b", "a"); ("c1", "b"); ("c2", "b"); ("d", "c1"); ("d", "c2") ]
  in
  let db =
    Db.of_list
      [
        g ~labels:[| id t "d"; id t "d" |] ~edges:[ (0, 1, 0) ];
        g ~labels:[| id t "c1"; id t "d" |] ~edges:[ (0, 1, 0) ];
        g ~labels:[| id t "d"; id t "c1" |] ~edges:[ (0, 1, 0) ];
      ]
  in
  let run enh =
    Taxogram.run
      (Taxogram.Spec.collect
         ~config:{ (config 0.5) with enhancements = enh } ())
      t db
  in
  let off = run Specialize.all_off in
  let on = run { Specialize.all_off with start_preprocess = true } in
  let naive = Naive.mine ~max_edges:3 ~min_support:0.5 t db in
  check bool "(c) on = naive" true (Pattern.equal_sets naive on.Taxogram.patterns);
  check bool "(c) off = naive" true
    (Pattern.equal_sets naive off.Taxogram.patterns);
  check bool "(c) saves visits" true
    (on.Taxogram.spec_stats.Specialize.visited
    < off.Taxogram.spec_stats.Specialize.visited)

(* one fixed seeded instance: a 60-concept depth-5 DAG under 30 graphs *)
let enhancements_instance () =
  let rng = Prng.of_int 11 in
  let t =
    Tsg_taxonomy.Synth_taxonomy.generate rng
      { concepts = 60; relationships = 90; depth = 5 }
  in
  let sampler = Tsg_data.Synth_graph.uniform_labels t in
  let db =
    Tsg_data.Synth_graph.generate rng
      {
        Tsg_data.Synth_graph.graph_count = 30;
        max_edges = 8;
        edge_density = 0.3;
        edge_label_count = 2;
        node_label = sampler;
      }
  in
  (t, db)

let run_enhanced t db enh =
  Taxogram.run
    (Taxogram.Spec.collect
       ~config:{ (config ~max_edges:(Some 3) 0.2) with enhancements = enh } ())
    t db

let test_enhancements_reduce_work () =
  let t, db = enhancements_instance () in
  let run enh =
    let r = run_enhanced t db enh in
    (r.Taxogram.patterns, r.Taxogram.spec_stats.Specialize.intersections)
  in
  let on_patterns, on_work = run Specialize.all_on in
  let off_patterns, off_work = run Specialize.all_off in
  check bool "same output" true (Pattern.equal_sets on_patterns off_patterns);
  check bool "enhancements reduce intersections" true (on_work <= off_work)

(* Step 3's exact work on one fixed instance, recorded from the
   reference walk: a kernel change that alters the visits, intersections
   or emissions fails here, not only in the benchmark *)
let test_work_counts_pinned () =
  let t, db = enhancements_instance () in
  let counts r =
    let s = r.Taxogram.spec_stats in
    [
      ("intersections", s.Specialize.intersections);
      ("visited", s.Specialize.visited);
      ("emitted", s.Specialize.emitted);
      ("over_generalized", s.Specialize.over_generalized);
      ("class_count", r.Taxogram.class_count);
      ("oi_entries", r.Taxogram.oi_entries);
      ("oi_set_members", r.Taxogram.oi_set_members);
    ]
  in
  List.iter
    (fun (name, enh, expected) ->
      check
        (Alcotest.list (Alcotest.pair Alcotest.string int))
        name expected
        (counts (run_enhanced t db enh)))
    [
      ( "all on",
        Specialize.all_on,
        [
          ("intersections", 6006);
          ("visited", 282);
          ("emitted", 172);
          ("over_generalized", 12);
          ("class_count", 13);
          ("oi_entries", 1166);
          ("oi_set_members", 9899);
        ] );
      ( "all off",
        Specialize.all_off,
        [
          ("intersections", 1459598);
          ("visited", 93784);
          ("emitted", 172);
          ("over_generalized", 91057);
          ("class_count", 13);
          ("oi_entries", 1689);
          ("oi_set_members", 11103);
        ] );
    ]

(* --- TAcGM ----------------------------------------------------------------- *)

let test_tacgm_hand_example () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let r = Tacgm.run ~min_support:1.0 t db in
  check bool "completed" true (r.Tacgm.outcome = Tacgm.Completed);
  check (Alcotest.list Alcotest.string) "same as taxogram"
    [ "pattern[sup=2 (1.00)] 0:b 1:f (0-1)" ]
    (pattern_strings t r.Tacgm.patterns);
  check bool "iso tests counted" true (r.Tacgm.iso_tests > 0);
  check bool "level reached" true (r.Tacgm.levels_completed >= 1)

let test_tacgm_oom () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let r = Tacgm.run ~embedding_budget:1 ~min_support:1.0 t db in
  check bool "out of memory" true (r.Tacgm.outcome = Tacgm.Out_of_memory)

let test_tacgm_timeout () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let r =
    Tacgm.run
      ~time_budget:(Tsg_util.Timer.Budget.of_seconds (-1.0))
      ~min_support:1.0 t db
  in
  check bool "timed out" true (r.Tacgm.outcome = Tacgm.Timed_out)

let test_tacgm_max_edges () =
  let t = small_taxonomy () in
  let db =
    Db.of_list
      [
        g ~labels:[| id t "d"; id t "f"; id t "e" |] ~edges:[ (0, 1, 0); (1, 2, 0) ];
        g ~labels:[| id t "d"; id t "f"; id t "e" |] ~edges:[ (0, 1, 0); (1, 2, 0) ];
      ]
  in
  let r = Tacgm.run ~max_edges:1 ~min_support:1.0 t db in
  check bool "capped" true
    (List.for_all (fun p -> Pattern.edge_count p = 1) r.Tacgm.patterns)

(* --- Naive ------------------------------------------------------------------ *)

let test_naive_connected_subgraphs () =
  let path = g ~labels:[| 0; 1; 2 |] ~edges:[ (0, 1, 0); (1, 2, 0) ] in
  check int "path3: 2 single edges + 1 path" 3
    (List.length (Naive.connected_subgraphs ~max_edges:2 path));
  let triangle = g ~labels:[| 0; 0; 0 |] ~edges:[ (0, 1, 0); (1, 2, 0); (0, 2, 0) ] in
  check int "triangle: 3 + 3 + 1" 7
    (List.length (Naive.connected_subgraphs ~max_edges:3 triangle));
  check int "edge cap respected" 6
    (List.length (Naive.connected_subgraphs ~max_edges:2 triangle));
  List.iter
    (fun sub -> check bool "connected" true (Graph.is_connected sub))
    (Naive.connected_subgraphs ~max_edges:3 triangle)

let test_naive_generalizations () =
  let t = small_taxonomy () in
  let graph = g ~labels:[| id t "d"; id t "f" |] ~edges:[ (0, 1, 0) ] in
  (* d has ancestors {d,b,a}, f has {f,c,a}: 9 combinations *)
  check int "product of ancestor counts" 9
    (List.length (Naive.generalizations t graph))

(* --- Postprocess ------------------------------------------------------------ *)

let mk_pattern t db_size labels edges graphs =
  ignore t;
  Pattern.make ~db_size (g ~labels ~edges) (Bitset.of_list db_size graphs)

let test_postprocess_closed () =
  let t = small_taxonomy () in
  (* d-f embeds in d-f-e with the same support set: not closed *)
  let small = mk_pattern t 3 [| id t "d"; id t "f" |] [ (0, 1, 0) ] [ 0; 1 ] in
  let big =
    mk_pattern t 3
      [| id t "d"; id t "f"; id t "e" |]
      [ (0, 1, 0); (1, 2, 0) ]
      [ 0; 1 ]
  in
  let other = mk_pattern t 3 [| id t "e"; id t "f" |] [ (0, 1, 0) ] [ 0; 2 ] in
  let closed = Tsg_core.Postprocess.closed t [ small; big; other ] in
  check bool "small dropped" true
    (not (List.exists (fun p -> Pattern.key p = Pattern.key small) closed));
  check bool "big kept" true
    (List.exists (fun p -> Pattern.key p = Pattern.key big) closed);
  check bool "different support kept" true
    (List.exists (fun p -> Pattern.key p = Pattern.key other) closed)

let test_postprocess_closed_respects_support () =
  let t = small_taxonomy () in
  (* same embedding but strictly larger support set: stays closed *)
  let small = mk_pattern t 3 [| id t "d"; id t "f" |] [ (0, 1, 0) ] [ 0; 1; 2 ] in
  let big =
    mk_pattern t 3
      [| id t "d"; id t "f"; id t "e" |]
      [ (0, 1, 0); (1, 2, 0) ]
      [ 0; 1 ]
  in
  let closed = Tsg_core.Postprocess.closed t [ small; big ] in
  check int "both survive" 2 (List.length closed)

let test_postprocess_maximal () =
  let t = small_taxonomy () in
  let small = mk_pattern t 3 [| id t "d"; id t "f" |] [ (0, 1, 0) ] [ 0; 1; 2 ] in
  let big =
    mk_pattern t 3
      [| id t "b"; id t "f"; id t "e" |]
      [ (0, 1, 0); (1, 2, 0) ]
      [ 0 ]
  in
  (* small (d-f) gen-embeds in big? pattern labels d,f vs target b,f,e:
     d must be ancestor of a target label — it is not, so small is maximal
     too. Use a generalized small instead. *)
  let general_small = mk_pattern t 3 [| id t "b"; id t "f" |] [ (0, 1, 0) ] [ 0 ] in
  let kept = Tsg_core.Postprocess.maximal t [ small; big; general_small ] in
  check bool "general small subsumed" true
    (not
       (List.exists (fun p -> Pattern.key p = Pattern.key general_small) kept));
  check bool "big kept" true
    (List.exists (fun p -> Pattern.key p = Pattern.key big) kept);
  check bool "incomparable small kept" true
    (List.exists (fun p -> Pattern.key p = Pattern.key small) kept)

let test_postprocess_subsumption_direction () =
  let t = small_taxonomy () in
  let small = mk_pattern t 2 [| id t "b"; id t "c" |] [ (0, 1, 0) ] [ 0 ] in
  let big =
    mk_pattern t 2
      [| id t "d"; id t "f"; id t "e" |]
      [ (0, 1, 0); (1, 2, 0) ] [ 0 ]
  in
  check bool "small in big" true (Tsg_core.Postprocess.is_subsumed_by t small big);
  check bool "big not in small" false
    (Tsg_core.Postprocess.is_subsumed_by t big small);
  check bool "not reflexive" false (Tsg_core.Postprocess.is_subsumed_by t small small)

(* --- Pattern_io ------------------------------------------------------------- *)

let test_pattern_io_roundtrip () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 0.5) ()) t db in
  let node_labels = Taxonomy.labels t in
  let edge_labels = Tsg_graph.Label.of_names [ "e0" ] in
  let text =
    Tsg_core.Pattern_io.to_string ~node_labels ~edge_labels ~db_size:2
      r.Taxogram.patterns
  in
  let loaded, size =
    Tsg_core.Pattern_io.parse ~node_labels ~edge_labels text
  in
  check int "db size recorded" 2 size;
  check int "count preserved" (List.length r.Taxogram.patterns)
    (List.length loaded);
  List.iter2
    (fun (a : Pattern.t) (b : Pattern.t) ->
      check Alcotest.string "pattern keys" (Pattern.key a) (Pattern.key b);
      check int "supports" a.Pattern.support_count b.Pattern.support_count)
    r.Taxogram.patterns loaded

let test_pattern_io_errors () =
  let nl = Tsg_graph.Label.create () and el = Tsg_graph.Label.create () in
  let expect text =
    match Tsg_core.Pattern_io.parse ~node_labels:nl ~edge_labels:el text with
    | exception Tsg_core.Pattern_io.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect "v 0 a\n";
  expect "p # 0 support x/2\nv 0 a\n";
  expect "p # 0 support 3/2\nv 0 a\n";
  expect "p # 0 support 1/2\nnonsense\n";
  (* malformed %XX escapes in label names *)
  expect "p # 0 support 1/2\nv 0 a%2\n";
  expect "p # 0 support 1/2\nv 0 a%zz\n"

let test_pattern_io_nasty_names () =
  let node_labels =
    Tsg_graph.Label.of_names [ "has space"; "100% sure"; "tab\there"; "" ]
  in
  let edge_labels = Tsg_graph.Label.of_names [ "e"; "% of total" ] in
  let mk labels edges support =
    Pattern.make ~db_size:3 (g ~labels ~edges) (Bitset.of_list 3 support)
  in
  let patterns =
    [
      mk [| 0; 1 |] [ (0, 1, 1) ] [ 0; 2 ];
      mk [| 2; 3 |] [ (0, 1, 0) ] [ 1 ];
    ]
  in
  let text =
    Tsg_core.Pattern_io.to_string ~node_labels ~edge_labels ~db_size:3 patterns
  in
  (* reload into FRESH label tables: only the escaping carries the names *)
  let nl = Tsg_graph.Label.create () and el = Tsg_graph.Label.create () in
  let loaded, size =
    Tsg_core.Pattern_io.parse ~node_labels:nl ~edge_labels:el text
  in
  check int "db size" 3 size;
  check int "count" 2 (List.length loaded);
  List.iter2
    (fun (a : Pattern.t) (b : Pattern.t) ->
      check int "supports" a.Pattern.support_count b.Pattern.support_count;
      let ga = a.Pattern.graph and gb = b.Pattern.graph in
      for v = 0 to Graph.node_count ga - 1 do
        check Alcotest.string "node name survives"
          (Tsg_graph.Label.name node_labels (Graph.node_label ga v))
          (Tsg_graph.Label.name nl (Graph.node_label gb v))
      done;
      Array.iter2
        (fun (_, _, la) (_, _, lb) ->
          check Alcotest.string "edge name survives"
            (Tsg_graph.Label.name edge_labels la)
            (Tsg_graph.Label.name el lb))
        (Graph.edges ga) (Graph.edges gb))
    patterns loaded

(* --- Interest ----------------------------------------------------------------- *)

let test_interest_frequencies () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let freq = Tsg_core.Interest.label_frequencies t db in
  check int "a in both" 2 freq.(id t "a");
  check int "b in both (d,e)" 2 freq.(id t "b");
  check int "d in one" 1 freq.(id t "d");
  check int "f in both" 2 freq.(id t "f")

let test_interest_ratio () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let freq = Tsg_core.Interest.label_frequencies t db in
  (* b-f: sup 2. generalization a-f: sup 2, share f(b)/f(a) = 1
     -> expected 2, ratio 1. generalization b-c likewise. *)
  let p = mk_pattern t 2 [| id t "b"; id t "f" |] [ (0, 1, 0) ] [ 0; 1 ] in
  check (Alcotest.float 1e-9) "expected ratio 1" 1.0
    (Tsg_core.Interest.ratio t db ~freq p);
  (* d-f: sup 1. generalization b-f: sup 2, share f(d)/f(b) = 1/2 ->
     expected 1, ratio 1; generalization d-c: sup 1, share f(f)/f(c)=1 ->
     expected 1 -> min ratio 1 *)
  let spec = mk_pattern t 2 [| id t "d"; id t "f" |] [ (0, 1, 0) ] [ 0 ] in
  check (Alcotest.float 1e-9) "specialization ratio" 1.0
    (Tsg_core.Interest.ratio t db ~freq spec)

let test_interest_root_pattern_infinite () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let freq = Tsg_core.Interest.label_frequencies t db in
  let p = mk_pattern t 2 [| id t "a"; id t "a" |] [ (0, 1, 0) ] [ 0; 1 ] in
  check bool "no generalization -> infinite" true
    (Tsg_core.Interest.ratio t db ~freq p = infinity)

let test_interest_rank () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let r = Taxogram.run (Taxogram.Spec.collect ~config:(config 0.5) ()) t db in
  let ranked = Tsg_core.Interest.rank ~r:0.0 t db r.Taxogram.patterns in
  check int "all patterns ranked at r=0" (List.length r.Taxogram.patterns)
    (List.length ranked);
  let rec descending = function
    | a :: (b :: _ as rest) ->
      a.Tsg_core.Interest.ratio >= b.Tsg_core.Interest.ratio && descending rest
    | _ -> true
  in
  check bool "sorted by ratio" true (descending ranked);
  let high = Tsg_core.Interest.rank ~r:1e9 t db r.Taxogram.patterns in
  check bool "high threshold keeps only infinite" true
    (List.for_all (fun x -> x.Tsg_core.Interest.ratio = infinity) high)

(* --- cross-algorithm agreement (the paper's completeness/minimality) ------- *)

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
  let ngraphs = 2 + Prng.int rng 3 in
  let graphs =
    List.init ngraphs (fun _ ->
        let n = 2 + Prng.int rng 3 in
        let labels = Array.init n (fun _ -> Prng.int rng nlabels) in
        let edges = ref [] in
        for v = 1 to n - 1 do
          edges := (v, Prng.int rng v, Prng.int rng 2) :: !edges
        done;
        if n >= 3 && Prng.bool rng then begin
          let u = Prng.int rng n and v = Prng.int rng n in
          if
            u <> v
            && not
                 (List.exists
                    (fun (a, b, _) -> (a = u && b = v) || (a = v && b = u))
                    !edges)
          then edges := (u, v, Prng.int rng 2) :: !edges
        end;
        g ~labels ~edges:!edges)
  in
  (tax, Db.of_list graphs)

let arb_instance =
  QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) (int_bound 2))

let theta_of = function 0 -> 1.0 | 1 -> 0.5 | _ -> 0.34

let taxogram_equals_naive_prop =
  QCheck.Test.make ~name:"taxogram = naive specification" ~count:80
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let theta = theta_of k in
      let naive = Naive.mine ~max_edges:3 ~min_support:theta tax db in
      let r = Taxogram.run (Taxogram.Spec.collect ~config:(config theta) ()) tax db in
      Pattern.equal_sets naive r.Taxogram.patterns)

let baseline_equals_naive_prop =
  QCheck.Test.make ~name:"baseline (no enhancements) = naive" ~count:50
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let theta = theta_of k in
      let naive = Naive.mine ~max_edges:3 ~min_support:theta tax db in
      let r =
        Taxogram.run (Taxogram.Spec.collect ~config:{ (config theta) with enhancements = Specialize.all_off } ())
          tax db
      in
      Pattern.equal_sets naive r.Taxogram.patterns)

let tacgm_equals_naive_prop =
  QCheck.Test.make ~name:"tacgm = naive specification" ~count:40 arb_instance
    (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let theta = theta_of k in
      let naive = Naive.mine ~max_edges:3 ~min_support:theta tax db in
      let r = Tacgm.run ~max_edges:3 ~min_support:theta tax db in
      r.Tacgm.outcome = Tacgm.Completed
      && Pattern.equal_sets naive r.Tacgm.patterns)

(* Reference walk: [Specialize.enumerate] as it was before the dense
   occurrence-index layout and the rank bound — label vectors, hash
   lookups, an exact distinct-graph count on every candidate — with only
   the enhancement-(c) guard corrected. The fast walk must make the same
   visits, tests and emissions, in the same order. *)
let reference_enumerate ~taxonomy ~min_support
    ~(enhancements : Specialize.enhancements) (oi : Occ_index.t) emit =
  let stats = Specialize.fresh_stats () in
  let positions = Graph.node_count oi.Occ_index.class_graph in
  let tables =
    Array.map
      (fun (e : Occ_index.entry) ->
        let t = Hashtbl.create 16 in
        Array.iteri (fun k l -> Hashtbl.add t l e.sets.(k)) e.labels;
        t)
      oi.Occ_index.entries
  in
  let occ_set pos l = Hashtbl.find_opt tables.(pos) l in
  let support_of s = Bitset.cardinal (Occ_index.graph_set oi s) in
  let raw_children pos l =
    List.filter (fun c -> occ_set pos c <> None) (Taxonomy.children taxonomy l)
  in
  let collapsed pos l =
    enhancements.collapse_equal_children
    &&
    let own = Option.get (occ_set pos l) in
    List.exists
      (fun c -> Bitset.equal own (Option.get (occ_set pos c)))
      (raw_children pos l)
  in
  let effective_children pos l =
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    let rec go c =
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        if collapsed pos c then List.iter go (raw_children pos c)
        else out := c :: !out
      end
    in
    List.iter go (raw_children pos l);
    List.rev !out
  in
  let advance_start pos l =
    if not enhancements.start_preprocess then l
    else begin
      let covered = Occ_index.covered_labels oi ~position:pos in
      let rec go l =
        let own = Option.get (occ_set pos l) in
        let below_l = Taxonomy.descendant_set taxonomy l in
        let dominates c =
          let below_c = Taxonomy.descendant_set taxonomy c in
          List.for_all
            (fun x ->
              x = l || (not (Bitset.mem below_l x)) || Bitset.mem below_c x)
            covered
        in
        match
          List.find_opt
            (fun c ->
              Bitset.equal own (Option.get (occ_set pos c)) && dominates c)
            (raw_children pos l)
        with
        | Some c -> go c
        | None -> l
      in
      go l
    end
  in
  let visited = Hashtbl.create 256 and emitted_keys = Hashtbl.create 256 in
  let rec visit labels ocs support start =
    stats.visited <- stats.visited + 1;
    let over_generalized = ref false in
    for pos = 0 to positions - 1 do
      List.iter
        (fun c ->
          let child_set = Option.get (occ_set pos c) in
          let scratch = Bitset.inter ocs child_set in
          stats.intersections <- stats.intersections + 1;
          let support' = support_of scratch in
          if support' = support then over_generalized := true;
          if
            pos >= start && support' > 0
            && ((not enhancements.child_pruning) || support' >= min_support)
          then begin
            let labels' = Array.copy labels in
            labels'.(pos) <- c;
            if not (Hashtbl.mem visited labels') then begin
              Hashtbl.add visited labels' ();
              visit labels' scratch support' pos
            end
          end)
        (effective_children pos labels.(pos))
    done;
    if !over_generalized then
      stats.over_generalized <- stats.over_generalized + 1
    else if support >= min_support then begin
      let graph = Graph.relabel oi.Occ_index.class_graph (fun v -> labels.(v)) in
      let key = Tsg_gspan.Min_code.canonical_key graph in
      if not (Hashtbl.mem emitted_keys key) then begin
        Hashtbl.add emitted_keys key ();
        stats.emitted <- stats.emitted + 1;
        emit
          (Pattern.make ~db_size:oi.Occ_index.db_size graph
             (Occ_index.graph_set oi ocs))
      end
    end
  in
  let start_labels =
    Array.init positions (fun pos ->
        advance_start pos (Graph.node_label oi.Occ_index.class_graph pos))
  in
  let ocs = Bitset.copy oi.Occ_index.all_occs in
  Array.iteri
    (fun pos l -> Bitset.inter_into ~dst:ocs ocs (Option.get (occ_set pos l)))
    start_labels;
  let support = support_of ocs in
  Hashtbl.add visited (Array.copy start_labels) ();
  if support > 0 then visit start_labels ocs support 0;
  stats

(* a DAG taxonomy of up to 15 concepts under up to 6 small graphs *)
let walk_instance rng =
  let concepts = 4 + Prng.int rng 12 in
  let tax =
    Tsg_taxonomy.Synth_taxonomy.generate rng
      {
        concepts;
        relationships = concepts + Prng.int rng concepts;
        depth = 2 + Prng.int rng 4;
      }
  in
  let nlabels = Taxonomy.label_count tax in
  let graphs =
    List.init (2 + Prng.int rng 5) (fun _ ->
        let n = 2 + Prng.int rng 4 in
        let labels = Array.init n (fun _ -> Prng.int rng nlabels) in
        let edges = ref [] in
        for v = 1 to n - 1 do
          edges := (v, Prng.int rng v, Prng.int rng 2) :: !edges
        done;
        g ~labels ~edges:!edges)
  in
  (tax, Db.of_list graphs)

let walk_configs =
  let on = Specialize.all_on in
  [
    ("all on", on);
    ("all off", Specialize.all_off);
    ("(a) off", { on with child_pruning = false });
    ("(b) off", { on with label_prefilter = false });
    ("(c) off", { on with start_preprocess = false });
    ("(d) off", { on with collapse_equal_children = false });
  ]

let enumerate_equals_reference_prop =
  QCheck.Test.make ~name:"enumerate = reference walk" ~count:100 arb_instance
    (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let taxonomy, db = walk_instance rng in
      let min_support = Db.support_count_to_threshold db (theta_of k) in
      let classes =
        Gspan.mine_list ~max_edges:3 ~min_support (Relabel.db taxonomy db)
      in
      let names = Taxonomy.labels taxonomy in
      let shown p =
        (Pattern.to_string ~names p, Bitset.to_list p.Pattern.support_set)
      in
      let counts (s : Specialize.stats) =
        (s.intersections, s.visited, s.emitted, s.over_generalized)
      in
      List.for_all
        (fun (name, (enhancements : Specialize.enhancements)) ->
          let keep_label =
            if enhancements.label_prefilter then
              Some (Taxogram.frequent_label_filter taxonomy db ~min_support)
            else None
          in
          List.for_all
            (fun cls ->
              let oi = Occ_index.build ~taxonomy ~original:db ?keep_label cls in
              let fast = ref [] and slow = ref [] in
              let stats = Specialize.fresh_stats () in
              Specialize.enumerate ~taxonomy ~min_support ~enhancements ~stats
                oi (fun p -> fast := shown p :: !fast);
              let expected =
                reference_enumerate ~taxonomy ~min_support ~enhancements oi
                  (fun p -> slow := shown p :: !slow)
              in
              (!fast = !slow && counts stats = counts expected)
              || QCheck.Test.fail_reportf "%s: walks differ" name)
            classes)
        walk_configs)

(* every reported support must agree with a from-scratch recount *)
let supports_verified_prop =
  QCheck.Test.make ~name:"taxogram supports verified by gen-subiso" ~count:60
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let theta = theta_of k in
      let r = Taxogram.run (Taxogram.Spec.collect ~config:(config theta) ()) tax db in
      List.for_all
        (fun (p : Pattern.t) ->
          let recount = Gen_iso.support_set tax ~pattern:p.Pattern.graph db in
          Bitset.equal recount p.Pattern.support_set)
        r.Taxogram.patterns)

(* minimality straight from the definition *)
let minimality_prop =
  QCheck.Test.make ~name:"taxogram output has no over-generalized pattern"
    ~count:60 arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let theta = theta_of k in
      let ps = (Taxogram.run (Taxogram.Spec.collect ~config:(config theta) ()) tax db).Taxogram.patterns in
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

(* --- robustness properties for the extensions -------------------------------- *)

let postprocess_sound_prop =
  QCheck.Test.make ~name:"closed/maximal are sound condensations" ~count:40
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let theta = theta_of k in
      let all = (Taxogram.run (Taxogram.Spec.collect ~config:(config theta) ()) tax db).Taxogram.patterns in
      let closed = Tsg_core.Postprocess.closed tax all in
      let maximal = Tsg_core.Postprocess.maximal tax all in
      let keys l = List.map Pattern.key l in
      let subset a b = List.for_all (fun k -> List.mem k (keys b)) (keys a) in
      (* filters only remove *)
      subset closed all && subset maximal all
      && subset maximal closed
      (* every dropped pattern has a surviving witness that subsumes it *)
      && List.for_all
           (fun (p : Pattern.t) ->
             List.mem (Pattern.key p) (keys closed)
             || List.exists
                  (fun (q : Pattern.t) ->
                    Tsg_util.Bitset.equal p.Pattern.support_set
                      q.Pattern.support_set
                    && Tsg_core.Postprocess.is_subsumed_by tax p q)
                  all)
           all)

let interest_nonnegative_prop =
  QCheck.Test.make ~name:"interest ratios are non-negative and rank-sorted"
    ~count:40 arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let theta = theta_of k in
      let ps = (Taxogram.run (Taxogram.Spec.collect ~config:(config theta) ()) tax db).Taxogram.patterns in
      let ranked = Tsg_core.Interest.rank ~r:0.0 tax db ps in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          a.Tsg_core.Interest.ratio >= b.Tsg_core.Interest.ratio && sorted rest
        | _ -> true
      in
      List.length ranked = List.length ps
      && List.for_all (fun x -> x.Tsg_core.Interest.ratio >= 0.0) ranked
      && sorted ranked)

(* save/load is the identity on mined pattern sets, including when label
   names need escaping; the support set itself is not serialized, so
   compare keys and cardinalities *)
let pattern_io_roundtrip_prop =
  QCheck.Test.make ~name:"pattern_io round-trips mined sets" ~count:60
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let patterns =
        (Taxogram.run (Taxogram.Spec.collect ~config:(config (theta_of k)) ()) tax db).Taxogram.patterns
      in
      QCheck.assume (patterns <> []);
      let node_labels = Taxonomy.labels tax in
      let edge_labels = Tsg_graph.Label.of_names [ "edge zero"; "100%" ] in
      let text =
        Tsg_core.Pattern_io.to_string ~node_labels ~edge_labels
          ~db_size:(Db.size db) patterns
      in
      let loaded, size =
        Tsg_core.Pattern_io.parse ~node_labels ~edge_labels text
      in
      size = Db.size db
      && List.length loaded = List.length patterns
      && List.for_all2
           (fun (a : Pattern.t) (b : Pattern.t) ->
             Pattern.key a = Pattern.key b
             && a.Pattern.support_count = b.Pattern.support_count)
           patterns loaded)

let parallel_equals_sequential_prop =
  QCheck.Test.make ~name:"domains=3 = domains=1 on random instances" ~count:30
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let theta = theta_of k in
      let a =
        Taxogram.run (Taxogram.Spec.collect ~config:(config theta) ~domains:1 ()) tax db
      in
      let b =
        Taxogram.run (Taxogram.Spec.collect ~config:(config theta) ~domains:3 ()) tax db
      in
      Pattern.equal_sets a.Taxogram.patterns b.Taxogram.patterns)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "core"
    [
      ( "pattern",
        [
          Alcotest.test_case "make" `Quick test_pattern_make;
          Alcotest.test_case "key isomorphism" `Quick test_pattern_key_iso;
          Alcotest.test_case "sort and sort_groups" `Quick
            test_pattern_sort_groups;
        ] );
      ("relabel", [ Alcotest.test_case "most general" `Quick test_relabel ]);
      ( "occ_index",
        [
          Alcotest.test_case "build" `Quick test_occ_index_build;
          Alcotest.test_case "graph sets" `Quick test_occ_index_graph_set;
          Alcotest.test_case "keep_label" `Quick test_occ_index_keep_label;
          Alcotest.test_case "embeddings out of graph-id order" `Quick
            test_occ_index_rejects_unordered;
        ]
        @ qsuite [ occ_index_matches_reference_prop ] );
      ( "taxogram",
        [
          Alcotest.test_case "hand example" `Quick test_taxogram_hand_example;
          Alcotest.test_case "GO excerpt (Example 1.1)" `Quick
            test_taxogram_go_excerpt;
          Alcotest.test_case "support threshold" `Quick
            test_taxogram_no_patterns_below_support;
          Alcotest.test_case "flat taxonomy = gSpan" `Quick
            test_taxogram_flat_taxonomy_equals_gspan;
          Alcotest.test_case "max edges" `Quick test_taxogram_max_edges;
          Alcotest.test_case "streaming = run" `Quick
            test_taxogram_streaming_equals_run;
          Alcotest.test_case "timings/stats" `Quick test_taxogram_timing_fields;
          Alcotest.test_case "frequent label filter" `Quick
            test_frequent_label_filter;
          Alcotest.test_case "lemma 3 shape" `Quick test_lemma3_shape;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty db" `Quick test_taxogram_empty_db;
          Alcotest.test_case "single graph" `Quick test_taxogram_single_graph;
          Alcotest.test_case "edgeless graphs" `Quick
            test_taxogram_edgeless_graphs;
          Alcotest.test_case "edge labels distinguish" `Quick
            test_edge_labels_distinguish_patterns;
          Alcotest.test_case "specialize stats" `Quick
            test_specialize_stats_consistent;
          Alcotest.test_case "time budget" `Quick test_taxogram_time_budget;
          Alcotest.test_case "parallel = sequential" `Quick
            test_run_parallel_equals_sequential;
          Alcotest.test_case "pattern printing" `Quick
            test_pattern_pp_edge_labels;
        ] );
      ( "enhancements",
        [
          Alcotest.test_case "all configurations equivalent" `Quick
            test_enhancements_equivalent;
          Alcotest.test_case "reduce work" `Quick test_enhancements_reduce_work;
          Alcotest.test_case "step-3 work counts pinned" `Quick
            test_work_counts_pinned;
          Alcotest.test_case "(c) advances on a DAG" `Quick
            test_start_preprocess_advances_on_dag;
        ] );
      ( "tacgm",
        [
          Alcotest.test_case "hand example" `Quick test_tacgm_hand_example;
          Alcotest.test_case "out of memory" `Quick test_tacgm_oom;
          Alcotest.test_case "timeout" `Quick test_tacgm_timeout;
          Alcotest.test_case "max edges" `Quick test_tacgm_max_edges;
        ] );
      ( "naive",
        [
          Alcotest.test_case "connected subgraphs" `Quick
            test_naive_connected_subgraphs;
          Alcotest.test_case "generalizations" `Quick
            test_naive_generalizations;
        ] );
      ( "postprocess",
        [
          Alcotest.test_case "closed" `Quick test_postprocess_closed;
          Alcotest.test_case "closed respects support" `Quick
            test_postprocess_closed_respects_support;
          Alcotest.test_case "maximal" `Quick test_postprocess_maximal;
          Alcotest.test_case "subsumption direction" `Quick
            test_postprocess_subsumption_direction;
        ] );
      ( "pattern_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_pattern_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_pattern_io_errors;
          Alcotest.test_case "nasty names" `Quick test_pattern_io_nasty_names;
        ] );
      ( "interest",
        [
          Alcotest.test_case "frequencies" `Quick test_interest_frequencies;
          Alcotest.test_case "ratio" `Quick test_interest_ratio;
          Alcotest.test_case "root pattern" `Quick
            test_interest_root_pattern_infinite;
          Alcotest.test_case "rank" `Quick test_interest_rank;
        ] );
      ( "agreement",
        qsuite
          [
            taxogram_equals_naive_prop;
            baseline_equals_naive_prop;
            tacgm_equals_naive_prop;
            supports_verified_prop;
            minimality_prop;
            postprocess_sound_prop;
            interest_nonnegative_prop;
            pattern_io_roundtrip_prop;
            parallel_equals_sequential_prop;
            enumerate_equals_reference_prop;
          ] );
    ]
