module Taxonomy = Tsg_taxonomy.Taxonomy
module Synth = Tsg_taxonomy.Synth_taxonomy
module Go_like = Tsg_taxonomy.Go_like
module Atoms = Tsg_taxonomy.Atom_taxonomy
module Bitset = Tsg_util.Bitset
module Prng = Tsg_util.Prng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(*        a
         / \
        b   c
       / \   \
      d   e   f
           \ /
            g      (g has two parents: e and f — DAG) *)
let diamond () =
  Taxonomy.build
    ~names:[ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
    ~is_a:
      [
        ("b", "a"); ("c", "a"); ("d", "b"); ("e", "b"); ("f", "c");
        ("g", "e"); ("g", "f");
      ]

let id t n = Taxonomy.id_of_name t n

let test_structure () =
  let t = diamond () in
  check int "labels" 7 (Taxonomy.label_count t);
  check int "relationships" 7 (Taxonomy.relationship_count t);
  check (Alcotest.list int) "roots" [ id t "a" ] (Taxonomy.roots t);
  check (Alcotest.list int) "parents of g"
    [ id t "e"; id t "f" ]
    (Taxonomy.parents t (id t "g"));
  check (Alcotest.list int) "children of b"
    [ id t "d"; id t "e" ]
    (Taxonomy.children t (id t "b"));
  check bool "a root" true (Taxonomy.is_root t (id t "a"));
  check bool "g leaf" true (Taxonomy.is_leaf t (id t "g"));
  check bool "b not leaf" false (Taxonomy.is_leaf t (id t "b"));
  check (Alcotest.list int) "leaves"
    [ id t "d"; id t "g" ]
    (Taxonomy.leaves t)

let test_ancestorship () =
  let t = diamond () in
  check bool "reflexive" true (Taxonomy.is_ancestor t ~anc:(id t "g") (id t "g"));
  check bool "parent" true (Taxonomy.is_ancestor t ~anc:(id t "e") (id t "g"));
  check bool "transitive" true (Taxonomy.is_ancestor t ~anc:(id t "a") (id t "g"));
  check bool "both diamond arms" true
    (Taxonomy.is_ancestor t ~anc:(id t "b") (id t "g")
    && Taxonomy.is_ancestor t ~anc:(id t "c") (id t "g"));
  check bool "not downward" false (Taxonomy.is_ancestor t ~anc:(id t "g") (id t "e"));
  check bool "not sibling" false (Taxonomy.is_ancestor t ~anc:(id t "d") (id t "e"));
  check (Alcotest.list int) "ancestors of g (all)"
    [ id t "a"; id t "b"; id t "c"; id t "e"; id t "f"; id t "g" ]
    (Taxonomy.ancestors t (id t "g"));
  check (Alcotest.list int) "strict ancestors of d"
    [ id t "a"; id t "b" ]
    (Taxonomy.strict_ancestors t (id t "d"));
  check (Alcotest.list int) "descendants of c"
    [ id t "c"; id t "f"; id t "g" ]
    (Taxonomy.descendants t (id t "c"));
  check (Alcotest.list int) "strict descendants of e"
    [ id t "g" ]
    (Taxonomy.strict_descendants t (id t "e"))

let test_depth () =
  let t = diamond () in
  check int "root depth" 0 (Taxonomy.depth t (id t "a"));
  check int "b depth" 1 (Taxonomy.depth t (id t "b"));
  check int "g depth (longest path)" 3 (Taxonomy.depth t (id t "g"));
  check int "max depth" 3 (Taxonomy.max_depth t);
  check int "levels" 4 (Taxonomy.level_count t)

let test_most_general () =
  let t = diamond () in
  List.iter
    (fun n -> check int ("mg of " ^ n) (id t "a") (Taxonomy.most_general t (id t n)))
    [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]

let test_topological_order () =
  let t = diamond () in
  let order = Taxonomy.topological_order t in
  let pos = Array.make (Taxonomy.label_count t) 0 in
  Array.iteri (fun i l -> pos.(l) <- i) order;
  List.iter
    (fun l ->
      List.iter
        (fun p ->
          check bool "ancestor precedes" true (pos.(p) < pos.(l)))
        (Taxonomy.parents t l))
    (Array.to_list order)

let test_avg_strict_ancestors () =
  (* chain a <- b <- c : strict ancestor counts 0,1,2 -> avg 1.0 *)
  let t = Taxonomy.build ~names:[ "a"; "b"; "c" ] ~is_a:[ ("b", "a"); ("c", "b") ] in
  check (Alcotest.float 1e-9) "chain" 1.0 (Taxonomy.avg_strict_ancestors t)

let test_cycle_rejected () =
  Alcotest.check_raises "cycle"
    (Invalid_argument "Taxonomy.build: is-a graph has a cycle") (fun () ->
      ignore
        (Taxonomy.build ~names:[ "a"; "b" ] ~is_a:[ ("a", "b"); ("b", "a") ]))

let test_bad_edges_rejected () =
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Taxonomy.build: unknown label z") (fun () ->
      ignore (Taxonomy.build ~names:[ "a" ] ~is_a:[ ("z", "a") ]));
  Alcotest.check_raises "self edge"
    (Invalid_argument "Taxonomy.build_ids: self is-a edge") (fun () ->
      ignore (Taxonomy.build ~names:[ "a" ] ~is_a:[ ("a", "a") ]));
  Alcotest.check_raises "duplicate edge"
    (Invalid_argument "Taxonomy.build_ids: duplicate is-a edge") (fun () ->
      ignore
        (Taxonomy.build ~names:[ "a"; "b" ] ~is_a:[ ("b", "a"); ("b", "a") ]))

let test_multi_root_artificial () =
  (* two roots r1 r2, shared child x -> artificial root above both *)
  let t =
    Taxonomy.build ~names:[ "r1"; "r2"; "x" ]
      ~is_a:[ ("x", "r1"); ("x", "r2") ]
  in
  check int "one extra label" 4 (Taxonomy.label_count t);
  let roots = Taxonomy.roots t in
  check int "single root" 1 (List.length roots);
  let root = List.hd roots in
  check bool "artificial" true (Taxonomy.is_artificial t root);
  check bool "named" true (String.length (Taxonomy.name t root) > 0);
  check int "mg x is artificial root" root (Taxonomy.most_general t (id t "x"));
  check int "mg r1 too" root (Taxonomy.most_general t (id t "r1"))

let test_multi_root_independent () =
  (* two roots with disjoint subtrees -> no artificial root *)
  let t =
    Taxonomy.build ~names:[ "r1"; "r2"; "x"; "y" ]
      ~is_a:[ ("x", "r1"); ("y", "r2") ]
  in
  check int "no extra labels" 4 (Taxonomy.label_count t);
  check int "two roots" 2 (List.length (Taxonomy.roots t));
  check int "mg x" (id t "r1") (Taxonomy.most_general t (id t "x"));
  check int "mg y" (id t "r2") (Taxonomy.most_general t (id t "y"))

let test_multi_root_transitive_groups () =
  (* r1-r2 linked through x, r2-r3 through y: all three under one root *)
  let t =
    Taxonomy.build
      ~names:[ "r1"; "r2"; "r3"; "x"; "y" ]
      ~is_a:[ ("x", "r1"); ("x", "r2"); ("y", "r2"); ("y", "r3") ]
  in
  check int "single root" 1 (List.length (Taxonomy.roots t));
  let root = List.hd (Taxonomy.roots t) in
  List.iter
    (fun n -> check int ("mg " ^ n) root (Taxonomy.most_general t (id t n)))
    [ "r1"; "r2"; "r3"; "x"; "y" ]

let test_restrict () =
  let t = diamond () in
  (* drop the middle layer below b: children of b skipping e are d and
     (through e) g *)
  let keep l = Taxonomy.name t l <> "e" in
  check (Alcotest.list int) "bypasses removed label"
    [ id t "d"; id t "g" ]
    (Taxonomy.restrict t ~keep (id t "b"));
  check (Alcotest.list int) "no filter = children"
    (Taxonomy.children t (id t "b"))
    (Taxonomy.restrict t ~keep:(fun _ -> true) (id t "b"))

(* --- generators ---------------------------------------------------------- *)

let test_synth_level_widths () =
  let rng = Prng.of_int 1 in
  let widths = Synth.level_widths rng ~concepts:100 ~depth:7 in
  check int "depth levels" 7 (Array.length widths);
  check int "sums to concepts" 100 (Array.fold_left ( + ) 0 widths);
  check int "root alone" 1 widths.(0);
  Array.iter (fun w -> check bool "non-empty level" true (w > 0)) widths

let test_synth_generate () =
  let rng = Prng.of_int 2 in
  let t = Synth.generate rng { concepts = 200; relationships = 400; depth = 8 } in
  check int "labels" 200 (Taxonomy.label_count t);
  check int "levels" 8 (Taxonomy.level_count t);
  check int "single root" 1 (List.length (Taxonomy.roots t));
  check bool "relationship count respected" true
    (Taxonomy.relationship_count t >= 199
    && Taxonomy.relationship_count t <= 400)

let test_synth_determinism () =
  let gen seed =
    let t = Synth.generate (Prng.of_int seed)
        { concepts = 50; relationships = 80; depth = 5 } in
    List.init (Taxonomy.label_count t) (fun l -> Taxonomy.parents t l)
  in
  check bool "same seed same taxonomy" true (gen 7 = gen 7);
  check bool "seeds differ" true (gen 7 <> gen 8)

let test_go_like () =
  let rng = Prng.of_int 3 in
  let t = Go_like.generate ~concepts:500 rng in
  check int "concepts" 500 (Taxonomy.label_count t);
  check int "14 levels" 14 (Taxonomy.level_count t);
  check int "single root" 1 (List.length (Taxonomy.roots t));
  let multi_parent =
    List.length
      (List.filter
         (fun l -> List.length (Taxonomy.parents t l) >= 2)
         (List.init 500 (fun i -> i)))
  in
  check bool "has multi-parent concepts (DAG)" true (multi_parent > 10);
  check bool "GO-styled names" true
    (String.length (Taxonomy.name t 0) = 10
    && String.sub (Taxonomy.name t 0) 0 3 = "GO:")

let test_atoms () =
  let t = Atoms.create () in
  let atoms = Atoms.atom_labels t in
  check int "24 atom labels" 24 (List.length atoms);
  List.iter
    (fun l -> check bool "atoms are leaves" true (Taxonomy.is_leaf t l))
    atoms;
  check (Alcotest.list int) "single root" [ id t "Atom" ] (Taxonomy.roots t);
  check bool "aromatic c under Aromatic" true
    (Taxonomy.is_ancestor t ~anc:(id t "Aromatic") (id t "c"));
  check bool "Cl is halogen" true
    (Taxonomy.is_ancestor t ~anc:(id t "Halogen") (id t "Cl"));
  check bool "C not halogen" false
    (Taxonomy.is_ancestor t ~anc:(id t "Halogen") (id t "C"));
  check int "organic labels" 6 (List.length (Atoms.organic_labels t));
  check int "aromatic labels" 4 (List.length (Atoms.aromatic_labels t));
  check int "3 levels deep" 3 (Taxonomy.max_depth t)

(* --- Taxonomy_io ---------------------------------------------------------- *)

module Taxonomy_io = Tsg_taxonomy.Taxonomy_io

let same_taxonomy a b =
  Taxonomy.label_count a = Taxonomy.label_count b
  && List.for_all
       (fun l ->
         Taxonomy.name a l = Taxonomy.name b l
         && List.map (Taxonomy.name a) (Taxonomy.parents a l)
            = List.map (Taxonomy.name b) (Taxonomy.parents b l))
       (List.init (Taxonomy.label_count a) (fun i -> i))

let test_io_roundtrip () =
  let t = diamond () in
  let t' = Taxonomy_io.parse (Taxonomy_io.to_string t) in
  check bool "roundtrip" true (same_taxonomy t t')

let test_io_artificial_roots_recreated () =
  let t =
    Taxonomy.build ~names:[ "r1"; "r2"; "x" ]
      ~is_a:[ ("x", "r1"); ("x", "r2") ]
  in
  let text = Taxonomy_io.to_string t in
  check bool "artificial root not serialized" true
    (not
       (List.exists
          (fun line -> String.length line > 2 && String.sub line 2 1 = "<")
          (String.split_on_char '\n' text)));
  let t' = Taxonomy_io.parse text in
  check int "artificial root recreated" (Taxonomy.label_count t)
    (Taxonomy.label_count t');
  check int "single root again" 1 (List.length (Taxonomy.roots t'))

let test_io_errors () =
  let expect text =
    match Taxonomy_io.parse text with
    | exception Taxonomy_io.Parse_error _ -> ()
    | _ -> Alcotest.fail "expected Parse_error"
  in
  expect "z 1 2\n";
  expect "c a\ni a b\n";
  (* cycle *)
  expect "c a\nc b\ni a b\ni b a\n"

let test_io_comments () =
  let t = Taxonomy_io.parse "# taxonomy\nc a\n\nc b\ni b a\n" in
  check int "two concepts" 2 (Taxonomy.label_count t);
  check bool "edge parsed" true
    (Taxonomy.is_ancestor t ~anc:(Taxonomy.id_of_name t "a")
       (Taxonomy.id_of_name t "b"))

let test_io_file_roundtrip () =
  let rng = Prng.of_int 77 in
  let t = Synth.generate rng { concepts = 60; relationships = 100; depth = 5 } in
  let path = Filename.temp_file "tsg_tax" ".tax" in
  Taxonomy_io.save path t;
  let t' = Taxonomy_io.load path in
  Sys.remove path;
  check bool "file roundtrip" true (same_taxonomy t t')

(* --- properties ---------------------------------------------------------- *)

let arb_taxonomy =
  QCheck.make
    QCheck.Gen.(
      int_range 3 40 >>= fun concepts ->
      int_range 1 5 >>= fun depth ->
      int_range 0 30 >>= fun extra ->
      small_int >>= fun seed ->
      return
        (Synth.generate (Prng.of_int seed)
           { concepts; relationships = concepts - 1 + extra; depth }))

let duality_prop =
  QCheck.Test.make ~name:"ancestor/descendant duality" ~count:100 arb_taxonomy
    (fun t ->
      let n = Taxonomy.label_count t in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let anc = Taxonomy.is_ancestor t ~anc:a b in
          let desc = Bitset.mem (Taxonomy.descendant_set t a) b in
          if anc <> desc then ok := false
        done
      done;
      !ok)

let transitivity_prop =
  QCheck.Test.make ~name:"ancestorship is transitive" ~count:50 arb_taxonomy
    (fun t ->
      let n = Taxonomy.label_count t in
      let ok = ref true in
      for a = 0 to n - 1 do
        List.iter
          (fun b ->
            List.iter
              (fun c ->
                if not (Taxonomy.is_ancestor t ~anc:c a) then ok := false)
              (Taxonomy.ancestors t b))
          (Taxonomy.ancestors t a)
      done;
      !ok)

let most_general_is_root_prop =
  QCheck.Test.make ~name:"most_general is a root ancestor" ~count:100
    arb_taxonomy (fun t ->
      List.for_all
        (fun l ->
          let mg = Taxonomy.most_general t l in
          Taxonomy.is_root t mg && Taxonomy.is_ancestor t ~anc:mg l)
        (List.init (Taxonomy.label_count t) (fun i -> i)))

let depth_parent_prop =
  QCheck.Test.make ~name:"depth exceeds every parent's" ~count:100
    arb_taxonomy (fun t ->
      List.for_all
        (fun l ->
          List.for_all
            (fun p -> Taxonomy.depth t l > Taxonomy.depth t p)
            (Taxonomy.parents t l))
        (List.init (Taxonomy.label_count t) (fun i -> i)))

(* Random is-a DAGs over up to 30 concepts, as (concepts, seed): each
   concept gets each earlier one as a parent with probability 1/(k+1),
   so several concepts stay roots, and roots sharing a descendant get an
   artificial root above them. *)
let arb_dag =
  QCheck.(pair (int_range 1 30) (int_bound 1_000_000))

let random_dag (n, seed) =
  let rng = Prng.of_int seed in
  let name = Printf.sprintf "c%d" in
  let is_a = ref [] in
  for k = 1 to n - 1 do
    for p = 0 to k - 1 do
      if Prng.int rng (k + 1) = 0 then is_a := (name k, name p) :: !is_a
    done
  done;
  Taxonomy.build ~names:(List.init n name) ~is_a:!is_a

(* the flat arrays hold exactly what the closures and lists say *)
let flat_matches_closures t =
  let f = Taxonomy.flat t in
  let n = Taxonomy.label_count t in
  let slice first arr l =
    Array.to_list (Array.sub arr first.(l) (first.(l + 1) - first.(l)))
  in
  Array.length f.anc_first = n + 1
  && Array.length f.child_first = n + 1
  && f.anc_first.(n) = Array.length f.anc
  && f.child_first.(n) = Array.length f.child
  && List.for_all
       (fun l ->
         slice f.anc_first f.anc l = Bitset.to_list (Taxonomy.ancestor_set t l)
         && slice f.child_first f.child l = Taxonomy.children t l)
       (List.init n Fun.id)

let flat_prop =
  QCheck.Test.make ~name:"CSR = closures" ~count:200 arb_dag
    (fun dag ->
      let t = random_dag dag in
      flat_matches_closures t
      && flat_matches_closures
           (Taxonomy_io.parse (Taxonomy_io.to_string t)))

(* two domains reaching for the arrays first both get the one copy *)
let test_flat_first_use_two_domains () =
  let rng = Prng.of_int 5 in
  let t =
    Synth.generate rng { concepts = 3000; relationships = 6000; depth = 12 }
  in
  let d1 = Domain.spawn (fun () -> Taxonomy.flat t) in
  let d2 = Domain.spawn (fun () -> Taxonomy.flat t) in
  let f1 = Domain.join d1 and f2 = Domain.join d2 in
  check bool "same arrays in both domains" true (f1 == f2);
  check bool "and on later calls" true (Taxonomy.flat t == f1);
  check bool "arrays match the closures" true (flat_matches_closures t)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "taxonomy"
    [
      ( "structure",
        [
          Alcotest.test_case "parents/children/roots/leaves" `Quick
            test_structure;
          Alcotest.test_case "ancestorship" `Quick test_ancestorship;
          Alcotest.test_case "depth/levels" `Quick test_depth;
          Alcotest.test_case "most_general" `Quick test_most_general;
          Alcotest.test_case "topological order" `Quick
            test_topological_order;
          Alcotest.test_case "avg strict ancestors" `Quick
            test_avg_strict_ancestors;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "flat arrays: first use on two domains" `Quick
            test_flat_first_use_two_domains;
        ] );
      ( "validation",
        [
          Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "bad edges rejected" `Quick
            test_bad_edges_rejected;
        ] );
      ( "multi-root",
        [
          Alcotest.test_case "artificial root" `Quick
            test_multi_root_artificial;
          Alcotest.test_case "independent roots" `Quick
            test_multi_root_independent;
          Alcotest.test_case "transitive groups" `Quick
            test_multi_root_transitive_groups;
        ] );
      ( "generators",
        [
          Alcotest.test_case "level widths" `Quick test_synth_level_widths;
          Alcotest.test_case "synth generate" `Quick test_synth_generate;
          Alcotest.test_case "synth determinism" `Quick
            test_synth_determinism;
          Alcotest.test_case "go-like" `Quick test_go_like;
          Alcotest.test_case "atom taxonomy" `Quick test_atoms;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "artificial roots" `Quick
            test_io_artificial_roots_recreated;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "comments" `Quick test_io_comments;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
        ] );
      ( "properties",
        qsuite
          [
            duality_prop;
            transitivity_prop;
            most_general_is_root_prop;
            depth_parent_prop;
            flat_prop;
          ] );
    ]
