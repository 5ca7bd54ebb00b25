module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Dfs_code = Tsg_gspan.Dfs_code
module Min_code = Tsg_gspan.Min_code
module Gspan = Tsg_gspan.Gspan
module Subiso = Tsg_iso.Subiso
module Bitset = Tsg_util.Bitset
module Prng = Tsg_util.Prng

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let g ~labels ~edges = Graph.build ~labels ~edges

let e from_i to_i from_label edge_label to_label =
  { Dfs_code.from_i; to_i; from_label; edge_label; to_label }

(* --- Dfs_code ------------------------------------------------------------- *)

let test_forward_backward () =
  check bool "forward" true (Dfs_code.is_forward (e 0 1 0 0 0));
  check bool "backward" true (Dfs_code.is_backward (e 3 1 0 0 0))

let test_compare_edge_rules () =
  let lt a b = Dfs_code.compare_edge a b < 0 in
  (* backward precedes forward when it leaves from a deeper or equal node *)
  check bool "backward < forward" true (lt (e 2 0 0 0 0) (e 2 3 0 0 0));
  (* forward from deeper anchor precedes forward from shallower *)
  check bool "deep forward first" true (lt (e 2 3 0 0 0) (e 1 3 0 0 0));
  check bool "shallow forward later" false (lt (e 0 3 0 0 0) (e 2 3 0 0 0));
  (* among backward: earlier target first *)
  check bool "backward targets" true (lt (e 3 0 0 0 0) (e 3 1 0 0 0));
  (* label tiebreak on equal positions *)
  check bool "labels break ties" true (lt (e 0 1 0 0 1) (e 0 1 0 0 2));
  check bool "from label dominates" true (lt (e 0 1 0 9 9) (e 0 1 1 0 0))

let test_code_compare_prefix () =
  let a = [| e 0 1 0 0 1 |] in
  let b = [| e 0 1 0 0 1; e 1 2 1 0 2 |] in
  check bool "prefix smaller" true (Dfs_code.compare a b < 0);
  check bool "reverse" true (Dfs_code.compare b a > 0);
  check int "equal" 0 (Dfs_code.compare a a)

let test_rightmost_path () =
  (* path code 0-1-2: rightmost path is [2;1;0] *)
  let code = [| e 0 1 0 0 1; e 1 2 1 0 2 |] in
  check (Alcotest.list int) "path" [ 2; 1; 0 ] (Dfs_code.rightmost_path code);
  (* branching: 0-1, 0-2: rightmost node 2 hangs off 0 *)
  let star = [| e 0 1 0 0 1; e 0 2 0 0 2 |] in
  check (Alcotest.list int) "star" [ 2; 0 ] (Dfs_code.rightmost_path star);
  check int "rightmost" 2 (Dfs_code.rightmost star)

let test_code_accessors () =
  let code = [| e 0 1 5 9 6; e 1 2 6 9 7; e 2 0 7 8 5 |] in
  check int "label_of 0" 5 (Dfs_code.label_of code 0);
  check int "label_of 2" 7 (Dfs_code.label_of code 2);
  check bool "has_edge forward" true (Dfs_code.has_edge code 0 1);
  check bool "has_edge backward stored" true (Dfs_code.has_edge code 0 2);
  check bool "no edge" true (Dfs_code.has_edge code 2 1);
  check int "node count" 3 (Dfs_code.node_count code);
  check int "edge count" 3 (Dfs_code.edge_count code)

let test_to_graph_roundtrip () =
  let code = [| e 0 1 5 9 6; e 1 2 6 9 7; e 2 0 7 8 5 |] in
  let graph = Dfs_code.to_graph code in
  check int "nodes" 3 (Graph.node_count graph);
  check int "edges" 3 (Graph.edge_count graph);
  check int "label" 6 (Graph.node_label graph 1);
  check (Alcotest.option int) "edge label" (Some 8) (Graph.edge_label graph 0 2)

(* --- Min_code ------------------------------------------------------------- *)

let test_minimum_single_edge () =
  let graph = g ~labels:[| 3; 1 |] ~edges:[ (0, 1, 4) ] in
  let code = Min_code.minimum graph in
  check int "one edge" 1 (Array.length code);
  let edge = code.(0) in
  (* minimum orientation starts at the smaller label *)
  check int "from label" 1 edge.Dfs_code.from_label;
  check int "to label" 3 edge.Dfs_code.to_label;
  check int "edge label" 4 edge.Dfs_code.edge_label

let test_minimum_is_min () =
  let graphs =
    [
      g ~labels:[| 0; 1; 2 |] ~edges:[ (0, 1, 0); (1, 2, 0) ];
      g ~labels:[| 0; 0; 0 |] ~edges:[ (0, 1, 0); (1, 2, 0); (0, 2, 0) ];
      g ~labels:[| 1; 0; 1; 0 |]
        ~edges:[ (0, 1, 0); (1, 2, 0); (2, 3, 0); (0, 3, 0) ];
    ]
  in
  List.iter
    (fun graph -> check bool "minimum is minimal" true
        (Min_code.is_min (Min_code.minimum graph)))
    graphs

let test_non_minimal_rejected () =
  (* path a(0)-b(1)-c(2): the minimal code starts at label 0; a code starting
     from the c end is valid but not minimal *)
  let from_wrong_end = [| e 0 1 2 0 1; e 1 2 1 0 0 |] in
  check bool "not minimal" false (Min_code.is_min from_wrong_end);
  let minimal = [| e 0 1 0 0 1; e 1 2 1 0 2 |] in
  check bool "minimal" true (Min_code.is_min minimal)

let test_is_min_empty () = check bool "empty code" true (Min_code.is_min [||])

let test_min_code_disconnected_rejected () =
  let graph = g ~labels:[| 0; 1; 2; 3 |] ~edges:[ (0, 1, 0); (2, 3, 0) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Min_code: graph must be connected") (fun () ->
      ignore (Min_code.minimum graph))

let test_canonical_key_iso_invariant () =
  let a = g ~labels:[| 0; 1; 2 |] ~edges:[ (0, 1, 5); (1, 2, 6) ] in
  let b = g ~labels:[| 2; 1; 0 |] ~edges:[ (0, 1, 6); (1, 2, 5) ] in
  check Alcotest.string "isomorphic graphs same key" (Min_code.canonical_key a)
    (Min_code.canonical_key b);
  let c = g ~labels:[| 0; 1; 3 |] ~edges:[ (0, 1, 5); (1, 2, 6) ] in
  check bool "different labels different key" true
    (Min_code.canonical_key a <> Min_code.canonical_key c);
  let single0 = g ~labels:[| 0 |] ~edges:[] in
  let single1 = g ~labels:[| 1 |] ~edges:[] in
  check bool "single nodes keyed by label" true
    (Min_code.canonical_key single0 <> Min_code.canonical_key single1)

let random_connected_graph rng =
  let n = 2 + Prng.int rng 5 in
  let labels = Array.init n (fun _ -> Prng.int rng 3) in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, Prng.int rng v, Prng.int rng 2) :: !edges
  done;
  for _ = 1 to Prng.int rng 3 do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (List.exists (fun (a, b, _) -> (a = u && b = v) || (a = v && b = u)) !edges)
    then edges := (u, v, Prng.int rng 2) :: !edges
  done;
  g ~labels ~edges:!edges

let permute_graph rng graph =
  let n = Graph.node_count graph in
  let perm = Array.init n (fun i -> i) in
  Prng.shuffle rng perm;
  let labels = Array.make n 0 in
  Array.iteri (fun old_v new_v -> labels.(new_v) <- Graph.node_label graph old_v) perm;
  let edges =
    Array.to_list
      (Array.map (fun (u, v, l) -> (perm.(u), perm.(v), l)) (Graph.edges graph))
  in
  g ~labels ~edges

let canonical_permutation_prop =
  QCheck.Test.make ~name:"canonical key is permutation-invariant" ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let graph = random_connected_graph rng in
      let shuffled = permute_graph rng graph in
      Min_code.canonical_key graph = Min_code.canonical_key shuffled)

let minimum_always_minimal_prop =
  QCheck.Test.make ~name:"minimum code passes is_min" ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let graph = random_connected_graph rng in
      Min_code.is_min (Min_code.minimum graph))

(* the key text as Printf wrote it: "n<label>" for one node, else
   "from,to,from_label,edge_label,to_label;" per minimum-code edge *)
let printf_key graph =
  if Graph.node_count graph = 1 then
    Printf.sprintf "n%d" (Graph.node_label graph 0)
  else
    String.concat ""
      (List.map
         (fun e ->
           Printf.sprintf "%d,%d,%d,%d,%d;" e.Dfs_code.from_i e.to_i
             e.from_label e.edge_label e.to_label)
         (Array.to_list (Min_code.minimum graph)))

let canonical_key_printf_prop =
  QCheck.Test.make ~name:"canonical key = Printf reference" ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      (* multi-digit labels, and single-node graphs now and then *)
      let scale = [| 1; 9; 4999; 123_456 |].(Prng.int rng 4) in
      let graph =
        if Prng.int rng 8 = 0 then
          g ~labels:[| scale * Prng.int rng 3 |] ~edges:[]
        else
          let base = random_connected_graph rng in
          g
            ~labels:(Array.map (fun l -> l * scale) (Graph.node_labels base))
            ~edges:
              (List.map
                 (fun (u, v, l) -> (u, v, l * scale))
                 (Array.to_list (Graph.edges base)))
      in
      Min_code.canonical_key graph = printf_key graph)

(* --- Cam, a test-only cross-check of the DFS-code form -------------------- *)

let test_cam_basics () =
  let a = g ~labels:[| 0; 1; 2 |] ~edges:[ (0, 1, 5); (1, 2, 6) ] in
  let b = g ~labels:[| 2; 1; 0 |] ~edges:[ (0, 1, 6); (1, 2, 5) ] in
  check Alcotest.string "isomorphic same CAM key" (Cam.key a) (Cam.key b);
  check bool "same_class" true (Cam.same_class a b);
  let c = g ~labels:[| 0; 1; 3 |] ~edges:[ (0, 1, 5); (1, 2, 6) ] in
  check bool "label difference detected" false (Cam.same_class a c);
  check int "empty graph code" 0 (Array.length (Cam.code Graph.empty))

let test_cam_disconnected () =
  (* CAM handles disconnected graphs, unlike DFS codes *)
  let a = g ~labels:[| 0; 1; 0; 1 |] ~edges:[ (0, 1, 0); (2, 3, 0) ] in
  let b = g ~labels:[| 1; 0; 1; 0 |] ~edges:[ (1, 0, 0); (3, 2, 0) ] in
  check Alcotest.string "disconnected isomorphic" (Cam.key a) (Cam.key b);
  let c = g ~labels:[| 0; 1; 0; 1 |] ~edges:[ (0, 1, 0); (0, 3, 0) ] in
  check bool "different structure" true (Cam.key a <> Cam.key c)

(* two canonical forms computed by entirely different algorithms must induce
   the same equivalence *)
let cam_agrees_with_min_code_prop =
  QCheck.Test.make ~name:"CAM and min-DFS-code induce the same classes"
    ~count:150
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let a = random_connected_graph rng in
      let b =
        if Prng.bool rng then permute_graph rng a else random_connected_graph rng
      in
      Cam.same_class a b
      = (Min_code.canonical_key a = Min_code.canonical_key b))

(* --- Gspan ---------------------------------------------------------------- *)

let test_gspan_rejects_bad_support () =
  let db = Db.of_list [ g ~labels:[| 0; 0 |] ~edges:[ (0, 1, 0) ] ] in
  Alcotest.check_raises "min_support >= 1"
    (Invalid_argument "Gspan.mine: min_support must be >= 1") (fun () ->
      Gspan.mine ~min_support:0 db (fun _ -> ()))

let test_gspan_single_edge_db () =
  let db =
    Db.of_list
      [
        g ~labels:[| 0; 1 |] ~edges:[ (0, 1, 0) ];
        g ~labels:[| 1; 0 |] ~edges:[ (0, 1, 0) ];
      ]
  in
  let patterns = Gspan.mine_list ~min_support:2 db in
  check int "one frequent pattern" 1 (List.length patterns);
  let p = List.hd patterns in
  check int "support" 2 p.Gspan.support;
  check int "embeddings" 2 (List.length p.Gspan.embeddings);
  check (Alcotest.list int) "support set" [ 0; 1 ]
    (Bitset.to_list p.Gspan.support_set)

let test_gspan_triangle_counts () =
  (* one triangle graph, min support 1: patterns = edge, path, triangle *)
  let db =
    Db.of_list
      [ g ~labels:[| 0; 0; 0 |] ~edges:[ (0, 1, 0); (1, 2, 0); (0, 2, 0) ] ]
  in
  let patterns = Gspan.mine_list ~min_support:1 db in
  check int "three isomorphism classes" 3 (List.length patterns);
  let sizes = List.sort compare (List.map (fun p -> Graph.edge_count p.Gspan.graph) patterns) in
  check (Alcotest.list int) "sizes 1,2,3" [ 1; 2; 3 ] sizes

let test_gspan_max_edges () =
  let db =
    Db.of_list
      [ g ~labels:[| 0; 0; 0 |] ~edges:[ (0, 1, 0); (1, 2, 0); (0, 2, 0) ] ]
  in
  let patterns = Gspan.mine_list ~max_edges:2 ~min_support:1 db in
  check int "capped at 2 edges" 2 (List.length patterns);
  check bool "no big ones" true
    (List.for_all (fun p -> Graph.edge_count p.Gspan.graph <= 2) patterns)

let test_gspan_embeddings_valid () =
  let db =
    Db.of_list
      [
        g ~labels:[| 0; 1; 0; 1 |] ~edges:[ (0, 1, 0); (1, 2, 0); (2, 3, 0) ];
        g ~labels:[| 1; 0; 1 |] ~edges:[ (0, 1, 0); (1, 2, 0) ];
      ]
  in
  Gspan.mine ~min_support:2 db (fun p ->
      List.iter
        (fun { Gspan.graph_id; map } ->
          let target = Db.get db graph_id in
          Array.iteri
            (fun pos t ->
              check int "node label matches"
                (Graph.node_label p.Gspan.graph pos)
                (Graph.node_label target t))
            map;
          Array.iter
            (fun (u, v, l) ->
              check (Alcotest.option int) "edge present" (Some l)
                (Graph.edge_label target map.(u) map.(v)))
            (Graph.edges p.Gspan.graph))
        p.Gspan.embeddings)

let test_frequent_labels () =
  let db =
    Db.of_list
      [
        g ~labels:[| 0; 1 |] ~edges:[ (0, 1, 0) ];
        g ~labels:[| 0; 2 |] ~edges:[ (0, 1, 0) ];
        g ~labels:[| 0; 1 |] ~edges:[ (0, 1, 0) ];
      ]
  in
  check (Alcotest.list int) "labels in >= 2 graphs" [ 0; 1 ]
    (Gspan.frequent_labels ~min_support:2 db);
  check (Alcotest.list int) "all" [ 0; 1; 2 ]
    (Gspan.frequent_labels ~min_support:1 db)

(* reference miner: enumerate connected subgraphs of every graph, dedupe by
   canonical key, count exact-subiso support *)
let brute_force_frequent ~max_edges ~min_support db =
  let seen = Hashtbl.create 256 in
  Db.iteri
    (fun _ graph ->
      List.iter
        (fun sub ->
          let key = Min_code.canonical_key sub in
          if not (Hashtbl.mem seen key) then Hashtbl.add seen key sub)
        (Tsg_core.Naive.connected_subgraphs ~max_edges graph))
    db;
  Hashtbl.fold
    (fun key sub acc ->
      let support = Subiso.support_count ~pattern:sub db in
      if support >= min_support then (key, support) :: acc else acc)
    seen []
  |> List.sort compare

let gspan_matches_brute_force_prop =
  QCheck.Test.make ~name:"gspan = brute force on small dbs" ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let db =
        Db.of_list
          (List.init (2 + Prng.int rng 2) (fun _ -> random_connected_graph rng))
      in
      let min_support = 1 + Prng.int rng 2 in
      let max_edges = 3 in
      let mined =
        Gspan.mine_list ~max_edges ~min_support db
        |> List.map (fun p ->
               (Min_code.canonical_key p.Gspan.graph, p.Gspan.support))
        |> List.sort compare
      in
      let reference = brute_force_frequent ~max_edges ~min_support db in
      mined = reference)

(* Reference miner: gSpan as it stood before extensions were counted
   first. Every candidate of every embedding is built and filed under its
   DFS edge in an [Edge_map]; support is read off each edge's list
   afterwards. [Gspan.mine] must report the same patterns in the same
   order with the same embedding lists. *)
module Reference_gspan = struct
  module Edge_map = Map.Make (struct
    type t = Dfs_code.edge

    let compare = Dfs_code.compare_edge
  end)

  let mapped (emb : Gspan.embedding) node =
    Array.exists (fun v -> v = node) emb.map

  let support_of db (embs : Gspan.embedding list) =
    let set = Bitset.create (Db.size db) in
    List.iter (fun (e : Gspan.embedding) -> Bitset.set set e.graph_id) embs;
    set

  let seeds db =
    let table = Hashtbl.create 64 in
    Db.iteri
      (fun gid gr ->
        Array.iter
          (fun (u, v, le) ->
            let lu = Graph.node_label gr u and lv = Graph.node_label gr v in
            let orientations =
              if lu < lv then [ (u, v, lu, lv) ]
              else if lv < lu then [ (v, u, lv, lu) ]
              else [ (u, v, lu, lv); (v, u, lv, lu) ]
            in
            List.iter
              (fun (a, b, la, lb) ->
                let key = (la, le, lb) in
                let emb = { Gspan.graph_id = gid; map = [| a; b |] } in
                let known = Hashtbl.find_opt table key in
                Hashtbl.replace table key
                  (emb :: Option.value ~default:[] known))
              orientations)
          (Graph.edges gr))
      db;
    Hashtbl.fold (fun key embs acc -> (key, List.rev embs) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let extensions code (embeddings : Gspan.embedding list) db =
    let rpath = Dfs_code.rightmost_path code in
    let r = List.hd rpath in
    let nodes_so_far = Dfs_code.node_count code in
    let back_targets =
      List.filter
        (fun i -> i <> r && not (Dfs_code.has_edge code r i))
        (List.sort compare (List.tl rpath))
    in
    let table = ref Edge_map.empty in
    let add edge emb =
      table :=
        Edge_map.update edge
          (function None -> Some [ emb ] | Some l -> Some (emb :: l))
          !table
    in
    List.iter
      (fun (emb : Gspan.embedding) ->
        let gr = Db.get db emb.graph_id in
        List.iter
          (fun i ->
            match Graph.edge_label gr emb.map.(r) emb.map.(i) with
            | Some le ->
              add
                (e r i (Dfs_code.label_of code r) le (Dfs_code.label_of code i))
                emb
            | None -> ())
          back_targets;
        List.iter
          (fun i ->
            Array.iter
              (fun (w, le) ->
                if not (mapped emb w) then
                  add
                    (e i nodes_so_far (Dfs_code.label_of code i) le
                       (Graph.node_label gr w))
                    { emb with map = Array.append emb.map [| w |] })
              (Graph.neighbors gr emb.map.(i)))
          rpath)
      embeddings;
    Edge_map.bindings !table
    |> List.map (fun (edge, embs) -> (edge, List.rev embs))

  let mine ?(max_edges = max_int) ~min_support db report =
    let rec grow code embeddings support_set =
      report
        {
          Gspan.code;
          graph = Dfs_code.to_graph code;
          support_set;
          support = Bitset.cardinal support_set;
          embeddings;
        };
      if Array.length code < max_edges then
        List.iter
          (fun (edge, embs) ->
            let set = support_of db embs in
            if Bitset.cardinal set >= min_support then begin
              let code' = Array.append code [| edge |] in
              if Min_code.is_min code' then grow code' embs set
            end)
          (extensions code embeddings db)
    in
    if max_edges >= 1 then
      List.iter
        (fun ((la, le, lb), embs) ->
          let set = support_of db embs in
          if Bitset.cardinal set >= min_support then
            grow [| e 0 1 la le lb |] embs set)
        (seeds db)
end

(* everything a reported pattern carries, embeddings in order *)
let pattern_trace (p : Gspan.pattern) =
  ( Array.to_list p.code,
    Bitset.to_list p.support_set,
    p.support,
    List.map (fun (m : Gspan.embedding) -> (m.graph_id, Array.to_list m.map))
      p.embeddings,
    Graph.edges p.graph,
    Graph.node_labels p.graph )

(* 2-6 graphs of 2-6 nodes, often with cycles, sometimes disconnected;
   1-3 node and 1-3 edge labels, ids sometimes offset from 0 *)
let random_small_db rng =
  let node_labels = 1 + Prng.int rng 3 and edge_labels = 1 + Prng.int rng 3 in
  let node_base = if Prng.bool rng then 0 else 7 in
  let edge_base = if Prng.bool rng then 0 else 3 in
  Db.of_list
    (List.init (2 + Prng.int rng 5) (fun _ ->
         let n = 2 + Prng.int rng 5 in
         let labels =
           Array.init n (fun _ -> node_base + Prng.int rng node_labels)
         in
         let edges = ref [] in
         let add u v =
           if u <> v
              && not
                   (List.exists
                      (fun (a, b, _) -> (a = u && b = v) || (a = v && b = u))
                      !edges)
           then edges := (u, v, edge_base + Prng.int rng edge_labels) :: !edges
         in
         let tree = Prng.int rng 5 > 0 in
         for v = 1 to n - 1 do
           if tree then add v (Prng.int rng v)
         done;
         for _ = 1 to Prng.int rng 4 do
           add (Prng.int rng n) (Prng.int rng n)
         done;
         g ~labels ~edges:!edges))

let gspan_matches_reference_prop =
  QCheck.Test.make ~name:"gspan = per-embedding Edge_map reference, in order"
    ~count:200
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let db = random_small_db rng in
      let min_support = 1 + Prng.int rng 3 in
      let max_edges =
        match Prng.int rng 6 with 0 -> None | k -> Some k
      in
      let trace mine =
        let acc = ref [] in
        mine ?max_edges ~min_support db (fun p ->
            acc := pattern_trace p :: !acc);
        List.rev !acc
      in
      trace Gspan.mine = trace Reference_gspan.mine)

(* --- Level_miner -------------------------------------------------------------- *)

module Level_miner = Tsg_gspan.Level_miner

let pattern_summary (p : Gspan.pattern) =
  ( Min_code.canonical_key p.Gspan.graph,
    p.Gspan.support,
    Bitset.to_list p.Gspan.support_set,
    List.length p.Gspan.embeddings )

let test_level_miner_triangle () =
  let db =
    Db.of_list
      [ g ~labels:[| 0; 0; 0 |] ~edges:[ (0, 1, 0); (1, 2, 0); (0, 2, 0) ] ]
  in
  let level = Level_miner.mine_list ~min_support:1 db in
  check int "three classes" 3 (List.length level);
  let gspan = Gspan.mine_list ~min_support:1 db in
  let norm l = List.sort compare (List.map pattern_summary l) in
  check bool "same as gspan incl. embedding counts" true
    (norm level = norm gspan)

let test_level_miner_embeddings_valid () =
  let db =
    Db.of_list
      [
        g ~labels:[| 0; 1; 0 |] ~edges:[ (0, 1, 0); (1, 2, 0) ];
        g ~labels:[| 1; 0 |] ~edges:[ (0, 1, 0) ];
      ]
  in
  Level_miner.mine ~min_support:2 db (fun p ->
      List.iter
        (fun { Gspan.graph_id; map } ->
          let target = Db.get db graph_id in
          Array.iteri
            (fun pos t ->
              check int "labels preserved"
                (Graph.node_label p.Gspan.graph pos)
                (Graph.node_label target t))
            map;
          Array.iter
            (fun (u, v, l) ->
              check (Alcotest.option int) "edges preserved" (Some l)
                (Graph.edge_label target map.(u) map.(v)))
            (Graph.edges p.Gspan.graph))
        p.Gspan.embeddings)

let level_equals_gspan_prop =
  QCheck.Test.make ~name:"level-wise miner = gspan" ~count:60
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let db =
        Db.of_list
          (List.init (2 + Prng.int rng 2) (fun _ -> random_connected_graph rng))
      in
      let min_support = 1 + Prng.int rng 2 in
      let norm l = List.sort compare (List.map pattern_summary l) in
      norm (Level_miner.mine_list ~max_edges:3 ~min_support db)
      = norm (Gspan.mine_list ~max_edges:3 ~min_support db))

let taxogram_level_miner_prop =
  QCheck.Test.make ~name:"taxogram with level-wise step 2 = with gspan"
    ~count:40
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Prng.of_int seed in
      let tax =
        Tsg_taxonomy.Synth_taxonomy.generate rng
          { concepts = 8; relationships = 12; depth = 3 }
      in
      let nlabels = Tsg_taxonomy.Taxonomy.label_count tax in
      let db =
        Db.of_list
          (List.init (2 + Prng.int rng 2) (fun _ ->
               let n = 2 + Prng.int rng 3 in
               let labels = Array.init n (fun _ -> Prng.int rng nlabels) in
               let edges = ref [] in
               for v = 1 to n - 1 do
                 edges := (v, Prng.int rng v, Prng.int rng 2) :: !edges
               done;
               g ~labels ~edges:!edges))
      in
      let config =
        {
          Tsg_core.Taxogram.min_support = 0.5;
          max_edges = Some 3;
          enhancements = Tsg_core.Specialize.all_on;
        }
      in
      let a = Tsg_core.Taxogram.run (Tsg_core.Taxogram.Spec.collect ~config ~class_miner:`Gspan ()) tax db in
      let b = Tsg_core.Taxogram.run (Tsg_core.Taxogram.Spec.collect ~config ~class_miner:`Level_wise ()) tax db in
      Tsg_core.Pattern.equal_sets a.Tsg_core.Taxogram.patterns
        b.Tsg_core.Taxogram.patterns)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "gspan"
    [
      ( "dfs_code",
        [
          Alcotest.test_case "forward/backward" `Quick test_forward_backward;
          Alcotest.test_case "edge order" `Quick test_compare_edge_rules;
          Alcotest.test_case "code compare" `Quick test_code_compare_prefix;
          Alcotest.test_case "rightmost path" `Quick test_rightmost_path;
          Alcotest.test_case "accessors" `Quick test_code_accessors;
          Alcotest.test_case "to_graph" `Quick test_to_graph_roundtrip;
        ] );
      ( "min_code",
        [
          Alcotest.test_case "single edge" `Quick test_minimum_single_edge;
          Alcotest.test_case "minimum is minimal" `Quick test_minimum_is_min;
          Alcotest.test_case "non-minimal rejected" `Quick
            test_non_minimal_rejected;
          Alcotest.test_case "empty code" `Quick test_is_min_empty;
          Alcotest.test_case "disconnected rejected" `Quick
            test_min_code_disconnected_rejected;
          Alcotest.test_case "canonical key" `Quick
            test_canonical_key_iso_invariant;
        ]
        @ qsuite
            [
              canonical_permutation_prop;
              minimum_always_minimal_prop;
              canonical_key_printf_prop;
            ] );
      ( "cam",
        [
          Alcotest.test_case "basics" `Quick test_cam_basics;
          Alcotest.test_case "disconnected" `Quick test_cam_disconnected;
        ]
        @ qsuite [ cam_agrees_with_min_code_prop ] );
      ( "miner",
        [
          Alcotest.test_case "bad support" `Quick test_gspan_rejects_bad_support;
          Alcotest.test_case "single edge db" `Quick test_gspan_single_edge_db;
          Alcotest.test_case "triangle counts" `Quick
            test_gspan_triangle_counts;
          Alcotest.test_case "max edges" `Quick test_gspan_max_edges;
          Alcotest.test_case "embeddings valid" `Quick
            test_gspan_embeddings_valid;
          Alcotest.test_case "frequent labels" `Quick test_frequent_labels;
        ]
        @ qsuite
            [ gspan_matches_brute_force_prop; gspan_matches_reference_prop ] );
      ( "level_miner",
        [
          Alcotest.test_case "triangle" `Quick test_level_miner_triangle;
          Alcotest.test_case "embeddings valid" `Quick
            test_level_miner_embeddings_valid;
        ]
        @ qsuite [ level_equals_gspan_prop; taxogram_level_miner_prop ] );
    ]
