module Graph = Tsg_graph.Graph
module Taxonomy = Tsg_taxonomy.Taxonomy

type env = {
  code : Graph.t Subdivision.t;
  node_to_combined : int array;
  edge_to_combined : int array;
  combined_to_node : int array; (* -1 when not a node concept *)
  combined_to_edge : int array;
}

type pattern = Graph.t Subdivision.pattern

let back arr l =
  if l < 0 || l >= Array.length arr || arr.(l) < 0 then None else Some arr.(l)

let lookup arr what l =
  match back arr l with
  | Some c -> c
  | None ->
    invalid_arg (Printf.sprintf "Edge_labeled: not a %s label: %d" what l)

let prepare ~node_taxonomy ~edge_taxonomy =
  let node_names = fst (Taxonomy.declared node_taxonomy) in
  List.iter
    (fun n ->
      if List.mem n node_names then
        invalid_arg
          ("Edge_labeled.prepare: name used by both taxonomies: " ^ n))
    (fst (Taxonomy.declared edge_taxonomy));
  let combined =
    Subdivision.taxonomy [ node_taxonomy; edge_taxonomy ] ~extra:[]
  in
  let to_combined t =
    Array.init (Taxonomy.label_count t) (fun l ->
        if Taxonomy.is_artificial t l then -1
        else Taxonomy.id_of_name combined (Taxonomy.name t l))
  in
  let inverse arr =
    let inv = Array.make (Taxonomy.label_count combined) (-1) in
    Array.iteri (fun l c -> if c >= 0 then inv.(c) <- l) arr;
    inv
  in
  let node_to_combined = to_combined node_taxonomy in
  let edge_to_combined = to_combined edge_taxonomy in
  let combined_to_node = inverse node_to_combined in
  let combined_to_edge = inverse edge_to_combined in
  (* an edge node's half edges are both labeled 0 *)
  let encode g =
    let labels =
      Array.map (lookup node_to_combined "node-taxonomy") (Graph.node_labels g)
    in
    let mid (u, v, e) =
      (u, v, lookup edge_to_combined "edge-taxonomy" e, 0, 0)
    in
    Subdivision.encode labels (Array.map mid (Graph.edges g))
  in
  let edge mid (x, lx) (y, ly) =
    if lx = 0 && ly = 0 then
      Option.map (fun e -> (x, y, e)) (back combined_to_edge mid)
    else None
  in
  let decode =
    Subdivision.decode
      ~is_mid:(fun l -> Option.is_some (back combined_to_edge l))
      ~node:(back combined_to_node) ~edge
      ~build:(fun labels edges -> Graph.build ~labels ~edges)
  in
  {
    code = { taxonomy = combined; encode; decode };
    node_to_combined;
    edge_to_combined;
    combined_to_node;
    combined_to_edge;
  }

let taxonomy env = env.code.taxonomy

let node_concept env l = lookup env.node_to_combined "node-taxonomy" l

let edge_concept env l = lookup env.edge_to_combined "edge-taxonomy" l

let node_concept_back env l = back env.combined_to_node l

let edge_concept_back env l = back env.combined_to_edge l

let encode env = env.code.encode

let decode env = env.code.decode

let mine ?(min_support = 0.2) ?max_edges ?(enhancements = Specialize.all_on)
    env =
  Subdivision.mine env.code { Taxogram.min_support; max_edges; enhancements }
