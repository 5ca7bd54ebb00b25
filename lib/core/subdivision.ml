module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset

(* rebuilt rather than extended, so ids stay dense and closures are
   recomputed; the build re-synthesizes artificial roots *)
let taxonomy ts ~extra =
  let declared = List.map Taxonomy.declared ts in
  Taxonomy.build
    ~names:(List.concat_map fst declared @ extra)
    ~is_a:(List.concat_map snd declared)

let encode labels edges =
  let n = Array.length labels in
  let halves k (u, v, _, hu, hv) = [ (u, n + k, hu); (n + k, v, hv) ] in
  Graph.build
    ~labels:(Array.append labels (Array.map (fun (_, _, m, _, _) -> m) edges))
    ~edges:(List.concat (List.mapi halves (Array.to_list edges)))

exception Artifact

let decode ~is_mid ~node ~edge ~build g =
  let n = Graph.node_count g in
  let mid v = is_mid (Graph.node_label g v) in
  let real = List.filter (fun v -> not (mid v)) (List.init n Fun.id) in
  let index = Array.make n (-1) in
  List.iteri (fun i v -> index.(v) <- i) real;
  let get = function Some x -> x | None -> raise Artifact in
  match
    let labels =
      Array.of_list (List.map (fun v -> get (node (Graph.node_label g v))) real)
    in
    let edges = ref [] in
    for v = 0 to n - 1 do
      match Graph.neighbors g v with
      | [| (x, lx); (y, ly) |] when mid v && not (mid x || mid y) ->
        let e = edge (Graph.node_label g v) (index.(x), lx) (index.(y), ly) in
        edges := get e :: !edges
      | around ->
        if mid v || Array.exists (fun (w, _) -> not (mid w)) around then
          raise Artifact
    done;
    match !edges with [] -> raise Artifact | edges -> build labels edges
  with
  | decoded -> Some decoded
  | exception (Artifact | Invalid_argument _) -> None

type 'g t = {
  taxonomy : Taxonomy.t;
  encode : 'g -> Graph.t;
  decode : Graph.t -> 'g option;
}

type 'g pattern = {
  graph : 'g;
  support_count : int;
  support : float;
  support_set : Bitset.t;
}

let run code (spec : Taxogram.Spec.t) graphs =
  (match spec.sink with
  | `Stream _ ->
    invalid_arg "Subdivision.run: a `Stream sink would see encoded patterns"
  | `Collect -> ());
  let max_edges = Option.map (fun e -> 2 * e) spec.config.max_edges in
  let spec = { spec with config = { spec.config with max_edges } } in
  let r =
    Taxogram.run spec code.taxonomy (Db.of_list (List.map code.encode graphs))
  in
  let decoded (p : Pattern.t) =
    Option.map
      (fun graph ->
        {
          graph;
          support_count = p.support_count;
          support = p.support;
          support_set = p.support_set;
        })
      (code.decode p.graph)
  in
  (List.filter_map decoded r.patterns, r)

let mine code config graphs =
  fst (run code (Taxogram.Spec.collect ~config ()) graphs)
