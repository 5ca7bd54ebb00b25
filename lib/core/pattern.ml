module Graph = Tsg_graph.Graph
module Label = Tsg_graph.Label
module Bitset = Tsg_util.Bitset
module Min_code = Tsg_gspan.Min_code

type t = {
  graph : Graph.t;
  support_count : int;
  support : float;
  support_set : Bitset.t;
}

let make ~db_size graph support_set =
  let support_count = Bitset.cardinal support_set in
  let support =
    if db_size = 0 then 0.0
    else float_of_int support_count /. float_of_int db_size
  in
  { graph; support_count; support; support_set }

let key t = Min_code.canonical_key t.graph

let compare a b = String.compare (key a) (key b)

(* Decorate, sort, undecorate: a canonical key costs far more than a
   string comparison, so each is computed once per pattern. The sort is
   stable, which keeps the order {!compare} defines, ties included. *)
let by_key (k, _) (k', _) = String.compare k k'

let sort_keyed l = List.stable_sort by_key (List.map (fun p -> (key p, p)) l)

let sort l = List.map snd (sort_keyed l)

let sort_groups groups =
  let sorted = List.map (fun (g, ps) -> (g, sort_keyed ps)) groups in
  let all = List.stable_sort by_key (List.concat_map snd sorted) in
  (List.map (fun (g, kps) -> (g, List.map snd kps)) sorted, List.map snd all)

let equal_sets a b =
  let tag t = (key t, Bitset.to_list t.support_set) in
  let norm l = List.sort Stdlib.compare (List.map tag l) in
  norm a = norm b

let edge_count t = Graph.edge_count t.graph

let node_count t = Graph.node_count t.graph

let pp ~names ppf t =
  let g = t.graph in
  Format.fprintf ppf "@[<h>pattern[sup=%d (%.2f)]" t.support_count t.support;
  for v = 0 to Graph.node_count g - 1 do
    Format.fprintf ppf " %d:%s" v (Label.name names (Graph.node_label g v))
  done;
  Array.iter
    (fun (u, v, l) ->
      if l = 0 then Format.fprintf ppf " (%d-%d)" u v
      else Format.fprintf ppf " (%d-%d/%d)" u v l)
    (Graph.edges g);
  Format.fprintf ppf "@]"

let to_string ~names t = Format.asprintf "%a" (pp ~names) t
