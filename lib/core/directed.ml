module Digraph = Tsg_graph.Digraph
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy

type env = Digraph.t Subdivision.t

type pattern = Digraph.t Subdivision.pattern

let arc_concept_name = "<arc>"

(* an arc node's half edges are labeled 2e on the source side and 2e+1 on
   the target side *)
let arc _ (x, lx) (y, ly) =
  let (src, ls), (dst, ld) =
    if lx mod 2 = 0 then ((x, lx), (y, ly)) else ((y, ly), (x, lx))
  in
  if ls mod 2 = 0 && ld = ls + 1 then Some (src, dst, ls / 2) else None

let prepare t =
  if Label.mem (Taxonomy.labels t) arc_concept_name then
    invalid_arg
      ("Directed.prepare: taxonomy already defines " ^ arc_concept_name);
  let taxonomy = Subdivision.taxonomy [ t ] ~extra:[ arc_concept_name ] in
  let arc_label = Taxonomy.id_of_name taxonomy arc_concept_name in
  let encode dg =
    Subdivision.encode (Digraph.node_labels dg)
      (Array.map
         (fun (u, v, e) -> (u, v, arc_label, 2 * e, (2 * e) + 1))
         (Digraph.arcs dg))
  in
  let decode =
    Subdivision.decode ~is_mid:(Int.equal arc_label) ~node:Option.some
      ~edge:arc ~build:(fun labels arcs -> Digraph.build ~labels ~arcs)
  in
  { Subdivision.taxonomy; encode; decode }

let taxonomy (env : env) = env.taxonomy

let arc_label env = Taxonomy.id_of_name (taxonomy env) arc_concept_name

let encode (env : env) = env.encode

let decode (env : env) = env.decode

let canonical_key env dg =
  Tsg_gspan.Min_code.canonical_key (encode env dg)

let mine ?(min_support = 0.2) ?max_arcs
    ?(enhancements = Specialize.all_on) env =
  Subdivision.mine env
    { Taxogram.min_support; max_edges = max_arcs; enhancements }

let pp_pattern ~names ppf (p : pattern) =
  let g = p.graph in
  Format.fprintf ppf "@[<h>pattern[sup=%d (%.2f)]" p.support_count p.support;
  for v = 0 to Digraph.node_count g - 1 do
    Format.fprintf ppf " %d:%s" v (Label.name names (Digraph.node_label g v))
  done;
  Array.iter
    (fun (u, v, l) ->
      if l = 0 then Format.fprintf ppf " (%d->%d)" u v
      else Format.fprintf ppf " (%d->%d/%d)" u v l)
    (Digraph.arcs g);
  Format.fprintf ppf "@]"
