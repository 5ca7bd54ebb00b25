(* The specification every subdivision instance is checked against: mine
   the encoded database with the naive miner, decode, and keep what
   decodes. Patterns compare by the canonical key of their encoding and by
   support set. *)

module Subdivision = Tsg_core.Subdivision

let equals_naive (code : 'g Subdivision.t) ~max_edges ~min_support graphs
    (mined : 'g Subdivision.pattern list) =
  let key g support_set =
    ( Tsg_gspan.Min_code.canonical_key (code.encode g),
      Tsg_util.Bitset.to_list support_set )
  in
  let reference =
    Tsg_core.Naive.mine ~max_edges:(2 * max_edges) ~min_support code.taxonomy
      (Tsg_graph.Db.of_list (List.map code.encode graphs))
    |> List.filter_map (fun (p : Tsg_core.Pattern.t) ->
           Option.map (fun g -> key g p.support_set) (code.decode p.graph))
  in
  let mined = List.map (fun p -> key p.Subdivision.graph p.support_set) mined in
  List.sort compare mined = List.sort compare reference
