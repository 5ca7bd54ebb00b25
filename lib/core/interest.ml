module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Gen_iso = Tsg_iso.Gen_iso
module Min_code = Tsg_gspan.Min_code

type ranked = { pattern : Pattern.t; ratio : float }

let label_frequencies taxonomy db =
  let { Taxonomy.anc_first; anc; _ } = Taxonomy.flat taxonomy in
  let n = Taxonomy.label_count taxonomy in
  let counts = Array.make n 0 in
  let stamp = Array.make n (-1) in
  Db.iteri
    (fun gid g ->
      for v = 0 to Graph.node_count g - 1 do
        let l = Graph.node_label g v in
        (* ancestors are reflexive: a label stamped already was walked, or
           is an ancestor of one that was, so its ancestors are stamped *)
        if stamp.(l) <> gid then
          for j = anc_first.(l) to anc_first.(l + 1) - 1 do
            let a = anc.(j) in
            if stamp.(a) <> gid then begin
              stamp.(a) <- gid;
              counts.(a) <- counts.(a) + 1
            end
          done
      done)
    db;
  counts

let ratio taxonomy db ~freq ?(support_of = fun _ -> None) (p : Pattern.t) =
  let g = p.Pattern.graph in
  let actual = float_of_int p.Pattern.support_count in
  let best = ref infinity in
  for pos = 0 to Graph.node_count g - 1 do
    let l = Graph.node_label g pos in
    List.iter
      (fun parent ->
        let general = Graph.relabel g (fun v -> if v = pos then parent else Graph.node_label g v) in
        let general_support =
          match support_of general with
          | Some s -> s
          | None -> Gen_iso.support_count taxonomy ~pattern:general db
        in
        let share =
          if freq.(parent) = 0 then 0.0
          else float_of_int freq.(l) /. float_of_int freq.(parent)
        in
        let expected = float_of_int general_support *. share in
        let r = if expected > 0.0 then actual /. expected else infinity in
        if r < !best then best := r)
      (Taxonomy.parents taxonomy l)
  done;
  !best

let rank ?(r = 1.0) taxonomy db patterns =
  let freq = label_frequencies taxonomy db in
  let by_key = Hashtbl.create (List.length patterns) in
  List.iter
    (fun (p : Pattern.t) ->
      Hashtbl.replace by_key (Pattern.key p) p.Pattern.support_count)
    patterns;
  let support_of g = Hashtbl.find_opt by_key (Min_code.canonical_key g) in
  patterns
  |> List.map (fun p -> { pattern = p; ratio = ratio taxonomy db ~freq ~support_of p })
  |> List.filter (fun x -> x.ratio >= r)
  |> List.sort (fun a b -> compare b.ratio a.ratio)
