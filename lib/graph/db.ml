type t = { graphs : Graph.t array }

let of_array graphs = { graphs }

let of_list graphs = of_array (Array.of_list graphs)

let size t = Array.length t.graphs

let get t i = t.graphs.(i)

let iteri f t = Array.iteri f t.graphs

let fold f init t = Array.fold_left f init t.graphs

let to_list t = Array.to_list t.graphs

let map f t = of_array (Array.map f t.graphs)

let avg over t =
  if size t = 0 then 0.0
  else
    float_of_int (Array.fold_left (fun acc g -> acc + over g) 0 t.graphs)
    /. float_of_int (size t)

let avg_nodes t = avg Graph.node_count t

let avg_edges t = avg Graph.edge_count t

let distinct_labels t =
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun g ->
      List.iter
        (fun l -> if not (Hashtbl.mem seen l) then Hashtbl.add seen l ())
        (Graph.distinct_node_labels g))
    t.graphs;
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) seen [])

let distinct_label_count t = List.length (distinct_labels t)

let distinct_edge_labels t =
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun g ->
      Array.iter
        (fun (_, _, l) -> if not (Hashtbl.mem seen l) then Hashtbl.add seen l ())
        (Graph.edges g))
    t.graphs;
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) seen [])

let avg_edge_density t =
  if size t = 0 then 0.0
  else
    Array.fold_left (fun acc g -> acc +. Graph.edge_density g) 0.0 t.graphs
    /. float_of_int (size t)

let max_over over t = Array.fold_left (fun acc g -> max acc (over g)) 0 t.graphs

let max_graph_nodes t = max_over Graph.node_count t

let max_graph_edges t = max_over Graph.edge_count t

let threshold_of_size n theta =
  if theta < 0.0 || theta > 1.0 then
    invalid_arg "Db.support_count_to_threshold: theta outside [0,1]";
  max 1 (int_of_float (ceil (theta *. float_of_int n)))

let support_count_to_threshold t theta = threshold_of_size (size t) theta

type statistics = {
  graphs : int;
  avg_nodes : float;
  avg_edges : float;
  distinct_labels : int;
  avg_density : float;
}

let statistics t =
  {
    graphs = size t;
    avg_nodes = avg_nodes t;
    avg_edges = avg_edges t;
    distinct_labels = distinct_label_count t;
    avg_density = avg_edge_density t;
  }

let pp_statistics ppf s =
  Format.fprintf ppf
    "graphs=%d avg_nodes=%.1f avg_edges=%.1f distinct_labels=%d density=%.2f"
    s.graphs s.avg_nodes s.avg_edges s.distinct_labels s.avg_density
