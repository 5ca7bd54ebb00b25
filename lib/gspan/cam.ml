module Graph = Tsg_graph.Graph

(* Column block for placing node [v] after the already-ordered [chosen]
   (most recent first is inconvenient; we keep chosen in order). Entry 0
   means no edge, otherwise edge label + 1. *)
let column g chosen v =
  Graph.node_label g v
  :: List.map
       (fun u ->
         match Graph.edge_label g u v with Some l -> l + 1 | None -> 0)
       chosen

(* lexicographic comparison of int lists *)
let rec compare_prefix (a : int list) (b : int list) =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a, y :: b -> ( match compare x y with 0 -> compare_prefix a b | c -> c)

let code g =
  let n = Graph.node_count g in
  if n = 0 then [||]
  else begin
    let best = ref None in
    (* depth-first over node orderings; [acc] is the code so far (reversed
       per block for cheap append), compared block-wise against the best
       complete code's prefix to prune *)
    let rec place chosen used acc_rev depth =
      if depth = n then begin
        let candidate = List.concat (List.rev acc_rev) in
        match !best with
        | None -> best := Some candidate
        | Some b -> if compare_prefix candidate b < 0 then best := Some candidate
      end
      else
        for v = 0 to n - 1 do
          if not used.(v) then begin
            let col = column g chosen v in
            let acc_rev' = col :: acc_rev in
            let prefix = List.concat (List.rev acc_rev') in
            let viable =
              match !best with
              | None -> true
              | Some b ->
                (* compare the prefix against the best code's prefix of the
                   same length *)
                let rec cmp (p : int list) (b : int list) =
                  match (p, b) with
                  | [], _ -> true (* equal so far *)
                  | _, [] -> false
                  | x :: p, y :: b -> x < y || (x = y && cmp p b)
                in
                cmp prefix b
            in
            if viable then begin
              used.(v) <- true;
              place (chosen @ [ v ]) used acc_rev' (depth + 1);
              used.(v) <- false
            end
          end
        done
    in
    place [] (Array.make n false) [] 0;
    Array.of_list (Option.get !best)
  end

let key g =
  let c = code g in
  let buf = Buffer.create (4 * Array.length c) in
  Array.iter (fun x -> Buffer.add_string buf (string_of_int x ^ ",")) c;
  Buffer.contents buf

let same_class a b =
  Graph.node_count a = Graph.node_count b
  && Graph.edge_count a = Graph.edge_count b
  && key a = key b
