module Graph = Tsg_graph.Graph

type embedding = int array
(* dfs index -> graph node *)

(* Typed at [int], as the comparisons below: generalized, they would pay
   [caml_equal]/[caml_compare] per call. *)
let mapped (emb : embedding) (node : int) =
  let rec go j = j < Array.length emb && (emb.(j) = node || go (j + 1)) in
  go 0

(* lexicographic [(a, b) < (a', b')] on ints *)
let lt2 (a : int) (b : int) a' b' = a < a' || (a = a' && b < b')

(* Incrementally build the minimum code of [g], calling [on_edge k e] after
   choosing the k-th edge; stop early when it returns [false]. *)
let fold_min g ~on_edge =
  let ecount = Graph.edge_count g in
  if Graph.node_count g = 0 then invalid_arg "Min_code: empty graph";
  if not (Graph.is_connected g) then
    invalid_arg "Min_code: graph must be connected";
  if ecount = 0 then ()
  else begin
    (* first edge: smallest (l_from, l_e, l_to) over both orientations,
       from a start no triple exceeds *)
    let l0 = ref max_int and le0 = ref max_int and l1 = ref max_int in
    let consider u v le =
      let lu = Graph.node_label g u and lv = Graph.node_label g v in
      if lu < !l0 || (lu = !l0 && lt2 le lv !le0 !l1) then begin
        l0 := lu;
        le0 := le;
        l1 := lv
      end
    in
    Array.iter
      (fun (u, v, le) ->
        consider u v le;
        consider v u le)
      (Graph.edges g);
    let l0 = !l0 and le0 = !le0 and l1 = !l1 in
    let first =
      {
        Dfs_code.from_i = 0;
        to_i = 1;
        from_label = l0;
        edge_label = le0;
        to_label = l1;
      }
    in
    let embeddings = ref [] in
    let add_if u v le =
      if
        Graph.node_label g u = l0 && le = le0 && Graph.node_label g v = l1
      then embeddings := [| u; v |] :: !embeddings
    in
    Array.iter
      (fun (u, v, le) ->
        add_if u v le;
        add_if v u le)
      (Graph.edges g);
    let code = ref [ first ] in
    let continue_ = ref (on_edge 0 first) in
    let k = ref 1 in
    while !continue_ && !k < ecount do
      let prefix = Array.of_list (List.rev !code) in
      let rpath = Dfs_code.rightmost_path prefix in
      let r = List.hd rpath in
      let nodes_so_far = Dfs_code.node_count prefix in
      (* backward candidates: rightmost node to rightmost-path ancestors *)
      let back_targets =
        List.filter
          (fun i -> i <> r && not (Dfs_code.has_edge prefix r i))
          (List.sort compare (List.tl rpath))
      in
      let best_back = ref None in
      List.iter
        (fun (emb : embedding) ->
          List.iter
            (fun i ->
              match Graph.edge_label g emb.(r) emb.(i) with
              | Some le -> (
                match !best_back with
                | None -> best_back := Some (i, le)
                | Some (bi, ble) ->
                  if lt2 i le bi ble then best_back := Some (i, le))
              | None -> ())
            back_targets)
        !embeddings;
      let chosen =
        match !best_back with
        | Some (i, le) ->
          let edge =
            {
              Dfs_code.from_i = r;
              to_i = i;
              from_label = Dfs_code.label_of prefix r;
              edge_label = le;
              to_label = Dfs_code.label_of prefix i;
            }
          in
          let survivors =
            List.filter
              (fun (emb : embedding) ->
                Graph.edge_label g emb.(r) emb.(i) = Some le)
              !embeddings
          in
          Some (edge, survivors)
        | None ->
          (* forward: walk the rightmost path from the deep end; the first
             anchor with any candidate wins, labels break ties there *)
          let rec try_anchor = function
            | [] -> None
            | i :: rest ->
              let best_lab = ref None in
              List.iter
                (fun (emb : embedding) ->
                  Array.iter
                    (fun (w, le) ->
                      if not (mapped emb w) then begin
                        let lw = Graph.node_label g w in
                        match !best_lab with
                        | None -> best_lab := Some (le, lw)
                        | Some (ble, blw) ->
                          if lt2 le lw ble blw then best_lab := Some (le, lw)
                      end)
                    (Graph.neighbors g emb.(i)))
                !embeddings;
              (match !best_lab with
              | None -> try_anchor rest
              | Some (le, lw) ->
                let edge =
                  {
                    Dfs_code.from_i = i;
                    to_i = nodes_so_far;
                    from_label = Dfs_code.label_of prefix i;
                    edge_label = le;
                    to_label = lw;
                  }
                in
                let survivors =
                  List.concat_map
                    (fun (emb : embedding) ->
                      Array.to_list (Graph.neighbors g emb.(i))
                      |> List.filter_map (fun (w, le') ->
                             if
                               le' = le
                               && (not (mapped emb w))
                               && Graph.node_label g w = lw
                             then Some (Array.append emb [| w |])
                             else None))
                    !embeddings
                in
                Some (edge, survivors))
          in
          try_anchor rpath
      in
      match chosen with
      | None -> assert false (* connected graph: some extension must exist *)
      | Some (edge, survivors) ->
        code := edge :: !code;
        embeddings := survivors;
        continue_ := on_edge !k edge;
        incr k
    done
  end

let minimum g =
  let acc = ref [] in
  fold_min g ~on_edge:(fun _ e ->
      acc := e :: !acc;
      true);
  Array.of_list (List.rev !acc)

exception Not_min

let is_min (code : Dfs_code.t) =
  if Array.length code = 0 then true
  else
    let g = Dfs_code.to_graph code in
    try
      fold_min g ~on_edge:(fun k e ->
          let c = Dfs_code.compare_edge e code.(k) in
          if c < 0 then raise Not_min
          else if c > 0 then
            (* impossible for a valid DFS code of the same graph *)
            assert false
          else true);
      true
    with Not_min -> false

(* the key text is "from,to,from_label,edge_label,to_label;" per edge *)
let canonical_key g =
  if Graph.node_count g = 1 then "n" ^ string_of_int (Graph.node_label g 0)
  else
    let code = minimum g in
    let buf = Buffer.create (16 * Array.length code) in
    let field sep n =
      Buffer.add_string buf (string_of_int n);
      Buffer.add_char buf sep
    in
    Array.iter
      (fun e ->
        field ',' e.Dfs_code.from_i;
        field ',' e.to_i;
        field ',' e.from_label;
        field ',' e.edge_label;
        field ';' e.to_label)
      code;
    Buffer.contents buf
