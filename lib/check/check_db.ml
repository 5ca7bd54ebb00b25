module Diagnostic = Tsg_util.Diagnostic
module Serial = Tsg_graph.Serial
module Label = Tsg_graph.Label
module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy

let check_raw c ?file ?taxonomy ?(stats = false) (raw : Serial.raw_db) =
  let error ?line rule fmt =
    Diagnostic.emitf c ?file ?line ~rule Diagnostic.Error fmt
  in
  let warn ?line rule fmt =
    Diagnostic.emitf c ?file ?line ~rule Diagnostic.Warning fmt
  in
  let info ?line rule fmt =
    Diagnostic.emitf c ?file ?line ~rule Diagnostic.Info fmt
  in
  List.iter
    (fun (line, problem) -> error ~line "DB007" "%s" problem)
    raw.Serial.bad_lines;
  let known_label =
    match taxonomy with
    | None -> fun _ -> true
    | Some t ->
      let labels = Taxonomy.labels t in
      fun name -> Label.find labels name <> None
  in
  let unknown = Hashtbl.create 16 in
  let total_nodes = ref 0 in
  let total_edges = ref 0 in
  List.iteri
    (fun gid (g : Serial.raw_graph) ->
      if g.Serial.g_nodes = [] then
        warn ~line:g.Serial.g_line "DB006" "graph %d has no nodes" gid;
      let declared = Hashtbl.create 16 in
      List.iter
        (fun (node : Serial.raw_node) ->
          incr total_nodes;
          if node.Serial.v_index < 0 then
            error ~line:node.Serial.v_line "DB001"
              "graph %d: negative node index %d" gid node.Serial.v_index
          else if Hashtbl.mem declared node.Serial.v_index then
            error ~line:node.Serial.v_line "DB001"
              "graph %d: duplicate node %d" gid node.Serial.v_index
          else Hashtbl.add declared node.Serial.v_index ();
          if not (known_label node.Serial.v_label) then begin
            Hashtbl.replace unknown node.Serial.v_label ();
            error ~line:node.Serial.v_line "DB005"
              "graph %d: label %s is not a taxonomy concept" gid
              node.Serial.v_label
          end)
        g.Serial.g_nodes;
      (* every gap in the ids is a finding, unless gaps outnumber nodes
         (a stray huge index): then one finding, not one per gap *)
      let top = Hashtbl.fold (fun v () acc -> max v acc) declared (-1) in
      let gaps = top + 1 - Hashtbl.length declared in
      if gaps > Hashtbl.length declared then
        error ~line:g.Serial.g_line "DB001" "graph %d: %d missing nodes below %d"
          gid gaps top
      else
        for v = 0 to top - 1 do
          if not (Hashtbl.mem declared v) then
            error ~line:g.Serial.g_line "DB001" "graph %d: missing node %d" gid v
        done;
      let seen_edges = Hashtbl.create 16 in
      List.iter
        (fun (edge : Serial.raw_edge) ->
          incr total_edges;
          let u = edge.Serial.e_src and v = edge.Serial.e_dst in
          List.iter
            (fun endpoint ->
              if not (Hashtbl.mem declared endpoint) then
                error ~line:edge.Serial.e_line "DB002"
                  "graph %d: edge endpoint %d is not a declared node" gid
                  endpoint)
            (if u = v then [ u ] else [ u; v ]);
          if u = v then
            error ~line:edge.Serial.e_line "DB003"
              "graph %d: self loop on node %d" gid u
          else begin
            let key = (min u v, max u v) in
            if Hashtbl.mem seen_edges key then
              error ~line:edge.Serial.e_line "DB004"
                "graph %d: duplicate edge %d-%d" gid u v
            else Hashtbl.add seen_edges key ()
          end)
        g.Serial.g_edges)
    raw.Serial.graphs;
  if stats then begin
    let n = List.length raw.Serial.graphs in
    info "DB008" "%d graphs, %d nodes, %d edges%s" n !total_nodes !total_edges
      (if Hashtbl.length unknown > 0 then
         Printf.sprintf ", %d distinct unknown labels" (Hashtbl.length unknown)
       else "")
  end

let validate c ~taxonomy db =
  let known = Taxonomy.label_count taxonomy in
  let names = Taxonomy.labels taxonomy in
  Db.iteri
    (fun gid g ->
      Array.iter
        (fun l ->
          if l < 0 || l >= known then
            Diagnostic.emitf c ~rule:"DB005" Diagnostic.Error
              "graph %d uses label %s which is not in the taxonomy" gid
              (if l >= 0 && l < Label.size names then Label.name names l
               else string_of_int l))
        (Graph.node_labels g))
    db
