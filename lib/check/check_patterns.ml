module Diagnostic = Tsg_util.Diagnostic
module Graph = Tsg_graph.Graph
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy
module Gen_iso = Tsg_iso.Gen_iso
module Min_code = Tsg_gspan.Min_code
module Pattern = Tsg_core.Pattern
module Pattern_io = Tsg_core.Pattern_io

(* shared worker: [line] is None for in-memory validation, and [canonical]
   carries the edge-label table when PAT002 applies — the canonical form is
   name-ranked ({!Pattern_io.canonical_form}), meaningless before
   Pattern_io canonicalizes on write *)
let check_all c ?file ?taxonomy ~stats ~canonical ~node_labels
    (entries : (Pattern.t * int option) array) =
  let error ?line rule fmt =
    Diagnostic.emitf c ?file ?line ~rule Diagnostic.Error fmt
  in
  let warn ?line rule fmt =
    Diagnostic.emitf c ?file ?line ~rule Diagnostic.Warning fmt
  in
  let info ?line rule fmt =
    Diagnostic.emitf c ?file ?line ~rule Diagnostic.Info fmt
  in
  let n = Array.length entries in
  let known_count =
    match taxonomy with
    | Some t -> Taxonomy.label_count t
    | None -> Label.size node_labels
  in
  let connected = Array.make n false in
  let keys = Array.make n None in
  Array.iteri
    (fun i ((p : Pattern.t), line) ->
      let g = p.Pattern.graph in
      connected.(i) <- Graph.is_connected g;
      if not connected.(i) then
        error ?line "PAT001" "pattern #%d is not connected" i
      else begin
        keys.(i) <- Some (Pattern.key p);
        match canonical with
        | Some edge_labels
          when Graph.node_count g > 1
               && not (Graph.equal (Pattern_io.canonical_form ~edge_labels g) g)
          ->
          error ?line "PAT002"
            "pattern #%d: node numbering is not minimum-DFS-code canonical" i
        | _ -> ()
      end;
      if taxonomy <> None then
        List.iter
          (fun l ->
            if l < 0 || l >= known_count then
              error ?line "PAT007"
                "pattern #%d: label %s is not a taxonomy concept" i
                (if l >= 0 && l < Label.size node_labels then
                   Label.name node_labels l
                 else string_of_int l))
          (Graph.distinct_node_labels g))
    entries;
  (* pairwise rules ([PAT003]..[PAT005]), tried only on pairs that can be
     related. Between patterns of equal size, a generalized isomorphism in
     either direction is a bijection on nodes that maps each edge onto an
     edge of equal label, so it maps the one edge set onto the other: it is
     an isomorphism of the two graphs with their node labels erased. So a
     connected pattern is only compared with the patterns of its shape, the
     canonical key of its graph with node labels erased. A disconnected
     pattern ([PAT001]) has no canonical key; as the isomorphism keeps it
     disconnected, it is compared with the disconnected patterns of its
     node and edge counts. *)
  let class_of i =
    let g = (fst entries.(i)).Pattern.graph in
    if connected.(i) then
      `Shape (Min_code.canonical_key (Graph.relabel g (fun _ -> 0)))
    else `Disconnected (Graph.node_count g, Graph.edge_count g)
  in
  (* [later.(i)]: the patterns after [i] in its class, in order *)
  let later = Array.make n [] in
  let members = Hashtbl.create 64 in
  for i = n - 1 downto 0 do
    let cls = class_of i in
    let after = Option.value ~default:[] (Hashtbl.find_opt members cls) in
    later.(i) <- after;
    Hashtbl.replace members cls (i :: after)
  done;
  let compare_pair i j =
    let pi, line_i = entries.(i) and pj, line_j = entries.(j) in
    let duplicate =
      match (keys.(i), keys.(j)) with
      | Some a, Some b -> a = b
      | _ -> false
    in
    if duplicate then
      error ?line:line_j "PAT003" "pattern #%d duplicates pattern #%d" j i
    else
      match taxonomy with
      | None -> ()
      | Some tax ->
        let report gen_idx gen_line spec_idx (gen : Pattern.t)
            (spec : Pattern.t) =
          if gen.Pattern.support_count < spec.Pattern.support_count then
            error ?line:gen_line "PAT004"
              "pattern #%d generalizes pattern #%d but records smaller \
               support (%d < %d)"
              gen_idx spec_idx gen.Pattern.support_count
              spec.Pattern.support_count
          else if gen.Pattern.support_count = spec.Pattern.support_count then
            warn ?line:gen_line "PAT005"
              "pattern #%d is over-generalized: specialization #%d has \
               equal support %d"
              gen_idx spec_idx gen.Pattern.support_count
        in
        let gi = pi.Pattern.graph and gj = pj.Pattern.graph in
        if Gen_iso.graph_isomorphic tax gi gj then report i line_i j pi pj
        else if Gen_iso.graph_isomorphic tax gj gi then
          report j line_j i pj pi
  in
  for i = 0 to n - 1 do
    List.iter (compare_pair i) later.(i)
  done;
  if stats && n > 0 then begin
    let max_edges = ref 0 and min_sup = ref max_int and max_sup = ref 0 in
    Array.iter
      (fun ((p : Pattern.t), _) ->
        max_edges := max !max_edges (Pattern.edge_count p);
        min_sup := min !min_sup p.Pattern.support_count;
        max_sup := max !max_sup p.Pattern.support_count)
      entries;
    info "PAT008" "%d patterns, max %d edges, support %d..%d" n !max_edges
      !min_sup !max_sup
  end

let check_located c ?file ?taxonomy ?(stats = false) ~node_labels ~edge_labels
    located =
  (* headers must agree on the database size *)
  (match located with
  | [] -> ()
  | first :: rest ->
    let expect = first.Pattern_io.recorded_db_size in
    List.iteri
      (fun k (l : Pattern_io.located) ->
        if l.Pattern_io.recorded_db_size <> expect then
          Diagnostic.emitf c ?file ~line:l.Pattern_io.header_line
            ~rule:"PAT006" Diagnostic.Error
            "pattern #%d records database size %d but the set started with %d"
            (k + 1) l.Pattern_io.recorded_db_size expect)
      rest);
  let entries =
    Array.of_list
      (List.map
         (fun (l : Pattern_io.located) ->
           (l.Pattern_io.pattern, Some l.Pattern_io.header_line))
         located)
  in
  check_all c ?file ?taxonomy ~stats ~canonical:(Some edge_labels)
    ~node_labels entries

let validate c ?taxonomy ~node_labels ~db_size patterns =
  List.iteri
    (fun i (p : Pattern.t) ->
      if p.Pattern.support_count > db_size then
        Diagnostic.emitf c ~rule:"PAT006" Diagnostic.Error
          "pattern #%d records support %d over a database of %d graphs" i
          p.Pattern.support_count db_size)
    patterns;
  let entries = Array.of_list (List.map (fun p -> (p, None)) patterns) in
  check_all c ?taxonomy ~stats:false ~canonical:None ~node_labels entries
