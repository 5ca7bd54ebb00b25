module Graph = Tsg_graph.Graph
module Label = Tsg_graph.Label
module Bitset = Tsg_util.Bitset

(* Label names are arbitrary strings, but the format is space-split and
   line-oriented: escape whitespace and '%' as %XX, and spell the empty
   name as a bare "%" so every name serializes to a non-empty token. *)
let escape_name name =
  if name = "" then "%"
  else if
    String.for_all
      (fun c -> not (c = '%' || c = ' ' || c = '\t' || c = '\n' || c = '\r'))
      name
  then name
  else begin
    let buf = Buffer.create (String.length name + 8) in
    String.iter
      (fun c ->
        match c with
        | '%' | ' ' | '\t' | '\n' | '\r' ->
          Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))
        | c -> Buffer.add_char buf c)
      name;
    Buffer.contents buf
  end

let unescape_name token =
  if token = "%" then ""
  else if not (String.contains token '%') then token
  else begin
    let buf = Buffer.create (String.length token) in
    let n = String.length token in
    let i = ref 0 in
    while !i < n do
      (match token.[!i] with
      | '%' ->
        if !i + 2 >= n then invalid_arg "truncated %XX escape";
        (match int_of_string_opt ("0x" ^ String.sub token (!i + 1) 2) with
        | Some code -> Buffer.add_char buf (Char.chr code)
        | None -> invalid_arg "bad %XX escape");
        i := !i + 2
      | c -> Buffer.add_char buf c);
      incr i
    done;
    Buffer.contents buf
  end

(* node ids in minimum-DFS-code order, so isomorphic patterns serialize
   identically; disconnected or single-node graphs are left as built *)
(* Canonical node numbering must depend only on serialized content, not on
   the caller's edge-label interning order (the minimum DFS code compares
   edge-label ids): rank this pattern's edge labels by *name*, renumber
   under the ranks, then map the ranks back. Writer and checker both go
   through here, so saved artifacts and [PAT002] agree. *)
let canonical_form ~edge_labels g =
  if Graph.node_count g <= 1 || not (Graph.is_connected g) then g
  else begin
    let remap f gg =
      Graph.build
        ~labels:(Graph.node_labels gg)
        ~edges:
          (Array.to_list
             (Array.map (fun (u, v, l) -> (u, v, f l)) (Graph.edges gg)))
    in
    let ids =
      List.sort_uniq Stdlib.compare
        (Array.to_list (Array.map (fun (_, _, l) -> l) (Graph.edges g)))
    in
    let by_name =
      List.sort
        (fun a b ->
          String.compare (Label.name edge_labels a) (Label.name edge_labels b))
        ids
    in
    let rank = Hashtbl.create 8 in
    List.iteri (fun i id -> Hashtbl.add rank id i) by_name;
    let unrank = Array.of_list by_name in
    let ranked = remap (Hashtbl.find rank) g in
    let canon = Tsg_gspan.Dfs_code.to_graph (Tsg_gspan.Min_code.minimum ranked) in
    remap (fun r -> unrank.(r)) canon
  end

let body ~node_labels ~edge_labels (p : Pattern.t) =
  let g = canonical_form ~edge_labels p.Pattern.graph in
  let buf = Buffer.create 128 in
  for v = 0 to Graph.node_count g - 1 do
    Printf.bprintf buf "v %d %s\n" v
      (escape_name (Label.name node_labels (Graph.node_label g v)))
  done;
  Array.iter
    (fun (u, v, l) ->
      Printf.bprintf buf "e %d %d %s\n" u v
        (escape_name (Label.name edge_labels l)))
    (Graph.edges g);
  Buffer.contents buf

let of_bodies ~db_size entries =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun index (support, body) ->
      Printf.bprintf buf "p # %d support %d/%d\n" index support db_size;
      Buffer.add_string buf body)
    entries;
  Buffer.contents buf

let to_string ~node_labels ~edge_labels ~db_size patterns =
  of_bodies ~db_size
    (List.map
       (fun (p : Pattern.t) ->
         (p.Pattern.support_count, body ~node_labels ~edge_labels p))
       patterns)

let save path ~node_labels ~edge_labels ~db_size patterns =
  Tsg_util.Fault.inject "pattern_io.save";
  Tsg_util.Safe_io.write_atomic path
    (to_string ~node_labels ~edge_labels ~db_size patterns)

exception Parse_error of Tsg_util.Diagnostic.t

type located = {
  pattern : Pattern.t;
  header_line : int;
  recorded_db_size : int;
}

type partial = {
  support : int;
  header_line : int;
  mutable labels : (int * Label.id) list;
  mutable edges : (int * int * Label.id) list;
}

let parse_located ?file ~node_labels ~edge_labels text =
  let fail line msg =
    raise
      (Parse_error
         (Tsg_util.Diagnostic.make ?file ~line ~rule:"PAT009"
            Tsg_util.Diagnostic.Error msg))
  in
  let unescape lineno token =
    try unescape_name token
    with Invalid_argument msg -> fail lineno (msg ^ " in " ^ token)
  in
  let patterns = ref [] in
  let db_size = ref 0 in
  let current = ref None in
  let lineno = ref 0 in
  let close_current () =
    match !current with
    | None -> ()
    | Some p ->
      let count =
        List.fold_left (fun acc (v, _) -> max acc (v + 1)) 0 p.labels
      in
      let labels = Array.make count (-1) in
      List.iter
        (fun (v, l) ->
          if v < 0 || labels.(v) <> -1 then
            fail !lineno (Printf.sprintf "bad or duplicate node %d" v)
          else labels.(v) <- l)
        p.labels;
      Array.iteri
        (fun v l ->
          if l = -1 then fail !lineno (Printf.sprintf "missing node %d" v))
        labels;
      let graph =
        try Graph.build ~labels ~edges:p.edges
        with Invalid_argument msg -> fail !lineno msg
      in
      (* the support set's membership is not recorded; restore cardinality *)
      let set = Bitset.create (max !db_size p.support) in
      for i = 0 to p.support - 1 do
        Bitset.set set i
      done;
      patterns :=
        {
          pattern = Pattern.make ~db_size:!db_size graph set;
          header_line = p.header_line;
          recorded_db_size = !db_size;
        }
        :: !patterns;
      current := None
  in
  String.split_on_char '\n' text
  |> List.iter (fun raw ->
         incr lineno;
         let line = String.trim raw in
         if line = "" || line.[0] = '#' then ()
         else
           match String.split_on_char ' ' line with
           | [ "p"; "#"; _; "support"; frac ] -> (
             close_current ();
             match String.split_on_char '/' frac with
             | [ num; den ] -> (
               match (int_of_string_opt num, int_of_string_opt den) with
               | Some support, Some size when support >= 0 && size >= support ->
                 db_size := size;
                 current :=
                   Some { support; header_line = !lineno; labels = []; edges = [] }
               | _ -> fail !lineno ("bad support " ^ frac))
             | _ -> fail !lineno ("bad support " ^ frac))
           | [ "v"; v; name ] -> (
             match (!current, int_of_string_opt v) with
             | None, _ -> fail !lineno "'v' before any 'p' header"
             | _, None -> fail !lineno ("bad node index " ^ v)
             | Some p, Some v ->
               p.labels <- (v, Label.intern node_labels (unescape !lineno name))
                           :: p.labels)
           | [ "e"; u; v; name ] -> (
             match (!current, int_of_string_opt u, int_of_string_opt v) with
             | None, _, _ -> fail !lineno "'e' before any 'p' header"
             | _, None, _ | _, _, None -> fail !lineno "bad edge endpoints"
             | Some p, Some u, Some v ->
               p.edges <- (u, v, Label.intern edge_labels (unescape !lineno name))
                          :: p.edges)
           | _ -> fail !lineno ("unrecognized line: " ^ line));
  close_current ();
  (List.rev !patterns, !db_size)

let parse ?file ~node_labels ~edge_labels text =
  let located, db_size = parse_located ?file ~node_labels ~edge_labels text in
  (List.map (fun l -> l.pattern) located, db_size)

let load ~node_labels ~edge_labels path =
  Tsg_util.Fault.inject "pattern_io.load";
  parse ~file:path ~node_labels ~edge_labels (Tsg_util.Safe_io.read_file path)
