(* --- writing ------------------------------------------------------------ *)

(* the one writer: [keyword] is "e" for databases, "a" for directed ones;
   [iteri f graphs] hands [f] each graph's index, node labels and edges *)
let to_string keyword ~node_labels ~edge_labels iteri graphs =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.bprintf buf fmt in
  iteri
    (fun index (labels, edges) ->
      add "t # %d\n" index;
      Array.iteri
        (fun v l -> add "v %d %s\n" v (Label.name node_labels l))
        labels;
      Array.iter
        (fun (u, v, l) ->
          add "%s %d %d %s\n" keyword u v (Label.name edge_labels l))
        edges)
    graphs;
  Buffer.contents buf

let db_to_string ~node_labels ~edge_labels =
  to_string "e" ~node_labels ~edge_labels (fun f ->
      Db.iteri (fun i g -> f i (Graph.node_labels g, Graph.edges g)))

let digraphs_to_string ~node_labels ~arc_labels =
  to_string "a" ~node_labels ~edge_labels:arc_labels (fun f ->
      List.iteri (fun i g -> f i (Digraph.node_labels g, Digraph.arcs g)))

let save path text =
  Tsg_util.Fault.inject "serial.save";
  Tsg_util.Safe_io.write_atomic path text

let save_db path ~node_labels ~edge_labels db =
  save path (db_to_string ~node_labels ~edge_labels db)

let save_digraphs path ~node_labels ~arc_labels digraphs =
  save path (digraphs_to_string ~node_labels ~arc_labels digraphs)

(* --- reading ------------------------------------------------------------ *)

type item =
  | Header
  | Node of int * string
  | Edge of int * int * string
  | Bad of string

(* The one pass over the line format: [f line item] for every line that is
   neither blank nor a comment. [keyword] is the edge keyword the file must
   use ("e", or "a" for a directed database); node and edge lines before
   the first header are bad lines. *)
let scan keyword text f =
  let header = ref false in
  List.iteri
    (fun i raw ->
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then
        f (i + 1)
          (match String.split_on_char ' ' line with
          | "t" :: _ ->
            header := true;
            Header
          | [ "v"; v; name ] -> (
            match int_of_string_opt v with
            | _ when not !header -> Bad "'v' before any 't' header"
            | Some v -> Node (v, name)
            | None -> Bad ("bad node index " ^ v))
          | [ k; u; v; name ] when k = keyword -> (
            match (int_of_string_opt u, int_of_string_opt v) with
            | _ when not !header -> Bad ("'" ^ k ^ "' before any 't' header")
            | Some u, Some v -> Edge (u, v, name)
            | _ when k = "a" -> Bad "bad arc endpoints"
            | _ -> Bad "bad edge endpoints")
          | [ "e"; _; _; _ ] when keyword = "a" ->
            Bad "'e' line in a directed database (expected 'a')"
          | _ -> Bad ("unrecognized line: " ^ line)))
    (String.split_on_char '\n' text)

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* a graph's node and edge lines, checked and built when the graph closes;
   its errors name its 't' line. The node array has one slot per 'v'
   line: an index past it leaves a slot below it empty, which is the
   missing node reported, so a stray huge index allocates nothing. *)
let finish build line labels edges =
  let array = Array.make (List.length labels) (-1) in
  List.iter
    (fun (v, l) ->
      if v < 0 then fail line (Printf.sprintf "negative node index %d" v)
      else if v < Array.length array then
        if array.(v) <> -1 then fail line (Printf.sprintf "duplicate node %d" v)
        else array.(v) <- l)
    labels;
  Array.iteri
    (fun v l -> if l = -1 then fail line (Printf.sprintf "missing node %d" v))
    array;
  try build array edges with Invalid_argument msg -> fail line msg

(* the fail-fast consumer: the first bad line or malformed graph raises *)
let parse keyword build ~node_labels ~edge_labels text =
  let graphs = ref [] and header = ref None in
  let labels = ref [] and edges = ref [] in
  let close () =
    Option.iter
      (fun line -> graphs := finish build line !labels !edges :: !graphs)
      !header
  in
  scan keyword text (fun line -> function
    | Header ->
      close ();
      header := Some line;
      labels := [];
      edges := []
    | Node (v, name) -> labels := (v, Label.intern node_labels name) :: !labels
    | Edge (u, v, name) ->
      edges := (u, v, Label.intern edge_labels name) :: !edges
    | Bad msg -> fail line msg);
  close ();
  List.rev !graphs

let parse_db ~node_labels ~edge_labels text =
  Db.of_list
    (parse "e"
       (fun labels edges -> Graph.build ~labels ~edges)
       ~node_labels ~edge_labels text)

let parse_digraphs ~node_labels ~arc_labels text =
  parse "a"
    (fun labels arcs -> Digraph.build ~labels ~arcs)
    ~node_labels ~edge_labels:arc_labels text

type raw_node = { v_index : int; v_label : string; v_line : int }

type raw_edge = { e_src : int; e_dst : int; e_label : string; e_line : int }

type raw_graph = {
  g_line : int;
  g_nodes : raw_node list;
  g_edges : raw_edge list;
}

type raw_db = {
  graphs : raw_graph list;
  bad_lines : (int * string) list;
}

(* the collecting consumer: every bad line is kept, nothing is checked *)
let parse_db_raw text =
  let graphs = ref [] and bad = ref [] and header = ref None in
  let nodes = ref [] and edges = ref [] in
  let close () =
    Option.iter
      (fun g_line ->
        let g_nodes = List.rev !nodes and g_edges = List.rev !edges in
        graphs := { g_line; g_nodes; g_edges } :: !graphs)
      !header
  in
  scan "e" text (fun line -> function
    | Header ->
      close ();
      header := Some line;
      nodes := [];
      edges := []
    | Node (v, name) ->
      nodes := { v_index = v; v_label = name; v_line = line } :: !nodes
    | Edge (u, v, name) ->
      edges := { e_src = u; e_dst = v; e_label = name; e_line = line } :: !edges
    | Bad msg -> bad := (line, msg) :: !bad);
  close ();
  { graphs = List.rev !graphs; bad_lines = List.rev !bad }

let read_file path =
  Tsg_util.Fault.inject "serial.load";
  Tsg_util.Safe_io.read_file path

let load_db ~node_labels ~edge_labels path =
  parse_db ~node_labels ~edge_labels (read_file path)

let load_digraphs ~node_labels ~arc_labels path =
  parse_digraphs ~node_labels ~arc_labels (read_file path)
