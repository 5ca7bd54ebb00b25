module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Serial = Tsg_graph.Serial
module Taxonomy = Tsg_taxonomy.Taxonomy
module Diagnostic = Tsg_util.Diagnostic

type entry = { added_at : int64; graph : Graph.t }

type t = {
  c_taxonomy : Taxonomy.t;
  c_edge_labels : Label.t;
  mutable entries : entry list;  (* newest first *)
  mutable removals : (int64 * int64) list;
      (* (record, the addition it removed), newest first *)
  mutable c_seq : int64;
}

let create ~taxonomy () =
  {
    c_taxonomy = taxonomy;
    c_edge_labels = Label.create ();
    entries = [];
    removals = [];
    c_seq = 0L;
  }

let taxonomy t = t.c_taxonomy

let edge_labels t = t.c_edge_labels

let seq t = t.c_seq

let size t = List.length t.entries

let db t =
  Db.of_list (List.rev_map (fun e -> e.graph) t.entries)

let members ?at t =
  let w = Option.value at ~default:t.c_seq in
  (* the live additions up to [w], and those removed since *)
  let rec since acc = function
    | (r, added) :: tl when Int64.compare r w > 0 ->
      since (if Int64.compare added w <= 0 then added :: acc else acc) tl
    | _ -> acc
  in
  let live = List.rev_map (fun e -> e.added_at) t.entries in
  Array.of_list
    (List.merge Int64.compare
       (List.filter (fun s -> Int64.compare s w <= 0) live)
       (List.sort Int64.compare (since [] t.removals)))

let forget_removals t ~upto =
  let rec keep = function
    | ((r, _) as removal) :: tl when Int64.compare r upto > 0 ->
      removal :: keep tl
    | _ -> []
  in
  t.removals <- keep t.removals

let find t target =
  List.find_map
    (fun e -> if Int64.equal e.added_at target then Some e.graph else None)
    t.entries

let reject r fmt =
  Printf.ksprintf
    (fun msg ->
      Error
        (Diagnostic.makef ~rule:"PIPE001" Diagnostic.Error
           "delta %Ld rejected: %s" r.Wal.seq msg))
    fmt

let apply t (r : Wal.record) =
  if Int64.compare r.seq t.c_seq <= 0 then
    reject r "sequence %Ld is not past the corpus head %Ld" r.seq t.c_seq
  else begin
    (* rejected or not, the record consumes its sequence number: replay
       must stay aligned with the log position, and a rejection is as
       deterministic as an application *)
    t.c_seq <- r.seq;
    match r.op with
    | Wal.Remove target -> (
      let rec cut acc = function
        | [] -> None
        | e :: tl when Int64.equal e.added_at target ->
          Some (e.graph, List.rev_append acc tl)
        | e :: tl -> cut (e :: acc) tl
      in
      match cut [] t.entries with
      | Some (g, rest) ->
        t.entries <- rest;
        t.removals <- (r.seq, target) :: t.removals;
        Ok g
      | None -> reject r "remove target %Ld is not in the corpus" target)
    | Wal.Add text -> (
      match
        Serial.parse_db ~node_labels:(Taxonomy.labels t.c_taxonomy)
          ~edge_labels:t.c_edge_labels text
      with
      | exception Serial.Parse_error (line, msg) ->
        reject r "graph line %d: %s" line msg
      | parsed -> (
        match Db.to_list parsed with
        | [ g ] ->
          let n = Taxonomy.label_count t.c_taxonomy in
          let bad = ref None in
          Array.iter
            (fun l -> if l >= n && !bad = None then bad := Some l)
            (Graph.node_labels g);
          (match !bad with
          | Some l ->
            reject r "node label %S is not a taxonomy concept"
              (Label.name (Taxonomy.labels t.c_taxonomy) l)
          | None ->
            t.entries <- { added_at = r.seq; graph = g } :: t.entries;
            Ok g)
        | gs -> reject r "payload holds %d graphs, expected 1" (List.length gs)))
  end

let to_serial t =
  Serial.db_to_string
    ~node_labels:(Taxonomy.labels t.c_taxonomy)
    ~edge_labels:t.c_edge_labels (db t)
