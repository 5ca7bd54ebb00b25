module Diagnostic = Tsg_util.Diagnostic
module Bitset = Tsg_util.Bitset
module Label = Tsg_graph.Label
module Graph = Tsg_graph.Graph
module Serial = Tsg_graph.Serial
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Taxonomy_io = Tsg_taxonomy.Taxonomy_io
module Pattern_io = Tsg_core.Pattern_io
module Store = Tsg_query.Store

type result = {
  taxonomy : Taxonomy.t option;
  db_count : int;
  pattern_count : int;
  wal_count : int;
}

let read_file c path =
  match Tsg_util.Safe_io.read_file path with
  | text -> Some text
  | exception Sys_error msg ->
    Diagnostic.emitf c ~file:path ~rule:"IO001" Diagnostic.Error
      "cannot read file: %s" msg;
    None

(* a label table aligned with the taxonomy's ids but owned by the lint run,
   so parsing artifacts never interns stray names into the live taxonomy *)
let shadow_labels taxonomy =
  Label.of_names (Array.to_list (Label.names (Taxonomy.labels taxonomy)))

let run c ?taxonomy:tax_path ?(dbs = []) ?(patterns = []) ?(wals = [])
    ?(stats = false) ?(deep = false) () =
  (* 1. taxonomy *)
  let taxonomy =
    match tax_path with
    | None -> None
    | Some path -> (
      match read_file c path with
      | None -> None
      | Some text -> (
        match Taxonomy_io.parse_raw ~file:path text with
        | exception Taxonomy_io.Parse_error d -> (
          Diagnostic.emit c d;
          None)
        | raw ->
          let before = Diagnostic.error_count c in
          Check_taxonomy.check_raw c ~file:path ~stats raw;
          if Diagnostic.error_count c > before then None
          else (
            match Taxonomy_io.of_raw ~file:path raw with
            | t -> Some t
            | exception Taxonomy_io.Parse_error d ->
              (* the lint pass mirrors of_raw's checks, so this is
                 unreachable barring a bug — surface it rather than hide *)
              Diagnostic.emit c d;
              None)))
  in
  (* 2. databases: raw line-level pass, then a real parse for cross checks *)
  let db_labels =
    Option.map (fun t -> Bitset.create (Taxonomy.label_count t)) taxonomy
  in
  (* one edge-label table across every artifact of this run, so edge-label
     ids agree between databases and pattern sets (X003 compares them) *)
  let edge_labels = Label.create () in
  let parsed_dbs = ref [] in
  List.iter
    (fun path ->
      match read_file c path with
      | None -> ()
      | Some text ->
        let raw = Serial.parse_db_raw text in
        let before = Diagnostic.error_count c in
        Check_db.check_raw c ~file:path ?taxonomy ~stats raw;
        if Diagnostic.error_count c = before then begin
          match taxonomy with
          | None -> ()
          | Some t -> (
            let node_labels = shadow_labels t in
            match Serial.parse_db ~node_labels ~edge_labels text with
            | db ->
              parsed_dbs := (path, db) :: !parsed_dbs;
              let known = Taxonomy.label_count t in
              Option.iter
                (fun set ->
                  Db.iteri
                    (fun _ g ->
                      Array.iter
                        (fun l -> if l >= 0 && l < known then Bitset.set set l)
                        (Graph.node_labels g))
                    db)
                db_labels
            | exception Serial.Parse_error (line, msg) ->
              Diagnostic.emitf c ~file:path ~line ~rule:"DB007"
                Diagnostic.Error "%s" msg)
        end)
    dbs;
  let parsed_dbs = List.rev !parsed_dbs in
  (* 3. pattern sets *)
  let pattern_count = ref 0 in
  List.iter
    (fun path ->
      match read_file c path with
      | None -> ()
      | Some text -> (
        let node_labels =
          match taxonomy with
          | Some t -> shadow_labels t
          | None -> Label.create ()
        in
        match
          Pattern_io.parse_located ~file:path ~node_labels ~edge_labels text
        with
        | exception Pattern_io.Parse_error d -> Diagnostic.emit c d
        | located, db_size ->
          pattern_count := !pattern_count + List.length located;
          let before = Diagnostic.error_count c in
          Check_patterns.check_located c ~file:path ?taxonomy ~stats
            ~node_labels ~edge_labels located;
          (* 4. cross-artifact checks, on sets with no errors of their own *)
          match taxonomy with
          | None -> ()
          | Some t when Diagnostic.error_count c = before ->
            (* closure needs every database's labels on board — skip when
               any db file failed to read or parse *)
            Option.iter
              (fun set ->
                if dbs <> [] && List.length parsed_dbs = List.length dbs then
                  Check_cross.check_closure c ~file:path ~taxonomy:t
                    ~db_labels:set ~node_labels located)
              db_labels;
            let pats = List.map (fun l -> l.Pattern_io.pattern) located in
            (match Store.build ~taxonomy:t ~db_size pats with
            | store -> Check_cross.check_store c store
            | exception Invalid_argument msg ->
              Diagnostic.emitf c ~file:path ~rule:"X002" Diagnostic.Error
                "store construction failed: %s" msg);
            if deep then
              List.iter
                (fun (_, db) ->
                  Check_cross.check_supports c ~file:path ~taxonomy:t ~db
                    located)
                parsed_dbs
          | Some _ -> ()))
    patterns;
  (* 5. write-ahead delta logs (framing, checksums, sequence order) *)
  List.iter (Tsg_pipeline.Wal.validate c) wals;
  {
    taxonomy;
    db_count = List.length parsed_dbs;
    pattern_count = !pattern_count;
    wal_count = List.length wals;
  }
