module Graph = Tsg_graph.Graph
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy

type ('graph, 'label) request =
  | Contains of 'graph
  | By_label of 'label
  | Top_k of int * [ `Support | `Interest ]
  | Stats
  | Health
  | Epoch_info
  | Reload
  | Prepare
  | Commit
  | Abort
  | Quit

type query = (Graph.t, Label.id) request

type words = (string * string option, string) request

type error_code =
  | Badreq
  | Oversized
  | Deadline
  | Overloaded
  | Unavailable
  | Fault
  | Internal
  | Reload_failed
  | Stale_epoch

let code_string = function
  | Badreq -> "BADREQ"
  | Oversized -> "OVERSIZED"
  | Deadline -> "DEADLINE"
  | Overloaded -> "OVERLOADED"
  | Unavailable -> "UNAVAILABLE"
  | Fault -> "FAULT"
  | Internal -> "INTERNAL"
  | Reload_failed -> "RELOAD"
  | Stale_epoch -> "STALE_EPOCH"

let code_of_string = function
  | "BADREQ" -> Some Badreq
  | "OVERSIZED" -> Some Oversized
  | "DEADLINE" -> Some Deadline
  | "OVERLOADED" -> Some Overloaded
  | "UNAVAILABLE" -> Some Unavailable
  | "FAULT" -> Some Fault
  | "INTERNAL" -> Some Internal
  | "RELOAD" -> Some Reload_failed
  | "STALE_EPOCH" -> Some Stale_epoch
  | _ -> None

let error_line code message =
  Printf.sprintf "error %s %s" (code_string code) message

exception Parse_error of string

let default_max_line_bytes = 65536

(* [<prefix><token> <rest>] with a non-empty token: the index of the
   space that ends the token *)
let token_end prefix s =
  let n = String.length prefix in
  if not (String.starts_with ~prefix s) then None
  else
    match String.index_from_opt s n ' ' with
    | Some i when i > n -> Some i
    | _ -> None

let split_prefixed prefix line =
  match token_end prefix line with
  | None -> (None, line)
  | Some i ->
    let n = String.length prefix in
    ( Some (String.sub line n (i - n)),
      String.sub line (i + 1) (String.length line - i - 1) )

let split_tag line = split_prefixed "id " (String.trim line)

let tag_reply tag reply =
  match tag with None -> reply | Some t -> "id " ^ t ^ " " ^ reply

(* past any tag by index arithmetic, so reading a large listing's code
   copies nothing *)
let reply_error reply =
  let body = match token_end "id " reply with Some i -> i + 1 | None -> 0 in
  let start = body + 6 in
  let n = String.length reply in
  if n < start || String.sub reply body 6 <> "error " then None
  else
    let stop = ref start in
    while !stop < n && reply.[!stop] <> ' ' && reply.[!stop] <> '\n' do
      incr stop
    done;
    code_of_string (String.sub reply start (!stop - start))

let read_reply ic =
  let tag, head = split_tag (input_line ic) in
  let lines = ref [ head ] in
  let next () =
    let l = input_line ic in
    lines := l :: !lines;
    l
  in
  (match String.split_on_char ' ' head with
  | [ "ok"; n ] ->
    for _ = 1 to Option.value ~default:0 (int_of_string_opt n) do
      ignore (next ())
    done
  | "begin" :: "stats" :: _ ->
    while next () <> "end stats" do
      ()
    done
  | _ -> ());
  (tag, String.concat "\n" (List.rev !lines))

(* [at <epoch> <request>] pins a data query to an artifact epoch: the
   server answers [error STALE_EPOCH] instead of computing from any
   other epoch. Parsed after the [id] tag, before the verb, so the
   reply bytes of a pinned query are identical to an unpinned one —
   the cluster merge's byte-identity contract survives pinning. *)
let split_at line = split_prefixed "at " line

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let split_commas s = String.split_on_char ',' s

let parse_edge ~edge_labels item =
  let endpoints, label =
    match String.index_opt item '/' with
    | None -> (item, 0)
    | Some i ->
      ( String.sub item 0 i,
        Label.intern edge_labels
          (String.sub item (i + 1) (String.length item - i - 1)) )
  in
  match String.split_on_char '-' endpoints with
  | [ u; v ] -> (
    match (int_of_string_opt u, int_of_string_opt v) with
    | Some u, Some v -> (u, v, label)
    | _ -> fail "bad edge endpoints %S" endpoints)
  | _ -> fail "bad edge %S (expected u-v or u-v/label)" item

let parse_graph ~taxonomy ~edge_labels labels_spec edges_spec =
  let labels =
    split_commas labels_spec
    |> List.map (fun name ->
           match Taxonomy.id_of_name taxonomy name with
           | id -> id
           | exception Not_found -> fail "unknown node label %S" name)
    |> Array.of_list
  in
  let edges =
    match edges_spec with
    | None -> []
    | Some "-" -> []
    | Some spec -> List.map (parse_edge ~edge_labels) (split_commas spec)
  in
  try Graph.build ~labels ~edges
  with Invalid_argument msg -> fail "bad graph: %s" msg

let unknown_command verb = Printf.sprintf "unknown command %S" verb

(* the request grammar, parametrized by how a [contains] graph and a
   [by-label] label are read: as words by [split], resolved by [parse] *)
let read_request ~graph ~label line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    Some
      (match String.split_on_char ' ' line with
      | [ "contains"; labels ] -> Contains (graph labels None)
      | [ "contains"; labels; edges ] -> Contains (graph labels (Some edges))
      | [ "by-label"; name ] -> By_label (label name)
      | [ "top-k"; k; order ] -> (
        let k =
          match int_of_string_opt k with
          | Some k when k >= 0 -> k
          | _ -> fail "bad top-k count %S" k
        in
        match order with
        | "support" -> Top_k (k, `Support)
        | "interest" -> Top_k (k, `Interest)
        | _ -> fail "bad top-k order %S (expected support or interest)" order)
      | [ "stats" ] -> Stats
      | [ "health" ] -> Health
      | [ "epoch" ] -> Epoch_info
      | [ "reload" ] -> Reload
      | [ "prepare" ] -> Prepare
      | [ "commit" ] -> Commit
      | [ "abort" ] -> Abort
      | [ "quit" ] -> Quit
      | cmd :: _ -> raise (Parse_error (unknown_command cmd))
      | [] -> fail "empty request")

let split =
  read_request ~graph:(fun labels edges -> (labels, edges)) ~label:Fun.id

let parse ?(max_bytes = default_max_line_bytes) ~taxonomy ~edge_labels line =
  if String.length line > max_bytes then
    fail "request exceeds %d bytes" max_bytes;
  read_request line
    ~graph:(parse_graph ~taxonomy ~edge_labels)
    ~label:(fun name ->
      match Taxonomy.id_of_name taxonomy name with
      | id -> id
      | exception Not_found -> fail "unknown label %S" name)

let format_graph ~names ~edge_labels g =
  let labels =
    List.init (Graph.node_count g) (fun v ->
        Label.name names (Graph.node_label g v))
    |> String.concat ","
  in
  let edges =
    Graph.edges g |> Array.to_list
    |> List.map (fun (u, v, l) ->
           if l = 0 then Printf.sprintf "%d-%d" u v
           else Printf.sprintf "%d-%d/%s" u v (Label.name edge_labels l))
    |> String.concat ","
  in
  labels ^ " " ^ (if edges = "" then "-" else edges)
