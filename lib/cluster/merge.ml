module Protocol = Tsg_query.Protocol

type verb = List | Top_k of int * [ `Support | `Interest ]

let verb_of_query = function
  | Protocol.Contains _ | Protocol.By_label _ -> Some List
  | Protocol.Top_k (k, order) -> Some (Top_k (k, order))
  | Protocol.(
      Stats | Health | Epoch_info | Reload | Prepare | Commit | Abort | Quit)
    ->
    None

type row = {
  id : int;
  score : float;  (* 0. for un-scored listings *)
  support_count : int;
  line : string;
}

let parse_row line =
  match String.split_on_char ' ' line with
  | "p" :: id :: "score" :: s :: "support" :: cd :: _ -> (id, Some s, cd)
  | "p" :: id :: "support" :: cd :: _ -> (id, None, cd)
  | _ -> failwith (Printf.sprintf "Merge: bad result line %S" line)

let row_of_line line =
  let id, score, cd = parse_row line in
  let id =
    match int_of_string_opt id with
    | Some id -> id
    | None -> failwith (Printf.sprintf "Merge: bad pattern id in %S" line)
  in
  let score =
    match score with
    | None -> 0.0
    | Some s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> failwith (Printf.sprintf "Merge: bad score in %S" line))
  in
  let support_count =
    match String.index_opt cd '/' with
    | Some i -> (
      match int_of_string_opt (String.sub cd 0 i) with
      | Some c -> c
      | None -> failwith (Printf.sprintf "Merge: bad support in %S" line))
    | None -> failwith (Printf.sprintf "Merge: bad support in %S" line)
  in
  { id; score; support_count; line }

(* [ok <n>] plus n result lines -> rows *)
let rows_of_block block =
  match String.split_on_char '\n' block with
  | header :: rest -> (
    match String.split_on_char ' ' header with
    | [ "ok"; n ] -> (
      match int_of_string_opt n with
      | Some n when n = List.length rest -> List.map row_of_line rest
      | _ -> failwith (Printf.sprintf "Merge: bad reply header %S" header))
    | _ -> failwith (Printf.sprintf "Merge: bad reply header %S" header))
  | [] -> failwith "Merge: empty reply block"

let render rows =
  String.concat "\n"
    (Printf.sprintf "ok %d" (List.length rows)
    :: List.map (fun r -> r.line) rows)

let take k l =
  let rec go k = function
    | x :: rest when k > 0 -> x :: go (k - 1) rest
    | _ -> []
  in
  go k l

let dedup_by_id rows =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun r ->
      if Hashtbl.mem seen r.id then false
      else begin
        Hashtbl.add seen r.id ();
        true
      end)
    rows

(* the last line of defense against a silent mixed-version merge: the
   router pins every scattered request to one target epoch, so the
   per-block epochs it hands us must be identical — if they ever are
   not (a routing bug, a future caller skipping the pin), answering
   [STALE_EPOCH] is strictly better than fabricating an answer no
   single artifact version ever contained *)
let mixed_epochs epochs =
  let rec go seen = function
    | [] -> None
    | None :: rest -> go seen rest
    | Some e :: rest -> (
      match seen with
      | Some e' when e' <> e -> Some (e', e)
      | _ -> go (Some e) rest)
  in
  go None epochs

let merge ?(epochs = []) verb blocks =
  match mixed_epochs epochs with
  | Some (a, b) ->
    Protocol.error_line Protocol.Stale_epoch
      (Printf.sprintf "merge refused: shard blocks from epochs %s and %s" a b)
  | None -> (
  match List.find_opt (fun b -> Protocol.reply_error b <> None) blocks with
  | Some e -> e
  | None -> (
    let rows = dedup_by_id (List.concat_map rows_of_block blocks) in
    match verb with
    | List -> render (List.sort (fun a b -> compare a.id b.id) rows)
    | Top_k (k, `Support) ->
      render
        (take k
           (List.sort
              (fun a b ->
                let c = compare b.support_count a.support_count in
                if c <> 0 then c else compare a.id b.id)
              rows))
    | Top_k (k, `Interest) ->
      render
        (take k
           (List.sort
              (fun a b ->
                let c = compare b.score a.score in
                if c <> 0 then c else compare a.id b.id)
              rows))))
