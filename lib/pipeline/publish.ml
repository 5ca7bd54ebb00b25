module Taxonomy = Tsg_taxonomy.Taxonomy
module Pattern_io = Tsg_core.Pattern_io
module Diagnostic = Tsg_util.Diagnostic
module Fault = Tsg_util.Fault
module Safe_io = Tsg_util.Safe_io
module Serve = Tsg_query.Serve
module Epoch = Tsg_query.Epoch
module Protocol = Tsg_query.Protocol

type entry = { key : string; support : int; body : string }

let entry ~taxonomy ~edge_labels (p : Tsg_core.Pattern.t) =
  let node_labels = Taxonomy.labels taxonomy and support = p.support_count in
  let body = Pattern_io.body ~node_labels ~edge_labels p in
  { key = string_of_int support ^ "/"; support; body }

(* the byte order of the one-pattern renderings "p # 0 support S/N\n" ^
   body, a function of content, not of this process's interning history.
   N is shared and '/' sorts below every digit, so that is the order of
   S's digits and '/' as bytes, then of the body: "12/" < "9/" < "90/" *)
let by_content a b =
  match String.compare a.key b.key with
  | 0 -> String.compare a.body b.body
  | c -> c

let assemble ~epoch_seq ~db_size entries =
  let payload =
    Pattern_io.of_bodies ~db_size
      (List.map (fun e -> (e.support, e.body)) (List.sort by_content entries))
  in
  match epoch_seq with
  | None -> payload
  | Some seq -> Epoch.stamp ~seq payload

let render ?epoch_seq ~taxonomy ~edge_labels ~db_size patterns =
  assemble ~epoch_seq ~db_size
    (List.map (entry ~taxonomy ~edge_labels) patterns)

let write path content =
  Fault.inject "pipeline.publish";
  Safe_io.write_atomic path content

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Error (Diagnostic.make ~rule:"PIPE002" Diagnostic.Error msg))
    fmt

(* one [reload] over a fresh connection; the reply is read as a protocol
   block, untagged *)
let reload_once ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (host, port)) with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Result.Error (Unix.error_message e)
  | () ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        match
          output_string oc "reload\n";
          flush oc;
          Protocol.read_reply ic
        with
        | exception (End_of_file | Sys_error _) ->
          Result.Error "connection closed before the reload reply"
        | _, block -> Result.Ok block)

(* tolerate trailing fields: the ack grew an [epoch <e>] suffix and may
   grow again — the checksum token is the contract *)
let parse_ack line =
  match String.split_on_char ' ' line with
  | "ok" :: "reload" :: "patterns" :: _ :: "checksum" :: hex :: _ ->
    Int64.of_string_opt ("0x" ^ hex)
  | _ -> None

let push ~host ~port ~artifact ~previous =
  let expected =
    try Ok (Serve.checksum_files [ artifact ])
    with Sys_error msg -> fail "cannot checksum %s: %s" artifact msg
  in
  match expected with
  | Error _ as e -> e
  | Ok expected -> (
    let rollback reason =
      (match previous with
      | Some bytes -> (
        Safe_io.write_atomic artifact bytes;
        (* best effort: the server should end up serving the restored
           artifact; a second failure leaves it on its old engine anyway
           (reload rolls back server-side on any error) *)
        match reload_once ~host ~port with _ -> ())
      | None -> ());
      fail "push of %s failed (%s); previous artifact %s" artifact reason
        (match previous with
        | Some _ -> "restored and re-pushed"
        | None -> "unavailable, server left on its old engine")
    in
    match reload_once ~host ~port with
    | Error msg -> fail "cannot reach server: %s" msg
    | Ok block -> (
      match (Protocol.reply_error block, parse_ack block) with
      | Some code, _ ->
        rollback
          (Printf.sprintf "server answered %s: %S" (Protocol.code_string code)
             block)
      | None, None -> rollback (Printf.sprintf "server said %S" block)
      | None, Some acked ->
        if Int64.equal acked expected then Ok acked
        else
          rollback
            (Printf.sprintf "checksum mismatch: served %016Lx, disk %016Lx"
               acked expected)))
