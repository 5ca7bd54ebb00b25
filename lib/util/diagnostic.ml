type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

let compare_severity a b = compare (severity_rank a) (severity_rank b)

type t = {
  rule : string;
  severity : severity;
  file : string option;
  line : int option;
  message : string;
}

let make ?file ?line ~rule severity message =
  { rule; severity; file; line; message }

let makef ?file ?line ~rule severity fmt =
  Printf.ksprintf (fun message -> make ?file ?line ~rule severity message) fmt

let with_file file t =
  match t.file with Some _ -> t | None -> { t with file = Some file }

let to_string t =
  let loc =
    match (t.file, t.line) with
    | Some f, Some l -> Printf.sprintf "%s:%d: " f l
    | Some f, None -> Printf.sprintf "%s: " f
    | None, Some l -> Printf.sprintf "line %d: " l
    | None, None -> ""
  in
  Printf.sprintf "%s%s [%s] %s" loc
    (severity_to_string t.severity)
    t.rule t.message

let to_machine t =
  let no_tabs s =
    String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s
  in
  Printf.sprintf "%s\t%s\t%s\t%s\t%s"
    (match t.file with Some f -> no_tabs f | None -> "-")
    (match t.line with Some l -> string_of_int l | None -> "-")
    (severity_to_string t.severity)
    t.rule (no_tabs t.message)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let quoted s = Printf.sprintf "\"%s\"" (json_escape s) in
  let opt_string = function Some s -> quoted s | None -> "null" in
  let opt_int = function Some i -> string_of_int i | None -> "null" in
  Printf.sprintf
    "{\"file\":%s,\"line\":%s,\"severity\":%s,\"rule\":%s,\"message\":%s}"
    (opt_string t.file) (opt_int t.line)
    (quoted (severity_to_string t.severity))
    (quoted t.rule) (quoted t.message)

let compare a b =
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare a.line b.line in
    if c <> 0 then c
    else
      let c = compare a.rule b.rule in
      if c <> 0 then c else compare a.message b.message

type collector = {
  mutable items : t list;  (** reverse emission order *)
  suppress : (string, unit) Hashtbl.t;
  mutable errors : int;
  mutable warnings : int;
  mutable infos : int;
  mutable suppressed : int;
}

let collector ?(suppress = []) () =
  let table = Hashtbl.create 8 in
  List.iter (fun rule -> Hashtbl.replace table rule ()) suppress;
  {
    items = [];
    suppress = table;
    errors = 0;
    warnings = 0;
    infos = 0;
    suppressed = 0;
  }

let emit c t =
  if Hashtbl.mem c.suppress t.rule then c.suppressed <- c.suppressed + 1
  else begin
    c.items <- t :: c.items;
    match t.severity with
    | Error -> c.errors <- c.errors + 1
    | Warning -> c.warnings <- c.warnings + 1
    | Info -> c.infos <- c.infos + 1
  end

let emitf c ?file ?line ~rule severity fmt =
  Printf.ksprintf (fun message -> emit c (make ?file ?line ~rule severity message)) fmt

let items c = List.stable_sort compare (List.rev c.items)

let error_count c = c.errors

let warning_count c = c.warnings

let info_count c = c.infos

let suppressed_count c = c.suppressed

let has_errors c = c.errors > 0

let max_severity c =
  if c.errors > 0 then Some Error
  else if c.warnings > 0 then Some Warning
  else if c.infos > 0 then Some Info
  else None

let exit_code c = if c.errors > 0 then 2 else if c.warnings > 0 then 1 else 0

type format = Text | Machine | Json

let format_of_string = function
  | "text" -> Some Text
  | "machine" -> Some Machine
  | "json" -> Some Json
  | _ -> None

let print_json oc c =
  output_string oc "{\"findings\":[";
  List.iteri
    (fun i t ->
      if i > 0 then output_string oc ",";
      output_string oc (to_json t))
    (items c);
  Printf.fprintf oc
    "],\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"suppressed\":%d}\n"
    c.errors c.warnings c.infos c.suppressed

let print ?(format = Text) oc c =
  match format with
  | Json -> print_json oc c
  | Text | Machine ->
    let render = if format = Machine then to_machine else to_string in
    List.iter (fun t -> output_string oc (render t ^ "\n")) (items c)

let summary c =
  if c.errors = 0 && c.warnings = 0 && c.infos = 0 then "no findings"
  else begin
    let part n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") in
    let parts =
      (if c.errors > 0 then [ part c.errors "error" ] else [])
      @ (if c.warnings > 0 then [ part c.warnings "warning" ] else [])
      @ if c.infos > 0 then [ part c.infos "info" ] else []
    in
    String.concat ", " parts
  end

module Registry = struct
  type entry = { code : string; default_severity : severity; summary : string }

  let e code default_severity summary = { code; default_severity; summary }

  (* Every rule code any tool in this repository may emit, in catalog
     order. scripts/rule_catalog_check.sh diffs this list against the
     README/DESIGN catalogs, and tsg-analyze's REG001 flags code-shaped
     string literals that are missing from it. *)
  let rules =
    [
      (* tsg-lint: taxonomy artifact passes *)
      e "TAX001" Error "duplicate concept declaration";
      e "TAX002" Error "is-a references an undeclared concept";
      e "TAX003" Error "self is-a";
      e "TAX004" Error "duplicate is-a edge";
      e "TAX005" Error "is-a cycle";
      e "TAX006" Info "multiple roots";
      e "TAX007" Warning "isolated concept";
      e "TAX008" Info "taxonomy statistics";
      e "TAX009" Error "taxonomy syntax error";
      (* tsg-lint: graph database passes *)
      e "DB001" Error "bad, duplicate or missing node index";
      e "DB002" Error "edge endpoint references a missing node";
      e "DB003" Error "self-loop";
      e "DB004" Error "duplicate edge";
      e "DB005" Error "node label not declared in the taxonomy";
      e "DB006" Warning "empty graph";
      e "DB007" Error "database syntax error";
      e "DB008" Info "database statistics";
      (* tsg-lint: pattern-set passes *)
      e "PAT001" Error "disconnected pattern graph";
      e "PAT002" Error "node numbering not canonical";
      e "PAT003" Error "duplicate pattern";
      e "PAT004" Error "support monotonicity violation";
      e "PAT005" Warning "over-generalized residue";
      e "PAT006" Error "support denominators disagree";
      e "PAT007" Error "pattern label not declared in the taxonomy";
      e "PAT008" Info "pattern-set statistics";
      e "PAT009" Error "pattern syntax error";
      (* tsg-lint: cross-artifact passes *)
      e "X001" Warning "pattern label matches no database label";
      e "X002" Error "query store disagrees with the pattern set";
      e "X003" Error "recorded support differs from recomputed support";
      e "IO001" Error "file unreadable";
      (* runtime: pool supervision, checkpoints, faults, serving *)
      e "POOL001" Error "supervised task exhausted its retry budget";
      e "POOL002" Error "supervised task exceeded its deadline";
      e "CKPT001" Error "corrupt checkpoint snapshot";
      e "CKPT002" Error "checkpoint does not match this run";
      e "CKPT003" Error "checkpoint stale: corpus sequence moved on";
      e "FLT001" Error "injected fault";
      (* tsg-lint: write-ahead delta log passes *)
      e "WAL001" Error "bad WAL magic or version";
      e "WAL002" Error "corrupt WAL frame (CRC or structure) mid-log";
      e "WAL003" Error "non-monotonic WAL sequence numbers";
      (* tsg-pipe: incremental pipeline *)
      e "PIPE001" Error "delta rejected";
      e "PIPE002" Error "published artifact failed verification, rolled back";
      e "PIPE003" Warning "pipeline state snapshot unusable, re-mining";
      e "SRV001" Error "bad bind address";
      e "SRV002" Error "artifact reload failed, engine rolled back";
      e "SRV003" Error "artifact reload unstable, engine rolled back";
      (* epoch-consistent cluster deployment *)
      e "EPO001" Error "no common artifact epoch across shards";
      e "EPO002" Error
        "artifact epoch stamp does not match its payload, or is missing \
         where required";
      e "RSY001" Warning "replica serving a stale epoch, fenced from merges";
      e "RSY002" Error "replica resync failed, artifact re-push required";
      (* tsg-analyze: domain-safety and determinism passes *)
      e "DOM001" Error
        "unguarded toplevel mutable state reachable from pool domains";
      e "DOM002" Error "Lazy value in domain-executed code";
      e "DET001" Error "Hashtbl iteration order flows into output";
      e "DET002" Error "ambient Random state in library code";
      e "IO101" Error "artifact write bypasses Safe_io";
      e "REG001" Error "code used but absent from the central registry";
      e "HOT001" Error
        "polymorphic comparison or hash at a type variable in a Step-2/3 \
         kernel";
      e "ANA001" Error "malformed tsg.allow suppression attribute";
      e "ANA002" Warning "unreadable cmt file";
      e "ANA003" Warning "stale allowlist entry";
    ]

  (* Stable wire codes of the serving protocol's `error <CODE> <msg>`
     replies (Tsg_query.Protocol.code_string, matched by the router's
     failover logic and tsg-blast's accounting). *)
  let protocol_errors =
    [
      ("BADREQ", "unparseable request");
      ("OVERSIZED", "request exceeds the line-size bound");
      ("DEADLINE", "request missed its deadline");
      ("OVERLOADED", "shed by admission control");
      ("UNAVAILABLE", "degraded below this verb, or breaker open");
      ("FAULT", "injected fault surfaced to the client");
      ("INTERNAL", "unexpected server error");
      ("RELOAD", "artifact reload failed");
      ("STALE_EPOCH", "request pinned to an epoch this replica is not serving");
    ]

  let find code = List.find_opt (fun entry -> entry.code = code) rules

  let is_rule code = find code <> None

  let is_protocol_error code =
    List.mem_assoc code protocol_errors
end
