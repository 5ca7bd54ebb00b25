module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Checksum = Tsg_util.Checksum
module Diagnostic = Tsg_util.Diagnostic

exception Error of Diagnostic.t

type entry = {
  root : int;
  seed : (int * int * int) option;
  classes : int;
  oi_entries : int;
  oi_set_members : int;
  enum_seconds : float;
  stats : Specialize.stats;
  covered : Bitset.t;
  patterns : Pattern.t list;
}

type t = {
  fingerprint : int64;
  params : string;
  corpus_seq : int64;
  db_size : int;
  roots_total : int;
  entries : entry list;
}

(* --- fingerprint ------------------------------------------------------- *)

let fingerprint ~taxonomy ~db ~params =
  let h = ref (Checksum.fnv1a64 params) in
  let mix s = h := Checksum.mix64 !h (Checksum.fnv1a64 s) in
  let buf = Buffer.create 256 in
  for l = 0 to Taxonomy.label_count taxonomy - 1 do
    Buffer.clear buf;
    Buffer.add_string buf (Taxonomy.name taxonomy l);
    List.iter
      (fun p -> Buffer.add_string buf (Printf.sprintf "|%d" p))
      (Taxonomy.parents taxonomy l);
    mix (Buffer.contents buf)
  done;
  Db.iteri
    (fun gid g ->
      Buffer.clear buf;
      Buffer.add_string buf (string_of_int gid);
      for v = 0 to Graph.node_count g - 1 do
        Buffer.add_string buf (Printf.sprintf " v%d" (Graph.node_label g v))
      done;
      Array.iter
        (fun (u, v, l) ->
          Buffer.add_string buf (Printf.sprintf " e%d,%d,%d" u v l))
        (Graph.edges g);
      mix (Buffer.contents buf))
    db;
  !h

(* --- serialization ----------------------------------------------------- *)

let magic = "tsgckpt"

let version = 3

(* a space, then decimal digits straight into the buffer: a snapshot is
   mostly small integers, and tsg-pipe writes one on every commit *)
let add_int buf n =
  Buffer.add_char buf ' ';
  if n < 0 then Buffer.add_string buf (string_of_int n)
  else begin
    let rec digits n =
      if n >= 10 then digits (n / 10);
      Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
    in
    digits n
  end

(* sparse: the member count, then the first member and the gap to each
   next one *)
let add_set buf set =
  add_int buf (Bitset.cardinal set);
  let prev = ref 0 in
  Bitset.iter
    (fun i ->
      add_int buf (i - !prev);
      prev := i)
    set

let add_pattern buf (p : Pattern.t) =
  let g = p.Pattern.graph in
  let n = Graph.node_count g in
  Buffer.add_char buf 'p';
  add_int buf n;
  for v = 0 to n - 1 do
    add_int buf (Graph.node_label g v)
  done;
  let edges = Graph.edges g in
  add_int buf (Array.length edges);
  Array.iter
    (fun (u, v, l) ->
      add_int buf u;
      add_int buf v;
      add_int buf l)
    edges;
  add_set buf p.Pattern.support_set;
  Buffer.add_char buf '\n'

let add_entry buf e =
  Buffer.add_string buf "root";
  add_int buf e.root;
  (match e.seed with
  | None -> Buffer.add_string buf " -"
  | Some (a, l, b) -> Printf.bprintf buf " %d,%d,%d" a l b);
  add_int buf e.classes;
  add_int buf e.oi_entries;
  add_int buf e.oi_set_members;
  Printf.bprintf buf " %h" e.enum_seconds;
  add_int buf e.stats.Specialize.intersections;
  add_int buf e.stats.Specialize.visited;
  add_int buf e.stats.Specialize.emitted;
  add_int buf e.stats.Specialize.over_generalized;
  Buffer.add_string buf "\nc";
  add_set buf e.covered;
  Buffer.add_char buf '\n';
  List.iter (add_pattern buf) e.patterns

let to_string t =
  if String.contains t.params '\n' then
    invalid_arg "Checkpoint.to_string: params span more than one line";
  let buf = Buffer.create 65536 in
  Printf.bprintf buf "%s %d %016Lx %Ld %d %d %s\n" magic version t.fingerprint
    t.corpus_seq t.db_size t.roots_total t.params;
  List.iter (add_entry buf) t.entries;
  let body = Buffer.contents buf in
  body ^ Printf.sprintf "end %s\n" (Checksum.to_hex (Checksum.crc32 body))

let save path t =
  Tsg_util.Fault.inject "checkpoint.save";
  Tsg_util.Safe_io.write_atomic path (to_string t)

(* --- parsing ----------------------------------------------------------- *)

let fail ~file ?line fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Error (Diagnostic.make ~file ?line ~rule:"CKPT001" Diagnostic.Error msg)))
    fmt

(* one line's space-separated tokens, consumed left to right *)
type cursor = {
  file : string;
  line : int;
  toks : string array;
  mutable pos : int;
}

let cursor ~file ~line text =
  { file; line; toks = Array.of_list (String.split_on_char ' ' text); pos = 0 }

let left c = Array.length c.toks - c.pos

let next c =
  if left c = 0 then fail ~file:c.file ~line:c.line "truncated line";
  c.pos <- c.pos + 1;
  c.toks.(c.pos - 1)

(* the next token, as [read] reads it *)
let token c what read =
  let s = next c in
  match read s with
  | Some v -> v
  | None -> fail ~file:c.file ~line:c.line "bad %s %S" what s

let at_least lo = function Some n when n >= lo -> Some n | _ -> None

(* every count, id and statistic is a non-negative int *)
let nat c what = token c what (fun s -> at_least 0 (int_of_string_opt s))

let finish c =
  if left c > 0 then
    fail ~file:c.file ~line:c.line "%d unexpected trailing tokens" (left c)

(* a count read before as many items: each item takes at least [width]
   tokens, so a count the line cannot hold fails before any allocation *)
let count c what ~width =
  let n = nat c what in
  if n > left c / width then fail ~file:c.file ~line:c.line "truncated line";
  n

let parse_set c ~cap =
  let set = Bitset.create cap in
  let prev = ref 0 in
  for k = 0 to count c "member count" ~width:1 - 1 do
    let gap = nat c "member gap" in
    if (k > 0 && gap = 0) || gap >= cap - !prev then
      fail ~file:c.file ~line:c.line "member %d out of order or range"
        (k + 1);
    prev := !prev + gap;
    Bitset.set set !prev
  done;
  set

let parse_pattern c ~db_size =
  let n = count c "node count" ~width:1 in
  if n = 0 then fail ~file:c.file ~line:c.line "pattern without nodes";
  let labels = Array.init n (fun _ -> nat c "node label") in
  let edges =
    List.init
      (count c "edge count" ~width:3)
      (fun _ ->
        let u = nat c "edge endpoint" in
        let v = nat c "edge endpoint" in
        (u, v, nat c "edge label"))
  in
  let support = parse_set c ~cap:db_size in
  finish c;
  let graph =
    try Graph.build ~labels ~edges
    with Invalid_argument msg ->
      fail ~file:c.file ~line:c.line "bad pattern: %s" msg
  in
  Pattern.make ~db_size graph support

let read_seed = function
  | "-" -> Some None
  | s -> (
    match
      List.map (fun n -> at_least 0 (int_of_string_opt n))
        (String.split_on_char ',' s)
    with
    | [ Some a; Some l; Some b ] -> Some (Some (a, l, b))
    | _ -> None)

let parse_root c ~db_size =
  let root = nat c "root index" in
  let seed = token c "seed" read_seed in
  let classes = nat c "class count" in
  let oi_entries = nat c "entry count" in
  let oi_set_members = nat c "member count" in
  let enum_seconds = token c "enumerate seconds" float_of_string_opt in
  let intersections = nat c "intersections" in
  let visited = nat c "visited" in
  let emitted = nat c "emitted" in
  let over_generalized = nat c "over-generalized" in
  finish c;
  {
    root;
    seed;
    classes;
    oi_entries;
    oi_set_members;
    enum_seconds;
    stats = { Specialize.intersections; visited; emitted; over_generalized };
    covered = Bitset.create db_size;
    patterns = [];
  }

(* the CRC trailer, verified before anything else is trusted; returns the
   length of the body it covers *)
let verified_length ~file text =
  let len = String.length text in
  if len = 0 || text.[len - 1] <> '\n' then
    fail ~file "truncated checkpoint (no trailing newline)";
  let body =
    match String.rindex_from_opt text (len - 2) '\n' with
    | Some i -> i + 1
    | None -> fail ~file "missing checkpoint trailer"
  in
  match String.split_on_char ' ' (String.sub text body (len - body - 1)) with
  | [ "end"; crc ] ->
    let actual = Checksum.to_hex (Checksum.crc32_sub text ~pos:0 ~len:body) in
    if not (String.equal crc actual) then
      fail ~file "checksum mismatch: trailer %s, content %s" crc actual;
    body
  | _ -> fail ~file "missing checkpoint trailer"

let parse_header ~file text =
  let c = cursor ~file ~line:1 text in
  if not (String.equal (next c) magic) then
    fail ~file ~line:1 "not a checkpoint file";
  let v = nat c "version" in
  if v <> version then fail ~file ~line:1 "unsupported checkpoint version %d" v;
  let fingerprint =
    token c "fingerprint" (fun s -> Int64.of_string_opt ("0x" ^ s))
  in
  let corpus_seq =
    token c "corpus sequence" (fun s ->
        Option.bind (Int64.of_string_opt s) (fun n ->
            if Int64.compare n 0L >= 0 then Some n else None))
  in
  (* every support set is a bitset of this capacity *)
  let db_size = nat c "database size" in
  if db_size > Sys.max_array_length then
    fail ~file ~line:1 "database size %d out of range" db_size;
  let roots_total =
    token c "root count" (fun s -> at_least (-1) (int_of_string_opt s))
  in
  (* the rest of the line, spaces and all *)
  let params = String.concat " " (Array.to_list (Array.sub c.toks c.pos (left c))) in
  { fingerprint; params; corpus_seq; db_size; roots_total; entries = [] }

(* the body's line at [pos], and the position after it: the CRC-checked
   body ends its last line *)
let line_at text pos =
  let eol = String.index_from text pos '\n' in
  (String.sub text pos (eol - pos), eol + 1)

(* the CRC-checked header, and the length of the body it opens *)
let framed ~file text =
  Tsg_util.Fault.inject "checkpoint.load";
  let body = verified_length ~file text in
  if body = 0 then fail ~file "not a checkpoint file";
  (parse_header ~file (fst (line_at text 0)), body)

let header ~file text = fst (framed ~file text)

let parse ~file text =
  let header, body = framed ~file text in
  let db_size = header.db_size in
  (* newest first, each entry's patterns newest first too *)
  let entries = ref [] in
  let pos = ref (snd (line_at text 0)) in
  let line = ref 1 in
  while !pos < body do
    let line_text, next_pos = line_at text !pos in
    pos := next_pos;
    incr line;
    let c = cursor ~file ~line:!line line_text in
    match (next c, !entries) with
    | "root", _ -> entries := parse_root c ~db_size :: !entries
    | "c", e :: rest ->
      let covered = parse_set c ~cap:db_size in
      finish c;
      entries := { e with covered } :: rest
    | "p", e :: rest ->
      entries :=
        { e with patterns = parse_pattern c ~db_size :: e.patterns } :: rest
    | ("c" | "p"), [] -> fail ~file ~line:c.line "line before any 'root'"
    | _ ->
      if not (String.equal line_text "") then
        fail ~file ~line:c.line "unrecognized line: %s" line_text
  done;
  let entries =
    List.rev_map (fun e -> { e with patterns = List.rev e.patterns }) !entries
  in
  List.iteri
    (fun i e ->
      if e.root <> i then
        fail ~file "entries are not a root prefix (position %d holds root %d)"
          i e.root)
    entries;
  if header.roots_total >= 0 && List.length entries > header.roots_total then
    fail ~file "%d entries for %d roots" (List.length entries)
      header.roots_total;
  { header with entries }

let load path =
  let text =
    try Tsg_util.Safe_io.read_file path
    with Sys_error msg -> fail ~file:path "cannot read checkpoint: %s" msg
  in
  parse ~file:path text

let check ~fingerprint ~corpus_seq ~db_size ~roots_total t =
  let mismatch fmt =
    Printf.ksprintf
      (fun msg ->
        raise
          (Error
             (Diagnostic.make ~rule:"CKPT002" Diagnostic.Error
                ("checkpoint does not match this run: " ^ msg))))
      fmt
  in
  (* checked before the fingerprint: a corpus that moved on produces a
     different fingerprint too, and the stale-corpus diagnostic is the
     actionable one (re-mine from scratch, don't hunt for config drift) *)
  if not (Int64.equal t.corpus_seq corpus_seq) then
    raise
      (Error
         (Diagnostic.makef ~rule:"CKPT003" Diagnostic.Error
            "checkpoint is stale: taken against corpus sequence %Ld, the \
             corpus is now at %Ld — the incremental pipeline has applied \
             deltas since this snapshot, so its completed-root prefix no \
             longer describes the present database; delete the checkpoint \
             and re-mine"
            t.corpus_seq corpus_seq));
  if not (Int64.equal t.fingerprint fingerprint) then
    mismatch "fingerprint %016Lx, expected %016Lx" t.fingerprint fingerprint;
  if t.db_size <> db_size then
    mismatch "database size %d, expected %d" t.db_size db_size;
  if t.roots_total <> roots_total then
    mismatch "root count %d, expected %d" t.roots_total roots_total
