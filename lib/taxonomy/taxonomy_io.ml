module Diagnostic = Tsg_util.Diagnostic

let to_string t =
  let names, is_a = Taxonomy.declared t in
  let buf = Buffer.create 4096 in
  List.iter (Printf.bprintf buf "c %s\n") names;
  List.iter (fun (c, p) -> Printf.bprintf buf "i %s %s\n" c p) is_a;
  Buffer.contents buf

(* .tax artifacts are inputs to every downstream stage: write them
   atomically so a crash mid-save cannot leave a truncated taxonomy *)
let save path t = Tsg_util.Safe_io.write_atomic path (to_string t)

exception Parse_error of Diagnostic.t

let fail ?file ?line rule fmt =
  Printf.ksprintf
    (fun message ->
      raise
        (Parse_error (Diagnostic.make ?file ?line ~rule Diagnostic.Error message)))
    fmt

type raw = {
  decls : (string * int) list;
  is_a : (string * string * int) list;
}

let parse_raw ?file text =
  let decls = ref [] in
  let edges = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun raw_line ->
         incr lineno;
         let line = String.trim raw_line in
         if line = "" || line.[0] = '#' then ()
         else
           match String.split_on_char ' ' line with
           | [ "c"; name ] -> decls := (name, !lineno) :: !decls
           | [ "i"; child; parent ] ->
             edges := (child, parent, !lineno) :: !edges
           | _ -> fail ?file ~line:!lineno "TAX009" "unrecognized line: %s" line);
  { decls = List.rev !decls; is_a = List.rev !edges }

let of_raw ?file raw =
  (* pre-check the conditions Taxonomy.build rejects, so the error carries
     the offending source line and a stable rule code *)
  let decl_lines = Hashtbl.create 64 in
  List.iter
    (fun (name, line) ->
      match Hashtbl.find_opt decl_lines name with
      | Some first ->
        fail ?file ~line "TAX001"
          "duplicate declaration of %s (first declared on line %d)" name first
      | None -> Hashtbl.add decl_lines name line)
    raw.decls;
  let seen_edges = Hashtbl.create 64 in
  List.iter
    (fun (child, parent, line) ->
      List.iter
        (fun name ->
          if not (Hashtbl.mem decl_lines name) then
            fail ?file ~line "TAX002" "unknown concept %s in is-a edge" name)
        [ child; parent ];
      if child = parent then
        fail ?file ~line "TAX003" "self is-a edge on %s" child;
      if Hashtbl.mem seen_edges (child, parent) then
        fail ?file ~line "TAX004" "duplicate is-a edge %s -> %s" child parent;
      Hashtbl.add seen_edges (child, parent) ())
    raw.is_a;
  try
    Taxonomy.build
      ~names:(List.map fst raw.decls)
      ~is_a:(List.map (fun (c, p, _) -> (c, p)) raw.is_a)
  with Invalid_argument msg ->
    (* only cycles remain possible after the pre-checks *)
    fail ?file "TAX005" "%s" msg

let parse ?file text = of_raw ?file (parse_raw ?file text)

let load path = parse ~file:path (Tsg_util.Safe_io.read_file path)
