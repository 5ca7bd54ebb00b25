(* tsg-lint: multi-pass invariant checker for taxonomies, graph databases,
   and mined pattern sets.

     tsg-lint --taxonomy d.tax
     tsg-lint --taxonomy d.tax --db d.db --patterns p.pat
     tsg-lint --taxonomy d.tax --db d.db --patterns p.pat --deep --stats

   Findings print one per line as `file:line: severity [RULE] message`
   (tab-separated with --format machine). Exit status: 0 clean, 1
   warnings only, 2 errors (or warnings under --strict). The rule-code
   catalog is in DESIGN.md. *)

module Diagnostic = Tsg_util.Diagnostic
module Lint = Tsg_check.Lint

open Cmdliner

let run tax_path dbs patterns wals suppress fmt stats deep strict quiet =
  if tax_path = None && dbs = [] && patterns = [] && wals = [] then begin
    prerr_endline
      "tsg-lint: nothing to check (give --taxonomy, --db, --patterns or \
       --wal)";
    exit 2
  end;
  let c = Diagnostic.collector ~suppress () in
  let result =
    Lint.run c ?taxonomy:tax_path ~dbs ~patterns ~wals ~stats ~deep ()
  in
  Diagnostic.print ~format:fmt stdout c;
  if not quiet then begin
    let checked =
      (match tax_path with Some _ -> [ "1 taxonomy" ] | None -> [])
      @ (match result.Lint.db_count with
        | 0 -> []
        | n -> [ Printf.sprintf "%d database%s" n (if n = 1 then "" else "s") ])
      @ (match result.Lint.pattern_count with
        | 0 -> []
        | n -> [ Printf.sprintf "%d patterns" n ])
      @
      match result.Lint.wal_count with
      | 0 -> []
      | n -> [ Printf.sprintf "%d WAL%s" n (if n = 1 then "" else "s") ]
    in
    Printf.eprintf "tsg-lint: %s: %s\n"
      (if checked = [] then "nothing parsed" else String.concat ", " checked)
      (Diagnostic.summary c)
  end;
  let code = Diagnostic.exit_code c in
  if strict && code = 1 then 2 else code

let tax_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "taxonomy" ] ~docv:"FILE" ~doc:"Label taxonomy (c/i line format).")

let db_arg =
  Arg.(
    value & opt_all file []
    & info [ "db" ] ~docv:"FILE"
        ~doc:"Graph database (gSpan-style text format; repeatable).")

let patterns_arg =
  Arg.(
    value & opt_all file []
    & info [ "patterns"; "p" ] ~docv:"FILE"
        ~doc:"Pattern set written by tsg-mine --save (repeatable).")

let wal_arg =
  Arg.(
    value & opt_all file []
    & info [ "wal" ] ~docv:"FILE"
        ~doc:
          "Write-ahead delta log written by tsg-pipe (repeatable). Checks \
           framing, checksums and sequence order (WAL001-WAL003); a torn \
           final record is only a warning, since recovery repairs it.")

let suppress_arg =
  Arg.(
    value & opt_all string []
    & info [ "suppress" ] ~docv:"RULE"
        ~doc:"Drop findings with this rule code, e.g. TAX007 (repeatable).")

let format_arg =
  let fmt_conv =
    let parse s =
      match Diagnostic.format_of_string s with
      | Some f -> Ok f
      | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown format %S (expected text, machine or json)"
               s))
    in
    let print ppf f =
      Format.pp_print_string ppf
        (match f with
        | Diagnostic.Text -> "text"
        | Diagnostic.Machine -> "machine"
        | Diagnostic.Json -> "json")
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt fmt_conv Diagnostic.Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format: $(b,text) (file:line: severity [RULE] message), \
           $(b,machine) (tab-separated), or $(b,json).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Also emit info-level statistics findings (TAX008/DB008/PAT008).")

let deep_arg =
  Arg.(
    value & flag
    & info [ "deep" ]
        ~doc:
          "Recompute every pattern's support against the database(s) by \
           brute-force generalized isomorphism (X003; slow).")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Exit 2 on warnings too, not only on errors.")

let quiet_arg =
  Arg.(
    value & flag & info [ "quiet"; "q" ] ~doc:"Skip the summary line on stderr.")

let cmd =
  let doc =
    "check taxonomies, graph databases and pattern sets for invariant \
     violations"
  in
  Cmd.v
    (Cmd.info "tsg-lint" ~doc)
    Term.(
      const run $ tax_arg $ db_arg $ patterns_arg $ wal_arg $ suppress_arg
      $ format_arg $ stats_arg $ deep_arg $ strict_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
