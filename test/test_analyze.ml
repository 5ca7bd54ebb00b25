(* tsg-analyze: each rule demonstrated against a fixture compiled on the
   fly with ocamlc -bin-annot, plus a clean fixture that must produce no
   findings, suppression round-trips, and allowlist handling. *)

module Diagnostic = Tsg_util.Diagnostic
module Cmt_load = Tsg_analysis.Cmt_load
module Analyze = Tsg_analysis.Analyze

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* ---- fixture machinery ------------------------------------------------ *)

let fixture_seq = ref 0

let compile_fixture name source =
  incr fixture_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsg_analyze_fx_%d_%d" (Unix.getpid ()) !fixture_seq)
  in
  Unix.mkdir dir 0o755;
  let ml = Filename.concat dir (name ^ ".ml") in
  let oc = open_out ml in
  output_string oc source;
  close_out oc;
  let cmd =
    Printf.sprintf "ocamlc -bin-annot -c -w -a %s 2>/dev/null"
      (Filename.quote ml)
  in
  (* ocamlc -c drops the .cmt next to the source *)
  if Sys.command cmd <> 0 then
    Alcotest.failf "fixture %s does not compile" name;
  Filename.concat dir (name ^ ".cmt")

let analyze ?rules ?allowlist ?allowlist_file sources =
  let cmts = List.map (fun (n, s) -> compile_fixture n s) sources in
  let c = Diagnostic.collector () in
  let units = Cmt_load.load_all c cmts in
  check int "all fixtures loaded" (List.length sources) (List.length units);
  let summary = Analyze.run ?rules ?allowlist ?allowlist_file c units in
  (c, summary)

let findings_with c rule =
  List.filter (fun d -> d.Diagnostic.rule = rule) (Diagnostic.items c)

let count c rule = List.length (findings_with c rule)

(* ---- rule fixtures ---------------------------------------------------- *)

let test_dom001_unguarded () =
  let c, _ =
    analyze
      [
        ( "fx_dom001",
          {|
let table : (int, int) Hashtbl.t = Hashtbl.create 8
let bump k = Hashtbl.replace table k k
let start () = ignore (Domain.spawn (fun () -> bump 1))
|}
        );
      ]
  in
  check int "one DOM001" 1 (count c "DOM001");
  let d = List.hd (findings_with c "DOM001") in
  check bool "names the table" true (contains d.Diagnostic.message "table")

let test_dom001_unlocked_accessor () =
  let c, _ =
    analyze
      [
        ( "fx_dom001b",
          {|
let lock = Mutex.create ()
let table : (int, int) Hashtbl.t = Hashtbl.create 8

let good k =
  Mutex.lock lock;
  Hashtbl.replace table k k;
  Mutex.unlock lock

let bad k = Hashtbl.replace table k k
let start () = ignore (Domain.spawn (fun () -> good 1; bad 2))
|}
        );
      ]
  in
  let msgs =
    String.concat "\n"
      (List.map (fun d -> d.Diagnostic.message) (findings_with c "DOM001"))
  in
  check int "only the unlocked accessor" 1 (count c "DOM001");
  check bool "flags bad" true (contains msgs "\"bad\"")

let test_dom001_needs_taint () =
  (* same unguarded table, but nothing schedules: single-domain code *)
  let c, _ =
    analyze
      [
        ( "fx_dom001c",
          {|
let table : (int, int) Hashtbl.t = Hashtbl.create 8
let bump k = Hashtbl.replace table k k
|}
        );
      ]
  in
  check int "no DOM001 without domains" 0 (count c "DOM001")

let test_dom001_dls_silent () =
  (* the per-domain memory idiom the pool and arena rely on: mutable
     scratch reached only through Domain.DLS is domain-private by
     construction, so DOM001 must stay silent even with domains spawned
     — the lock-free executor must not need an allowlist entry *)
  let c, _ =
    analyze
      [
        ( "fx_dom001d",
          {|
let scratch : (int, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let bump k =
  let t = Domain.DLS.get scratch in
  Hashtbl.replace t k k

let start () = ignore (Domain.spawn (fun () -> bump 1))
|}
        );
      ]
  in
  check int "DLS-held state is not shared state" 0 (count c "DOM001")

let test_dom002 () =
  let c, _ =
    analyze
      [
        ( "fx_dom002",
          {|
let cell = lazy (40 + 2)
let spin () = ignore (Domain.spawn (fun () -> Lazy.force cell))
|}
        );
      ]
  in
  check bool "lazy expr and Lazy.force both flagged" true (count c "DOM002" >= 2)

let test_det001 () =
  let c, _ =
    analyze
      [
        ( "fx_det001",
          {|
let tbl : (string, int) Hashtbl.t = Hashtbl.create 4
let dump () = Hashtbl.iter (fun k v -> Printf.printf "%s=%d\n" k v) tbl
let cat () = output_string stdout (Hashtbl.fold (fun k _ acc -> acc ^ k) tbl "")
let sorted () =
  List.iter print_endline
    (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []))
|}
        );
      ]
  in
  (* dump: printing callback; cat: fold fed straight to a sink; sorted:
     the List.sort in between breaks the flow and must stay clean *)
  check int "two DET001" 2 (count c "DET001")

let test_det002 () =
  let c, _ =
    analyze
      [
        ( "fx_det002",
          {|
let roll () = Random.int 6
let seeded = Random.State.make [| 42 |]
let ok () = Random.State.int seeded 6
let sneaky () = Random.State.make_self_init ()
|}
        );
      ]
  in
  let msgs =
    String.concat "\n"
      (List.map (fun d -> d.Diagnostic.message) (findings_with c "DET002"))
  in
  check int "ambient and self-init flagged, seeded state not" 2
    (count c "DET002");
  check bool "Random.int flagged" true (contains msgs "Random.int");
  check bool "make_self_init flagged" true (contains msgs "make_self_init")

let test_io101 () =
  let c, _ =
    analyze
      [
        ( "fx_io101",
          {|
let save path data =
  let oc = open_out path in
  output_string oc data;
  close_out oc
|}
        );
      ]
  in
  check int "one IO101" 1 (count c "IO101")

let test_reg001 () =
  let c, _ =
    analyze
      [
        ( "fx_reg001",
          {|
let explain code =
  match code with
  | "ZZZ999" -> "mystery"
  | "TAX001" -> "registered rule, fine"
  | "lowercase" -> "ignored"
  | _ -> "?"

let retryable code = code = "NOTACODE"
let also_fine code = code = "OVERLOADED"
|}
        );
      ]
  in
  let msgs =
    String.concat "\n"
      (List.map (fun d -> d.Diagnostic.message) (findings_with c "REG001"))
  in
  check int "two REG001" 2 (count c "REG001");
  check bool "unregistered rule code" true (contains msgs "ZZZ999");
  check bool "unregistered protocol code" true (contains msgs "NOTACODE")

(* named after a Step-2/3 kernel module, where HOT001 applies *)
let hot001_source =
  {|
let mapped map w =
  let rec go j = j < Array.length map && (map.(j) = w || go (j + 1)) in
  go 0

let mapped_int (map : int array) (w : int) =
  let rec go j = j < Array.length map && (map.(j) = w || go (j + 1)) in
  go 0

let larger a b = max a b
let larger_int (a : int) b = max a b
let slot key = Hashtbl.hash key land 1023
let ordered x y =
  (compare x y [@tsg.allow "HOT001" "fixture: generic on purpose"])
|}

let test_hot001 () =
  let c, summary = analyze [ ("specialize", hot001_source) ] in
  let lines =
    List.sort compare
      (List.map (fun d -> Option.value ~default:0 d.Diagnostic.line)
         (findings_with c "HOT001"))
  in
  (* the generalized helpers; the int-typed ones stay clean *)
  check (Alcotest.list int) "generalized =, max, Hashtbl.hash" [ 3; 10; 12 ]
    lines;
  check int "the allowed compare is suppressed" 1 summary.Analyze.suppressed;
  let c, _ = analyze [ ("fx_hot001_elsewhere", hot001_source) ] in
  check int "only kernel modules" 0 (count c "HOT001")

let test_clean_fixture () =
  let c, summary =
    analyze
      [
        ( "fx_clean",
          {|
let lock = Mutex.create ()
let table : (int, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let bump k = locked (fun () -> Hashtbl.replace table k k)

let counter = Atomic.make 0
let tick () = Atomic.incr counter

let dump () =
  List.iter print_endline
    (List.sort compare
       (locked (fun () ->
            Hashtbl.fold (fun k _ acc -> string_of_int k :: acc) table [])))

let start () = ignore (Domain.spawn (fun () -> bump 1; tick (); dump ()))
|}
        );
      ]
  in
  check int "no findings" 0 (List.length (Diagnostic.items c));
  check int "nothing suppressed" 0 summary.Analyze.suppressed

(* ---- suppression ------------------------------------------------------ *)

let test_suppression_expression () =
  let c, summary =
    analyze
      [
        ( "fx_sup_expr",
          {|
let roll () = (Random.int 6 [@tsg.allow "DET002" "dice demo, reproducibility immaterial"])
|}
        );
      ]
  in
  check int "finding suppressed" 0 (count c "DET002");
  check int "counted" 1 summary.Analyze.suppressed

let test_suppression_binding () =
  let c, summary =
    analyze
      [
        ( "fx_sup_bind",
          {|
let save path data =
  let oc = open_out path in
  output_string oc data;
  close_out oc
[@@tsg.allow "IO101" "throwaway demo writer"]

let unrelated () = Random.bits ()
|}
        );
      ]
  in
  check int "IO101 suppressed" 0 (count c "IO101");
  (* the suppression is scoped: the DET002 elsewhere still lands *)
  check int "DET002 not covered by it" 1 (count c "DET002");
  check int "counted" 1 summary.Analyze.suppressed

let test_suppression_module () =
  let c, summary =
    analyze
      [
        ( "fx_sup_mod",
          {|
[@@@tsg.allow "DET002" "fixture exercises whole-module suppression"]

let roll () = Random.int 6
|}
        );
      ]
  in
  check int "suppressed module-wide" 0 (count c "DET002");
  check int "counted" 1 summary.Analyze.suppressed

let test_suppression_needs_justification () =
  let c, _ =
    analyze
      [
        ("fx_sup_bad", {|
let roll () = (Random.int 6 [@tsg.allow "DET002"])
|});
      ]
  in
  check int "malformed suppression reported" 1 (count c "ANA001");
  check int "finding still emitted" 1 (count c "DET002")

let test_suppression_unknown_code () =
  let c, _ =
    analyze
      [
        ( "fx_sup_unknown",
          {|
let x = (42 [@tsg.allow "NOPE999" "no such rule"])
|} );
      ]
  in
  check int "unknown code reported" 1 (count c "ANA001")

(* ---- allowlist -------------------------------------------------------- *)

let test_allowlist () =
  let c, summary =
    analyze
      ~allowlist:
        [
          { Analyze.al_rule = "IO101"; al_file = "fx_allow.ml"; al_ident = "save" };
          { Analyze.al_rule = "DOM001"; al_file = "gone.ml"; al_ident = "-" };
        ]
      ~allowlist_file:"analyze.allow"
      [
        ( "fx_allow",
          {|
let save path data =
  let oc = open_out path in
  output_string oc data;
  close_out oc
|}
        );
      ]
  in
  check int "grandfathered" 0 (count c "IO101");
  check int "counted" 1 summary.Analyze.allowlisted;
  check int "stale entry reported" 1 (count c "ANA003");
  let stale = List.hd (findings_with c "ANA003") in
  check string "stale points at the allowlist" "analyze.allow"
    (Option.value ~default:"?" stale.Diagnostic.file)

let test_allowlist_parse () =
  let path =
    Filename.temp_file "tsg_analyze_allow" ".allow"
  in
  let oc = open_out path in
  output_string oc
    "# comment\n\nIO101 fx.ml save   # trailing comment\nDOM001 other.ml -\n";
  close_out oc;
  (match Analyze.parse_allowlist path with
  | Ok entries ->
    check int "two entries" 2 (List.length entries);
    let e = List.hd entries in
    check string "rule" "IO101" e.Analyze.al_rule;
    check string "file" "fx.ml" e.Analyze.al_file;
    check string "ident" "save" e.Analyze.al_ident
  | Error msg -> Alcotest.failf "parse failed: %s" msg);
  let oc = open_out path in
  output_string oc "IO101 too many fields here\n";
  close_out oc;
  (match Analyze.parse_allowlist path with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error msg -> check bool "field count in error" true (contains msg "fields"));
  Sys.remove path

(* ---- rule restriction ------------------------------------------------- *)

let test_rules_filter () =
  let source =
    {|
let roll () = Random.int 6
let save path data =
  let oc = open_out path in
  output_string oc data;
  close_out oc
|}
  in
  let c, _ = analyze ~rules:[ "DET002" ] [ ("fx_filter", source) ] in
  check int "selected rule fires" 1 (count c "DET002");
  check int "unselected rule silent" 0 (count c "IO101")

(* ---- diagnostic JSON output ------------------------------------------- *)

let test_json_escaping () =
  let d =
    Diagnostic.make ~file:"a \"b\"\n.tax" ~line:3 ~rule:"TAX005"
      Diagnostic.Error "cycle: a\tb"
  in
  let j = Diagnostic.to_json d in
  check bool "quotes escaped" true (contains j {|a \"b\"\n.tax|});
  check bool "tab escaped" true (contains j {|a\tb|});
  check bool "rule field" true (contains j {|"rule":"TAX005"|});
  let d2 = Diagnostic.make ~rule:"X001" Diagnostic.Warning "no location" in
  let j2 = Diagnostic.to_json d2 in
  check bool "absent file is null" true (contains j2 {|"file":null|});
  check bool "absent line is null" true (contains j2 {|"line":null|})

let test_json_collector () =
  let c = Diagnostic.collector () in
  Diagnostic.emitf c ~file:"x.tax" ~line:1 ~rule:"TAX001" Diagnostic.Error
    "dup";
  Diagnostic.emitf c ~rule:"TAX007" Diagnostic.Warning "isolated";
  let tmp = Filename.temp_file "tsg_json" ".json" in
  let oc = open_out tmp in
  Diagnostic.print ~format:Diagnostic.Json oc c;
  close_out oc;
  let ic = open_in tmp in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  check bool "findings array" true (contains body {|"findings":[{|});
  check bool "error count" true (contains body {|"errors":1|});
  check bool "warning count" true (contains body {|"warnings":1|})

let test_format_of_string () =
  check bool "text" true (Diagnostic.format_of_string "text" = Some Diagnostic.Text);
  check bool "machine" true
    (Diagnostic.format_of_string "machine" = Some Diagnostic.Machine);
  check bool "json" true (Diagnostic.format_of_string "json" = Some Diagnostic.Json);
  check bool "unknown" true (Diagnostic.format_of_string "yaml" = None)

(* ---- registry --------------------------------------------------------- *)

let test_registry () =
  check bool "DOM001 registered" true (Diagnostic.Registry.is_rule "DOM001");
  check bool "TAX005 registered" true (Diagnostic.Registry.is_rule "TAX005");
  check bool "bogus not registered" false (Diagnostic.Registry.is_rule "ZZZ999");
  check bool "OVERLOADED is protocol" true
    (Diagnostic.Registry.is_protocol_error "OVERLOADED");
  check bool "NOTACODE is not" false
    (Diagnostic.Registry.is_protocol_error "NOTACODE");
  (* every registry code must look like a rule code: the REG001 shape
     check and the registry must agree with each other *)
  List.iter
    (fun (e : Diagnostic.Registry.entry) ->
      match Diagnostic.Registry.find e.code with
      | Some e' -> check string "find returns the entry" e.code e'.code
      | None -> Alcotest.failf "registry lookup failed for %s" e.code)
    Diagnostic.Registry.rules

let () =
  Alcotest.run "analyze"
    [
      ( "rules",
        [
          Alcotest.test_case "DOM001 no mutex" `Quick test_dom001_unguarded;
          Alcotest.test_case "DOM001 unlocked accessor" `Quick
            test_dom001_unlocked_accessor;
          Alcotest.test_case "DOM001 needs taint" `Quick test_dom001_needs_taint;
          Alcotest.test_case "DOM001 silent on Domain.DLS scratch" `Quick
            test_dom001_dls_silent;
          Alcotest.test_case "DOM002 lazy" `Quick test_dom002;
          Alcotest.test_case "DET001 hash order" `Quick test_det001;
          Alcotest.test_case "DET002 ambient random" `Quick test_det002;
          Alcotest.test_case "IO101 raw open_out" `Quick test_io101;
          Alcotest.test_case "REG001 unregistered codes" `Quick test_reg001;
          Alcotest.test_case "HOT001 polymorphic compare in kernels" `Quick
            test_hot001;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "expression scope" `Quick
            test_suppression_expression;
          Alcotest.test_case "binding scope" `Quick test_suppression_binding;
          Alcotest.test_case "module scope" `Quick test_suppression_module;
          Alcotest.test_case "justification mandatory" `Quick
            test_suppression_needs_justification;
          Alcotest.test_case "unknown code rejected" `Quick
            test_suppression_unknown_code;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "grandfather and stale" `Quick test_allowlist;
          Alcotest.test_case "parser" `Quick test_allowlist_parse;
        ] );
      ( "output",
        [
          Alcotest.test_case "rule filter" `Quick test_rules_filter;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
          Alcotest.test_case "json collector output" `Quick test_json_collector;
          Alcotest.test_case "format parsing" `Quick test_format_of_string;
          Alcotest.test_case "registry lookups" `Quick test_registry;
        ] );
    ]
