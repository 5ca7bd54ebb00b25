module Diagnostic = Tsg_util.Diagnostic
module Registry = Diagnostic.Registry

(* ------------------------------------------------------------------ *)
(* Name normalization.

   Typed trees record resolved [Path.t]s, but the same function shows up
   under several spellings: ["Stdlib.Hashtbl.create"] under the default
   open, ["Tsg_util__Pool.run"] through dune's wrapped-library mangling,
   and ["Pool.run"] through a local [module Pool = Tsg_util.Pool] alias.
   Every matcher below works on one canonical spelling: local aliases
   resolved, ["__"] turned into ["."], the ["Stdlib."] prefix dropped. *)

let replace_dunder s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let strip_stdlib s =
  let prefix = "Stdlib." in
  let pl = String.length prefix in
  if String.length s > pl && String.sub s 0 pl = prefix then
    String.sub s pl (String.length s - pl)
  else s

let resolve_aliases aliases name =
  let rec go fuel name =
    if fuel = 0 then name
    else
      let head, rest =
        match String.index_opt name '.' with
        | Some i ->
          (String.sub name 0 i, String.sub name i (String.length name - i))
        | None -> (name, "")
      in
      match List.assoc_opt head aliases with
      | Some target -> go (fuel - 1) (target ^ rest)
      | None -> name
  in
  go 5 name

let normalize aliases path =
  strip_stdlib (replace_dunder (resolve_aliases aliases (Path.name path)))

(* ------------------------------------------------------------------ *)
(* Matcher vocabularies (canonical spellings). *)

let container_ctors =
  [
    ("Hashtbl.create", "Hashtbl.t");
    ("Queue.create", "Queue.t");
    ("Buffer.create", "Buffer.t");
    ("ref", "ref");
  ]

let container_tycons = [ "Hashtbl.t"; "Queue.t"; "Buffer.t"; "ref" ]

let scheduler_fns =
  [
    "Tsg_util.Pool.Exec.run";
    "Tsg_util.Pool.Exec.run_supervised";
    "Tsg_util.Pool.fork";
    "Domain.spawn";
    "Thread.create";
  ]

let lock_fns = [ "Mutex.lock"; "Mutex.try_lock"; "Mutex.protect" ]

let lazy_fns =
  [
    "Lazy.force";
    "Lazy.force_val";
    "Lazy.from_fun";
    "Lazy.map";
    "Lazy.map_val";
    "CamlinternalLazy.force";
  ]

let hashtbl_iterators = [ "Hashtbl.iter"; "Hashtbl.fold" ]

let output_sinks =
  [
    "Buffer.add_string";
    "Buffer.add_char";
    "Buffer.add_substring";
    "Buffer.add_bytes";
    "Buffer.add_buffer";
    "output_string";
    "output_char";
    "output_bytes";
    "output";
    "print_string";
    "print_endline";
    "print_char";
    "prerr_string";
    "prerr_endline";
    "Printf.printf";
    "Printf.eprintf";
    "Printf.fprintf";
    "Printf.bprintf";
    "Format.printf";
    "Format.eprintf";
    "Format.fprintf";
    "Format.pp_print_string";
  ]

let open_out_fns = [ "open_out"; "open_out_bin"; "open_out_gen" ]

let string_comparisons = [ "="; "<>"; "String.equal" ]

(* the polymorphic primitives HOT001 looks for *)
let polymorphic_ops =
  [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "min"; "max"; "Hashtbl.hash" ]

(* Step 2/3's kernel modules: gSpan and the minimum DFS code, the
   occurrence index, the specialization walk and the structures they
   walk per visit *)
let kernel_source source =
  List.mem (Filename.basename source)
    [ "occ_index.ml"; "specialize.ml"; "taxonomy.ml"; "bitset.ml" ]
  || Filename.basename (Filename.dirname source) = "gspan"

(* [ty] is the type a polymorphic primitive was instantiated at, e.g.
   ['a -> 'a -> bool] for [=]: is its first argument a type variable? *)
let at_type_variable ty =
  match Types.get_desc ty with
  | Tarrow (_, arg, _, _) -> (
    match Types.get_desc arg with Tvar _ | Tunivar _ -> true | _ -> false)
  | _ -> false

let is_upper c = c >= 'A' && c <= 'Z'

let is_digit c = c >= '0' && c <= '9'

(* e.g. "TAX005", "X001", "POOL001": 1-6 capitals then exactly 3 digits *)
let rule_shaped s =
  let n = String.length s in
  n >= 4 && n <= 9
  && is_digit s.[n - 1]
  && is_digit s.[n - 2]
  && is_digit s.[n - 3]
  && (not (is_digit s.[n - 4]))
  &&
  let ok = ref true in
  for i = 0 to n - 4 do
    if not (is_upper s.[i]) then ok := false
  done;
  !ok

(* e.g. "OVERLOADED": all capitals, no digits *)
let protocol_shaped s =
  let n = String.length s in
  n >= 3 && n <= 12
  &&
  let ok = ref true in
  String.iter (fun c -> if not (is_upper c) then ok := false) s;
  !ok

(* ------------------------------------------------------------------ *)
(* Per-unit facts (pass 1). *)

type kind = Container of string | Mutex | Atomic | Plain

type binding = {
  b_id : Ident.t option;
  b_name : string;
  b_loc : Location.t;
  b_kind : kind;
  mutable b_refs : Ident.t list;  (* same-unit toplevel values referenced *)
  mutable b_takes_lock : bool;  (* calls Mutex.lock/try_lock/protect *)
}

type suppression = {
  s_code : string;
  s_scope : Location.t option;  (* [None]: the whole unit *)
  mutable s_used : bool;
}

type facts = {
  f_unit : Cmt_load.unit_info;
  f_aliases : (string * string) list;
  f_bindings : binding list;
  f_suppressions : suppression list;
  mutable f_schedules : bool;
}

type allow_entry = { al_rule : string; al_file : string; al_ident : string }

type summary = { units : int; suppressed : int; allowlisted : int }

type finding = {
  fi_rule : string;
  fi_loc : Location.t;
  fi_context : string;
  fi_msg : string;
}

let loc_file unit_source (loc : Location.t) =
  match loc.loc_start.pos_fname with
  | "" | "_none_" -> unit_source
  | f -> f

let loc_line (loc : Location.t) = loc.loc_start.pos_lnum

(* [@tsg.allow "CODE" "justification"] — justification mandatory *)
let parse_allow_payload (attr : Parsetree.attribute) =
  let string_of (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> Some s
    | _ -> None
  in
  match attr.attr_payload with
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
    match e.pexp_desc with
    | Pexp_apply (code_e, [ (Asttypes.Nolabel, just_e) ]) -> (
      match (string_of code_e, string_of just_e) with
      | Some code, Some justification -> Ok (code, justification)
      | _ -> Error "expected two string literals: a code and a justification")
    | Pexp_constant (Pconst_string (code, _, _)) ->
      Error
        (Printf.sprintf "suppression of %S lacks a justification string" code)
    | _ -> Error "expected [@tsg.allow \"CODE\" \"justification\"]")
  | _ -> Error "expected [@tsg.allow \"CODE\" \"justification\"]"

let gather_facts c unit_info =
  let structure = unit_info.Cmt_load.structure in
  let suppressions = ref [] in
  let ana_findings = ref [] in
  let add_suppression ~scope (attr : Parsetree.attribute) =
    if attr.attr_name.txt = "tsg.allow" then
      match parse_allow_payload attr with
      | Ok (code, justification) ->
        if not (Registry.is_rule code) then
          ana_findings :=
            {
              fi_rule = "ANA001";
              fi_loc = attr.attr_loc;
              fi_context = "-";
              fi_msg =
                Printf.sprintf "tsg.allow names unknown rule code %S" code;
            }
            :: !ana_findings
        else if String.trim justification = "" then
          ana_findings :=
            {
              fi_rule = "ANA001";
              fi_loc = attr.attr_loc;
              fi_context = "-";
              fi_msg =
                Printf.sprintf "tsg.allow %s has an empty justification" code;
            }
            :: !ana_findings
        else
          suppressions :=
            { s_code = code; s_scope = scope; s_used = false } :: !suppressions
      | Error msg ->
        ana_findings :=
          {
            fi_rule = "ANA001";
            fi_loc = attr.attr_loc;
            fi_context = "-";
            fi_msg = msg;
          }
          :: !ana_findings
  in
  (* local module aliases, for path normalization *)
  let aliases =
    List.filter_map
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_module
            {
              mb_name = { txt = Some name; _ };
              mb_expr = { mod_desc = Tmod_ident (path, _); _ };
              _;
            } ->
          Some (name, replace_dunder (Path.name path))
        | _ -> None)
      structure.str_items
  in
  let norm path = normalize aliases path in
  let facts =
    {
      f_unit = unit_info;
      f_aliases = aliases;
      f_bindings = [];
      f_suppressions = [];
      f_schedules = false;
    }
  in
  (* enumerate toplevel bindings first, so reference walks can filter
     against the complete ident set *)
  let classify (vb : Typedtree.value_binding) =
    let rec head_of (e : Typedtree.expression) =
      match e.exp_desc with
      | Texp_apply (f, _) -> head_of f
      | Texp_ident (p, _, _) -> Some (norm p)
      | _ -> None
    in
    let ctor_kind =
      match head_of vb.vb_expr with
      | Some "Mutex.create" -> Some Mutex
      | Some "Atomic.make" -> Some Atomic
      | Some h -> (
        match List.assoc_opt h container_ctors with
        | Some tycon -> Some (Container tycon)
        | None -> None)
      | None -> None
    in
    match ctor_kind with
    | Some k -> k
    | None -> (
      match Types.get_desc vb.vb_expr.exp_type with
      | Tconstr (p, _, _) -> (
        match norm p with
        | "Mutex.t" -> Mutex
        | "Atomic.t" -> Atomic
        | tycon when List.mem tycon container_tycons -> Container tycon
        | _ -> Plain)
      | _ -> Plain)
  in
  let binding_of_pat (pat : Typedtree.pattern) =
    match pat.pat_desc with
    | Tpat_var (id, name) -> (Some id, name.txt)
    (* [let x : t = e] elaborates to an alias pattern *)
    | Tpat_alias (_, id, name) -> (Some id, name.txt)
    | _ -> (None, "_")
  in
  let bindings = ref [] in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let b_id, b_name = binding_of_pat vb.vb_pat in
            bindings :=
              {
                b_id;
                b_name;
                b_loc = vb.vb_loc;
                b_kind = classify vb;
                b_refs = [];
                b_takes_lock = false;
              }
              :: !bindings)
          vbs
      | Tstr_module mb ->
        bindings :=
          {
            b_id = None;
            b_name =
              Option.value ~default:"_" mb.mb_name.txt;
            b_loc = mb.mb_loc;
            b_kind = Plain;
            b_refs = [];
            b_takes_lock = false;
          }
          :: !bindings
      | Tstr_eval (_, _) ->
        bindings :=
          {
            b_id = None;
            b_name = "-";
            b_loc = item.str_loc;
            b_kind = Plain;
            b_refs = [];
            b_takes_lock = false;
          }
          :: !bindings
      | _ -> ())
    structure.str_items;
  let bindings = List.rev !bindings in
  let toplevel_ids = List.filter_map (fun b -> b.b_id) bindings in
  (* reference walk for one binding's body *)
  let walk_into b =
    let expr sub (e : Typedtree.expression) =
      List.iter (add_suppression ~scope:(Some e.exp_loc)) e.exp_attributes;
      (match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) ->
        if
          List.exists (fun tid -> Ident.same tid id) toplevel_ids
          && not (List.exists (fun r -> Ident.same r id) b.b_refs)
        then b.b_refs <- id :: b.b_refs
      | Texp_ident (p, _, _) ->
        let n = norm p in
        if List.mem n lock_fns then b.b_takes_lock <- true;
        if List.mem n scheduler_fns then facts.f_schedules <- true
      | _ -> ());
      Tast_iterator.default_iterator.expr sub e
    in
    { Tast_iterator.default_iterator with expr }
  in
  let item_bindings = ref bindings in
  let next_binding () =
    match !item_bindings with
    | b :: rest ->
      item_bindings := rest;
      b
    | [] ->
      (* cannot happen: enumeration and walk cover the same items *)
      assert false
  in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let b = next_binding () in
            List.iter (add_suppression ~scope:(Some vb.vb_loc)) vb.vb_attributes;
            let it = walk_into b in
            it.expr it vb.vb_expr)
          vbs
      | Tstr_module mb ->
        let b = next_binding () in
        let it = walk_into b in
        it.module_expr it mb.mb_expr
      | Tstr_eval (e, attrs) ->
        let b = next_binding () in
        List.iter (add_suppression ~scope:(Some item.str_loc)) attrs;
        let it = walk_into b in
        it.expr it e
      | Tstr_attribute attr -> add_suppression ~scope:None attr
      | Tstr_include incl ->
        let b =
          {
            b_id = None;
            b_name = "-";
            b_loc = item.str_loc;
            b_kind = Plain;
            b_refs = [];
            b_takes_lock = false;
          }
        in
        let it = walk_into b in
        it.module_expr it incl.incl_mod
      | _ -> ())
    structure.str_items;
  ignore c;
  ( { facts with f_bindings = bindings; f_suppressions = !suppressions },
    !ana_findings )

(* ------------------------------------------------------------------ *)
(* Cross-module taint (pass 2): a module that schedules work on domains
   taints everything it imports, transitively — anything a scheduling
   module depends on can run inside a pool task. *)

let tainted_units facts_list =
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (f, _) -> Hashtbl.replace by_name f.f_unit.Cmt_load.modname f)
    facts_list;
  let tainted = Hashtbl.create 64 in
  let rec taint name =
    if not (Hashtbl.mem tainted name) then begin
      Hashtbl.replace tainted name ();
      match Hashtbl.find_opt by_name name with
      | Some f -> List.iter taint f.f_unit.Cmt_load.imports
      | None -> ()
    end
  in
  List.iter
    (fun (f, _) -> if f.f_schedules then taint f.f_unit.Cmt_load.modname)
    facts_list;
  if Sys.getenv_opt "TSG_ANALYZE_DEBUG" <> None then begin
    List.iter
      (fun (f, _) ->
        if f.f_schedules then
          Printf.eprintf "debug: scheduler: %s\n" f.f_unit.Cmt_load.modname)
      facts_list;
    List.iter
      (fun (f, _) ->
        let name = f.f_unit.Cmt_load.modname in
        if Hashtbl.mem tainted name then
          Printf.eprintf "debug: tainted: %s\n" name)
      facts_list;
    Printf.eprintf "debug: tainted %d/%d units\n" (Hashtbl.length tainted)
      (List.length facts_list)
  end;
  fun name -> Hashtbl.mem tainted name

(* ------------------------------------------------------------------ *)
(* Findings (pass 3). *)

let dom001_findings facts =
  let bindings = facts.f_bindings in
  let mutexes =
    List.filter_map
      (fun b -> if b.b_kind = Mutex then b.b_id else None)
      bindings
  in
  (* one-level lock wrappers: [let locked f = Mutex.lock lock; ...] *)
  let wrappers =
    List.filter_map
      (fun b ->
        if
          b.b_takes_lock
          && List.exists
               (fun r -> List.exists (fun m -> Ident.same m r) mutexes)
               b.b_refs
        then b.b_id
        else None)
      bindings
  in
  let guards = mutexes @ wrappers in
  if Sys.getenv_opt "TSG_ANALYZE_DEBUG" <> None then
    Printf.eprintf
      "debug: dom001 %s: %d bindings, %d mutexes, %d wrappers, containers: %s\n"
      facts.f_unit.Cmt_load.modname (List.length bindings)
      (List.length mutexes) (List.length wrappers)
      (String.concat ","
         (List.filter_map
            (fun b ->
              match b.b_kind with Container _ -> Some b.b_name | _ -> None)
            bindings));
  let guarded b =
    b.b_takes_lock
    || List.exists
         (fun r -> List.exists (fun g -> Ident.same g r) guards)
         b.b_refs
  in
  List.concat_map
    (fun container ->
      match (container.b_kind, container.b_id) with
      | Container tycon, Some cid ->
        if mutexes = [] then
          [
            {
              fi_rule = "DOM001";
              fi_loc = container.b_loc;
              fi_context = container.b_name;
              fi_msg =
                Printf.sprintf
                  "toplevel mutable state %S (%s) in a domain-executed \
                   module, and no Mutex in this module to guard it"
                  container.b_name tycon;
            };
          ]
        else
          List.filter_map
            (fun accessor ->
              if
                accessor.b_id <> container.b_id
                && List.exists (fun r -> Ident.same r cid) accessor.b_refs
                && not (guarded accessor)
              then
                Some
                  {
                    fi_rule = "DOM001";
                    fi_loc = accessor.b_loc;
                    fi_context = accessor.b_name;
                    fi_msg =
                      Printf.sprintf
                        "%S accesses toplevel mutable %S (%s) without \
                         holding a mutex"
                        accessor.b_name container.b_name tycon;
                  }
              else None)
            bindings
      | _ -> [])
    bindings

let walk_findings ~tainted facts =
  let unit_info = facts.f_unit in
  let source_base = Filename.basename unit_info.Cmt_load.source in
  let kernel = kernel_source unit_info.Cmt_load.source in
  let norm path = normalize facts.f_aliases path in
  let findings = ref [] in
  let context = ref [ "-" ] in
  let here () = List.hd !context in
  let add fi_rule fi_loc fmt =
    Printf.ksprintf
      (fun fi_msg ->
        findings := { fi_rule; fi_loc; fi_context = here (); fi_msg } :: !findings)
      fmt
  in
  let head_of (e : Typedtree.expression) =
    match e.exp_desc with Texp_ident (p, _, _) -> Some (norm p) | _ -> None
  in
  let mentions_sink (e : Typedtree.expression) =
    let found = ref false in
    let expr sub (e : Typedtree.expression) =
      (match e.exp_desc with
      | Texp_ident (p, _, _) when List.mem (norm p) output_sinks ->
        found := true
      | _ -> ());
      if not !found then Tast_iterator.default_iterator.expr sub e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it e;
    !found
  in
  let check_string_const loc s ~in_pattern_or_cmp =
    if rule_shaped s && not (Registry.is_rule s) then
      add "REG001" loc
        "rule code %S is not in Diagnostic.Registry.rules — register it \
         or rename it"
        s
    else if
      in_pattern_or_cmp && protocol_shaped s
      && (not (Registry.is_protocol_error s))
      && not (Registry.is_rule s)
    then
      add "REG001" loc
        "protocol error code %S is not in \
         Diagnostic.Registry.protocol_errors"
        s
  in
  let on_expr (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> (
      let n = norm p in
      if tainted && List.mem n lazy_fns then
        add "DOM002" e.exp_loc
          "%s in domain-executed code: OCaml 5 lazy blocks are not \
           domain-safe (compute eagerly or guard explicitly)"
          n;
      if
        String.length n > 7
        && String.sub n 0 7 = "Random."
        && ((not (String.length n > 13 && String.sub n 0 13 = "Random.State."))
           || n = "Random.State.make_self_init")
      then
        add "DET002" e.exp_loc
          "%s uses ambient or self-seeded Random state; use Tsg_util.Prng \
           or an explicitly seeded Random.State"
          n;
      if List.mem n open_out_fns && source_base <> "safe_io.ml" then
        add "IO101" e.exp_loc
          "%s bypasses Tsg_util.Safe_io.write_atomic: artifact writes \
           must be atomic (suppress with a justification if this is not \
           an artifact)"
          n;
      if kernel && List.mem n polymorphic_ops && at_type_variable e.exp_type
      then
        add "HOT001" e.exp_loc
          "%s at a type variable in a Step-2/3 kernel: every call goes \
           through the generic runtime comparison or hash (annotate the \
           operands' type, e.g. int)"
          n)
    | Texp_lazy _ ->
      if tainted then
        add "DOM002" e.exp_loc
          "lazy expression in domain-executed code: OCaml 5 lazy blocks \
           are not domain-safe"
    | Texp_constant (Const_string (s, _, _)) ->
      check_string_const e.exp_loc s ~in_pattern_or_cmp:false
    | Texp_apply (f, args) -> (
      match head_of f with
      | Some h when List.mem h hashtbl_iterators ->
        (* callback that prints directly: hash order becomes output order *)
        List.iter
          (fun (label, arg) ->
            match (label, arg) with
            | Asttypes.Nolabel, Some callback when mentions_sink callback ->
              add "DET001" e.exp_loc
                "%s callback writes straight to an output sink: hash \
                 order leaks into serialized output (collect and sort \
                 first)"
                h
            | _ -> ())
          [ List.nth_opt args 0 |> Option.value ~default:(Asttypes.Nolabel, None) ]
      | Some h when List.mem h output_sinks ->
        (* a Hashtbl fold/iter result fed straight into a sink *)
        List.iter
          (fun (_, arg) ->
            match arg with
            | Some (inner : Typedtree.expression) -> (
              match inner.exp_desc with
              | Texp_apply (g, _) -> (
                match head_of g with
                | Some gh when List.mem gh hashtbl_iterators ->
                  add "DET001" inner.exp_loc
                    "%s result flows into %s without an intervening \
                     sort: hash order leaks into serialized output"
                    gh h
                | _ -> ())
              | _ -> ())
            | None -> ())
          args
      | Some h when List.mem h string_comparisons ->
        List.iter
          (fun (_, arg) ->
            match arg with
            | Some
                ({
                   exp_desc = Texp_constant (Const_string (s, _, _));
                   exp_loc;
                   _;
                 } :
                  Typedtree.expression) ->
              check_string_const exp_loc s ~in_pattern_or_cmp:true
            | _ -> ())
          args
      | _ -> ())
    | _ -> ()
  in
  let expr sub (e : Typedtree.expression) =
    on_expr e;
    Tast_iterator.default_iterator.expr sub e
  in
  let pat (type k) sub (p : k Typedtree.general_pattern) =
    (match p.pat_desc with
    | Typedtree.Tpat_lazy _ ->
      if tainted then
        add "DOM002" p.pat_loc
          "lazy pattern in domain-executed code: OCaml 5 lazy blocks are \
           not domain-safe"
    | Typedtree.Tpat_constant (Const_string (s, _, _)) ->
      check_string_const p.pat_loc s ~in_pattern_or_cmp:true
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let structure_item sub (item : Typedtree.structure_item) =
    let name =
      match item.str_desc with
      | Tstr_value
          (_, { vb_pat = { pat_desc = Tpat_var (_, n) | Tpat_alias (_, _, n); _ }; _ }
             :: _) ->
        n.txt
      | Tstr_module { mb_name = { txt = Some n; _ }; _ } -> n
      | _ -> "-"
    in
    context := name :: !context;
    Tast_iterator.default_iterator.structure_item sub item;
    context := List.tl !context
  in
  let it =
    { Tast_iterator.default_iterator with expr; pat; structure_item }
  in
  it.structure it unit_info.Cmt_load.structure;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Suppression, allowlist, emission. *)

let covers (scope : Location.t option) (fi : finding) =
  match scope with
  | None -> true (* whole-unit [\[@@@tsg.allow\]] *)
  | Some scope ->
    scope.loc_start.pos_cnum <= fi.fi_loc.loc_start.pos_cnum
    && fi.fi_loc.loc_end.pos_cnum <= scope.loc_end.pos_cnum

let parse_allowlist path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let entries = ref [] in
        let lineno = ref 0 in
        let bad = ref None in
        (try
           while true do
             let line = input_line ic in
             incr lineno;
             let line =
               match String.index_opt line '#' with
               | Some i -> String.sub line 0 i
               | None -> line
             in
             let fields =
               String.split_on_char ' '
                 (String.map (fun c -> if c = '\t' then ' ' else c) line)
               |> List.filter (fun s -> s <> "")
             in
             match fields with
             | [] -> ()
             | [ al_rule; al_file; al_ident ] ->
               entries := { al_rule; al_file; al_ident } :: !entries
             | _ ->
               if !bad = None then
                 bad :=
                   Some
                     (Printf.sprintf
                        "%s:%d: expected 'RULE FILE IDENT' (got %d fields)"
                        path !lineno (List.length fields))
           done
         with End_of_file -> ());
        match !bad with
        | Some msg -> Error msg
        | None -> Ok (List.rev !entries))

let run ?rules ?(allowlist = []) ?allowlist_file c units =
  let rule_enabled rule =
    match rules with
    | None -> true
    | Some selected ->
      List.mem rule selected
      || String.starts_with ~prefix:"ANA" rule
  in
  let facts_list = List.map (gather_facts c) units in
  let is_tainted = tainted_units facts_list in
  let allow_used = Hashtbl.create 8 in
  let suppressed = ref 0 in
  let allowlisted = ref 0 in
  let emit_findings facts findings =
    let unit_source = facts.f_unit.Cmt_load.source in
    List.iter
      (fun fi ->
        if rule_enabled fi.fi_rule then begin
          let suppression =
            List.find_opt
              (fun s -> s.s_code = fi.fi_rule && covers s.s_scope fi)
              facts.f_suppressions
          in
          match suppression with
          | Some s ->
            s.s_used <- true;
            incr suppressed
          | None -> (
            let file = loc_file unit_source fi.fi_loc in
            let entry =
              List.find_opt
                (fun a ->
                  a.al_rule = fi.fi_rule
                  && a.al_file = Filename.basename file
                  && (a.al_ident = "-" || a.al_ident = fi.fi_context))
                allowlist
            in
            match entry with
            | Some a ->
              Hashtbl.replace allow_used (a.al_rule, a.al_file, a.al_ident) ();
              incr allowlisted
            | None ->
              let severity =
                match Registry.find fi.fi_rule with
                | Some entry -> entry.Registry.default_severity
                | None -> Diagnostic.Error
              in
              Diagnostic.emitf c ~file ~line:(loc_line fi.fi_loc)
                ~rule:fi.fi_rule severity "%s" fi.fi_msg)
        end)
      findings
  in
  List.iter
    (fun (facts, ana_findings) ->
      let tainted = is_tainted facts.f_unit.Cmt_load.modname in
      let findings =
        ana_findings
        @ (if tainted then dom001_findings facts else [])
        @ walk_findings ~tainted facts
      in
      emit_findings facts findings)
    facts_list;
  List.iter
    (fun a ->
      if not (Hashtbl.mem allow_used (a.al_rule, a.al_file, a.al_ident)) then
        Diagnostic.emitf c ?file:allowlist_file ~rule:"ANA003"
          Diagnostic.Warning
          "allowlist entry '%s %s %s' matched nothing: remove it" a.al_rule
          a.al_file a.al_ident)
    allowlist;
  {
    units = List.length facts_list;
    suppressed = !suppressed;
    allowlisted = !allowlisted;
  }
