(** Diagnostics: rule-coded findings with source locations.

    The lint passes ([tsg_check], surfaced by [tsg-lint]) and the artifact
    parsers ({!Tsg_taxonomy.Taxonomy_io}, {!Tsg_core.Pattern_io}) report
    problems as values of {!t}: a stable rule code (["TAX005"],
    ["DB002"], ...), a severity, an optional [file:line] location for
    text-format artifacts, and a human-readable message. A {!collector}
    accumulates findings, honours per-rule suppression, and renders text or
    machine-readable output. The rule-code catalog lives in DESIGN.md. *)

type severity = Info | Warning | Error

val severity_to_string : severity -> string
(** ["info"], ["warning"], ["error"]. *)

val compare_severity : severity -> severity -> int
(** [Info < Warning < Error]. *)

type t = {
  rule : string;  (** stable code, e.g. ["TAX005"] *)
  severity : severity;
  file : string option;
  line : int option;  (** 1-based line in [file] *)
  message : string;
}

val make :
  ?file:string -> ?line:int -> rule:string -> severity -> string -> t

val makef :
  ?file:string ->
  ?line:int ->
  rule:string ->
  severity ->
  ('a, unit, string, t) format4 ->
  'a
(** [makef ~rule sev fmt ...] is {!make} over a format string. *)

val with_file : string -> t -> t
(** Stamp a file name onto a diagnostic that lacks one. *)

val to_string : t -> string
(** Human form: ["file:line: error [TAX005] message"] (location parts
    omitted when absent). *)

val to_machine : t -> string
(** Tab-separated [file line severity rule message] with ["-"] for absent
    location parts; one line, for toolchain consumption. *)

val to_json : t -> string
(** One JSON object [{"file":…,"line":…,"severity":…,"rule":…,"message":…}]
    with [null] for absent location parts; strings are escaped. *)

val compare : t -> t -> int
(** Orders by file, then line, then rule, then message. *)

(** {1 Collectors} *)

type collector

val collector : ?suppress:string list -> unit -> collector
(** A fresh collector. Findings whose rule code appears in [suppress] are
    dropped on {!emit} (case-sensitive). *)

val emit : collector -> t -> unit

val emitf :
  collector ->
  ?file:string ->
  ?line:int ->
  rule:string ->
  severity ->
  ('a, unit, string, unit) format4 ->
  'a

val items : collector -> t list
(** Collected findings sorted with {!compare}; suppression already
    applied. *)

val error_count : collector -> int

val warning_count : collector -> int

val info_count : collector -> int

val suppressed_count : collector -> int
(** Findings dropped by the suppression list. *)

val has_errors : collector -> bool

val max_severity : collector -> severity option
(** [None] when nothing was collected. *)

val exit_code : collector -> int
(** The lint exit convention: [2] with errors, [1] with warnings (but no
    errors), [0] otherwise — infos never affect the code. *)

type format = Text | Machine | Json
(** Output renderings shared by the CLI tools' [--format] option. *)

val format_of_string : string -> format option
(** Parses ["text"], ["machine"], ["json"]. *)

val print : ?format:format -> out_channel -> collector -> unit
(** One finding per line ({!to_string} under the default [Text];
    {!to_machine} under [~format:Machine]), or one JSON document under
    [~format:Json]. *)

val print_json : out_channel -> collector -> unit
(** The whole collector as one JSON document:
    [{"findings":[…],"errors":n,"warnings":n,"infos":n,"suppressed":n}]. *)

val summary : collector -> string
(** E.g. ["2 errors, 1 warning"]; ["no findings"] when empty. *)

(** {1 The central code registry}

    One authoritative list of every stable code the toolchain can emit:
    diagnostic rule codes (lint, analyzer, runtime supervision) and the
    serving protocol's error codes. [tsg-analyze]'s REG001 pass flags
    code-shaped literals used in the source but absent here, and
    [scripts/rule_catalog_check.sh] diffs this registry against the
    README/DESIGN catalogs. *)
module Registry : sig
  type entry = { code : string; default_severity : severity; summary : string }

  val rules : entry list
  (** All diagnostic rule codes, in catalog order. *)

  val protocol_errors : (string * string) list
  (** Stable [error <CODE> …] wire codes with one-line summaries. *)

  val find : string -> entry option

  val is_rule : string -> bool

  val is_protocol_error : string -> bool
end
