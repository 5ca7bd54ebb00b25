(** Domain-safety and determinism rules over the project's typed trees.

    The analyzer enforces, mechanically, the invariants the multicore
    miner's qcheck properties only sample: no unguarded shared mutable
    state on pool domains, no [Lazy] in domain-executed code, no
    hash-order or ambient-randomness nondeterminism feeding canonical
    output, no artifact writes that bypass crash-safe IO, and no stray
    diagnostic or protocol codes outside the central registry.

    {2 Rules}

    - [DOM001] — a toplevel [ref]/[Hashtbl.t]/[Buffer.t]/[Queue.t] in a
      {e domain-executed} module, defined without any same-module
      [Mutex.t], or accessed by a toplevel function that takes no mutex
      (directly, or via a one-level lock-wrapper helper) and is not
      [Atomic]-backed.
    - [DOM002] — [lazy] expressions or patterns, or [Lazy.force]
      (including [CamlinternalLazy]), in a domain-executed module:
      OCaml 5 lazy blocks are not domain-safe.
    - [DET001] — [Hashtbl.iter]/[Hashtbl.fold] whose callback writes
      directly to an output sink, or whose result is passed straight to
      a sink, with no intervening sort: hash order would leak into
      serialized output.
    - [DET002] — ambient [Random.*] (anything outside [Random.State]
      with an explicit state, plus [Random.self_init] and
      [Random.State.make_self_init]): library results must be
      reproducible from recorded seeds.
    - [IO101] — [open_out]/[open_out_bin]/[open_out_gen] anywhere but
      {!Tsg_util.Safe_io}: artifact writes must be atomic
      (temp+fsync+rename); non-artifact writers carry a justified
      suppression.
    - [HOT001] — [=], [<>], [<], [>], [<=], [>=], [compare], [min],
      [max] or [Hashtbl.hash] instantiated at a type variable in a
      Step-2/3 kernel module (any unit under a [gspan/] directory, and
      [occ_index.ml], [specialize.ml], [taxonomy.ml], [bitset.ml]): an
      unannotated helper generalizes, and each call then goes through
      the runtime's generic compare or hash instead of an int
      instruction.
    - [REG001] — a rule-shaped string literal (["TAX005"], ["DOM001"],
      …) absent from {!Tsg_util.Diagnostic.Registry.rules}, or an
      all-caps literal matched or compared as a protocol error code but
      absent from [Registry.protocol_errors].

    A module is {e domain-executed} when it schedules work itself
    ([Tsg_util.Pool.run]/[run_supervised]/[fork], [Domain.spawn],
    [Thread.create]) or is imported — transitively — by a module that
    does: anything a scheduling module depends on can run inside a pool
    task.

    {2 Suppression}

    A finding is suppressed by an attribute carrying the rule code and a
    mandatory justification, at expression, binding, or module scope:
    {[
      let save path g = ... [@@tsg.allow "IO101" "dot files are not crash-safe artifacts"]
    ]}
    A missing justification or unknown code is itself a finding
    ([ANA001]). Grandfathered sites can instead live in an allowlist
    file (one [RULE FILE IDENT] triple per line); entries that no longer
    match anything are reported stale ([ANA003]). *)

type allow_entry = {
  al_rule : string;
  al_file : string;  (** source file basename *)
  al_ident : string;  (** enclosing toplevel binding, or ["-"] for any *)
}

val parse_allowlist : string -> (allow_entry list, string) result
(** Parse an allowlist file: [#] comments, blank lines, and
    [RULE FILE IDENT] triples separated by whitespace. *)

type summary = {
  units : int;  (** implementation units analyzed *)
  suppressed : int;  (** findings dropped by [\[@tsg.allow\]] *)
  allowlisted : int;  (** findings dropped by the allowlist *)
}

val run :
  ?rules:string list ->
  ?allowlist:allow_entry list ->
  ?allowlist_file:string ->
  Tsg_util.Diagnostic.collector ->
  Cmt_load.unit_info list ->
  summary
(** Analyze the units, emitting findings into the collector. [?rules]
    restricts checking to the given codes ([ANA*] findings are always
    emitted). Stale allowlist entries are reported against
    [?allowlist_file]. *)
