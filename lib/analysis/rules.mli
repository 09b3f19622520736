(** The fbp-lint rule set: compiler-AST checks over one parsed module.

    Rules (see DESIGN.md "Static analysis & sanitizers" for the catalogue
    and rationale):

    - [domain-safety] — mutable state ([ref], [Hashtbl], mutable fields)
      captured by closures passed to [Fbp_util.Pool] entry points, and
      module-level mutable bindings in domain-parallel modules.  Use
      [Atomic], a [Mutex], or restructure so the closure only sees
      immutable snapshots.
    - [float-discipline] — polymorphic [compare] / [List.assoc] family /
      [List.mem] / [=] against float-bearing operands ([nan] comparisons
      included).  Use the monomorphic [Float.compare] / [Int.compare] /
      keyed helpers.
    - [determinism] — [Random.*], [Sys.time], [Unix.gettimeofday] outside
      [lib/util/rng.ml] and [lib/util/timer.ml]; the run-record regression
      gate needs bit-reproducible runs.
    - [error-taxonomy] — bare [failwith] / [exit] / anonymous [invalid_arg]
      in [lib/] outside [Fbp_resilience]; pipeline failures go through the
      typed {!Fbp_resilience.Fbp_error} taxonomy, preconditions must name
      their function ("Module.fn: ...").
    - [io-discipline] — [Printf.printf] / [print_endline] and friends in
      [lib/]; output belongs to the CLI, bench, or [Fbp_obs].
    - [obs-discipline] — raw [Obs.span_begin] / [Obs.span_end] outside
      [lib/obs]; an exception between the pair unbalances the trace, so
      callers use the scoped [Obs.span] (or [Obs.record_interval] for
      already-measured intervals). *)

(** [(id, summary)] for every rule, including the [lint-directive]
    meta-rule for malformed/unused suppressions. *)
val catalogue : (string * string) list

(** Run every rule over one parsed implementation.  [file] is the
    repo-relative path; it decides which scopes ([lib/], [bin/], [bench/])
    apply.  [closure_capture] (default true) controls the syntactic
    closure-capture sub-check of [domain-safety]; the driver turns it off
    for files covered by the interprocedural pass, which supersedes it
    with a transitive version (module-level-mutable detection always
    runs). *)
val run :
  ?closure_capture:bool -> file:string -> Ppxlib.structure ->
  Diagnostic.t list
