(** Quadratic placement solves (global and local, Section IV-B). *)

open Fbp_netlist

type stats = {
  vars : int;
  cg_iterations : int;
  residual : float;
  converged : bool;  (** both CG solves (x and y) converged *)
}

(** Solve an assembled system, writing cell positions back into the
    placement (star variables are discarded).  All pool work runs at
    [cfg.domains]: the x- and y-axis CG solves run concurrently when that
    is at least 2 and the system is large enough; metrics are recorded
    after the join in fixed x-then-y order, so observation streams stay
    deterministic. *)
val solve_system : Config.t -> Netmodel.system -> Placement.t -> stats

(** All movable cell ids of a netlist. *)
val all_movable : Netlist.t -> int array

(** Global QP over every movable cell, solved by {!solve_system}.  [cache]
    enables symbolic-structure reuse across rounds (see
    {!Netmodel.cache}). *)
val solve_global :
  Config.t -> Netlist.t -> Placement.t ->
  ?cache:Netmodel.cache ->
  anchor:(int -> (float * float * float * float) option) -> unit -> stats

(** Reusable net-dedup scratch for {!solve_local}: stamp array over net
    ids plus a growable buffer — allocation-free dedup, deterministic
    collection order.  Not safe for concurrent use; give each sequential
    caller its own. *)
type scratch

val create_scratch : unit -> scratch

(** Deduplicated, sorted ids of every net incident to [cells].  Epoch-stamp
    dedup over the scratch — no per-call allocation beyond the result
    array.  Exposed for realization's per-node net collection. *)
val dedup_nets :
  scratch -> n_nets:int -> cell_nets:int list array -> cells:int array ->
  int array

(** Local QP over [cells] only, everything else fixed; [cell_nets] is the
    cached incidence map from {!Netlist.cell_nets}.  [scratch] reuses the
    net-dedup arrays across calls (one is allocated per call otherwise). *)
val solve_local :
  Config.t -> Netlist.t -> Placement.t ->
  ?scratch:scratch ->
  cell_nets:int list array -> cells:int array ->
  anchor:(int -> (float * float * float * float) option) -> unit -> stats
