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
    [cfg.domains]: the x- and y-axis CG solves, which share the system's
    one matrix, run concurrently when that is at least 2, a worker is free
    and the system is large enough; metrics are recorded after the join
    in fixed x-then-y order, so observation streams stay deterministic. *)
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

(** Local-QP workspace: {!Netmodel.workspace} plus an epoch-stamped
    net-dedup array.  Not safe for concurrent use: give each domain its
    own. *)
type workspace

val create_workspace : unit -> workspace

(** [solve_local ws cfg nl pos ~max_iter ~tol ~cell_nets ~cells ~anchor
    ~qx ~qy] solves the local QP over [cells] only, everything else fixed
    at [pos] (which is not written); [cell_nets] is the cached incidence
    map from {!Netlist.cell_nets}.  The solved position of [cells.(i)]
    lands in [qx.(i)], [qy.(i)].  Returns the x and y CG stats unrecorded:
    the caller records them ({!Fbp_linalg.Cg.record_stats}) in a fixed
    order. *)
val solve_local :
  workspace -> Config.t -> Netlist.t -> Placement.t ->
  max_iter:int -> tol:float ->
  cell_nets:int list array -> cells:int array ->
  anchor:(int -> (float * float * float * float) option) ->
  qx:float array -> qy:float array ->
  Fbp_linalg.Cg.stats * Fbp_linalg.Cg.stats
