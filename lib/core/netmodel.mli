(** Quadratic net models: nets become springs, assembled into the SPD
    system quadratic placement minimizes (clique for small nets, star with
    an auxiliary variable for wide ones; pin offsets on the right-hand
    side; fixed pins and non-movable cells as constants).  Spring
    stiffness does not depend on the axis, so x and y share one matrix
    and differ only in their right-hand sides. *)

open Fbp_netlist

type system = {
  n_vars : int;  (** movable-cell vars first, then star vars *)
  cells : int array;  (** var → cell id, -1 for star vars *)
  a : Fbp_linalg.Csr.t;  (** the matrix of both axes *)
  bx : float array;  (** x-axis right-hand side *)
  by : float array;  (** y-axis right-hand side *)
}

(** Symbolic-structure cache for repeated assemblies with a fixed net
    topology and movable set (the global QP rounds).  The cached sparsity
    is verified against the fresh triplet stream on every reuse, so a
    stale cache degrades to a full assembly — never to a wrong matrix. *)
type cache

val create_cache : unit -> cache

(** Reusable assembly buffers: a design-sized cell → variable map (all -1
    between calls, restored also when [anchor] raises), the triplet
    builder, the freeze temporaries and the per-net endpoint arrays.  A
    caller that assembles many small systems keeps one and allocates
    little more than the results.  Not safe for concurrent use: give each
    domain its own. *)
type workspace

val create_workspace : unit -> workspace

(** [assemble nl pos ~movable ~nets ~clique_max_degree ~anchor ()] builds
    the system of both axes.  [nets] restricts assembly to a net subset
    (absent: all nets; [[||]]: none); [anchor cell] returns an optional
    [(wx, tx, wy, ty)] pulling the cell toward [(tx, ty)], with one weight
    on both axes: raises [Invalid_argument] unless [Float.equal wx wy].
    Cells outside [movable] contribute constants evaluated at [pos] — the
    "fixed cells outside W" of the local QP.  [cache] enables symbolic
    sparsity reuse across calls; on a hit the builder is sized from the
    cached triplet count.  [workspace] reuses
    the assembly buffers (a fresh, exactly sized set otherwise).  Results
    are bit-identical with or without either. *)
val assemble :
  Netlist.t ->
  Placement.t ->
  ?cache:cache ->
  ?workspace:workspace ->
  movable:int array ->
  ?nets:int array ->
  clique_max_degree:int ->
  anchor:(int -> (float * float * float * float) option) ->
  unit ->
  system
