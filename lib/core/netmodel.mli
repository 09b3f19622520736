(** Quadratic net models: nets become springs, assembled into the SPD
    systems quadratic placement minimizes (clique for small nets, star with
    an auxiliary variable for wide ones; pin offsets on the right-hand
    side; fixed pins and non-movable cells as constants). *)

open Fbp_netlist

type system = {
  n_vars : int;  (** movable-cell vars first, then star vars *)
  cells : int array;  (** var → cell id, -1 for star vars *)
  ax : Fbp_linalg.Csr.t;
  bx : float array;
  ay : Fbp_linalg.Csr.t;
  by : float array;
}

(** Symbolic-structure cache for repeated assemblies with a fixed net
    topology and movable set (the global QP rounds).  The cached sparsity
    is verified against the fresh triplet stream on every reuse, so a
    stale cache degrades to a full assembly — never to a wrong matrix. *)
type cache

val create_cache : unit -> cache

(** Reusable assembly buffers: a design-sized cell → variable map (all -1
    between calls, restored also when [anchor] raises), both triplet
    builders, the freeze temporaries and the per-net endpoint arrays.  A
    caller that assembles many small systems keeps one and allocates
    little more than the results.  Not safe for concurrent use: give each
    domain its own. *)
type workspace

val create_workspace : unit -> workspace

(** [assemble nl pos ~movable ~nets ~clique_max_degree ~anchor ()] builds
    both axis systems.  [nets] restricts assembly to a net subset (default:
    all); [anchor cell] returns an optional [(wx, tx, wy, ty)] pulling the
    cell toward [(tx, ty)].  Cells outside [movable] contribute constants
    evaluated at [pos] — the "fixed cells outside W" of the local QP.
    [cache] enables symbolic sparsity reuse across calls; on a hit the
    builders are sized from the cached triplet count.  [workspace] reuses
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
