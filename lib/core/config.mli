(** Tuning knobs of the global placer. *)

type t = {
  max_levels : int;  (** hard cap on grid refinement levels *)
  min_window_rows : float;  (** stop refining when windows get this short *)
  clique_max_degree : int;  (** nets up to this degree use the clique model *)
  anchor_base : float;  (** QP anchor weight at level 1 *)
  anchor_growth : float;  (** multiplicative anchor growth per level *)
  cg_tol : float;
  cg_max_iter : int;
  coarse_span : int;  (** realization window reach, in windows *)
  domains : int;
      (** domain count for every layer of a run: the QP axis solves, the
          CG/SpMV kernels, realization and repartitioning (1 =
          single-threaded).  Used exactly as given — the hardware clamp
          applies only where a count enters from outside
          ({!Fbp_util.Pool.clamp_to_hardware}).  The default is
          {!Fbp_util.Pool.get_default_domains}.  Results are
          bit-identical at any value. *)
  local_qp : bool;  (** run the local QP connectivity step in realization *)
  capacity_margin : float;
      (** flow capacities derated for legalizability; automatic fallback to
          1.0 when the margin makes a movebound class infeasible *)
  deadline : float option;
      (** wall-clock budget in seconds for global placement; when it runs
          out the placer returns the last-good per-level checkpoint (or, in
          [strict] mode, a typed [Deadline_exceeded] error) *)
  strict : bool;
      (** disable graceful degradation: movebound relaxation, bisection
          fallback, checkpoint returns and CG safeguard failures become
          typed errors instead *)
  verbose : bool;
}

(** Paper-faithful defaults (97% density etc.). *)
val default : t
