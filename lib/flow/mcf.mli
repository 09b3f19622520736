(** Minimum-cost b-flow by the primal network simplex.

    The exact solver behind the FBP model (Section IV-A), as in the paper.
    Arc costs must be non-negative.  Any flow already on the graph is
    discarded; after a call the graph holds the computed flow (read per-arc
    with {!Graph.flow}). *)

type result =
  | Feasible of { cost : float }
  | Infeasible of { unrouted : float }
      (** Total supply that cannot reach any deficit — by Theorem 3 a
          certificate that no fractional placement with movebounds exists. *)

(** Solver effort counters and duals, for the quality flight recorder
    ({!Fbp_obs.Recorder}), the Table I instrumentation and the optimality
    certificate. *)
type stats = {
  rounds : int;  (** network simplex pivots *)
  potentials : float array;
      (** final node potentials (one per node; the solver's root sits at 0),
          for {!check_potentials}; empty when fault injection forced the
          verdict *)
}

(** [solve g ~supply] computes a min-cost flow satisfying node balances:
    [supply.(v) > 0] is supply, [< 0] demand. Total supply may be less than
    total demand (demands are upper bounds). When not all supply can be
    routed, the flow routes as much as possible at minimum cost and the
    verdict is [Infeasible]. Raises [Invalid_argument] on a length mismatch
    or negative arc cost. *)
val solve : Graph.t -> supply:float array -> result

(** {!solve} plus the solver effort counters of the run. *)
val solve_stats : Graph.t -> supply:float array -> result * stats

(** Audit: does the residual network contain no negative cycle (i.e. is the
    current flow of minimum cost)? Bellman-Ford, used by property tests. *)
val check_optimal : Graph.t -> bool

(** Checked flow invariants (sanitizer mode): per-arc capacity bounds and
    per-node conservation against [supply].  [exact] additionally requires
    every supply node fully routed (the solver reported [Feasible]).
    Returns the first violation. *)
val check_flow :
  Graph.t -> supply:float array -> exact:bool -> (unit, string) Stdlib.result

(** O(V + E) optimality certificate (sanitizer mode): under the reduced
    cost [cost + potentials.(u) - potentials.(v)], every residual arc has
    reduced cost >= -tol and every arc carrying flow has reduced cost
    <= tol; this includes each deficit node's sink arc to the solver's root
    (cost 0, root potential 0).  Returns the first violation. *)
val check_potentials :
  Graph.t -> supply:float array -> potentials:float array ->
  (unit, string) Stdlib.result
