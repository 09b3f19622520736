(** Repartitioning ("reflow") post-pass over 2×2 / 3×3 window blocks: local
    QP + movebound-aware transportation among the block's pieces.  Global
    feasibility from the flow is preserved (piece capacities respected per
    block); each sweep trades runtime for a few percent of HPWL. *)

type stats = {
  n_blocks : int;
  n_moved : int;  (** cells whose piece assignment changed *)
  hpwl_before : float;
  hpwl_after : float;
  time : float;
}

(** One sweep over all [span]×[span] blocks; updates positions and
    [piece_of_cell] in place. *)
val sweep :
  ?span:int ->
  Config.t ->
  Fbp_movebound.Instance.t ->
  Fbp_movebound.Regions.t ->
  Grid.t ->
  Fbp_netlist.Placement.t ->
  piece_of_cell:int array ->
  cell_nets:int list array ->
  stats

(** [refine cfg inst report] runs [sweeps] passes over a finished
    {!Placer.place} report (no-op when the report has no final grid),
    with all pool work at [cfg.domains]. *)
val refine :
  ?sweeps:int ->
  ?span:int ->
  Config.t ->
  Fbp_movebound.Instance.t ->
  Placer.report ->
  stats list
