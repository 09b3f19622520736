(* Traced replay of [Fbp_workloads.Runner.run_fbp].

   The placer's level loop ([Fbp_core.Placer.place]) and run_fbp's post
   pass, rewritten here so that every call into a layer's public entry
   point sits inside a span of its own.  The program itself carries no
   probes for this benchmark.  The replay performs the same floating-point
   operations in the same order as the product path, so its global HPWL
   must equal run_fbp's bit for bit; the benchmark checks that on every
   placement it traces.

   Only the clean path and the first rung of the degradation ladder (the
   capacity-margin drop) are replayed.  Any other degradation, which the
   product path would also report, makes the replay return [Error]. *)

open Fbp_netlist
open Fbp_core
module Mb = Fbp_movebound

type level_row = {
  level : int;
  nx : int;
  pieces : int;
  nodes : int;
  edges : int;
  rounds : int;
  build_s : float;  (** Fbp_model.build *)
  mcf_s : float;  (** Fbp_model.solve, the MinCostFlow inside *)
}

type result = {
  hpwl_global : float;
  hpwl : float;
  legal : bool;  (** the same audit run_fbp makes *)
  violations : int;
  rows : level_row list;  (** one per level, coarsest first *)
  cg_iterations : int;
  qp_vars : int;  (** variables of one global QP system *)
  waves : int;
  steps : int;
  shipped_cells : int;
  fallback_cells : int;
  realize_calls : int;
  dispatches : int;  (** pool worker handoffs inside realization *)
  spilled : int;
  avg_disp : float;
}

exception Replay_diverged of string

let diverged fmt = Printf.ksprintf (fun s -> raise (Replay_diverged s)) fmt

(* Qp.solve_global, split at its two public halves. *)
let global_qp tr (cfg : Config.t) nl pos ~cache ~level ~anchor =
  let sys =
    Span.with_span tr ~level "qp.assemble" (fun () ->
        Netmodel.assemble nl pos ~cache ~movable:(Qp.all_movable nl)
          ~clique_max_degree:cfg.Config.clique_max_degree ~anchor ())
  in
  let st = Span.with_span tr ~level "qp.cg" (fun () -> Qp.solve_system cfg sys pos) in
  if not st.Qp.converged then diverged "level %d: CG did not converge" level;
  st

let blit ~(src : Placement.t) ~(dst : Placement.t) =
  Array.blit src.Placement.x 0 dst.Placement.x 0 (Array.length src.Placement.x);
  Array.blit src.Placement.y 0 dst.Placement.y 0 (Array.length src.Placement.y)

let place tr (cfg : Config.t) (inst0 : Mb.Instance.t) =
  let inst, regions, density, usable, cell_nets =
    Span.with_span tr "setup" (fun () ->
        let inst =
          match Mb.Instance.normalize inst0 with
          | Ok i -> i
          | Error e -> diverged "normalize: %s" e
        in
        let design = inst.Mb.Instance.design in
        let chip = design.Design.chip in
        let regions = Mb.Regions.decompose ~chip inst.Mb.Instance.movebounds in
        let density = Density.create design in
        let usable =
          Array.map
            (fun (r : Mb.Regions.region) ->
              Density.usable_rows_area density ~chip
                ~row_height:design.Design.row_height r.Mb.Regions.area)
            regions.Mb.Regions.regions
        in
        (inst, regions, density, usable, Netlist.cell_nets design.Design.netlist))
  in
  let design = inst.Mb.Instance.design in
  let nl = design.Design.netlist in
  let chip = design.Design.chip in
  let cache = Netmodel.create_cache () in
  let pos = Placement.copy design.Design.initial in
  let c = Fbp_geometry.Rect.center chip in
  let qp0 =
    global_qp tr cfg nl pos ~cache ~level:0 ~anchor:(fun _ ->
        Some (1e-6, c.Fbp_geometry.Point.x, 1e-6, c.Fbp_geometry.Point.y))
  in
  let anchor_pos = Placement.copy pos in
  let margin_ok = ref true in
  let rows = ref [] and cg_iterations = ref qp0.Qp.cg_iterations in
  let waves = ref 0 and steps = ref 0 and shipped = ref 0 and fallback = ref 0 in
  let dispatches = ref 0 in
  let piece_of_cell = ref (Array.make (Netlist.n_cells nl) (-1)) in
  let final_grid = ref None in
  let max_level = Placer.n_levels cfg design in
  for level = 1 to max_level do
    Span.with_span tr ~level "level" @@ fun () ->
    let nx = 1 lsl level in
    if level > 1 then begin
      let w = cfg.Config.anchor_base *. (cfg.Config.anchor_growth ** float_of_int level) in
      let st =
        global_qp tr cfg nl pos ~cache ~level ~anchor:(fun c ->
            Some (w, anchor_pos.Placement.x.(c), w, anchor_pos.Placement.y.(c)))
      in
      cg_iterations := !cg_iterations + st.Qp.cg_iterations
    end;
    let slack =
      let acc = ref 0.0 and n = ref 0 in
      for c = 0 to Netlist.n_cells nl - 1 do
        if not nl.Netlist.fixed.(c) then begin
          acc := !acc +. Netlist.size nl c;
          incr n
        end
      done;
      if !n = 0 then 0.0 else 0.5 *. !acc /. float_of_int !n
    in
    let build_and_solve capacity_factor capacity_slack =
      let grid =
        Span.with_span tr ~level "grid" (fun () ->
            Grid.create ~usable ~capacity_factor ~capacity_slack ~chip ~nx ~ny:nx
              ~regions ~density ())
      in
      let t0 = Fbp_util.Timer.now () in
      let model =
        Span.with_span tr ~level "flow.build" (fun () -> Fbp_model.build inst regions grid pos)
      in
      let t1 = Fbp_util.Timer.now () in
      let sol = Span.with_span tr ~level "flow.mcf" (fun () -> Fbp_model.solve model) in
      let t2 = Fbp_util.Timer.now () in
      (grid, model, sol, t1 -. t0, t2 -. t1)
    in
    let attempt =
      if not !margin_ok then build_and_solve 1.0 0.0
      else
        match build_and_solve cfg.Config.capacity_margin slack with
        | (_, _, { Fbp_model.verdict = Fbp_flow.Mcf.Infeasible _; _ }, _, _)
          when cfg.Config.capacity_margin < 1.0 || slack > 0.0 ->
          margin_ok := false;
          build_and_solve 1.0 0.0
        | ok -> ok
    in
    let grid, model, sol, build_s, mcf_s = attempt in
    (match sol.Fbp_model.verdict with
     | Fbp_flow.Mcf.Infeasible _ -> diverged "level %d: flow infeasible" level
     | Fbp_flow.Mcf.Feasible _ -> ());
    let d0 = Fbp_util.Pool.n_dispatches () in
    let r =
      Span.with_span tr ~level "realize" (fun () ->
          Realization.realize cfg inst regions sol pos ~cell_nets)
    in
    dispatches := !dispatches + Fbp_util.Pool.n_dispatches () - d0;
    let s = r.Realization.stats in
    waves := !waves + s.Realization.n_waves;
    steps := !steps + s.Realization.n_steps;
    shipped := !shipped + s.Realization.n_shipped_cells;
    fallback := !fallback + s.Realization.n_fallback_cells;
    piece_of_cell := r.Realization.piece_of_cell;
    final_grid := Some grid;
    blit ~src:pos ~dst:anchor_pos;
    rows :=
      { level; nx; pieces = Grid.n_pieces grid; nodes = model.Fbp_model.n_nodes;
        edges = model.Fbp_model.n_edges; rounds = sol.Fbp_model.mcf_rounds;
        build_s; mcf_s }
      :: !rows
  done;
  (* run_fbp's post pass: one repartition sweep over the original instance,
     legalization over the normalized one, then the legality audits *)
  let report =
    { Placer.placement = pos; piece_of_cell = !piece_of_cell; regions;
      final_grid = !final_grid; levels = []; levels_planned = max_level;
      degradations = []; total_time = 0.0; hpwl = 0.0 }
  in
  Span.with_span tr "repartition" (fun () ->
      ignore (Repartition.refine ~sweeps:1 cfg inst0 report));
  let hpwl_global = Hpwl.total nl pos in
  let inst_n =
    Span.with_span tr "setup" (fun () ->
        match Mb.Instance.normalize inst0 with Ok i -> i | Error _ -> inst0)
  in
  let lst =
    Span.with_span tr "legalize" (fun () ->
        Fbp_legalize.Legalizer.run inst_n regions pos ~piece_of_cell:!piece_of_cell
          ~grid:!final_grid)
  in
  let legal, violations, hpwl =
    Span.with_span tr "audit" (fun () ->
        let a = Fbp_legalize.Check.audit inst_n.Mb.Instance.design pos in
        let v = Mb.Legality.check inst_n pos in
        ( a.Fbp_legalize.Check.legal && lst.Fbp_legalize.Legalizer.n_failed = 0,
          v.Mb.Legality.n_violations,
          Hpwl.total nl pos ))
  in
  {
    hpwl_global; hpwl; legal; violations;
    rows = List.rev !rows;
    cg_iterations = !cg_iterations;
    qp_vars = qp0.Qp.vars;
    waves = !waves; steps = !steps; shipped_cells = !shipped;
    fallback_cells = !fallback; realize_calls = max_level;
    dispatches = !dispatches;
    spilled = lst.Fbp_legalize.Legalizer.n_spilled;
    avg_disp = lst.Fbp_legalize.Legalizer.avg_displacement;
  }

let run tr cfg inst =
  match place tr cfg inst with
  | r -> Ok r
  | exception Replay_diverged msg -> Error msg
