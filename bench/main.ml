(* Benchmark harness: regenerates every table of the paper's evaluation
   section (printed as ASCII tables with the paper's own ratios alongside),
   runs the ablation benches DESIGN.md lists, and finishes with a bechamel
   micro-benchmark per table kernel.

     dune exec bench/main.exe            # full pass (FBP_BENCH_SCALE=2)
     FBP_BENCH_QUICK=1 dune exec bench/main.exe   # small subset

   Absolute numbers differ from the paper (synthetic scaled instances, one
   container instead of an 8-CPU Xeon); the ratios are the reproduction
   targets — see EXPERIMENTS.md. *)

let quick () = Sys.getenv_opt "FBP_BENCH_QUICK" <> None

let print_table t =
  print_string (Fbp_util.Table.render t);
  print_newline ()

let section title =
  Printf.printf "\n==================== %s ====================\n\n%!" title

(* ------------------------------------------------------------ ablations *)

let ablation_table () =
  let t =
    Fbp_util.Table.create
      ~title:
        "ABLATIONS (design `rabe`, no movebounds unless stated): design choices from DESIGN.md"
      ~header:[ "variant"; "HPWL"; "global time"; "notes" ]
      ~aligns:[ Fbp_util.Table.Left; Fbp_util.Table.Right; Fbp_util.Table.Right; Fbp_util.Table.Left ]
      ()
  in
  let spec = Option.get (Fbp_workloads.Designs.find_spec "rabe") in
  let d = Fbp_workloads.Designs.instantiate spec in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let run name config notes =
    match Fbp_workloads.Runner.run_fbp ~config inst with
    | Error e -> Fbp_util.Table.add_row t [ name; "error: " ^ Fbp_resilience.Fbp_error.to_string e; "-"; notes ]
    | Ok m ->
      Fbp_util.Table.add_row t
        [
          name;
          Printf.sprintf "%.1fk" (m.Fbp_workloads.Runner.hpwl /. 1e3);
          Fbp_util.Duration.pretty m.Fbp_workloads.Runner.global_time;
          notes;
        ]
  in
  run "fbp (default)" Fbp_core.Config.default "local QP on, 1 domain";
  run "fbp, no local QP"
    { Fbp_core.Config.default with local_qp = false }
    "realization cost = plain movement penalty";
  run "fbp, 4 domains"
    { Fbp_core.Config.default with domains = 4 }
    "deterministic parallel realization";
  run "fbp, coarse stop"
    { Fbp_core.Config.default with min_window_rows = 10.0 }
    "refinement stops early";
  (* BestChoice clustering (the paper's setup: ratio 5): cluster, place the
     coarse netlist, expand, then refine flat *)
  (let t0 = Fbp_util.Timer.now () in
   let nl = d.Fbp_netlist.Design.netlist in
   let cl = Fbp_netlist.Clustering.best_choice ~ratio:5.0 nl in
   let coarse_design =
     { d with
       Fbp_netlist.Design.netlist = cl.Fbp_netlist.Clustering.coarse;
       initial =
         Fbp_netlist.Clustering.coarse_placement cl nl d.Fbp_netlist.Design.initial }
   in
   match Fbp_core.Placer.place (Fbp_movebound.Instance.unconstrained coarse_design) with
   | Error e -> Fbp_util.Table.add_row t [ "fbp + BestChoice r=5"; "error: " ^ Fbp_resilience.Fbp_error.to_string e; "-"; "" ]
   | Ok coarse_rep ->
     let expanded = Fbp_netlist.Placement.create (Fbp_netlist.Netlist.n_cells nl) in
     Fbp_netlist.Clustering.expand cl coarse_rep.Fbp_core.Placer.placement expanded;
     let flat_design = { d with Fbp_netlist.Design.initial = expanded } in
     (match Fbp_workloads.Runner.run_fbp
              (Fbp_movebound.Instance.unconstrained flat_design) with
      | Error e ->
        Fbp_util.Table.add_row t [ "fbp + BestChoice r=5"; "error: " ^ Fbp_resilience.Fbp_error.to_string e; "-"; "" ]
      | Ok m ->
        Fbp_util.Table.add_row t
          [
            "fbp + BestChoice r=5";
            Printf.sprintf "%.1fk" (m.Fbp_workloads.Runner.hpwl /. 1e3);
            Fbp_util.Duration.pretty (Fbp_util.Timer.now () -. t0);
            Printf.sprintf "%d coarse cells seed the flat pass"
              (Fbp_netlist.Netlist.n_cells cl.Fbp_netlist.Clustering.coarse);
          ]));
  (* Brenner-Vygen-style flow legalizer vs the default Tetris/interval one *)
  (match Fbp_core.Placer.place inst with
   | Error e -> Fbp_util.Table.add_row t [ "fbp + flow legalizer"; "error: " ^ Fbp_resilience.Fbp_error.to_string e; "-"; "" ]
   | Ok rep ->
     let t0 = Fbp_util.Timer.now () in
     let pos = Fbp_netlist.Placement.copy rep.Fbp_core.Placer.placement in
     let st = Fbp_legalize.Flow_legalizer.run inst rep.Fbp_core.Placer.regions pos in
     Fbp_util.Table.add_row t
       [
         "fbp + flow legalizer [6]";
         Printf.sprintf "%.1fk" (Fbp_netlist.Hpwl.total d.Fbp_netlist.Design.netlist pos /. 1e3);
         Fbp_util.Duration.pretty (Fbp_util.Timer.now () -. t0);
         Printf.sprintf "avg displacement %.2f rows (Tetris default shown above)"
           st.Fbp_legalize.Flow_legalizer.avg_displacement;
       ]);
  (* recursive-partitioning baseline (global HPWL, pre-legalization) *)
  (match Fbp_baselines.Recursive.place inst with
   | Error e -> Fbp_util.Table.add_row t [ "recursive 2x2 (old)"; "error: " ^ e; "-"; "" ]
   | Ok r ->
     Fbp_util.Table.add_row t
       [
         "recursive 2x2 (old)";
         Printf.sprintf "%.1fk (global)" (r.Fbp_baselines.Recursive.hpwl /. 1e3);
         Fbp_util.Duration.pretty r.Fbp_baselines.Recursive.global_time;
         Printf.sprintf "%d local capacity overruns (the Section-IV drawback)"
           r.Fbp_baselines.Recursive.overflow_events;
       ]);
  print_table t

(* --------------------------------------------------------- parallel scan *)

(* Config for one entry of a domain sweep.  The sweep's counts enter from
   outside the library, so they get the hardware clamp: on a 2-core box
   the 4- and 8-domain entries run at 2. *)
let sweep_config domains =
  { Fbp_core.Config.default with domains = Fbp_util.Pool.clamp_to_hardware domains }

let parallel_table () =
  let t =
    Fbp_util.Table.create
      ~title:"PARALLEL REALIZATION (design `max`): wall time vs domains (paper: up to 7.9x with 8 CPUs)"
      ~header:[ "domains"; "realization time"; "speedup"; "identical result" ]
      ()
  in
  let spec = Option.get (Fbp_workloads.Designs.find_spec "max") in
  let d = Fbp_workloads.Designs.instantiate spec in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let run domains =
    match Fbp_core.Placer.place ~config:(sweep_config domains) inst with
    | Error e -> failwith (Fbp_resilience.Fbp_error.to_string e)
    | Ok rep ->
      let rt =
        List.fold_left
          (fun a (l : Fbp_core.Placer.level_report) -> a +. l.Fbp_core.Placer.realization_time)
          0.0 rep.Fbp_core.Placer.levels
      in
      (rt, rep.Fbp_core.Placer.placement)
  in
  let base_t, base_p = run 1 in
  List.iter
    (fun domains ->
      let rt, p = run domains in
      let same = p.Fbp_netlist.Placement.x = base_p.Fbp_netlist.Placement.x in
      Fbp_util.Table.add_row t
        [
          string_of_int domains;
          Fbp_util.Duration.pretty rt;
          Printf.sprintf "%.2fx" (base_t /. Float.max 1e-6 rt);
          string_of_bool same;
        ])
    [ 1; 2; 4; 8 ];
  print_table t

(* ------------------------------------------------------------- bechamel *)

let bechamel_suite () =
  let open Bechamel in
  let spec = Option.get (Fbp_workloads.Designs.find_spec "dagmar") in
  let d = Fbp_workloads.Designs.instantiate spec in
  let inst = Fbp_movebound.Instance.unconstrained d in
  let regions =
    Fbp_movebound.Regions.decompose ~chip:d.Fbp_netlist.Design.chip [||]
  in
  let density = Fbp_core.Density.create d in
  let grid =
    Fbp_core.Grid.create ~chip:d.Fbp_netlist.Design.chip ~nx:8 ~ny:8 ~regions ~density ()
  in
  let pos = d.Fbp_netlist.Design.initial in
  let nl = d.Fbp_netlist.Design.netlist in
  let tests =
    [
      (* t1: the FBP partitioning kernel (model build + MinCostFlow) *)
      Test.make ~name:"t1/fbp-flow-model+mcf"
        (Staged.stage (fun () ->
             let model = Fbp_core.Fbp_model.build inst regions grid pos in
             ignore (Fbp_core.Fbp_model.solve model)));
      (* t2: one global QP solve (the per-level workhorse of Table II runs) *)
      Test.make ~name:"t2/global-qp"
        (Staged.stage (fun () ->
             let p = Fbp_netlist.Placement.copy pos in
             ignore
               (Fbp_core.Qp.solve_global Fbp_core.Config.default nl p
                  ~anchor:(fun _ -> None) ())));
      (* t3: region decomposition of a 16-movebound layout *)
      Test.make ~name:"t3/region-decomposition"
        (Staged.stage (fun () ->
             let rng = Fbp_util.Rng.create 5 in
             let rects =
               List.init 16 (fun i ->
                   ignore i;
                   let x0 = Fbp_util.Rng.range rng 0.0 80.0 in
                   let y0 = Fbp_util.Rng.range rng 0.0 80.0 in
                   Fbp_geometry.Rect.of_corner ~x:x0 ~y:y0 ~w:20.0 ~h:20.0)
             in
             let mbs =
               Array.of_list
                 (List.mapi
                    (fun i r ->
                      Fbp_movebound.Movebound.make ~id:i ~name:(string_of_int i)
                        ~kind:Fbp_movebound.Movebound.Inclusive [ r ])
                    rects)
             in
             ignore
               (Fbp_movebound.Regions.decompose
                  ~chip:(Fbp_geometry.Rect.of_corner ~x:0.0 ~y:0.0 ~w:100.0 ~h:100.0)
                  mbs)));
      (* t4/t5: movebound feasibility check (Theorem 2 kernel) *)
      Test.make ~name:"t4/feasibility-maxflow"
        (Staged.stage (fun () ->
             ignore (Fbp_movebound.Feasibility.check_instance inst)));
      (* t6: legalization *)
      Test.make ~name:"t6/legalization"
        (Staged.stage (fun () ->
             let p = Fbp_netlist.Placement.copy pos in
             ignore
               (Fbp_legalize.Legalizer.run inst regions p
                  ~piece_of_cell:(Array.make (Fbp_netlist.Netlist.n_cells nl) (-1))
                  ~grid:None)));
      (* t7: HPWL + density scoring (contest formula kernel) *)
      Test.make ~name:"t7/hpwl+density-score"
        (Staged.stage (fun () ->
             ignore (Fbp_workloads.Ispd.score d pos ~time:1.0 ~reference_time:1.0)));
    ]
  in
  Printf.printf "bechamel micro-benchmarks (ns/run, monotonic clock):\n";
  List.iter
    (fun test ->
      let instances = Toolkit.Instance.[ monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let res = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-28s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-28s (no estimate)\n%!" name)
        res)
    tests

(* ------------------------------------------------ machine-readable JSON *)

(* BENCH_pr3.json: the headline numbers of a bench run in machine-readable
   form — per-design HPWL and wall-time split (with the per-phase QP / flow /
   realization breakdown summed over levels) plus the full observability
   metrics (counters and histogram summaries).  check.sh diffs the key set.
   FBP_BENCH_SMOKE=1 emits only this file (flagged "smoke":true) and exits;
   FBP_BENCH_JSON overrides the output path. *)
let emit_bench_json () =
  let path =
    match Sys.getenv_opt "FBP_BENCH_JSON" with
    | Some p -> p
    | None -> "BENCH_pr3.json"
  in
  Fbp_obs.Obs.reset ();
  Fbp_obs.Obs.enable ();
  let one name =
    let spec = Option.get (Fbp_workloads.Designs.find_spec name) in
    let d = Fbp_workloads.Designs.instantiate spec in
    let inst = Fbp_movebound.Instance.unconstrained d in
    match Fbp_workloads.Runner.run_fbp inst with
    | Error e ->
      Printf.sprintf "    {\"name\":%S,\"error\":%S}" name
        (Fbp_resilience.Fbp_error.to_string e)
    | Ok m ->
      let qp, flow, real =
        List.fold_left
          (fun (q, f, r) (l : Fbp_core.Placer.level_report) ->
            ( q +. l.Fbp_core.Placer.qp_time,
              f +. l.Fbp_core.Placer.flow_time,
              r +. l.Fbp_core.Placer.realization_time ))
          (0.0, 0.0, 0.0) m.Fbp_workloads.Runner.levels
      in
      Printf.sprintf
        "    {\"name\":%S,\"hpwl\":%.6e,\"total_time\":%.6f,\
         \"global_time\":%.6f,\"legalize_time\":%.6f,\
         \"phase_times\":{\"qp\":%.6f,\"flow\":%.6f,\"realization\":%.6f}}"
        name m.Fbp_workloads.Runner.hpwl m.Fbp_workloads.Runner.total_time
        m.Fbp_workloads.Runner.global_time m.Fbp_workloads.Runner.legalize_time
        qp flow real
  in
  let designs = List.map one [ "rabe"; "ashraf" ] in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\"schema\":\"fbp-bench-pr3\",\n\"smoke\":%b,\n\"designs\":[\n%s\n],\n\"metrics\":%s}\n"
    (Sys.getenv_opt "FBP_BENCH_SMOKE" <> None)
    (String.concat ",\n" designs)
    (Fbp_obs.Obs.metrics_json ());
  close_out oc;
  Fbp_obs.Obs.disable ();
  Printf.printf "wrote %s\n%!" path

(* BENCH_pr4.json: sanitizer-mode overhead.  Each design is placed with the
   flow-invariant sanitizer off and on (best of [reps] runs to damp timer
   noise); the JSON records both times, the overhead percentage, the number
   of checks executed, and whether the sanitized run reproduced the same
   HPWL (it must: checks only read solver state).  Also measures the
   disabled-check fast path — one atomic read — in ns/call, which is the
   cost every production run pays per instrumented site.
   FBP_BENCH_SMOKE=1 emits with "smoke":true; FBP_BENCH_JSON4 overrides the
   output path. *)
let emit_sanitizer_json () =
  let path =
    match Sys.getenv_opt "FBP_BENCH_JSON4" with
    | Some p -> p
    | None -> "BENCH_pr4.json"
  in
  let reps =
    match Sys.getenv_opt "FBP_BENCH_REPS" with
    | Some r -> (try max 1 (int_of_string r) with Failure _ -> 3)
    | None -> if Sys.getenv_opt "FBP_BENCH_SMOKE" <> None then 2 else 3
  in
  let place name =
    let spec = Option.get (Fbp_workloads.Designs.find_spec name) in
    let d = Fbp_workloads.Designs.instantiate spec in
    let inst = Fbp_movebound.Instance.unconstrained d in
    match Fbp_workloads.Runner.run_fbp inst with
    | Error e -> Error (Fbp_resilience.Fbp_error.to_string e)
    | Ok m -> Ok (m.Fbp_workloads.Runner.hpwl, m.Fbp_workloads.Runner.total_time)
  in
  let best name =
    let rec go best_time hpwl r =
      if r = 0 then Ok (hpwl, best_time)
      else
        match place name with
        | Error e -> Error e
        | Ok (h, t) -> go (Float.min best_time t) h (r - 1)
    in
    go infinity nan reps
  in
  let one name =
    Fbp_resilience.Sanitize.set_enabled false;
    let off = best name in
    Fbp_resilience.Sanitize.set_enabled true;
    let c0 = Fbp_resilience.Sanitize.checks_run () in
    let on_ = best name in
    let checks = Fbp_resilience.Sanitize.checks_run () - c0 in
    Fbp_resilience.Sanitize.set_enabled false;
    match (off, on_) with
    | Error e, _ | _, Error e -> Printf.sprintf "    {\"name\":%S,\"error\":%S}" name e
    | Ok (h_off, t_off), Ok (h_on, t_on) ->
      let overhead = 100.0 *. ((t_on -. t_off) /. t_off) in
      Printf.sprintf
        "    {\"name\":%S,\"off_time\":%.6f,\"on_time\":%.6f,\
         \"overhead_pct\":%.2f,\"checks_run\":%d,\"hpwl\":%.6e,\
         \"hpwl_match\":%b}"
        name t_off t_on overhead (checks / reps) h_off
        (Float.abs (h_on -. h_off) <= 1e-9 *. Float.max 1.0 (Float.abs h_off))
  in
  let names = [ "rabe"; "ashraf" ] in
  let designs = List.map one names in
  (* disabled fast path: ns per check call when the sanitizer is off *)
  let disabled_ns =
    Fbp_resilience.Sanitize.set_enabled false;
    let n = 2_000_000 in
    let t0 = Fbp_util.Timer.now () in
    for _ = 1 to n do
      Fbp_resilience.Sanitize.check ~site:"bench" ~invariant:"noop" (fun () ->
          Ok ())
    done;
    1e9 *. (Fbp_util.Timer.now () -. t0) /. float_of_int n
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\"schema\":\"fbp-bench-pr4\",\n\"smoke\":%b,\n\"sanitizer\":{\n\
     \"designs\":[\n%s\n],\n\"disabled_check_ns\":%.2f\n}\n}\n"
    (Sys.getenv_opt "FBP_BENCH_SMOKE" <> None)
    (String.concat ",\n" designs)
    disabled_ns;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* BENCH_pr5.json: the PR 5 performance-architecture numbers.  Four
   sections, all measured on identical inputs:

   - "spmv" / "cg": the new pool-backed kernels against [Seed_kernels]
     (the pre-PR5 implementations preserved verbatim as a baseline), on
     the QP matrix of a real design (one matrix, the x and y right-hand
     sides), with pinned iteration counts for CG so both sides do exactly
     the same mathematical work;
   - "assemble": the triplet-stream -> CSR path three ways (seed list
     builder + Hashtbl freeze; new unboxed builder + stamp freeze; new
     builder + symbolic [refreeze]), the one matrix per round exactly like
     [Qp.solve_global], plus the end-to-end [Netmodel.assemble]
     fresh-vs-cached times on the real net model;
   - "scaling": full placer runs at 1/2/4/8 domains with per-phase times
     and bitwise HPWL equality against the 1-domain run ("hpwl_match" —
     check.sh fails the build if any entry is false);
   - "qp_phase": the composite global-QP round (one assembly + x/y CG)
     seed vs new-at-8-domains, the PR's headline speedup.

   FBP_BENCH_JSON5 overrides the output path; FBP_BENCH_SMOKE shrinks
   repetition counts and uses the small kernel design. *)
let emit_parallel_json () =
  let path =
    match Sys.getenv_opt "FBP_BENCH_JSON5" with
    | Some p -> p
    | None -> "BENCH_pr5.json"
  in
  let smoke = Sys.getenv_opt "FBP_BENCH_SMOKE" <> None in
  let time reps f =
    f ();  (* warm-up: faults, lazy pool spawns, JIT-free but cache-warm *)
    let t0 = Fbp_util.Timer.now () in
    for _ = 1 to reps do
      f ()
    done;
    (Fbp_util.Timer.now () -. t0) /. float_of_int reps
  in
  (* ---- the QP systems of a real design ---- *)
  let kernel_design = if smoke then "rabe" else "max" in
  let spec = Option.get (Fbp_workloads.Designs.find_spec kernel_design) in
  let d = Fbp_workloads.Designs.instantiate spec in
  let nl = d.Fbp_netlist.Design.netlist in
  let pos = Fbp_netlist.Placement.copy d.Fbp_netlist.Design.initial in
  let cfg = Fbp_core.Config.default in
  let center = Fbp_geometry.Rect.center d.Fbp_netlist.Design.chip in
  let movable = Fbp_core.Qp.all_movable nl in
  let anchor _ =
    Some (1e-6, center.Fbp_geometry.Point.x, 1e-6, center.Fbp_geometry.Point.y)
  in
  let assemble ?cache () =
    Fbp_core.Netmodel.assemble nl pos ?cache ~movable
      ~clique_max_degree:cfg.Fbp_core.Config.clique_max_degree ~anchor ()
  in
  let sys = assemble () in
  let nv = sys.Fbp_core.Netmodel.n_vars in
  let a = sys.Fbp_core.Netmodel.a in
  let bxr = sys.Fbp_core.Netmodel.bx and byr = sys.Fbp_core.Netmodel.by in
  (* replay stream: the frozen entries of the system matrix, fed through
     every assembly variant so all sides consume the identical triplets *)
  let stream_of m =
    let n = Fbp_linalg.Csr.nnz m in
    let rows = Array.make n 0 and cols = Array.make n 0 in
    let vals = Array.make n 0.0 in
    let i = ref 0 in
    Fbp_linalg.Csr.iter_entries m (fun r c v ->
        rows.(!i) <- r;
        cols.(!i) <- c;
        vals.(!i) <- v;
        incr i);
    (rows, cols, vals)
  in
  let stream = stream_of a in
  let replay_seed (rows, cols, vals) =
    let b = Seed_kernels.SCsr.builder nv in
    Array.iteri
      (fun k r -> Seed_kernels.SCsr.add b ~row:r ~col:cols.(k) vals.(k))
      rows;
    Seed_kernels.SCsr.freeze b
  in
  let bld = Fbp_linalg.Csr.builder nv in
  let replay_new b (rows, cols, vals) =
    Fbp_linalg.Csr.reset b;
    Array.iteri (fun k r -> Fbp_linalg.Csr.add b ~row:r ~col:cols.(k) vals.(k)) rows;
    b
  in
  let sa = replay_seed stream in
  (* ---- spmv ---- *)
  let xvec = Array.init nv (fun i -> float_of_int (i mod 17) /. 17.0) in
  let out = Array.make nv 0.0 in
  let spmv_reps = if smoke then 100 else 400 in
  let spmv_seed_s = time spmv_reps (fun () -> Seed_kernels.SCsr.mul sa xvec out) in
  let spmv_new_s = time spmv_reps (fun () -> Fbp_linalg.Csr.mul a xvec out) in
  (* ---- cg (pinned iteration count = what the placer tolerance needs) ---- *)
  let probe =
    Fbp_linalg.Cg.solve ~record:false ~max_iter:cfg.Fbp_core.Config.cg_max_iter
      ~tol:cfg.Fbp_core.Config.cg_tol a bxr (Array.make nv 0.0)
  in
  let k_iters = max 20 probe.Fbp_linalg.Cg.iterations in
  let cg_reps = if smoke then 3 else 6 in
  let xwork = Array.make nv 0.0 in
  let seed_cg a b =
    Array.fill xwork 0 nv 0.0;
    ignore (Seed_kernels.scg_solve ~max_iter:k_iters ~tol:0.0 a b xwork)
  in
  let new_cg a b =
    Array.fill xwork 0 nv 0.0;
    ignore
      (Fbp_linalg.Cg.solve ~record:false ~max_iter:k_iters ~tol:0.0 a b xwork)
  in
  let cg_seed_x_s = time cg_reps (fun () -> seed_cg sa bxr) in
  let cg_seed_y_s = time cg_reps (fun () -> seed_cg sa byr) in
  let cg_new_x_s = time cg_reps (fun () -> new_cg a bxr) in
  let cg_new_y_s = time cg_reps (fun () -> new_cg a byr) in
  let seed_iters, _ =
    Seed_kernels.scg_solve ~max_iter:k_iters ~tol:0.0 sa bxr
      (Array.make nv 0.0)
  in
  let new_iters =
    (Fbp_linalg.Cg.solve ~record:false ~max_iter:k_iters ~tol:0.0 a bxr
       (Array.make nv 0.0))
      .Fbp_linalg.Cg.iterations
  in
  (* ---- assembly: stream -> CSR, the one matrix per round ---- *)
  let rounds = if smoke then 15 else 40 in
  let asm_seed_s = time rounds (fun () -> ignore (replay_seed stream)) in
  let asm_fresh_s =
    time rounds (fun () ->
        ignore (Fbp_linalg.Csr.freeze (replay_new bld stream)))
  in
  let _, str = Fbp_linalg.Csr.freeze_capture (replay_new bld stream) in
  let refreeze_round () =
    match Fbp_linalg.Csr.refreeze str (replay_new bld stream) with
    | Some _ -> ()
    | None -> failwith "bench: refreeze missed on an identical stream"
  in
  let asm_cached_s = time rounds refreeze_round in
  (* ---- assembly: end-to-end Netmodel.assemble, fresh vs cached ---- *)
  Fbp_obs.Obs.reset ();
  Fbp_obs.Obs.enable ();
  let nm_rounds = if smoke then 5 else 12 in
  let nm_fresh_s = time nm_rounds (fun () -> ignore (assemble ())) in
  let cache = Fbp_core.Netmodel.create_cache () in
  ignore (assemble ~cache ());
  let nm_cached_s = time nm_rounds (fun () -> ignore (assemble ~cache ())) in
  let refreeze_hits = Fbp_obs.Obs.counter_value "netmodel.refreeze_hits" in
  Fbp_obs.Obs.disable ();
  (* ---- composite QP round, seed sequential vs new at 8 domains ---- *)
  let asm_cached8_s, cg_new8_x_s, cg_new8_y_s =
    Fbp_util.Pool.with_domains 8 (fun () ->
        ( time rounds refreeze_round,
          time cg_reps (fun () -> new_cg a bxr),
          time cg_reps (fun () -> new_cg a byr) ))
  in
  let qp_seed_s = asm_seed_s +. cg_seed_x_s +. cg_seed_y_s in
  let qp_new8_s = asm_cached8_s +. cg_new8_x_s +. cg_new8_y_s in
  (* ---- scaling sweep: full placer, bitwise HPWL equality ---- *)
  let sspec = Option.get (Fbp_workloads.Designs.find_spec "rabe") in
  let sinst =
    Fbp_movebound.Instance.unconstrained (Fbp_workloads.Designs.instantiate sspec)
  in
  let run_scale domains =
    match Fbp_workloads.Runner.run_fbp ~config:(sweep_config domains) sinst with
    | Error e -> Error (Fbp_resilience.Fbp_error.to_string e)
    | Ok m ->
      let qp, real =
        List.fold_left
          (fun (q, rr) (l : Fbp_core.Placer.level_report) ->
            (q +. l.Fbp_core.Placer.qp_time, rr +. l.Fbp_core.Placer.realization_time))
          (0.0, 0.0) m.Fbp_workloads.Runner.levels
      in
      Ok (m.Fbp_workloads.Runner.hpwl, qp, real, m.Fbp_workloads.Runner.global_time)
  in
  (* steady-state sweep: pre-spawn the (hardware-clamped) workers and run
     one discarded warmup so per-domain entries no longer fold pool
     cold-start into their timings (the PR5 sweep did — it spawned its
     workers inside the timed entries) *)
  Fbp_util.Pool.prewarm (Fbp_util.Pool.clamp_to_hardware 8);
  ignore (run_scale 8);
  let base = run_scale 1 in
  let all_match = ref true in
  let scaling_rows =
    List.map
      (fun domains ->
        match (run_scale domains, base) with
        | Ok (h, qp, real, g), Ok (h1, _, _, _) ->
          let m = Int64.equal (Int64.bits_of_float h) (Int64.bits_of_float h1) in
          if not m then all_match := false;
          Printf.sprintf
            "    {\"domains\":%d,\"qp_s\":%.6f,\"realization_s\":%.6f,\
             \"global_s\":%.6f,\"hpwl\":%.6e,\"hpwl_match\":%b}"
            domains qp real g h m
        | Error e, _ | _, Error e ->
          all_match := false;
          Printf.sprintf "    {\"domains\":%d,\"error\":%S}" domains e)
      [ 1; 2; 4; 8 ]
  in
  let sp a b = a /. Float.max 1e-12 b in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
     \"schema\":\"fbp-bench-pr5\",\n\
     \"smoke\":%b,\n\
     \"kernel_design\":%S,\n\
     \"vars\":%d,\n\
     \"nnz_x\":%d,\n\
     \"spmv\":{\"reps\":%d,\"seed_s\":%.6e,\"new_s\":%.6e,\"speedup\":%.2f},\n\
     \"cg\":{\"pinned_iters\":%d,\"seed_iters\":%d,\"new_iters\":%d,\
     \"seed_x_s\":%.6e,\"new_x_s\":%.6e,\"seed_y_s\":%.6e,\"new_y_s\":%.6e,\
     \"speedup\":%.2f},\n\
     \"assemble\":{\"rounds\":%d,\"seed_s\":%.6e,\"fresh_s\":%.6e,\
     \"cached_s\":%.6e,\"reuse_speedup\":%.2f,\"vs_seed_speedup\":%.2f,\
     \"netmodel_fresh_s\":%.6e,\"netmodel_cached_s\":%.6e,\
     \"netmodel_reuse_speedup\":%.2f,\"refreeze_hits\":%d},\n\
     \"qp_phase\":{\"seed_s\":%.6e,\"new_domains8_s\":%.6e,\
     \"qp_speedup_8\":%.2f},\n\
     \"scaling\":[\n%s\n],\n\
     \"workers_spawned\":%d,\n\
     \"hpwl_match\":%b\n\
     }\n"
    smoke kernel_design nv (Fbp_linalg.Csr.nnz a) spmv_reps spmv_seed_s
    spmv_new_s
    (sp spmv_seed_s spmv_new_s)
    k_iters seed_iters new_iters cg_seed_x_s cg_new_x_s cg_seed_y_s cg_new_y_s
    (sp (cg_seed_x_s +. cg_seed_y_s) (cg_new_x_s +. cg_new_y_s))
    rounds asm_seed_s asm_fresh_s asm_cached_s
    (sp asm_fresh_s asm_cached_s)
    (sp asm_seed_s asm_cached_s)
    nm_fresh_s nm_cached_s
    (sp nm_fresh_s nm_cached_s)
    refreeze_hits qp_seed_s qp_new8_s
    (sp qp_seed_s qp_new8_s)
    (String.concat ",\n" scaling_rows)
    (Fbp_util.Pool.n_workers_spawned ())
    !all_match;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* BENCH_pr7.json: the realization anti-scaling fix gate.  A 1/2/4/8-domain
   sweep of the full placer on the design where PR5 regressed ("rabe"),
   measured steady-state: workers pre-warmed, one discarded warmup run per
   domain count, best-of-[reps] wall clocks.  Each count is clamped to the
   hardware ([sweep_config]); entries are labelled by the count requested.
   Every entry must be bitwise HPWL-identical to the 1-domain run, and on
   real multi-core hardware 8-domain realization_s/global_s must beat
   1-domain (check.sh enforces both; the time gate only when >= 4 CPUs
   are present).

   FBP_BENCH_JSON7 overrides the output path; FBP_BENCH_SMOKE shrinks the
   repetition count. *)
let emit_realization_scaling_json () =
  let path =
    match Sys.getenv_opt "FBP_BENCH_JSON7" with
    | Some p -> p
    | None -> "BENCH_pr7.json"
  in
  let smoke = Sys.getenv_opt "FBP_BENCH_SMOKE" <> None in
  let reps = if smoke then 5 else 7 in
  let spec = Option.get (Fbp_workloads.Designs.find_spec "rabe") in
  let inst =
    Fbp_movebound.Instance.unconstrained
      (Fbp_workloads.Designs.instantiate spec)
  in
  Fbp_util.Pool.prewarm (Fbp_util.Pool.clamp_to_hardware 8);
  let d0_disp = Fbp_util.Pool.n_dispatches () in
  let run_once domains =
    match Fbp_workloads.Runner.run_fbp ~config:(sweep_config domains) inst with
    | Error e -> Error (Fbp_resilience.Fbp_error.to_string e)
    | Ok m ->
      let qp, real =
        List.fold_left
          (fun (q, rr) (l : Fbp_core.Placer.level_report) ->
            ( q +. l.Fbp_core.Placer.qp_time,
              rr +. l.Fbp_core.Placer.realization_time ))
          (0.0, 0.0) m.Fbp_workloads.Runner.levels
      in
      Ok
        ( m.Fbp_workloads.Runner.hpwl,
          qp,
          real,
          m.Fbp_workloads.Runner.global_time )
  in
  let run_best domains =
    match run_once domains with
    | Error e -> Error e  (* warmup round, discarded on success *)
    | Ok _ ->
      let rec go i acc =
        if i = 0 then acc
        else
          match (run_once domains, acc) with
          | (Error _ as e), _ -> e
          | Ok (h, q, r, g), Ok (_, _, _, gb) when g < gb ->
            go (i - 1) (Ok (h, q, r, g))
          | Ok _, acc -> go (i - 1) acc
      in
      (match run_once domains with
      | Error e -> Error e
      | Ok r0 -> go (reps - 1) (Ok r0))
  in
  let results = List.map (fun d -> (d, run_best d)) [ 1; 2; 4; 8 ] in
  let result_for domains =
    let _, r = List.find (fun (d, _) -> Int.equal d domains) results in
    r
  in
  let base = result_for 1 in
  let all_match = ref true in
  let rows =
    List.map
      (fun (domains, r) ->
        match (r, base) with
        | Ok (h, qp, real, g), Ok (h1, _, _, _) ->
          let m =
            Int64.equal (Int64.bits_of_float h) (Int64.bits_of_float h1)
          in
          if not m then all_match := false;
          Printf.sprintf
            "    {\"domains\":%d,\"qp_s\":%.6f,\"realization_s\":%.6f,\
             \"global_s\":%.6f,\"hpwl\":%.6e,\"hpwl_match\":%b}"
            domains qp real g h m
        | Error e, _ | _, Error e ->
          all_match := false;
          Printf.sprintf "    {\"domains\":%d,\"error\":%S}" domains e)
      results
  in
  let speedup_real, speedup_global =
    match (base, result_for 8) with
    | Ok (_, _, r1, g1), Ok (_, _, r8, g8) ->
      (r1 /. Float.max 1e-12 r8, g1 /. Float.max 1e-12 g8)
    | _ -> (0.0, 0.0)
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
     \"schema\":\"fbp-bench-pr7\",\n\
     \"smoke\":%b,\n\
     \"design\":\"rabe\",\n\
     \"reps\":%d,\n\
     \"hardware_domains\":%d,\n\
     \"scaling\":[\n\
     %s\n\
     ],\n\
     \"speedup_8\":{\"realization\":%.3f,\"global\":%.3f},\n\
     \"pool\":{\"workers_spawned\":%d,\"dispatches\":%d},\n\
     \"hpwl_match\":%b\n\
     }\n"
    smoke reps Fbp_util.Pool.hardware_domains
    (String.concat ",\n" rows)
    speedup_real speedup_global
    (Fbp_util.Pool.n_workers_spawned ())
    (Fbp_util.Pool.n_dispatches () - d0_disp)
    !all_match;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* BENCH_pr8.json: the PR 8 domain-profiler numbers.  The profiler is an
   observer, so the bench measures exactly that claim:

   - "off_time" / "on_time": best-of-reps full placer runs (4 domains, a
     library count and so unclamped: the helpers exist even on a 1-core
     container) with the profiler disarmed vs armed, same config —
     "overhead_pct" is the armed tax and check.sh gates it below 5%;
   - "hpwl_match": bitwise HPWL equality between the two, the
     observer-property check;
   - "disabled_probe_ns": ns per [Profiler.poll] call when not running —
     the cost every instrumented level boundary pays in production;
   - "sum_consistency": per domain, busy + spin + park + stw must equal
     the wall clock within 5% (the occupancy state machine accounts for
     all time or it is lying);
   - "stw_count"/"events": how much the runtime actually reported.

   FBP_BENCH_JSON8 overrides the output path; FBP_BENCH_SMOKE shrinks the
   repetition count. *)
let emit_profile_json () =
  let path =
    match Sys.getenv_opt "FBP_BENCH_JSON8" with
    | Some p -> p
    | None -> "BENCH_pr8.json"
  in
  let smoke = Sys.getenv_opt "FBP_BENCH_SMOKE" <> None in
  let reps = if smoke then 2 else 4 in
  let spec = Option.get (Fbp_workloads.Designs.find_spec "rabe") in
  let inst =
    Fbp_movebound.Instance.unconstrained
      (Fbp_workloads.Designs.instantiate spec)
  in
  let config = { Fbp_core.Config.default with domains = 4 } in
  let place () =
    match Fbp_workloads.Runner.run_fbp ~config inst with
    | Error e -> Error (Fbp_resilience.Fbp_error.to_string e)
    | Ok m ->
      Ok (m.Fbp_workloads.Runner.hpwl, m.Fbp_workloads.Runner.global_time)
  in
  let best_off () =
    let rec go best_t h r =
      if r = 0 then Ok (h, best_t)
      else
        match place () with
        | Error e -> Error e
        | Ok (h', t) -> go (Float.min best_t t) h' (r - 1)
    in
    go infinity nan reps
  in
  let best_on () =
    let rec go acc r =
      if r = 0 then acc
      else begin
        Fbp_obs.Profiler.start ();
        let res = place () in
        let s = Fbp_obs.Profiler.stop () in
        match (res, acc) with
        | Error e, _ -> Error e
        | Ok (h, t), Ok (_, bt, _) when t >= bt -> go (Ok (h, bt, s)) (r - 1)
        | Ok (h, t), _ -> go (Ok (h, t, s)) (r - 1)
      end
    in
    go (Error "unreached") reps
  in
  (* one discarded warmup per mode: the first armed run pays the one-time
     runtime-events ring creation, which is setup, not per-run overhead *)
  ignore (place ());
  let off = best_off () in
  Fbp_obs.Profiler.start ();
  ignore (place ());
  ignore (Fbp_obs.Profiler.stop ());
  let on_ = best_on () in
  (* disabled fast path: a poll at a level boundary when nothing is armed *)
  let disabled_probe_ns =
    let n = 2_000_000 in
    let t0 = Fbp_util.Timer.now () in
    for _ = 1 to n do
      Fbp_obs.Profiler.poll ()
    done;
    1e9 *. (Fbp_util.Timer.now () -. t0) /. float_of_int n
  in
  let body =
    match (off, on_) with
    | Error e, _ | _, Error e -> Printf.sprintf "\"error\":%S" e
    | Ok (h_off, t_off), Ok (h_on, t_on, s) ->
      let module P = Fbp_obs.Profiler in
      let overhead = 100.0 *. ((t_on -. t_off) /. Float.max 1e-12 t_off) in
      let sum_consistency =
        s.P.s_domains <> []
        && List.for_all
             (fun (d : P.domain_summary) ->
               let acc =
                 d.P.d_busy_us +. d.P.d_spin_us +. d.P.d_park_us
                 +. d.P.d_stw_us
               in
               Float.abs (acc -. d.P.d_wall_us) <= 0.05 *. d.P.d_wall_us)
             s.P.s_domains
      in
      let hpwl_match =
        Int64.equal (Int64.bits_of_float h_off) (Int64.bits_of_float h_on)
      in
      Printf.sprintf
        "\"design\":\"rabe\",\n\
         \"reps\":%d,\n\
         \"domains\":4,\n\
         \"off_time\":%.6f,\n\
         \"on_time\":%.6f,\n\
         \"overhead_pct\":%.2f,\n\
         \"disabled_probe_ns\":%.2f,\n\
         \"available\":%b,\n\
         \"events\":%d,\n\
         \"lost\":%d,\n\
         \"stw_count\":%d,\n\
         \"minor_us\":%.1f,\n\
         \"major_us\":%.1f,\n\
         \"sum_consistency\":%b,\n\
         \"hpwl\":%.6e,\n\
         \"hpwl_match\":%b"
        reps t_off t_on overhead disabled_probe_ns s.P.s_available
        s.P.s_events s.P.s_lost s.P.s_stw_count s.P.s_minor_us s.P.s_major_us
        sum_consistency h_off hpwl_match
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n\"schema\":\"fbp-bench-pr8\",\n\"smoke\":%b,\n%s\n}\n"
    smoke body;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* BENCH_trajectory.json: fold the committed per-PR BENCH artifacts into
   one per-PR performance trajectory (1-domain qp / realization / global
   times where each schema provides them).  Machines differ across PRs, so
   the artifact is a trend line, not a benchmark.  Run as
   [bench/main.exe trajectory]; FBP_BENCH_JSONT overrides the output path,
   FBP_BENCH_TRAJ_DIR the directory scanned. *)
let emit_trajectory () =
  let module J = Fbp_obs.Obs.Json in
  let out =
    match Sys.getenv_opt "FBP_BENCH_JSONT" with
    | Some p -> p
    | None -> "BENCH_trajectory.json"
  in
  let dir =
    match Sys.getenv_opt "FBP_BENCH_TRAJ_DIR" with Some d -> d | None -> "."
  in
  let pr_of_file f =
    let pre = "BENCH_pr" and suf = ".json" in
    let np = String.length pre and ns = String.length suf in
    if
      String.length f > np + ns
      && String.sub f 0 np = pre
      && String.sub f (String.length f - ns) ns = suf
    then int_of_string_opt (String.sub f np (String.length f - np - ns))
    else None
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           match pr_of_file f with
           | Some pr -> Some (pr, Filename.concat dir f)
           | None -> None)
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let read_json path =
    let ic = open_in_bin path in
    let doc =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match J.parse doc with Ok j -> Some j | Error _ -> None
  in
  let num k o = match J.member k o with Some (J.Num f) -> Some f | _ -> None in
  (* per-schema extraction: every artifact names its own shape, so the
     folder knows each one rather than guessing *)
  let extract j =
    let from_scaling () =
      match J.member "scaling" j with
      | Some (J.Arr (row :: _)) ->
        Some (num "qp_s" row, num "realization_s" row, num "global_s" row)
      | _ -> None
    in
    let from_designs () =
      match J.member "designs" j with
      | Some (J.Arr (row :: _)) ->
        let qp, real =
          match J.member "phase_times" row with
          | Some pt -> (num "qp" pt, num "realization" pt)
          | None -> (None, None)
        in
        Some (qp, real, num "global_time" row)
      | _ -> None
    in
    let from_sanitizer () =
      match J.member "sanitizer" j with
      | Some s ->
        (match J.member "designs" s with
         | Some (J.Arr (row :: _)) -> Some (None, None, num "off_time" row)
         | _ -> None)
      | None -> None
    in
    let from_profile () =
      match num "off_time" j with
      | Some g -> Some (None, None, Some g)
      | None -> None
    in
    match from_scaling () with
    | Some r -> Some r
    | None ->
      (match from_designs () with
       | Some r -> Some r
       | None ->
         (match from_sanitizer () with
          | Some r -> Some r
          | None -> from_profile ()))
  in
  let entries =
    List.filter_map
      (fun (pr, path) ->
        match read_json path with
        | None ->
          Printf.eprintf "trajectory: skipping unparseable %s\n" path;
          None
        | Some j ->
          (match extract j with
           | None ->
             Printf.eprintf "trajectory: no times in %s\n" path;
             None
           | Some (qp, real, global) -> Some (pr, qp, real, global)))
      files
  in
  let field k = function
    | Some v -> Printf.sprintf ",%S:%.6f" k v
    | None -> ""
  in
  let rows =
    List.map
      (fun (pr, qp, real, global) ->
        Printf.sprintf "    {\"pr\":%d%s%s%s}" pr (field "qp_s" qp)
          (field "realization_s" real)
          (field "global_s" global))
      entries
  in
  let globals =
    List.filter_map (fun (_, _, _, g) -> g) entries
  in
  let speedup =
    match globals with
    | first :: _ :: _ ->
      let last = List.nth globals (List.length globals - 1) in
      Printf.sprintf ",\n\"global_first_over_last\":%.3f"
        (first /. Float.max 1e-12 last)
    | _ -> ""
  in
  let oc = open_out out in
  Printf.fprintf oc
    "{\n\"schema\":\"fbp-bench-trajectory\",\n\"entries\":[\n%s\n]%s\n}\n"
    (String.concat ",\n" rows)
    speedup;
  close_out oc;
  Printf.printf "wrote %s (%d PRs)\n%!" out (List.length entries)

(* ----------------------------------------------------------------- main *)

let () =
  if Array.length Sys.argv > 1 && String.equal Sys.argv.(1) "trajectory"
  then begin
    emit_trajectory ();
    exit 0
  end;
  if Sys.getenv_opt "FBP_BENCH_SMOKE" <> None then begin
    emit_bench_json ();
    emit_sanitizer_json ();
    emit_parallel_json ();
    emit_realization_scaling_json ();
    emit_profile_json ();
    exit 0
  end;
  let t0 = Fbp_util.Timer.now () in
  Printf.printf
    "BonnPlace-FBP reproduction benchmark harness\nscale=%.1f cells/paper-kilocell%s\n"
    (Fbp_workloads.Designs.scale ())
    (if quick () then " (QUICK subset)" else "");
  let quick_names = if quick () then Some Fbp_workloads.Designs.quick_names else None in
  section "TABLE I";
  let t1, _ = Fbp_workloads.Tables.table1 ~design:(if quick () then "rabe" else "erhard") () in
  print_table t1;
  section "TABLE II";
  let t2, _ = Fbp_workloads.Tables.table2 ?names:quick_names () in
  print_table t2;
  section "TABLE III";
  let t3, _ = Fbp_workloads.Tables.table3 () in
  print_table t3;
  section "TABLES IV + VI";
  let scenarios =
    if quick () then
      List.filter
        (fun (s : Fbp_workloads.Mb_gen.scenario) ->
          List.exists (String.equal s.Fbp_workloads.Mb_gen.design) [ "rabe"; "ashraf"; "erhard" ])
        Fbp_workloads.Mb_gen.table3_scenarios
    else Fbp_workloads.Mb_gen.table3_scenarios
  in
  let t4, rows4 = Fbp_workloads.Tables.table4 ~scenarios () in
  print_table t4;
  print_table (Fbp_workloads.Tables.table6 rows4);
  section "TABLE V";
  let designs5 =
    if quick () then [ "rabe"; "ashraf" ] else Fbp_workloads.Mb_gen.table5_designs
  in
  let t5, _ = Fbp_workloads.Tables.table5 ~designs:designs5 () in
  print_table t5;
  section "TABLE VII";
  let specs7 =
    if quick () then
      List.filteri (fun i _ -> i < 2) (Array.to_list Fbp_workloads.Ispd.specs)
    else Array.to_list Fbp_workloads.Ispd.specs
  in
  print_table (Fbp_workloads.Tables.table7 ~specs:specs7 ());
  section "ABLATIONS";
  ablation_table ();
  parallel_table ();
  section "MICRO-BENCHMARKS";
  bechamel_suite ();
  emit_bench_json ();
  emit_sanitizer_json ();
  emit_parallel_json ();
  emit_realization_scaling_json ();
  emit_profile_json ();
  Printf.printf "\ntotal bench wall time: %s\n" (Fbp_util.Duration.pretty (Fbp_util.Timer.now () -. t0))
