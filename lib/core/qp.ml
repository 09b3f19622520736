(* Quadratic placement solves.

   [solve_global] relaxes all movable cells at once (the QP step between
   partitioning rounds); [solve_local] relaxes only a given cell subset with
   everything else fixed — the local connectivity step of the realization
   (Section IV-B, "a local QP (considering all cells outside W as fixed)
   will be computed first to obtain more connectivity information"). *)

open Fbp_netlist

type stats = {
  vars : int;
  cg_iterations : int;
  residual : float;
  converged : bool;  (* both CG solves (x and y) converged *)
}

(* Below this many variables the two axis solves run sequentially: a CG on
   a small system finishes in less time than a cross-domain wakeup costs,
   so [fork2] only adds latency (BENCH_pr5: qp_s *rose* from 1 to 4
   domains on a ~500-cell design).  Results are bit-identical either way —
   the axis solves only read the shared matrix. *)
let qp_seq_vars = 4096

(* The two axis solves of an assembled system, warm-started from [pos]
   (star vars start at 0, pulled in by their regularizer).  Both read the
   one matrix and write their own vector, so they run concurrently on the
   pool when the system is large enough and a worker is free (inside a
   realization lease none is, and they run in turn); each solve defers its
   metrics ([record:false]) and the caller records them after the join in
   fixed x-then-y order, keeping observation streams deterministic
   regardless of interleaving. *)
let solve_axes ~max_iter ~tol (sys : Netmodel.system) (pos : Placement.t) =
  let nv = sys.Netmodel.n_vars in
  let x = Array.make nv 0.0 and y = Array.make nv 0.0 in
  for v = 0 to nv - 1 do
    let c = sys.Netmodel.cells.(v) in
    if c >= 0 then begin
      x.(v) <- pos.Placement.x.(c);
      y.(v) <- pos.Placement.y.(c)
    end
  done;
  let a = sys.Netmodel.a in
  let solve b v () = Fbp_linalg.Cg.solve ~record:false ~max_iter ~tol a b v in
  let sx, sy =
    if nv < qp_seq_vars then
      (solve sys.Netmodel.bx x (), solve sys.Netmodel.by y ())
    else Fbp_util.Pool.fork2 (solve sys.Netmodel.bx x) (solve sys.Netmodel.by y)
  in
  (x, y, sx, sy)

let solve_system (cfg : Config.t) (sys : Netmodel.system) (pos : Placement.t) =
  Fbp_util.Pool.with_domains cfg.Config.domains @@ fun () ->
  let x, y, sx, sy =
    solve_axes ~max_iter:cfg.Config.cg_max_iter
      ~tol:cfg.Config.cg_tol sys pos
  in
  Fbp_linalg.Cg.record_stats sx;
  Fbp_linalg.Cg.record_stats sy;
  for v = 0 to sys.Netmodel.n_vars - 1 do
    let c = sys.Netmodel.cells.(v) in
    if c >= 0 then begin
      pos.Placement.x.(c) <- x.(v);
      pos.Placement.y.(c) <- y.(v)
    end
  done;
  {
    vars = sys.Netmodel.n_vars;
    cg_iterations = sx.Fbp_linalg.Cg.iterations + sy.Fbp_linalg.Cg.iterations;
    residual = Float.max sx.Fbp_linalg.Cg.residual sy.Fbp_linalg.Cg.residual;
    converged = sx.Fbp_linalg.Cg.converged && sy.Fbp_linalg.Cg.converged;
  }

let all_movable (nl : Netlist.t) =
  let out = ref [] in
  for c = Netlist.n_cells nl - 1 downto 0 do
    if not nl.Netlist.fixed.(c) then out := c :: !out
  done;
  Array.of_list !out

(* Global QP over every movable cell. *)
let solve_global (cfg : Config.t) (nl : Netlist.t) (pos : Placement.t) ?cache
    ~anchor () =
  Fbp_obs.Obs.span "qp.global"
    ~args:(fun () -> [ ("cells", string_of_int (Netlist.n_cells nl)) ])
    (fun () ->
      let movable = all_movable nl in
      let sys =
        Netmodel.assemble nl pos ?cache ~movable
          ~clique_max_degree:cfg.Config.clique_max_degree ~anchor ()
      in
      solve_system cfg sys pos)

(* Local-QP workspace: the net-model assembly buffers plus the net-dedup
   scratch, a stamp array over net ids (stamp.(ni) = current epoch means
   "already collected") and a growable id buffer.  The dedup replaces the
   seed's per-call [Hashtbl]: no hashing, no rehash allocations, and
   collection order is deterministic by construction (cells in order,
   each cell's net list in order). *)
type workspace = {
  asm : Netmodel.workspace;
  mutable stamp : int array;
  mutable buf : int array;
  mutable epoch : int;
}

let create_workspace () =
  {
    asm = Netmodel.create_workspace ();
    stamp = [||];
    buf = Array.make 64 0;
    epoch = 0;
  }

let dedup_nets ws ~n_nets ~(cell_nets : int list array) ~(cells : int array) =
  if Array.length ws.stamp < n_nets then begin
    ws.stamp <- Array.make n_nets 0;
    ws.epoch <- 0
  end;
  ws.epoch <- ws.epoch + 1;
  let epoch = ws.epoch and stamp = ws.stamp in
  let count = ref 0 in
  let push ni =
    if Array.unsafe_get stamp ni <> epoch then begin
      Array.unsafe_set stamp ni epoch;
      if !count = Array.length ws.buf then begin
        let buf' = Array.make (2 * !count) 0 in
        Array.blit ws.buf 0 buf' 0 !count;
        ws.buf <- buf'
      end;
      ws.buf.(!count) <- ni;
      incr count
    end
  in
  Array.iter (fun c -> List.iter push cell_nets.(c)) cells;
  let nets = Array.sub ws.buf 0 !count in
  Array.sort Int.compare nets;  (* determinism: fixed assembly order *)
  nets

(* Local QP over [cells] only, everything else fixed; [cell_nets] is the
   cached incidence map.  Only nets touching a movable cell are assembled.
   The solved positions of cells.(i) land in qx.(i)/qy.(i) — [pos] is only
   read — and the CG stats come back unrecorded, so concurrent callers
   (realization nodes) can record them in a fixed order. *)
let solve_local ws (cfg : Config.t) (nl : Netlist.t) (pos : Placement.t)
    ~max_iter ~tol ~(cell_nets : int list array) ~(cells : int array) ~anchor
    ~qx ~qy =
  let n = Array.length cells in
  if n = 0 then
    let none = { Fbp_linalg.Cg.iterations = 0; residual = 0.0; converged = true } in
    (none, none)
  else begin
    let nets = dedup_nets ws ~n_nets:(Netlist.n_nets nl) ~cell_nets ~cells in
    let sys =
      Netmodel.assemble nl pos ~workspace:ws.asm ~movable:cells ~nets
        ~clique_max_degree:cfg.Config.clique_max_degree ~anchor ()
    in
    let x, y, sx, sy = solve_axes ~max_iter ~tol sys pos in
    Array.blit x 0 qx 0 n;
    Array.blit y 0 qy 0 n;
    (sx, sy)
  end
