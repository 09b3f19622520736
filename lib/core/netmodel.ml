(* Quadratic net models: turn nets into springs and assemble the SPD system
   that quadratic placement minimizes.

   Small nets use the clique model with weight 2w/p per pin pair; larger
   nets a star with an auxiliary center variable (keeps the system sparse).
   Pin offsets enter the right-hand side, fixed pins and cells outside the
   movable set contribute constants — which is exactly what the realization
   needs for its local QP "with fixed cells outside W" (Section IV-B).

   A spring's stiffness does not depend on the axis, and anchors must pull
   with one weight on both, so the x and y problems share one matrix and
   differ only in their right-hand sides: each triplet is pushed once, and
   both right-hand sides accumulate in the same pass. *)

open Fbp_netlist

type system = {
  n_vars : int;  (* movable-cell vars first, then star vars *)
  cells : int array;  (* var -> cell id, -1 for star vars *)
  a : Fbp_linalg.Csr.t;  (* shared by both axes *)
  bx : float array;
  by : float array;
}

(* Symbolic-structure cache: across QP rounds of the same placement run the
   net topology and movable set are fixed, so the triplet (row, col) stream
   repeats exactly.  We capture it once and re-assemble later
   rounds as a flat value sweep.  Safety does not depend on the caller
   guessing right: [Csr.refreeze] verifies the full stream every time and
   we fall back to a fresh capture on any mismatch (anchors appearing or
   vanishing, a different net subset, a changed movable set...). *)
type cache = { mutable structure : Fbp_linalg.Csr.structure option }

let create_cache () = { structure = None }

let freeze_cached ~scratch c bld =
  match
    match c.structure with
    | Some s -> Fbp_linalg.Csr.refreeze s bld
    | None -> None
  with
  | Some t ->
    Fbp_obs.Obs.count "netmodel.refreeze_hits";
    t
  | None ->
    let t, s = Fbp_linalg.Csr.freeze_capture ~scratch bld in
    c.structure <- Some s;
    Fbp_obs.Obs.count "netmodel.refreeze_misses";
    t

(* Assembly workspace: everything [assemble] needs besides its result.
   [var_of_cell] is design-sized and reads -1 for every cell between
   calls (entries are set for the movable cells and cleared again on the
   way out, also when an [anchor] raises), the builder is reset rather
   than reallocated, and the per-net endpoint arrays hold the current
   net's pins plus one slot for a star centre.  Without a workspace
   [assemble] makes a fresh one, sized exactly. *)
type workspace = {
  mutable var_of_cell : int array;
  bld : Fbp_linalg.Csr.builder;
  freeze : Fbp_linalg.Csr.scratch;
  mutable star_var : int array;  (* per entry of the net list *)
  mutable ep_var : int array;  (* endpoint var, -1 = fixed *)
  mutable ep_off_x : float array;  (* pin offset of a movable endpoint *)
  mutable ep_abs_x : float array;  (* absolute coordinate of a fixed one *)
  mutable ep_off_y : float array;
  mutable ep_abs_y : float array;
}

let make_workspace ~capacity =
  {
    var_of_cell = [||];
    bld = Fbp_linalg.Csr.builder ~capacity 0;
    freeze = Fbp_linalg.Csr.create_scratch ();
    star_var = [||];
    ep_var = [||];
    ep_off_x = [||];
    ep_abs_x = [||];
    ep_off_y = [||];
    ep_abs_y = [||];
  }

let create_workspace () = make_workspace ~capacity:64

(* A global assembly with a cache hit pre-sizes its builder from the
   captured triplet count, so the round's stream never regrows. *)
let fresh_workspace cache =
  match cache with
  | Some { structure = Some s } ->
    make_workspace ~capacity:(Fbp_linalg.Csr.structure_count s)
  | _ -> create_workspace ()

let ensure_endpoints ws p =
  if Array.length ws.ep_var < p + 1 then begin
    let cap = max (p + 1) (2 * Array.length ws.ep_var) in
    ws.ep_var <- Array.make cap (-1);
    ws.ep_off_x <- Array.make cap 0.0;
    ws.ep_abs_x <- Array.make cap 0.0;
    ws.ep_off_y <- Array.make cap 0.0;
    ws.ep_abs_y <- Array.make cap 0.0
  end

(* A spring of stiffness [w] from the movable endpoint [moving] (variable
   [v]) to the fixed endpoint [fixed]: a diagonal term, and the fixed
   pin's pull on both right-hand sides. *)
let pin_spring ws bx by w v ~fixed ~moving =
  Fbp_linalg.Csr.add_diag ws.bld v w;
  bx.(v) <-
    bx.(v)
    +. (w *. (Array.unsafe_get ws.ep_abs_x fixed -. Array.unsafe_get ws.ep_off_x moving));
  by.(v) <-
    by.(v)
    +. (w *. (Array.unsafe_get ws.ep_abs_y fixed -. Array.unsafe_get ws.ep_off_y moving))

(* One spring of stiffness [w] between endpoints [a] and [b] of the
   current net: one matrix triplet group, and its terms on both right-hand
   sides.  A movable endpoint is (var, offset); a fixed one has var = -1
   and sits at the absolute coordinate [abs] (only the field matching an
   endpoint's kind is written or read).  Endpoints live in flat arrays and
   [w] arrives as a parameter, so a spring allocates nothing (the compiler
   has no flambda to unbox tuples or floats).  Each right-hand side sees
   its terms in the same order as an assembly of that axis alone. *)
let spring ws bx by w a b =
  let var = ws.ep_var in
  let va = Array.unsafe_get var a and vb = Array.unsafe_get var b in
  if va >= 0 && vb >= 0 then begin
    if va <> vb then begin
      let offx = ws.ep_off_x and offy = ws.ep_off_y in
      let dax = Array.unsafe_get offx a and dbx = Array.unsafe_get offx b in
      let day = Array.unsafe_get offy a and dby = Array.unsafe_get offy b in
      Fbp_linalg.Csr.add_spring ws.bld va vb w;
      bx.(va) <- bx.(va) +. (w *. (dbx -. dax));
      bx.(vb) <- bx.(vb) +. (w *. (dax -. dbx));
      by.(va) <- by.(va) +. (w *. (dby -. day));
      by.(vb) <- by.(vb) +. (w *. (day -. dby))
    end
  end
  else if va >= 0 then pin_spring ws bx by w va ~fixed:b ~moving:a
  else if vb >= 0 then pin_spring ws bx by w vb ~fixed:a ~moving:b

(* All springs of one [p]-pin net: a clique over the pins, or with [star]
   one spring from each pin to the centre endpoint [p]. *)
let net_springs ws bx by w ~star p =
  if star then
    for i = 0 to p - 1 do
      spring ws bx by w i p
    done
  else
    for i = 0 to p - 1 do
      for j = i + 1 to p - 1 do
        spring ws bx by w i j
      done
    done

(* The system, with [ws.var_of_cell] already set for [movable]; [nets]
   absent means every net of the design. *)
let assemble_into ws (nl : Netlist.t) (pos : Placement.t) ~cache
    ~(movable : int array) ~(nets : int array option) ~(clique_max_degree : int)
    ~(anchor : int -> (float * float * float * float) option) =
  let var_of_cell = ws.var_of_cell in
  let n_cell_vars = Array.length movable in
  let net_ids =
    match nets with
    | Some nets -> nets
    | None -> Array.init (Netlist.n_nets nl) (fun i -> i)
  in
  let n_net_ids = Array.length net_ids in
  (* star variables: one per sufficiently wide net with >= 1 movable pin *)
  if Array.length ws.star_var < n_net_ids then
    ws.star_var <- Array.make n_net_ids (-1);
  let star_var = ws.star_var in
  Array.fill star_var 0 n_net_ids (-1);
  let n_vars = ref n_cell_vars in
  Array.iteri
    (fun k ni ->
      let net = nl.Netlist.nets.(ni) in
      let p = Array.length net.Netlist.pins in
      if p > clique_max_degree then begin
        let has_movable =
          Array.exists
            (fun (pin : Netlist.pin) -> pin.Netlist.cell >= 0 && var_of_cell.(pin.Netlist.cell) >= 0)
            net.Netlist.pins
        in
        if has_movable then begin
          star_var.(k) <- !n_vars;
          incr n_vars
        end
      end)
    net_ids;
  let nv = !n_vars in
  let bld = ws.bld in
  Fbp_linalg.Csr.reset ~dim:nv bld;
  let bx = Array.make nv 0.0 and by = Array.make nv 0.0 in
  Array.iteri
    (fun k ni ->
      let net = nl.Netlist.nets.(ni) in
      let pins = net.Netlist.pins in
      let p = Array.length pins in
      if p >= 2 then begin
        ensure_endpoints ws p;
        let var = ws.ep_var in
        for i = 0 to p - 1 do
          let pin = pins.(i) in
          let c = pin.Netlist.cell in
          let v = if c < 0 then -1 else var_of_cell.(c) in
          var.(i) <- v;
          if v >= 0 then begin
            ws.ep_off_x.(i) <- pin.Netlist.dx;
            ws.ep_off_y.(i) <- pin.Netlist.dy
          end
          else if c < 0 then begin
            ws.ep_abs_x.(i) <- pin.Netlist.dx;
            ws.ep_abs_y.(i) <- pin.Netlist.dy
          end
          else begin
            ws.ep_abs_x.(i) <- pos.Placement.x.(c) +. pin.Netlist.dx;
            ws.ep_abs_y.(i) <- pos.Placement.y.(c) +. pin.Netlist.dy
          end
        done;
        let w_pair = 2.0 *. net.Netlist.weight /. float_of_int p in
        if star_var.(k) < 0 then
          (* clique (also used for wide all-fixed nets, which cost nothing) *)
          net_springs ws bx by w_pair ~star:false p
        else begin
          var.(p) <- star_var.(k);
          ws.ep_off_x.(p) <- 0.0;
          ws.ep_off_y.(p) <- 0.0;
          let w_star = w_pair *. float_of_int p /. float_of_int (p - 1) in
          net_springs ws bx by w_star ~star:true p
        end
      end)
    net_ids;
  (* anchors and regularization *)
  Array.iteri
    (fun v c ->
      (match anchor c with
       | Some (wx, tx, wy, ty) ->
         if not (Float.equal wx wy) then
           invalid_arg "Netmodel.assemble: anchor weights differ between axes";
         Fbp_linalg.Csr.add_diag bld v wx;
         bx.(v) <- bx.(v) +. (wx *. tx);
         by.(v) <- by.(v) +. (wy *. ty)
       | None -> ());
      (* tiny regularizer keeps isolated cells solvable, pinned where they are *)
      let reg = 1e-9 in
      Fbp_linalg.Csr.add_diag bld v reg;
      bx.(v) <- bx.(v) +. (reg *. pos.Placement.x.(c));
      by.(v) <- by.(v) +. (reg *. pos.Placement.y.(c)))
    movable;
  (* star vars regularization (in case every pin of the net is fixed-0) *)
  for v = n_cell_vars to nv - 1 do
    Fbp_linalg.Csr.add_diag bld v 1e-9
  done;
  let cells = Array.make nv (-1) in
  Array.blit movable 0 cells 0 n_cell_vars;
  let scratch = ws.freeze in
  let a =
    match cache with
    | None -> Fbp_linalg.Csr.freeze ~scratch bld
    | Some c -> freeze_cached ~scratch c bld
  in
  { n_vars = nv; cells; a; bx; by }

(* [assemble nl pos ~movable ?nets ~clique_max_degree ~anchor] builds the
   system of both axes.  [anchor cell] returns optional (wx, tx, wy, ty)
   pulling the cell toward (tx, ty); wx and wy must be equal. *)
let assemble (nl : Netlist.t) (pos : Placement.t) ?cache ?workspace
    ~(movable : int array) ?nets ~(clique_max_degree : int)
    ~(anchor : int -> (float * float * float * float) option) () =
  let ws =
    match workspace with Some ws -> ws | None -> fresh_workspace cache
  in
  let n = Netlist.n_cells nl in
  if Array.length ws.var_of_cell < n then ws.var_of_cell <- Array.make n (-1);
  let var_of_cell = ws.var_of_cell in
  Array.iter
    (fun c ->
      if c < 0 || c >= n then
        invalid_arg "Netmodel.assemble: movable cell out of range")
    movable;
  Array.iteri (fun v c -> var_of_cell.(c) <- v) movable;
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> var_of_cell.(c) <- -1) movable)
    (fun () ->
      assemble_into ws nl pos ~cache ~movable ~nets ~clique_max_degree ~anchor)
