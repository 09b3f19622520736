(* Minimum-cost flow by the primal network simplex.

   This is the solver behind the global FBP model of Section IV-A, and the
   one the paper uses.  It works on the forward arcs of the graph plus one
   artificial root node:

   - every deficit node t gets a sink arc t -> root with capacity d(t) and
     cost 0.  Demands are upper bounds, so unused demand is simply sink
     capacity left over; the root absorbs the total supply.  (Injecting the
     slack root -> t instead would let a deficit node forward it over
     zero-cost arcs as if it were supply.)
   - every supply node u gets an artificial arc u -> root with capacity
     supply(u) and big-M cost: whatever is left on it at the optimum is
     unroutable.  The capacity keeps one supply node from dumping its flow
     at another.
   - every non-deficit node gets a start arc u -> root at cost 2M with
     capacity above the total supply.  These form the initial spanning
     tree together with the sink arcs; it is strongly feasible (each node
     can send flow to the root along its tree path), and the leaving-arc
     rule keeps it so, which rules out cycling.  At the optimum no flow
     stays on a start arc: moving it to the supply node's own artificial
     arc is cheaper by at least M.

   M exceeds the cost of any simple path, so the optimum routes as much
   supply as possible and then minimises the cost of routing it.  Entering
   arcs are chosen by block search (blocks of about sqrt(arcs) arcs, the
   most negative reduced cost in the first block that has one); the leaving
   arc is the last blocking arc met when walking the cycle from its apex,
   as in LEMON.  The tree is kept as parent / pred-arc / direction / depth
   arrays plus child lists, and potentials are recomputed top-down over the
   re-hung subtree after each pivot.

   Input arc costs must be non-negative (true for the FBP model: L1
   distances and zero-cost external arcs). *)

let eps = 1e-7

type result =
  | Feasible of { cost : float }
  | Infeasible of { unrouted : float }
      (** Total supply that cannot reach any deficit node.  By Theorem 3 this
          certifies that no (fractional) placement with movebounds exists. *)

type stats = { rounds : int; potentials : float array }

(* Orientation of a tree node's pred arc: [up] runs child -> parent. *)
let up = 1

(* Arc states.  A non-tree arc's state is the sign of the flow change when
   it enters (LEMON's encoding), so [state * reduced cost < 0] marks an
   improving arc. *)
let lower = 1
let upper = -1
let tree = 0

let solve_real g ~supply =
  let n = Graph.n_nodes g in
  if Array.length supply <> n then invalid_arg "Mcf.solve: supply length";
  let max_c = ref 0.0 in
  Graph.iter_edges g (fun a ->
      let c = Graph.cost g a in
      if c < 0.0 then invalid_arg "Mcf.solve: negative arc cost";
      if c > !max_c then max_c := c);
  let max_c = !max_c in
  let m_real = Graph.n_arcs g / 2 in
  let n_supply = Array.fold_left (fun k b -> if b > 0.0 then k + 1 else k) 0 supply in
  let total_supply = Array.fold_left (fun s b -> if b > 0.0 then s +. b else s) 0.0 supply in
  let m = m_real + n + n_supply in
  let root = n in
  let big_m = (max_c +. 1.0) *. float_of_int (n + 1) in
  let src = Array.make m 0 and dst = Array.make m root in
  let cap = Array.make m 0.0 and cost = Array.make m 0.0 in
  let flow = Array.make m 0.0 and state = Array.make m lower in
  for i = 0 to m_real - 1 do
    let a = 2 * i in
    src.(i) <- Graph.src g a;
    dst.(i) <- Graph.dst g a;
    cap.(i) <- Graph.original_capacity g a;
    cost.(i) <- Graph.cost g a
  done;
  (* spanning tree, rooted at [root] *)
  let parent = Array.make (n + 1) (-1) and pred = Array.make (n + 1) (-1) in
  let dir = Array.make (n + 1) up and depth = Array.make (n + 1) 0 in
  let pi = Array.make (n + 1) 0.0 in
  let first_child = Array.make (n + 1) (-1) in
  let next_sib = Array.make (n + 1) (-1) and prev_sib = Array.make (n + 1) (-1) in
  let add_child p x =
    let f = first_child.(p) in
    next_sib.(x) <- f;
    prev_sib.(x) <- -1;
    if f >= 0 then prev_sib.(f) <- x;
    first_child.(p) <- x
  in
  let remove_child p x =
    let pv = prev_sib.(x) and nx = next_sib.(x) in
    if pv >= 0 then next_sib.(pv) <- nx else first_child.(p) <- nx;
    if nx >= 0 then prev_sib.(nx) <- pv
  in
  let next_arc = ref m_real in
  let add_root_arc u ~cap:k ~cost:c =
    let a = !next_arc in
    src.(a) <- u;
    cap.(a) <- k;
    cost.(a) <- c;
    incr next_arc;
    a
  in
  for u = n - 1 downto 0 do
    let b = supply.(u) in
    let t =
      if b < 0.0 then add_root_arc u ~cap:(-.b) ~cost:0.0
      else begin
        let t = add_root_arc u ~cap:(total_supply +. 1.0) ~cost:(2.0 *. big_m) in
        flow.(t) <- b;
        if b > 0.0 then ignore (add_root_arc u ~cap:b ~cost:big_m);
        t
      end
    in
    state.(t) <- tree;
    parent.(u) <- root;
    pred.(u) <- t;
    depth.(u) <- 1;
    pi.(u) <- -.cost.(t);
    add_child root u
  done;
  let block = max 10 (int_of_float (Float.sqrt (float_of_int m))) in
  let tol = 1e-9 *. (1.0 +. max_c) in
  let search_from = ref 0 in
  (* Block search: scan blocks of [block] arcs round-robin from where the
     last search stopped; return the most negative arc of the first block
     holding one, or -1 when no arc improves. *)
  let find_entering () =
    let best = ref (-1) and best_c = ref (-.tol) in
    let e = ref !search_from and cnt = ref block and scanned = ref 0 in
    while !scanned < m && not (!cnt = 0 && !best >= 0) do
      if !cnt = 0 then cnt := block;
      let a = !e in
      let st = state.(a) in
      if st <> tree then begin
        let c = float_of_int st *. (cost.(a) +. pi.(src.(a)) -. pi.(dst.(a))) in
        if c < !best_c then begin
          best_c := c;
          best := a
        end
      end;
      e := if a + 1 = m then 0 else a + 1;
      decr cnt;
      incr scanned
    done;
    search_from := !e;
    !best
  in
  let stack = Array.make (n + 1) 0 in
  (* Re-derive depth and potential of every node in the subtree of [top]
     from its parent, top-down. *)
  let update_subtree top =
    stack.(0) <- top;
    let sp = ref 1 in
    while !sp > 0 do
      decr sp;
      let x = stack.(!sp) in
      let p = parent.(x) and e = pred.(x) in
      depth.(x) <- depth.(p) + 1;
      pi.(x) <- (if dir.(x) = up then pi.(p) -. cost.(e) else pi.(p) +. cost.(e));
      let c = ref first_child.(x) in
      while !c >= 0 do
        stack.(!sp) <- !c;
        incr sp;
        c := next_sib.(!c)
      done
    done
  in
  let pivots = ref 0 in
  let entering = ref (find_entering ()) in
  while !entering >= 0 do
    incr pivots;
    let a_in = !entering in
    let st = state.(a_in) in
    (* the cycle pushes flow first -> second over [a_in], then up the tree
       from [second] to the apex [join] and down from it to [first] *)
    let first, second = if st = lower then (src.(a_in), dst.(a_in)) else (dst.(a_in), src.(a_in)) in
    let join =
      let u = ref first and v = ref second in
      while !u <> !v do
        if depth.(!u) > depth.(!v) then u := parent.(!u)
        else if depth.(!v) > depth.(!u) then v := parent.(!v)
        else begin
          u := parent.(!u);
          v := parent.(!v)
        end
      done;
      !u
    in
    (* leaving arc: the last blocking arc on the cycle walked from the apex
       ([<] on the first path, [<=] on the second keeps the tree strongly
       feasible); [u_out] is the child end of the leaving tree arc *)
    let delta = ref cap.(a_in) and u_out = ref (-1) and out_full = ref false in
    let x = ref first in
    while !x <> join do
      let e = pred.(!x) in
      let grows = dir.(!x) <> up in
      let d = Float.max 0.0 (if grows then cap.(e) -. flow.(e) else flow.(e)) in
      if d < !delta then begin
        delta := d;
        u_out := !x;
        out_full := grows
      end;
      x := parent.(!x)
    done;
    let on_second = ref false in
    x := second;
    while !x <> join do
      let e = pred.(!x) in
      let grows = dir.(!x) = up in
      let d = Float.max 0.0 (if grows then cap.(e) -. flow.(e) else flow.(e)) in
      if d <= !delta then begin
        delta := d;
        u_out := !x;
        out_full := grows;
        on_second := true
      end;
      x := parent.(!x)
    done;
    let delta = !delta in
    if delta > 0.0 then begin
      let v = float_of_int st *. delta in
      flow.(a_in) <- flow.(a_in) +. v;
      let x = ref src.(a_in) in
      while !x <> join do
        let e = pred.(!x) in
        flow.(e) <- flow.(e) -. (float_of_int dir.(!x) *. v);
        x := parent.(!x)
      done;
      x := dst.(a_in);
      while !x <> join do
        let e = pred.(!x) in
        flow.(e) <- flow.(e) +. (float_of_int dir.(!x) *. v);
        x := parent.(!x)
      done
    end;
    if !u_out < 0 then begin
      (* the entering arc blocks itself: it only moves to its other bound *)
      state.(a_in) <- -st;
      flow.(a_in) <- (if st = lower then cap.(a_in) else 0.0)
    end
    else begin
      let u_out = !u_out in
      let e_out = pred.(u_out) in
      flow.(e_out) <- (if !out_full then cap.(e_out) else 0.0);
      state.(e_out) <- (if !out_full then upper else lower);
      state.(a_in) <- tree;
      (* re-hang the subtree cut off at [u_out] below the other end of
         [a_in], reversing the tree path from [u_in] up to [u_out] *)
      let u_in, v_in = if !on_second then (second, first) else (first, second) in
      let new_parent = ref v_in and new_pred = ref a_in in
      let new_dir = ref (if src.(a_in) = u_in then up else -up) in
      let x = ref u_in and fin = ref false in
      while not !fin do
        let x0 = !x in
        let p = parent.(x0) and e = pred.(x0) and d = dir.(x0) in
        remove_child p x0;
        parent.(x0) <- !new_parent;
        pred.(x0) <- !new_pred;
        dir.(x0) <- !new_dir;
        add_child !new_parent x0;
        if x0 = u_out then fin := true
        else begin
          new_parent := x0;
          new_pred := e;
          new_dir := -d;
          x := p
        end
      done;
      update_subtree u_in
    end;
    entering := find_entering ()
  done;
  (* write the flow back onto the graph *)
  Graph.reset_flow g;
  let total_cost = ref 0.0 in
  for i = 0 to m_real - 1 do
    let f = Float.min cap.(i) (Float.max 0.0 flow.(i)) in
    if f > 0.0 then begin
      Graph.push g (2 * i) f;
      total_cost := !total_cost +. (f *. cost.(i))
    end
  done;
  (* supply left on artificial arcs (start arcs included) is unroutable *)
  let unrouted = ref 0.0 in
  for a = m_real to m - 1 do
    if cost.(a) > 0.0 then unrouted := !unrouted +. flow.(a)
  done;
  Fbp_obs.Obs.count "mcf.solves";
  Fbp_obs.Obs.observe "mcf.pivots" (float_of_int !pivots);
  let verdict =
    if !unrouted > eps then Infeasible { unrouted = !unrouted }
    else Feasible { cost = !total_cost }
  in
  (verdict, { rounds = !pivots; potentials = Array.sub pi 0 n })

let solve_real g ~supply =
  Fbp_obs.Obs.span "mcf.solve" (fun () -> solve_real g ~supply)

(* Checked invariants of a computed flow (sanitizer mode; also exposed for
   tests).  Per forward arc: 0 <= flow <= original capacity.  Per node:
   conservation against the supply vector — supply nodes route out at most
   their supply (exactly, when the solver reported [Feasible]), deficit
   nodes absorb at most their demand, transshipment nodes balance to zero.
   Tolerances scale with the magnitudes involved. *)
let check_flow g ~supply ~exact =
  let n = Graph.n_nodes g in
  let tol v = 1e-6 *. Float.max 1.0 (Float.abs v) in
  let net = Array.make n 0.0 in
  let bad = ref None in
  let report msg = if Option.is_none !bad then bad := Some msg in
  Graph.iter_edges g (fun a ->
      let f = Graph.flow g a and c0 = Graph.original_capacity g a in
      if f < -.(tol c0) then
        report
          (Printf.sprintf "arc %d (%d->%d): negative flow %.9g" a
             (Graph.src g a) (Graph.dst g a) f)
      else if f > c0 +. tol c0 then
        report
          (Printf.sprintf "arc %d (%d->%d): flow %.9g exceeds capacity %.9g"
             a (Graph.src g a) (Graph.dst g a) f c0);
      net.(Graph.src g a) <- net.(Graph.src g a) +. f;
      net.(Graph.dst g a) <- net.(Graph.dst g a) -. f);
  for v = 0 to n - 1 do
    let b = supply.(v) and o = net.(v) in
    let t = tol b in
    if b > t then begin
      (* supply node: 0 <= net out <= supply, = supply when fully routed *)
      if o < -.t || o > b +. t then
        report
          (Printf.sprintf "supply node %d: net outflow %.9g outside [0, %.9g]"
             v o b)
      else if exact && Float.abs (o -. b) > t then
        report
          (Printf.sprintf
             "supply node %d: net outflow %.9g <> routed supply %.9g" v o b)
    end
    else if b < -.t then begin
      (* deficit node: absorbs at most its demand *)
      if o > t || o < b -. t then
        report
          (Printf.sprintf "deficit node %d: net outflow %.9g outside [%.9g, 0]"
             v o b)
    end
    else if Float.abs o > tol o then
      report
        (Printf.sprintf "transshipment node %d: net outflow %.9g <> 0" v o)
  done;
  match !bad with None -> Ok () | Some msg -> Error msg

(* Optimality certificate (complementary slackness) in O(V + E): with the
   reduced cost rc(u, v) = cost + pi(u) - pi(v) and the root's potential
   0, every residual arc has rc >= -tol and every arc carrying flow has
   rc <= tol.  Besides the graph's arcs this covers each deficit node's
   sink arc t -> root (cost 0): residual while t absorbs less than its
   demand, carrying flow while it absorbs anything. *)
let check_potentials g ~supply ~potentials =
  let n = Graph.n_nodes g in
  if Array.length potentials <> n then Error "potentials length <> node count"
  else begin
    let max_c = ref 0.0 in
    Graph.iter_edges g (fun a -> max_c := Float.max !max_c (Float.abs (Graph.cost g a)));
    let tol = 1e-6 *. (1.0 +. !max_c) in
    let absorbed = Array.make n 0.0 in
    let bad = ref None in
    let report msg = if Option.is_none !bad then bad := Some msg in
    Graph.iter_edges g (fun a ->
        let u = Graph.src g a and v = Graph.dst g a in
        let rc = Graph.cost g a +. potentials.(u) -. potentials.(v) in
        absorbed.(v) <- absorbed.(v) +. Graph.flow g a;
        absorbed.(u) <- absorbed.(u) -. Graph.flow g a;
        if Graph.capacity g a > eps && rc < -.tol then
          report (Printf.sprintf "residual arc %d (%d->%d): reduced cost %.9g" a u v rc)
        else if Graph.flow g a > eps && rc > tol then
          report (Printf.sprintf "flow arc %d (%d->%d): reduced cost %.9g" a u v rc));
    for t = 0 to n - 1 do
      let d = -.supply.(t) in
      if d > 0.0 then begin
        let rc = potentials.(t) in
        if absorbed.(t) < d -. eps && rc < -.tol then
          report (Printf.sprintf "sink arc of node %d: reduced cost %.9g with demand left" t rc)
        else if absorbed.(t) > eps && rc > tol then
          report (Printf.sprintf "sink arc of node %d: reduced cost %.9g while absorbing" t rc)
      end
    done;
    match !bad with None -> Ok () | Some msg -> Error msg
  end

(* Deterministically damage the computed flow: push extra units over the
   first arc with residual room (or force the first arc over capacity).
   Models a solver bug for the sanitizer tests. *)
let corrupt_flow g =
  let n = Graph.n_arcs g in
  let victim = ref (-1) in
  Graph.iter_edges g (fun a ->
      if !victim < 0 && Graph.capacity g a > 1e-3 then victim := a);
  if !victim >= 0 then Graph.push g !victim (0.5 *. Graph.capacity g !victim)
  else if n > 0 then Graph.push g 0 1.0

(* Fault-injection shim: tests can force an infeasibility verdict, a domain
   exception, or a post-solve flow corruption (caught by the sanitizer)
   here to exercise the placer's degradation ladder. *)
let solve_stats g ~supply =
  match Fbp_resilience.Inject.fire Fbp_resilience.Inject.Mcf with
  | Some (Fbp_resilience.Inject.Infeasible unrouted) ->
    (Infeasible { unrouted }, { rounds = 0; potentials = [||] })
  | Some (Fbp_resilience.Inject.Raise msg) ->
    raise (Fbp_resilience.Inject.Injected msg)
  | fired ->
    let ((verdict, stats) as out) = solve_real g ~supply in
    (match fired with
    | Some Fbp_resilience.Inject.Corrupt -> corrupt_flow g
    | _ -> ());
    let exact = match verdict with Feasible _ -> true | Infeasible _ -> false in
    Fbp_resilience.Sanitize.check ~site:"mcf.solve"
      ~invariant:"flow conservation and capacity bounds" (fun () ->
        check_flow g ~supply ~exact);
    Fbp_resilience.Sanitize.check ~site:"mcf.solve"
      ~invariant:"reduced-cost optimality" (fun () ->
        check_potentials g ~supply ~potentials:stats.potentials);
    out

let solve g ~supply = fst (solve_stats g ~supply)

(* Optimality audit used by property tests: a flow is min-cost iff the
   residual network contains no arc with negative reduced cost under some
   potential; we verify with Bellman-Ford that the residual network has no
   negative cycle. Returns [true] when optimal. *)
let check_optimal g =
  let n = Graph.n_nodes g in
  let dist = Array.make n 0.0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    for u = 0 to n - 1 do
      Graph.iter_out g u (fun a ->
          if Graph.capacity g a > eps then begin
            let v = Graph.dst g a in
            if dist.(u) +. Graph.cost g a < dist.(v) -. 1e-6 then begin
              dist.(v) <- dist.(u) +. Graph.cost g a;
              changed := true
            end
          end)
    done
  done;
  not !changed
