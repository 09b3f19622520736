(* Tests for fbp_flow: Dinic max-flow against brute-force min cuts,
   min-cost-flow optimality audits, and the transportation solver against
   the exact MCF reference. *)

open Fbp_flow

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Graph ---------- *)

let test_graph_arcs () =
  let g = Graph.create 3 in
  let a = Graph.add_edge g ~u:0 ~v:1 ~cap:5.0 ~cost:2.0 in
  let b = Graph.add_edge g ~u:1 ~v:2 ~cap:3.0 ~cost:1.0 in
  Alcotest.(check int) "ids even" 0 (a mod 2);
  Alcotest.(check int) "rev pairing" (a + 1) (Graph.rev a);
  Alcotest.(check int) "second arc id" 2 b;
  Alcotest.(check int) "dst" 1 (Graph.dst g a);
  Alcotest.(check int) "src" 0 (Graph.src g a);
  check_float "cost negated on twin" (-2.0) (Graph.cost g (Graph.rev a));
  Graph.push g a 2.0;
  check_float "flow recorded" 2.0 (Graph.flow g a);
  check_float "residual opened" 2.0 (Graph.capacity g (Graph.rev a));
  Graph.reset_flow g;
  check_float "reset" 0.0 (Graph.flow g a)

let test_graph_iter_out () =
  let g = Graph.create 2 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:1.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:2.0 ~cost:0.0);
  let count = ref 0 in
  Graph.iter_out g 0 (fun _ -> incr count);
  (* two forward arcs leave node 0; twins leave node 1 *)
  Alcotest.(check int) "out-degree" 2 !count

(* ---------- Maxflow ---------- *)

let test_maxflow_known () =
  (* Classic 4-node example: s=0, t=3; max flow 5. *)
  let g = Graph.create 4 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:3.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:0 ~v:2 ~cap:2.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:1 ~v:2 ~cap:5.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:1 ~v:3 ~cap:2.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:2 ~v:3 ~cap:3.0 ~cost:0.0);
  let r = Maxflow.solve g ~source:0 ~sink:3 in
  check_float "value" 5.0 r.Maxflow.value;
  Alcotest.(check bool) "source in cut" true r.Maxflow.min_cut.(0);
  Alcotest.(check bool) "sink not in cut" false r.Maxflow.min_cut.(3)

let test_maxflow_disconnected () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:4.0 ~cost:0.0);
  let r = Maxflow.solve g ~source:0 ~sink:2 in
  check_float "no path -> 0" 0.0 r.Maxflow.value

(* Random graph generator for cross-checks: n <= 7 nodes, arcs with integer
   capacities so brute-force min-cut enumeration is exact. *)
let random_graph_arcs =
  QCheck.Gen.(
    let n = 6 in
    let arc = triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 1 9) in
    map (fun arcs -> (n, arcs)) (list_size (int_range 1 14) arc))

let brute_force_mincut n arcs ~source ~sink =
  (* Enumerate all subsets containing source but not sink. *)
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    if mask land (1 lsl source) <> 0 && mask land (1 lsl sink) = 0 then begin
      let cut =
        List.fold_left
          (fun acc (u, v, c) ->
            if mask land (1 lsl u) <> 0 && mask land (1 lsl v) = 0 then
              acc +. float_of_int c
            else acc)
          0.0 arcs
      in
      if cut < !best then best := cut
    end
  done;
  !best

let prop_maxflow_equals_mincut =
  QCheck.Test.make ~name:"maxflow = brute-force mincut" ~count:200
    (QCheck.make random_graph_arcs)
    (fun (n, arcs) ->
      let arcs = List.filter (fun (u, v, _) -> u <> v) arcs in
      let g = Graph.create n in
      List.iter
        (fun (u, v, c) ->
          ignore (Graph.add_edge g ~u ~v ~cap:(float_of_int c) ~cost:0.0))
        arcs;
      let r = Maxflow.solve g ~source:0 ~sink:(n - 1) in
      let cut = brute_force_mincut n arcs ~source:0 ~sink:(n - 1) in
      Float.abs (r.Maxflow.value -. cut) < 1e-6)

let prop_maxflow_conservation =
  QCheck.Test.make ~name:"maxflow conserves at inner nodes" ~count:200
    (QCheck.make random_graph_arcs)
    (fun (n, arcs) ->
      let arcs = List.filter (fun (u, v, _) -> u <> v) arcs in
      let g = Graph.create n in
      List.iter
        (fun (u, v, c) ->
          ignore (Graph.add_edge g ~u ~v ~cap:(float_of_int c) ~cost:0.0))
        arcs;
      ignore (Maxflow.solve g ~source:0 ~sink:(n - 1));
      let balance = Array.make n 0.0 in
      Graph.iter_edges g (fun a ->
          let f = Graph.flow g a in
          balance.(Graph.src g a) <- balance.(Graph.src g a) -. f;
          balance.(Graph.dst g a) <- balance.(Graph.dst g a) +. f);
      let ok = ref true in
      for v = 1 to n - 2 do
        if Float.abs balance.(v) > 1e-6 then ok := false
      done;
      !ok)

(* ---------- Mcf ---------- *)

let test_mcf_known () =
  (* Two routes of different cost: cheap one has limited capacity. *)
  let g = Graph.create 4 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:2.0 ~cost:1.0);
  ignore (Graph.add_edge g ~u:0 ~v:2 ~cap:10.0 ~cost:3.0);
  ignore (Graph.add_edge g ~u:1 ~v:3 ~cap:10.0 ~cost:1.0);
  ignore (Graph.add_edge g ~u:2 ~v:3 ~cap:10.0 ~cost:1.0);
  let supply = [| 5.0; 0.0; 0.0; -5.0 |] in
  (match Mcf.solve g ~supply with
  | Mcf.Feasible { cost } ->
    (* 2 units via cheap route (cost 2 each), 3 via expensive (cost 4 each) *)
    check_float "optimal cost" 16.0 cost
  | Mcf.Infeasible _ -> Alcotest.fail "expected feasible");
  Alcotest.(check bool) "optimality audit" true (Mcf.check_optimal g)

let test_mcf_infeasible () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:1.0 ~cost:0.0);
  (* node 2 demands 5 but only supplies at 0 reach node 1 *)
  let supply = [| 5.0; 0.0; -5.0 |] in
  match Mcf.solve g ~supply with
  | Mcf.Feasible _ -> Alcotest.fail "expected infeasible"
  | Mcf.Infeasible { unrouted } -> check_float "unrouted amount" 5.0 unrouted

let test_mcf_demand_slack () =
  (* Total demand exceeds supply: demands are upper bounds. *)
  let g = Graph.create 3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:10.0 ~cost:1.0);
  ignore (Graph.add_edge g ~u:0 ~v:2 ~cap:10.0 ~cost:2.0);
  let supply = [| 4.0; -10.0; -10.0 |] in
  match Mcf.solve g ~supply with
  | Mcf.Feasible { cost } -> check_float "all to cheap sink" 4.0 cost
  | Mcf.Infeasible _ -> Alcotest.fail "expected feasible"

let test_mcf_rejects_negative_cost () =
  let g = Graph.create 2 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:1.0 ~cost:(-1.0));
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Mcf.solve: negative arc cost") (fun () ->
      ignore (Mcf.solve g ~supply:[| 1.0; -1.0 |]))

(* Random MCF instances: bipartite transportation with integer data, checked
   for optimality via the negative-cycle audit and conservation. *)
let random_transport =
  QCheck.Gen.(
    let src_n = int_range 1 4 and snk_n = int_range 1 4 in
    pair src_n snk_n >>= fun (ns, nk) ->
    let costs = list_size (return (ns * nk)) (int_range 0 9) in
    let supplies = list_size (return ns) (int_range 1 9) in
    let caps = list_size (return nk) (int_range 1 9) in
    map
      (fun (costs, supplies, caps) -> (ns, nk, costs, supplies, caps))
      (triple costs supplies caps))

let prop_mcf_optimal_and_conserving =
  QCheck.Test.make ~name:"mcf residual has no negative cycle + conservation" ~count:200
    (QCheck.make random_transport)
    (fun (ns, nk, costs, supplies, caps) ->
      let n = ns + nk in
      let g = Graph.create n in
      List.iteri
        (fun idx c ->
          let i = idx / nk and j = idx mod nk in
          ignore (Graph.add_edge g ~u:i ~v:(ns + j) ~cap:100.0 ~cost:(float_of_int c)))
        costs;
      let supply = Array.make n 0.0 in
      List.iteri (fun i s -> supply.(i) <- float_of_int s) supplies;
      List.iteri (fun j c -> supply.(ns + j) <- -.float_of_int c) caps;
      let total_supply = List.fold_left ( + ) 0 supplies in
      let total_cap = List.fold_left ( + ) 0 caps in
      match Mcf.solve g ~supply with
      | Mcf.Infeasible _ -> total_supply > total_cap
      | Mcf.Feasible { cost } ->
        let recomputed = ref 0.0 in
        let balance = Array.make n 0.0 in
        Graph.iter_edges g (fun a ->
            let f = Graph.flow g a in
            recomputed := !recomputed +. (f *. Graph.cost g a);
            balance.(Graph.src g a) <- balance.(Graph.src g a) -. f;
            balance.(Graph.dst g a) <- balance.(Graph.dst g a) +. f);
        let ok_balance = ref true in
        for i = 0 to ns - 1 do
          (* each source ships out exactly its supply *)
          if Float.abs (balance.(i) +. supply.(i)) > 1e-6 then ok_balance := false
        done;
        for j = ns to n - 1 do
          (* sinks receive at most their capacity *)
          if balance.(j) > -.supply.(j) +. 1e-6 then ok_balance := false
        done;
        total_supply <= total_cap
        && Float.abs (cost -. !recomputed) < 1e-6
        && !ok_balance
        && Mcf.check_optimal g)

(* Random general MCF instances: up to 8 nodes, arbitrary arcs with float
   costs and capacities, zero-cost 2-cycles (like the FBP model's external
   arcs), and supplies that may exceed what the arcs can carry. *)
let random_mcf =
  QCheck.Gen.(
    int_range 2 8 >>= fun n ->
    let node = int_bound (n - 1) in
    let arc = quad node node (float_range 0.0 10.0) (float_range 0.1 10.0) in
    let two_cycle = triple node node (float_range 0.1 10.0) in
    let balance = float_range (-6.0) 6.0 >|= fun b -> if Float.abs b < 2.0 then 0.0 else b in
    quad (return n) (list_size (int_range 0 (3 * n)) arc) (list_size (int_range 0 3) two_cycle)
      (array_size (return n) balance))

let print_mcf (n, arcs, cycles, supply) =
  Printf.sprintf "n=%d arcs=[%s] cycles=[%s] supply=[%s]" n
    (String.concat "; "
       (List.map (fun (u, v, c, k) -> Printf.sprintf "%d->%d c%g k%g" u v c k) arcs))
    (String.concat "; " (List.map (fun (u, v, k) -> Printf.sprintf "%d<->%d k%g" u v k) cycles))
    (String.concat "; " (Array.to_list (Array.map string_of_float supply)))

let build_mcf (n, arcs, cycles, _) ~extra =
  let g = Graph.create (n + extra) in
  List.iter (fun (u, v, cost, cap) -> ignore (Graph.add_edge g ~u ~v ~cap ~cost)) arcs;
  List.iter
    (fun (u, v, cap) ->
      ignore (Graph.add_edge g ~u ~v ~cap ~cost:0.0);
      ignore (Graph.add_edge g ~u:v ~v:u ~cap ~cost:0.0))
    cycles;
  g

(* Routable supply by max flow: super source -> supplies, deficits -> super
   sink, the instance's arcs in between. *)
let max_routable ((n, _, _, supply) as inst) =
  let g = build_mcf inst ~extra:2 in
  let s = n and t = n + 1 in
  Array.iteri
    (fun v b ->
      if b > 0.0 then ignore (Graph.add_edge g ~u:s ~v ~cap:b ~cost:0.0)
      else if b < 0.0 then ignore (Graph.add_edge g ~u:v ~v:t ~cap:(-.b) ~cost:0.0))
    supply;
  (Maxflow.solve g ~source:s ~sink:t).Maxflow.value

let prop_mcf_general =
  QCheck.Test.make ~name:"mcf general graphs: conserving, optimal, certified, max routed"
    ~count:300
    (QCheck.make ~print:print_mcf random_mcf)
    (fun ((_, _, _, supply) as inst) ->
      let g = build_mcf inst ~extra:0 in
      let verdict, stats = Mcf.solve_stats g ~supply in
      let total = Array.fold_left (fun a b -> if b > 0.0 then a +. b else a) 0.0 supply in
      let expected = total -. max_routable inst in
      let tol = 1e-7 *. (1.0 +. total) in
      let unrouted, exact =
        match verdict with
        | Mcf.Feasible { cost } ->
          let recomputed = ref 0.0 in
          Graph.iter_edges g (fun a -> recomputed := !recomputed +. (Graph.flow g a *. Graph.cost g a));
          if Float.abs (cost -. !recomputed) > 1e-9 *. (1.0 +. cost) then
            QCheck.Test.fail_reportf "cost %g <> recomputed %g" cost !recomputed;
          (0.0, true)
        | Mcf.Infeasible { unrouted } -> (unrouted, false)
      in
      if Float.abs (unrouted -. expected) > tol then
        QCheck.Test.fail_reportf "unrouted %.12g, max flow leaves %.12g" unrouted expected;
      (match Mcf.check_flow g ~supply ~exact with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "check_flow: %s" e);
      (match Mcf.check_potentials g ~supply ~potentials:stats.Mcf.potentials with
       | Ok () -> ()
       | Error e -> QCheck.Test.fail_reportf "certificate: %s" e);
      Mcf.check_optimal g)

(* Demands are upper bounds on the sink side: unused demand must not turn
   into supply that a transshipment or deficit node forwards over
   zero-cost arcs (what injecting the slack root -> t would allow). *)
let test_mcf_slack_stays_at_deficits () =
  let g = Graph.create 5 in
  List.iter
    (fun (u, v, cost, cap) -> ignore (Graph.add_edge g ~u ~v ~cap ~cost))
    [ (1, 2, 1.0, 3.0); (2, 4, 0.0, 5.0); (1, 3, 0.0, 5.0); (1, 4, 0.0, 3.0);
      (2, 3, 0.0, 1.0); (0, 3, 3.0, 1.0); (0, 4, 0.0, 3.0) ];
  let supply = [| 1.0; 1.0; 0.0; -2.0; -3.0 |] in
  (match Mcf.solve g ~supply with
  | Mcf.Feasible { cost } -> check_float "zero-cost routes" 0.0 cost
  | Mcf.Infeasible _ -> Alcotest.fail "expected feasible");
  match Mcf.check_flow g ~supply ~exact:true with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* An infeasible instance: supply node 0 reaches the sink only through
   supply node 1.  What cannot be routed stays at its own node (a supply
   node never absorbs another's flow), and the unrouted amount is exact. *)
let test_mcf_unrouted_stays_home () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:10.0 ~cost:0.0);
  ignore (Graph.add_edge g ~u:1 ~v:2 ~cap:1.0 ~cost:1.0);
  let supply = [| 3.0; 2.0; -5.0 |] in
  (match Mcf.solve g ~supply with
  | Mcf.Infeasible { unrouted } -> check_float "unrouted" 4.0 unrouted
  | Mcf.Feasible _ -> Alcotest.fail "expected infeasible");
  (match Mcf.check_flow g ~supply ~exact:false with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* here an artificial arc leaves the tree full and must be priced again
     later; otherwise unrouted supply lands on a transshipment node *)
  let inst =
    ( 5,
      [ (1, 2, 5.06503, 7.08016); (3, 0, 2.57033, 9.32814); (4, 2, 6.34416, 8.17434);
        (2, 3, 0.776393, 3.54937); (2, 2, 1.4619, 5.51521); (3, 0, 7.13458, 0.594067);
        (2, 4, 0.24196, 1.56761); (2, 1, 7.10045, 8.98849) ],
      [ (0, 1, 9.22964); (0, 1, 8.85814); (0, 3, 3.44493) ],
      [| 5.94882986187; 3.67271276087; 2.36418272556; -5.79878182785; 0.0 |] )
  in
  let _, _, _, supply = inst in
  let g = build_mcf inst ~extra:0 in
  let total = Array.fold_left (fun a b -> if b > 0.0 then a +. b else a) 0.0 supply in
  (match Mcf.solve g ~supply with
  | Mcf.Infeasible { unrouted } ->
    check_float "unrouted = total - max flow" (total -. max_routable inst) unrouted
  | Mcf.Feasible _ -> Alcotest.fail "expected infeasible");
  match Mcf.check_flow g ~supply ~exact:false with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Flow already on the graph is discarded: a cheapest-arc-first seed that
   fills the piece node 2 with supply 0 would strand supply 1, whose only
   arc goes there.  The solve must undo it and route both. *)
let test_mcf_discards_seeded_flow () =
  let g = Graph.create 4 in
  let a02 = Graph.add_edge g ~u:0 ~v:2 ~cap:5.0 ~cost:0.0 in
  let a03 = Graph.add_edge g ~u:0 ~v:3 ~cap:5.0 ~cost:1.0 in
  ignore (Graph.add_edge g ~u:1 ~v:2 ~cap:5.0 ~cost:0.0);
  Graph.push g a02 1.0;
  let supply = [| 1.0; 1.0; -1.0; -1.0 |] in
  (match Mcf.solve g ~supply with
  | Mcf.Feasible { cost } -> check_float "seed undone" 1.0 cost
  | Mcf.Infeasible _ -> Alcotest.fail "seeded flow caused a spurious infeasibility");
  check_float "0 -> 3 carries supply 0" 1.0 (Graph.flow g a03);
  check_float "0 -> 2 emptied" 0.0 (Graph.flow g a02)

(* The certificate rejects a conserving but suboptimal flow: all supply
   over the expensive route of [test_mcf_known]'s graph. *)
let test_mcf_certificate_rejects_suboptimal () =
  let g = Graph.create 4 in
  ignore (Graph.add_edge g ~u:0 ~v:1 ~cap:2.0 ~cost:1.0);
  let a02 = Graph.add_edge g ~u:0 ~v:2 ~cap:10.0 ~cost:3.0 in
  ignore (Graph.add_edge g ~u:1 ~v:3 ~cap:10.0 ~cost:1.0);
  let a23 = Graph.add_edge g ~u:2 ~v:3 ~cap:10.0 ~cost:1.0 in
  let supply = [| 5.0; 0.0; 0.0; -5.0 |] in
  let _, stats = Mcf.solve_stats g ~supply in
  let potentials = stats.Mcf.potentials in
  Alcotest.(check bool) "optimum certified" true
    (Result.is_ok (Mcf.check_potentials g ~supply ~potentials));
  Graph.reset_flow g;
  Graph.push g a02 5.0;
  Graph.push g a23 5.0;
  Alcotest.(check bool) "suboptimal flow conserves" true
    (Result.is_ok (Mcf.check_flow g ~supply ~exact:true));
  Alcotest.(check bool) "suboptimal flow fails the certificate" true
    (Result.is_error (Mcf.check_potentials g ~supply ~potentials))

(* ---------- Transport ---------- *)

let mk_problem sizes caps cost = { Transport.sizes; capacities = caps; cost }

let test_transport_simple () =
  (* 3 unit cells, 2 sinks with capacity 2 and 1; cell 2 prefers sink 0 but
     must be displaced when sink 0 fills up. *)
  let cost i j =
    match (i, j) with
    | 0, 0 -> 0.0 | 0, 1 -> 10.0
    | 1, 0 -> 0.0 | 1, 1 -> 10.0
    | 2, 0 -> 1.0 | 2, 1 -> 2.0
    | _ -> infinity
  in
  let p = mk_problem [| 1.0; 1.0; 1.0 |] [| 2.0; 1.0 |] cost in
  match Transport.solve p with
  | Error e -> Alcotest.fail e
  | Ok a ->
    Alcotest.(check bool) "converged" true a.Transport.converged;
    Alcotest.(check bool) "capacities respected" true (Transport.max_overflow p a <= 1e-6);
    check_float "optimal cost" 2.0 a.Transport.cost

let test_transport_inadmissible () =
  let cost i j = if i = 0 && j = 0 then infinity else 1.0 in
  let p = mk_problem [| 1.0 |] [| 5.0 |] cost in
  match Transport.solve p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected no admissible sink error"

let test_transport_fractional_split () =
  (* One big cell of size 2 must split across two sinks of capacity 1. *)
  let cost _ j = float_of_int j in
  let p = mk_problem [| 2.0 |] [| 1.0; 1.0 |] cost in
  match Transport.solve p with
  | Error e -> Alcotest.fail e
  | Ok a ->
    Alcotest.(check bool) "capacities respected" true (Transport.max_overflow p a <= 1e-6);
    Alcotest.(check int) "one fractional cell" 1 (Transport.n_fractional a);
    let fr = a.Transport.frac.(0) in
    check_float "fractions sum to 1" 1.0 (List.fold_left (fun acc (_, f) -> acc +. f) 0.0 fr)

let random_transport_problem =
  QCheck.Gen.(
    int_range 2 12 >>= fun n ->
    int_range 2 4 >>= fun k ->
    let sizes = list_size (return n) (float_range 0.5 3.0) in
    let cost_rows = list_size (return (n * k)) (float_range 0.0 20.0) in
    map
      (fun (sizes, costs) ->
        let sizes = Array.of_list sizes in
        let total = Array.fold_left ( +. ) 0.0 sizes in
        (* capacities comfortably feasible: total * 1.2 split across sinks *)
        let caps = Array.make k (total *. 1.2 /. float_of_int k) in
        let costs = Array.of_list costs in
        (n, k, sizes, caps, costs))
      (pair sizes cost_rows))

let prop_transport_respects_capacities =
  QCheck.Test.make ~name:"transport respects capacities when feasible" ~count:150
    (QCheck.make random_transport_problem)
    (fun (_n, k, sizes, caps, costs) ->
      let cost i j = costs.((i * k) + j) in
      let p = mk_problem sizes caps cost in
      match Transport.solve p with
      | Error _ -> false
      | Ok a ->
        a.Transport.converged
        && Transport.max_overflow p a <= 1e-6
        && Array.for_all
             (fun fr ->
               Float.abs (List.fold_left (fun acc (_, f) -> acc +. f) 0.0 fr -. 1.0) < 1e-6)
             a.Transport.frac)

(* Deterministic optimality-gap audit: the heuristic must stay within 30% of
   the exact optimum on every instance and within 5% on average over a fixed
   batch of 200 random instances (the average is what placement quality
   feels). *)
let test_transport_near_exact () =
  let rng = Fbp_util.Rng.create 12345 in
  let gaps = ref [] in
  for _ = 1 to 200 do
    let n = 2 + Fbp_util.Rng.int rng 14 and k = 2 + Fbp_util.Rng.int rng 4 in
    let sizes = Array.init n (fun _ -> Fbp_util.Rng.range rng 0.5 3.0) in
    let total = Array.fold_left ( +. ) 0.0 sizes in
    let caps = Array.make k (total *. 1.2 /. float_of_int k) in
    let costs = Array.init (n * k) (fun _ -> Fbp_util.Rng.range rng 0.0 20.0) in
    let p = mk_problem sizes caps (fun i j -> costs.((i * k) + j)) in
    match (Transport.solve p, Transport.solve_exact p) with
    | Ok a, Ok ex ->
      let gap =
        if ex.Transport.cost < 1e-9 then 0.0
        else (a.Transport.cost -. ex.Transport.cost) /. ex.Transport.cost
      in
      if gap > 0.30 then
        Alcotest.failf "instance gap %.1f%% exceeds 30%% (heur %.3f vs exact %.3f)"
          (100.0 *. gap) a.Transport.cost ex.Transport.cost;
      gaps := gap :: !gaps
    | _ -> Alcotest.fail "solver failed on feasible instance"
  done;
  let gaps = Array.of_list !gaps in
  let mean = Fbp_util.Stats.mean gaps in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.2f%% <= 5%%" (100.0 *. mean))
    true (mean <= 0.05)

let prop_exact_transport_optimal =
  QCheck.Test.make ~name:"exact transport matches load bookkeeping" ~count:60
    (QCheck.make random_transport_problem)
    (fun (_n, k, sizes, caps, costs) ->
      let cost i j = costs.((i * k) + j) in
      let p = mk_problem sizes caps cost in
      match Transport.solve_exact p with
      | Error _ -> false
      | Ok a ->
        Transport.max_overflow p a <= 1e-6
        && Float.abs (Transport.total_cost p a.Transport.frac -. a.Transport.cost) < 1e-4)

let test_transport_round_integral () =
  let cost _ j = float_of_int j in
  let p = mk_problem [| 2.0; 1.0 |] [| 2.0; 2.0 |] cost in
  match Transport.solve p with
  | Error e -> Alcotest.fail e
  | Ok a ->
    let assign = Transport.round_integral a in
    Array.iter (fun j -> Alcotest.(check bool) "sink valid" true (j >= 0 && j < 2)) assign

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    Alcotest.test_case "graph arcs and twins" `Quick test_graph_arcs;
    Alcotest.test_case "graph iter_out" `Quick test_graph_iter_out;
    Alcotest.test_case "maxflow known" `Quick test_maxflow_known;
    Alcotest.test_case "maxflow disconnected" `Quick test_maxflow_disconnected;
    qcheck prop_maxflow_equals_mincut;
    qcheck prop_maxflow_conservation;
    Alcotest.test_case "mcf known" `Quick test_mcf_known;
    Alcotest.test_case "mcf infeasible" `Quick test_mcf_infeasible;
    Alcotest.test_case "mcf demand slack" `Quick test_mcf_demand_slack;
    Alcotest.test_case "mcf rejects negative cost" `Quick test_mcf_rejects_negative_cost;
    qcheck prop_mcf_optimal_and_conserving;
    qcheck prop_mcf_general;
    Alcotest.test_case "mcf slack stays at deficits" `Quick test_mcf_slack_stays_at_deficits;
    Alcotest.test_case "mcf unrouted stays home" `Quick test_mcf_unrouted_stays_home;
    Alcotest.test_case "mcf discards seeded flow" `Quick test_mcf_discards_seeded_flow;
    Alcotest.test_case "mcf certificate rejects suboptimal" `Quick
      test_mcf_certificate_rejects_suboptimal;
    Alcotest.test_case "transport simple" `Quick test_transport_simple;
    Alcotest.test_case "transport inadmissible" `Quick test_transport_inadmissible;
    Alcotest.test_case "transport fractional split" `Quick test_transport_fractional_split;
    qcheck prop_transport_respects_capacities;
    Alcotest.test_case "transport near exact (deterministic)" `Quick test_transport_near_exact;
    qcheck prop_exact_transport_optimal;
    Alcotest.test_case "transport round integral" `Quick test_transport_round_integral;
  ]
