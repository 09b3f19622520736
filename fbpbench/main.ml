(* The canonical placement benchmark.

     main.exe --workload flat10k|blocks6k|mb20k --seed N --seconds S --trace 0|1

   With --trace 0 it places the workload's designs with the product path
   ([Fbp_workloads.Runner.run_fbp], every probe off) again and again for S
   seconds and reports the end-to-end metrics.  With --trace 1 it
   alternates the untraced product path with the traced replay of
   [Replay] and reports the per-layer metrics.  Every placement is checked;
   the last stdout line is one JSON object with [correct], [attempted],
   [failed] and [metrics], and the exit code is 1 when any check failed. *)

open Fbp_netlist
module Runner = Fbp_workloads.Runner
module Pool = Fbp_util.Pool

(* Cell counts do not depend on the seed: [Placer.n_levels] adds a level
   at fixed movable-cell thresholds, so a seed-dependent size would change
   the level count and with it every per-layer number.  Each workload
   places more than one design so that one unusual design does not decide
   a run. *)
type workload = {
  name : string;
  cells : int;
  designs : int;  (** distinct designs, placed in turn *)
  movebounds : int;  (** flattened inclusive movebounds, as --movebounds N *)
  domains : int;
}

let workloads =
  [
    (* MCF-bound: 5 levels with a 32x32 single-class flow at the finest.
       One domain, so it is also the single-threaded baseline. *)
    { name = "flat10k"; cells = 10_000; designs = 2; movebounds = 0; domains = 1 };
    (* Realization-bound: each block sits just under the 4^5*6 = 6144
       movable-cell point where a 32x32 level appears, so the flow stays
       small and the parallel realization and pool path dominate. *)
    { name = "blocks6k"; cells = 6_000; designs = 4; movebounds = 0;
      domains = Pool.hardware_domains };
    (* The paper's headline use: a 9-class flow at 16x16 and
       movebound-aware transport and legalization. *)
    { name = "mb20k"; cells = 20_000; designs = 2; movebounds = 8;
      domains = Pool.hardware_domains };
  ]

(* ------------------------------------------------------------- helpers *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let minimum xs = List.fold_left Float.min infinity xs

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let now = Fbp_util.Timer.now

(* CPU seconds of the whole process, every domain included (getrusage).
   End-to-end times are CPU times: on a shared 2-vCPU host the hypervisor
   steals up to half of the guest under 2-domain load, which moved the
   wall time of one design by 20-50% from run to run and its CPU time by
   under 10%.  At one domain the two agree.  [end_to_end] also scales
   them by [Yardstick] to a reference host's speed. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Calls [body d] for the designs d = 0, 1, ..., n-1, 0, 1, ... in turn:
   each at least once, and again while the next call is expected to end
   inside the budget.  Returns each design's results in order; [None]
   results (failed checks) are dropped. *)
let round_robin ~seconds n body =
  let t0 = now () in
  let samples = Array.make n [] in
  let rec go k last =
    if k < n || now () -. t0 +. last <= seconds then begin
      let s = now () in
      let d = k mod n in
      Option.iter (fun x -> samples.(d) <- x :: samples.(d)) (body d);
      go (k + 1) (now () -. s)
    end
  in
  go 0 0.0;
  Array.map List.rev samples

(* [samples.(d)] holds design [d]'s results in order; a metric
   applies [est] to each design's values and sums over designs. *)
let per_design est (samples : 'a list array) f =
  Array.fold_left (fun acc xs -> acc +. est (List.map f xs)) 0.0 samples

(* Times take each design's fastest sample: the noise on a shared host
   only ever adds time, so the minimum is the steadiest estimate of what
   the code costs. *)
let fastest s f = per_design minimum s f

(* for values that repeat exactly: each design's first sample *)
let first s f = per_design (function x :: _ -> x | [] -> nan) s f

(* --------------------------------------------------------------- setup *)

(* The seed makes the netlists.  Movebound rectangles follow the scenario
   name, which names the design's slot in the workload and not the seed:
   each slot keeps one floorplan, so runs differ in netlists only and a
   floorplan that happens to split into far more flow nodes does not
   decide a run. *)
let make_instance w ~seed i =
  let name = Printf.sprintf "%s-s%d-%d" w.name seed i in
  let design = Generator.quick ~seed:((seed * 1009) + i) ~name w.cells in
  if w.movebounds = 0 then Fbp_movebound.Instance.unconstrained design
  else
    Fbp_workloads.Mb_gen.attach
      { Fbp_workloads.Mb_gen.design = Printf.sprintf "%s-%d" w.name i;
        shape = Fbp_workloads.Mb_gen.Flatten w.movebounds; coverage = 0.5;
        max_density = 0.75; kind = Fbp_movebound.Movebound.Inclusive }
      design

(* Everything before the placer starts: the designs, their movebounds, the
   normalization and region decomposition that reject a bad instance, and
   the worker domains. *)
let setup w ~seed =
  let insts = List.init w.designs (make_instance w ~seed) in
  List.iter
    (fun inst ->
      match Fbp_movebound.Instance.normalize inst with
      | Ok n ->
        ignore
          (Fbp_movebound.Regions.decompose
             ~chip:n.Fbp_movebound.Instance.design.Design.chip
             n.Fbp_movebound.Instance.movebounds)
      | Error e -> failwith ("movebound normalization failed: " ^ e))
    insts;
  Pool.prewarm w.domains;
  insts

(* Set-up is timed once before the placements and [setups_per_placement]
   times after each placement from the second round on, so that its
   samples spread over the whole run: the host's slow spells last seconds,
   and a burst of back-to-back set-ups falls inside one.  Generation is
   deterministic, so every set-up makes the same designs. *)
let setups_per_placement = 3

let timed_setup w ~seed =
  let c0 = cpu_now () in
  let insts = setup w ~seed in
  (insts, cpu_now () -. c0)

let config_at domains =
  Pool.set_default_domains domains;
  { Fbp_core.Config.default with domains }

let n_movable inst =
  let nl = inst.Fbp_movebound.Instance.design.Design.netlist in
  Array.fold_left (fun n f -> if f then n else n + 1) 0 nl.Netlist.fixed

(* -------------------------------------------------------------- checks *)

(* Placements and replays run, and those that failed a check; a failure
   is counted once per operation however many checks it failed. *)
let attempted = ref 0
let failed = ref 0
let mismatches = ref 0  (* replays whose HPWL differs from run_fbp's *)

(* over every placement that returned [Ok], failed checks included *)
let violations = ref 0
let degradations = ref 0

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("FAIL " ^ msg)) fmt

(* [checked f] runs one operation; [f bad] calls [bad ()] on each failed
   check and returns [None] when the operation produced no result.  A full
   major collection first, untimed, so that no operation pays for the
   garbage of the one before it or of a set-up. *)
let checked f =
  incr attempted;
  Gc.full_major ();
  let ok = ref true in
  let r = f (fun () -> ok := false) in
  if !ok && Option.is_some r then r
  else begin
    incr failed;
    None
  end

type sample = { res : Runner.metrics; wall : float; cpu : float }

(* first HPWL seen per design: every later placement must repeat it *)
let reference_hpwl = Hashtbl.create 8

(* The product path on design [d], checked: [Ok], legal, no movebound
   violation, and the same HPWL as every earlier placement of [d]. *)
let place_checked config d inst =
  checked @@ fun bad ->
  let t0 = now () and c0 = cpu_now () in
  let r = Runner.run_fbp ~config inst in
  let wall = now () -. t0 and cpu = cpu_now () -. c0 in
  match r with
  | Error e ->
    fail "design %d: %s" d (Fbp_resilience.Fbp_error.to_string e);
    None
  | Ok res ->
    violations := !violations + res.Runner.violations;
    degradations := !degradations + List.length res.Runner.degradations;
    if not res.Runner.legal then begin
      bad ();
      fail "design %d: illegal placement" d
    end;
    if res.Runner.violations > 0 then begin
      bad ();
      fail "design %d: %d movebound violations" d res.Runner.violations
    end;
    (match Hashtbl.find_opt reference_hpwl d with
     | None -> Hashtbl.add reference_hpwl d res.Runner.hpwl
     | Some h when same_bits h res.Runner.hpwl -> ()
     | Some h ->
       bad ();
       fail "design %d: hpwl %.17g differs from its first %.17g" d res.Runner.hpwl h);
    Some { res; wall; cpu }

(* The first placement in a process grows the heap to its working size
   and runs ~15% slower than the ones after it.  End-to-end times drop it
   by taking each design's fastest sample; the traced run, which compares
   single samples, places one design untimed first. *)
let warm_up config insts = ignore (place_checked config 0 (List.hd insts))

(* -------------------------------------------------------------- output *)

type metric = { key : string; unit_ : string; value : float }

let m key unit_ value = { key; unit_; value }

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let print_result metrics =
  List.iter
    (fun x -> Printf.printf "%-22s %24s %s\n" x.key (json_num x.value) x.unit_)
    metrics;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ","
       (List.map
          (fun x ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.key (json_num x.value) x.unit_)
          metrics))

let provenance w ~seed ~seconds ~trace insts =
  let design_json inst =
    let d = inst.Fbp_movebound.Instance.design in
    Printf.sprintf "{\"name\":%S,\"cells\":%d,\"movable\":%d,\"levels\":%d}" d.Design.name
      (Netlist.n_cells d.Design.netlist) (n_movable inst)
      (Fbp_core.Placer.n_levels Fbp_core.Config.default d)
  in
  Printf.sprintf
    "{\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"trace\":%b,\"designs\":[%s],\
     \"domains_requested\":%d,\"domains_effective\":%d,\"hardware_domains\":%d,\
     \"ocaml\":%S}"
    w.name seed seconds trace
    (String.concat "," (List.map design_json insts))
    w.domains (min w.domains Pool.hardware_domains) Pool.hardware_domains Sys.ocaml_version

(* ------------------------------------------------------ untraced (e2e) *)

(* The yardstick's fastest CPU time on the reference host, a 2-vCPU Xeon
   VM in its fast spells: end-to-end times are given at that host's
   speed. *)
let reference_s = 0.020

let yardstick_reps = 3

let end_to_end w ~seed ~seconds (insts, setup0) =
  let config = config_at w.domains in
  let setups = ref [ setup0 ] in
  let yardstick = lazy (Yardstick.create ()) and host = ref [] and checksum = ref None in
  (* Set-ups and yardstick runs between placements.  They start after the
     RSS reading, which then holds placements only. *)
  let between () =
    for _ = 1 to setups_per_placement do
      setups := snd (timed_setup w ~seed) :: !setups
    done;
    let y = Lazy.force yardstick in
    for _ = 1 to yardstick_reps do
      let c0 = cpu_now () in
      let sum = Yardstick.run y in
      host := (cpu_now () -. c0) :: !host;
      match !checksum with
      | None -> checksum := Some sum
      | Some x when x = sum -> ()
      | Some x ->
        incr failed;
        fail "yardstick checksum %d differs from its first %d" sum x
    done
  in
  (* Peak RSS once every design has been placed once: later placements
     only add heap drift, and how many fit in the budget depends on the
     machine's speed. *)
  let peak_kb = ref None in
  let s =
    round_robin ~seconds w.designs (fun d ->
        let r = place_checked config d (List.nth insts d) in
        if !peak_kb <> None then between ();
        if d = w.designs - 1 && !peak_kb = None then peak_kb := Some (Fbp_util.Rss.peak_rss_kb ());
        r)
  in
  (* at least one round of them, however short the run *)
  between ();
  Array.iteri
    (fun d xs ->
      Printf.printf "samples design %d cpu_s %s\n" d
        (String.concat " " (List.map (fun x -> Printf.sprintf "%.4f" x.cpu) xs)))
    s;
  let place_cpu_s = fastest s (fun x -> x.cpu) and setup_cpu_s = median !setups in
  let host_s = minimum !host in
  let scale = reference_s /. host_s in
  Printf.printf "host yardstick_s %.5f (fastest of %d, reference %.3f) raw place_cpu_s %.4f setup_cpu_s %.5f\n"
    host_s (List.length !host) reference_s place_cpu_s setup_cpu_s;
  let movable = List.fold_left (fun a i -> a + n_movable i) 0 insts in
  let peak_mb =
    match !peak_kb with
    | Some (Some kb) -> float_of_int kb /. 1024.0
    | _ ->
      incr failed;
      fail "VmHWM unreadable";
      nan
  in
  [
    m "place_ref_s" "s" (place_cpu_s *. scale);
    m "cells_per_ref_s" "cells/s" (float_of_int movable /. (place_cpu_s *. scale));
    m "hpwl" "um" (first s (fun x -> x.res.Runner.hpwl));
    m "hpwl_global" "um" (first s (fun x -> x.res.Runner.hpwl_global));
    m "peak_rss_mb" "MB" peak_mb;
    m "setup_s" "s" (setup_cpu_s *. scale);
  ]

(* ----------------------------------------------------- traced (layers) *)

(* One traced sample of one design. *)
type traced = {
  product : sample;  (** untraced run_fbp at the workload's domains *)
  replay : Replay.result;  (** traced replay at the same domains *)
  tr : Span.t;
  single : Span.t option;  (** traced replay at 1 domain, when domains > 1 *)
}

let replay_checked config d inst (res : Runner.metrics) ~what =
  checked @@ fun bad ->
  let tr = Span.create ~design:d in
  match Span.with_span tr "place" (fun () -> Replay.run tr config inst) with
  | Error e ->
    fail "design %d: %s replay diverged: %s" d what e;
    None
  | Ok r ->
    if not r.Replay.legal || r.Replay.violations > 0 then begin
      bad ();
      fail "design %d: %s replay illegal or with %d movebound violations" d what
        r.Replay.violations
    end;
    if not (same_bits r.Replay.hpwl_global res.Runner.hpwl_global && same_bits r.Replay.hpwl res.Runner.hpwl)
    then begin
      bad ();
      incr mismatches;
      fail "design %d: %s replay hpwl %.17g/%.17g <> run_fbp %.17g/%.17g (global/final)" d
        what r.Replay.hpwl_global r.Replay.hpwl res.Runner.hpwl_global res.Runner.hpwl
    end;
    Some (r, tr)

let trace_design w config d inst =
  Option.bind (place_checked config d inst) (fun product ->
      Option.bind (replay_checked config d inst product.res ~what:"traced")
        (fun (replay, tr) ->
          (* [config_at] also sets the pool default that the QP's fork2
             reads, so it is set back before the next placement *)
          let single =
            if w.domains = 1 then Some None
            else begin
              let r = replay_checked (config_at 1) d inst product.res ~what:"1-domain" in
              ignore (config_at w.domains);
              Option.map (fun (_, t) -> Some t) r
            end
          in
          Option.map (fun single -> { product; replay; tr; single }) single))

(* Spans that are calls into a layer; everything else in a replay is the
   placer's own glue (HPWL per level, blits, slack) and the level spans
   that group them. *)
let leaf_layers =
  [ "setup"; "qp.assemble"; "qp.cg"; "grid"; "flow.build"; "flow.mcf"; "realize";
    "repartition"; "legalize"; "audit" ]

(* log-log slope between the two finest levels *)
let slope (rows : Replay.level_row list) f =
  match List.rev rows with
  | b :: a :: _ ->
    log (f b /. f a) /. log (float_of_int b.Replay.nodes /. float_of_int a.Replay.nodes)
  | _ -> nan

let traced w insts ~seconds =
  let config = config_at w.domains in
  warm_up config insts;
  let s =
    round_robin ~seconds w.designs (fun d -> trace_design w config d (List.nth insts d))
  in
  let all = List.concat (Array.to_list s) in
  let fastest = fastest s in
  let span_s name t = (Span.total t.tr name).Span.seconds in
  let span_mw names t = sum (fun n -> (Span.total t.tr n).Span.words) names /. 1e6 in
  let count f = first s (fun t -> float_of_int (f t.replay)) in
  let last (r : Replay.result) = List.nth r.Replay.rows (List.length r.Replay.rows - 1) in
  let rounds = count (fun r -> List.fold_left (fun a x -> a + x.Replay.rounds) 0 r.Replay.rows) in
  let mcf_s = fastest (span_s "flow.mcf") in
  let product_s = fastest (fun t -> t.product.wall) in
  let replay_s = fastest (span_s "place") in
  let realized_cells =
    List.fold_left ( +. ) 0.0
      (List.mapi
         (fun d inst ->
           match s.(d) with
           | t :: _ -> float_of_int (n_movable inst * t.replay.Replay.realize_calls)
           | [] -> nan)
         insts)
  in
  let metrics =
    [
      m "qp.assemble_s" "s" (fastest (span_s "qp.assemble"));
      m "qp.cg_s" "s" (fastest (span_s "qp.cg"));
      m "qp.cg_iterations" "count" (count (fun r -> r.Replay.cg_iterations));
      m "qp.vars" "count" (count (fun r -> r.Replay.qp_vars));
      m "qp.alloc_mw" "Mwords" (fastest (span_mw [ "qp.assemble"; "qp.cg" ]));
      m "grid.create_s" "s" (fastest (span_s "grid"));
      m "flow.build_s" "s" (fastest (span_s "flow.build"));
      m "flow.mcf_s" "s" mcf_s;
      m "flow.mcf_last_s" "s" (fastest (fun t -> (last t.replay).Replay.mcf_s));
      m "flow.mcf_rounds" "count" rounds;
      m "flow.nodes_last" "count" (count (fun r -> (last r).Replay.nodes));
      m "flow.edges_last" "count" (count (fun r -> (last r).Replay.edges));
      m "flow.us_per_round" "us" (mcf_s /. rounds *. 1e6);
      m "flow.alloc_mw" "Mwords" (fastest (span_mw [ "flow.build"; "flow.mcf" ]));
      m "flow.mcf_exponent" "slope"
        (median (List.map (fun t -> slope t.replay.Replay.rows (fun x -> x.Replay.mcf_s)) all));
      m "flow.rounds_exponent" "slope"
        (median
           (List.map
              (fun t -> slope t.replay.Replay.rows (fun x -> float_of_int x.Replay.rounds))
              all));
      m "realize.s" "s" (fastest (span_s "realize"));
      m "realize.waves" "count" (count (fun r -> r.Replay.waves));
      m "realize.steps" "count" (count (fun r -> r.Replay.steps));
      m "realize.shipped_cells" "count" (count (fun r -> r.Replay.shipped_cells));
      m "realize.fallback_ratio" "ratio"
        (count (fun r -> r.Replay.fallback_cells) /. realized_cells);
      m "realize.alloc_mw" "Mwords" (fastest (span_mw [ "realize" ]));
      m "pool.dispatches" "count" (count (fun r -> r.Replay.dispatches));
      m "repartition.s" "s" (fastest (span_s "repartition"));
      m "legalize.run_s" "s" (fastest (span_s "legalize"));
      m "legalize.spilled" "count" (count (fun r -> r.Replay.spilled));
      m "legalize.avg_disp" "um" (median (List.map (fun t -> t.replay.Replay.avg_disp) all));
      m "gc.major_collections" "count"
        (fastest (fun t -> float_of_int (Span.total t.tr "place").Span.gcs));
      m "mb_violations" "count" (float_of_int !violations);
      m "degradations" "count" (float_of_int !degradations);
      m "fail_ratio" "ratio"
        (float_of_int !failed /. float_of_int (max 1 !attempted));
      m "trace.overhead_pct" "%" (100.0 *. (replay_s -. product_s) /. product_s);
      m "trace.coverage" "ratio"
        (median (List.map (fun t -> sum (fun n -> span_s n t) leaf_layers /. span_s "place" t) all));
      m "trace.replay_match" "bool" (if !mismatches = 0 && all <> [] then 1.0 else 0.0);
    ]
  in
  (metrics, s)

(* ------------------------------------------------------ traced output *)

(* The per-level flow table of every design's first traced sample: nodes,
   edges and Dijkstra rounds repeat exactly; seconds are that sample's. *)
let level_rows (s : traced list array) =
  List.concat
    (List.mapi
       (fun d ts ->
         match ts with
         | t :: _ -> List.map (fun row -> (d, row)) t.replay.Replay.rows
         | [] -> [])
       (Array.to_list s))

let print_level_table rows =
  Printf.printf "%-6s %-5s %-5s %7s %8s %9s %7s %10s %10s\n" "design" "level" "grid"
    "pieces" "nodes" "edges" "rounds" "build_s" "mcf_s";
  List.iter
    (fun (d, (x : Replay.level_row)) ->
      Printf.printf "%-6d %-5d %-5s %7d %8d %9d %7d %10.6f %10.6f\n" d x.Replay.level
        (Printf.sprintf "%dx%d" x.Replay.nx x.Replay.nx)
        x.Replay.pieces x.Replay.nodes x.Replay.edges x.Replay.rounds x.Replay.build_s
        x.Replay.mcf_s)
    rows

(* dune skips directories whose name starts with '_' *)
let out_dir = Filename.concat "fbpbench" "_out"

(* Spans stay in memory until here: one JSON file per run with the
   provenance, the metrics, the level table and every span. *)
let write_trace path ~provenance ~metrics ~rows (s : traced list array) =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let spans label tr =
    Printf.sprintf "{\"design\":%d,\"replay\":%S,\"spans\":[\n%s]}" tr.Span.design label
      (String.concat ",\n" (List.map Span.to_json (Span.spans tr)))
  in
  let replays =
    List.concat_map
      (fun t ->
        spans "workload-domains" t.tr
        :: (match t.single with Some tr -> [ spans "1-domain" tr ] | None -> []))
      (List.concat (Array.to_list s))
  in
  let row (d, (x : Replay.level_row)) =
    Printf.sprintf
      "{\"design\":%d,\"level\":%d,\"nx\":%d,\"pieces\":%d,\"nodes\":%d,\"edges\":%d,\
       \"rounds\":%d,\"build_s\":%.9f,\"mcf_s\":%.9f}"
      d x.Replay.level x.Replay.nx x.Replay.pieces x.Replay.nodes x.Replay.edges
      x.Replay.rounds x.Replay.build_s x.Replay.mcf_s
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\"provenance\":%s,\n\"metrics\":{%s},\n\"levels\":[\n%s],\n\"replays\":[\n%s]}\n"
    provenance
    (String.concat ","
       (List.map (fun x -> Printf.sprintf "%S:%s" x.key (json_num x.value)) metrics))
    (String.concat ",\n" (List.map row rows))
    (String.concat ",\n" replays);
  close_out oc

(* ---------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME flat10k | blocks6k | mb20k");
      ("--seed", Arg.Set_int seed, "N design seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S measuring time of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed >= 0, --seconds > 0 and --trace 0|1";
    exit 2
  end;
  let ((insts, _) as first_setup) = timed_setup w ~seed:!seed in
  let prov = provenance w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) insts in
  Printf.printf "provenance %s\n" prov;
  let metrics =
    if !trace = 0 then end_to_end w ~seed:!seed ~seconds:!seconds first_setup
    else begin
      let metrics, s = traced w insts ~seconds:!seconds in
      let rows = level_rows s in
      print_level_table rows;
      let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" w.name !seed) in
      write_trace path ~provenance:prov ~metrics ~rows s;
      Printf.printf "spans written to %s\n" path;
      metrics
    end
  in
  print_result metrics;
  exit (if !failed = 0 then 0 else 1)
