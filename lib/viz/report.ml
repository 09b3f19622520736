(* HTML run reports.

   Everything is inlined — CSS, SVG charts — so the file can be mailed or
   attached to CI artifacts as-is.  Chart styling follows the repo's
   data-viz conventions: categorical hues in fixed order (blue, orange,
   aqua, yellow) for the phase breakdown, a single blue for the one-series
   convergence line, a light-to-dark blue ramp for the density heatmap with
   red reserved as an "overfilled" status (always doubled by the tooltip
   text and the legend line, never color alone), recessive grid lines, text
   in ink colors rather than series colors, and native [<title>] tooltips
   on every mark.  Light and dark surfaces both ship; the dark palette is
   its own stepping, not an automatic inversion. *)

module R = Fbp_obs.Recorder
module J = Fbp_obs.Obs.Json

let escape_html s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fnum v =
  if Float.abs v >= 1e5 || (Float.abs v < 1e-3 && not (Float.equal v 0.0)) then
    Printf.sprintf "%.4e" v
  else Printf.sprintf "%.4g" v

let fsec v = Printf.sprintf "%.3fs" v
let fpct v = Printf.sprintf "%.3f%%" (100.0 *. v)

(* sequential blue ramp, steps 100..700 (light mode) *)
let seq_ramp =
  [| "#cde2fb"; "#b7d3f6"; "#9ec5f4"; "#86b6ef"; "#6da7ec"; "#5598e7";
     "#3987e5"; "#2a78d6"; "#256abf"; "#1c5cab"; "#184f95"; "#104281";
     "#0d366b" |]

let overflow_red = "#e34948"
let neutral_gray = "#f0efec"

(* ------------------------------------------------------------- charts *)

(* HPWL trajectory: one point per level plus the post-legalization point.
   Single series -> no legend box (the caption names it); direct label on
   the last point; <title> tooltips on every marker. *)
let convergence_svg (levels : R.level list) (leg : R.legalization option) =
  let pts =
    List.map (fun (l : R.level) -> (Printf.sprintf "L%d" l.R.level, l.R.hpwl)) levels
    @ (match leg with Some l -> [ ("legal", l.R.leg_hpwl) ] | None -> [])
  in
  match pts with
  | [] | [ _ ] -> "<p class=\"muted\">not enough snapshots for a curve</p>"
  | _ ->
    let n = List.length pts in
    let w = 640.0 and h = 260.0 in
    let ml = 86.0 and mr = 70.0 and mt = 16.0 and mb = 34.0 in
    let iw = w -. ml -. mr and ih = h -. mt -. mb in
    let ys = List.map snd pts in
    let ymin = List.fold_left Float.min Float.infinity ys in
    let ymax = List.fold_left Float.max Float.neg_infinity ys in
    let pad = Float.max (0.05 *. (ymax -. ymin)) (1e-9 +. (0.02 *. Float.abs ymax)) in
    let ymin = ymin -. pad and ymax = ymax +. pad in
    let x i = ml +. (iw *. float_of_int i /. float_of_int (n - 1)) in
    let y v = mt +. (ih *. (1.0 -. ((v -. ymin) /. (ymax -. ymin)))) in
    let b = Buffer.create 4096 in
    Printf.bprintf b
      "<svg id=\"convergence\" viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" \
       height=\"%.0f\" role=\"img\" aria-label=\"HPWL per placement level\">"
      w h w h;
    (* recessive horizontal grid + y tick labels *)
    for g = 0 to 3 do
      let vy = ymin +. ((ymax -. ymin) *. float_of_int g /. 3.0) in
      Printf.bprintf b
        "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" class=\"grid\"/>"
        ml (y vy) (w -. mr) (y vy);
      Printf.bprintf b
        "<text x=\"%.1f\" y=\"%.1f\" class=\"tick\" text-anchor=\"end\">%s</text>"
        (ml -. 6.0) (y vy +. 3.5) (fnum vy)
    done;
    (* x tick labels *)
    List.iteri
      (fun i (name, _) ->
        Printf.bprintf b
          "<text x=\"%.1f\" y=\"%.1f\" class=\"tick\" text-anchor=\"middle\">%s</text>"
          (x i) (h -. mb +. 16.0) (escape_html name))
      pts;
    (* the line *)
    Buffer.add_string b "<polyline class=\"series-line\" points=\"";
    List.iteri (fun i (_, v) -> Printf.bprintf b "%.1f,%.1f " (x i) (y v)) pts;
    Buffer.add_string b "\"/>";
    (* markers, each with a native tooltip *)
    List.iteri
      (fun i (name, v) ->
        Printf.bprintf b
          "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"4\" class=\"series-dot\">\
           <title>%s: HPWL %s</title></circle>"
          (x i) (y v) (escape_html name) (fnum v))
      pts;
    (* direct label on the final point *)
    (match List.rev pts with
     | (_, v) :: _ ->
       Printf.bprintf b
         "<text x=\"%.1f\" y=\"%.1f\" class=\"label\">%s</text>"
         (x (n - 1) +. 8.0) (y v +. 4.0) (fnum v)
     | [] -> ());
    Buffer.add_string b "</svg>";
    Buffer.contents b

(* Per-phase wall time: one stacked horizontal bar per level plus one for
   legalization, 2px surface gaps between segments, value label at the end
   of each row in ink (never series color). *)
let phase_svg (levels : R.level list) (leg : R.legalization option) =
  let rows =
    List.map
      (fun (l : R.level) ->
        ( Printf.sprintf "L%d" l.R.level,
          [ ("qp", l.R.qp_time, "var(--series-1)");
            ("flow", l.R.flow_time, "var(--series-2)");
            ("realization", l.R.realization_time, "var(--series-3)") ] ))
      levels
    @ (match leg with
       | Some l -> [ ("legal", [ ("legalize", l.R.leg_time, "var(--series-4)") ]) ]
       | None -> [])
  in
  if rows = [] then "<p class=\"muted\">no phase times recorded</p>"
  else begin
    let total r = List.fold_left (fun a (_, t, _) -> a +. t) 0.0 (snd r) in
    let tmax = List.fold_left (fun a r -> Float.max a (total r)) 1e-9 rows in
    let roww = 560.0 and rowh = 20.0 and gap = 8.0 and ml = 56.0 in
    let h = (float_of_int (List.length rows) *. (rowh +. gap)) +. 28.0 in
    let w = ml +. roww +. 90.0 in
    let b = Buffer.create 4096 in
    Printf.bprintf b
      "<svg id=\"phase-times\" viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" \
       height=\"%.0f\" role=\"img\" aria-label=\"wall time per phase and level\">"
      w h w h;
    List.iteri
      (fun i (name, segs) ->
        let ry = 4.0 +. (float_of_int i *. (rowh +. gap)) in
        Printf.bprintf b
          "<text x=\"%.1f\" y=\"%.1f\" class=\"tick\" text-anchor=\"end\">%s</text>"
          (ml -. 8.0) (ry +. (rowh /. 2.0) +. 3.5) (escape_html name);
        let xr = ref ml in
        List.iter
          (fun (phase, t, color) ->
            let sw = Float.max 0.0 (roww *. t /. tmax -. 2.0) in
            if sw > 0.2 then begin
              Printf.bprintf b
                "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
                 rx=\"3\" fill=\"%s\"><title>%s %s: %s</title></rect>"
                !xr ry sw rowh color (escape_html name) phase (fsec t);
              xr := !xr +. sw +. 2.0
            end)
          segs;
        Printf.bprintf b
          "<text x=\"%.1f\" y=\"%.1f\" class=\"label\">%s</text>"
          (!xr +. 6.0) (ry +. (rowh /. 2.0) +. 3.5)
          (fsec (List.fold_left (fun a (_, t, _) -> a +. t) 0.0 segs)))
      rows;
    Buffer.add_string b "</svg>";
    (* legend: categorical identity is never color-alone *)
    Buffer.add_string b
      "<div class=\"legend\">\
       <span><i style=\"background:var(--series-1)\"></i>QP</span>\
       <span><i style=\"background:var(--series-2)\"></i>flow (build + MCF)</span>\
       <span><i style=\"background:var(--series-3)\"></i>realization</span>\
       <span><i style=\"background:var(--series-4)\"></i>legalization</span>\
       </div>";
    Buffer.contents b
  end

(* Final-placement bin utilization.  Sequential single-hue ramp for
   magnitude; overfilled bins switch to the reserved status red and say so
   in their tooltip; fully blocked bins recede to neutral. *)
let heatmap_svg (d : R.density_map) =
  let cell = 14.0 and gap = 2.0 in
  let w = (float_of_int d.R.dnx *. (cell +. gap)) +. gap in
  let h = (float_of_int d.R.dny *. (cell +. gap)) +. gap in
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "<svg id=\"density-heatmap\" viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" \
     height=\"%.0f\" role=\"img\" aria-label=\"density heatmap\">" w h w h;
  for by = 0 to d.R.dny - 1 do
    for bx = 0 to d.R.dnx - 1 do
      let i = (by * d.R.dnx) + bx in
      let u = d.R.usage.(i) and c = d.R.capacity.(i) in
      let util = if c > 0.0 then u /. c else 0.0 in
      (* a legal row-based placement routinely exceeds tiny fine-grain bins
         by a sliver (boundary-straddling cells); only flag real hotspots *)
      let fill, status =
        if c <= 0.0 then (neutral_gray, "blocked")
        else if util > 1.05 then (overflow_red, "OVERFILLED")
        else
          let steps = Array.length seq_ramp in
          let k =
            min (steps - 1) (int_of_float (util *. float_of_int steps))
          in
          (seq_ramp.(k), "ok")
      in
      (* y flipped: row 0 is the chip's bottom row, drawn at the bottom *)
      let x = gap +. (float_of_int bx *. (cell +. gap)) in
      let y = gap +. (float_of_int (d.R.dny - 1 - by) *. (cell +. gap)) in
      Printf.bprintf b
        "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" rx=\"2\" \
         fill=\"%s\"><title>bin (%d,%d): %.1f%% of capacity [%s]</title></rect>"
        x y cell cell fill bx by (100.0 *. util) status
    done
  done;
  Buffer.add_string b "</svg>";
  Buffer.add_string b
    "<p class=\"muted\">utilization, light &#8594; dark = 0&#8594;100% of bin \
     capacity; <span class=\"overflow-chip\">red</span> = overfilled (&gt;105%); \
     gray = blocked.</p>";
  Buffer.contents b

(* Per-domain utilization lane from the profiler summary: one stacked
   horizontal bar per domain, busy / spin / park in categorical hues and
   GC/STW in the reserved status red (doubled by tooltip text). *)
let domain_svg (s : Fbp_obs.Profiler.summary) =
  let module P = Fbp_obs.Profiler in
  if s.P.s_domains = [] then
    "<p class=\"muted\">no domain samples captured</p>"
  else begin
    let roww = 560.0 and rowh = 20.0 and gap = 8.0 and ml = 64.0 in
    let n = List.length s.P.s_domains in
    let h = (float_of_int n *. (rowh +. gap)) +. 28.0 in
    let w = ml +. roww +. 110.0 in
    let b = Buffer.create 4096 in
    Printf.bprintf b
      "<svg id=\"domain-timeline\" viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" \
       height=\"%.0f\" role=\"img\" aria-label=\"per-domain utilization\">"
      w h w h;
    let role (d : P.domain_summary) =
      if d.P.d_wid = -1 then "main"
      else if d.P.d_wid = -2 then Printf.sprintf "d%d" d.P.d_tid
      else Printf.sprintf "w%d" d.P.d_wid
    in
    List.iteri
      (fun i (d : P.domain_summary) ->
        let ry = 4.0 +. (float_of_int i *. (rowh +. gap)) in
        Printf.bprintf b
          "<text x=\"%.1f\" y=\"%.1f\" class=\"tick\" text-anchor=\"end\">%s</text>"
          (ml -. 8.0) (ry +. (rowh /. 2.0) +. 3.5) (escape_html (role d));
        let wall = Float.max d.P.d_wall_us 1e-9 in
        let xr = ref ml in
        List.iter
          (fun (label, us, color) ->
            let sw = Float.max 0.0 ((roww *. us /. wall) -. 2.0) in
            if sw > 0.2 then begin
              Printf.bprintf b
                "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" \
                 rx=\"3\" fill=\"%s\"><title>%s %s: %.1fms (%.1f%%)</title></rect>"
                !xr ry sw rowh color (escape_html (role d)) label (us /. 1e3)
                (100.0 *. us /. wall);
              xr := !xr +. sw +. 2.0
            end)
          [ ("busy", d.P.d_busy_us, "var(--series-1)");
            ("spin", d.P.d_spin_us, "var(--series-4)");
            ("park", d.P.d_park_us, "var(--surface-2)");
            ("gc/stw", d.P.d_stw_us, overflow_red) ];
        Printf.bprintf b
          "<text x=\"%.1f\" y=\"%.1f\" class=\"label\">%.0f%% busy</text>"
          (ml +. roww +. 8.0)
          (ry +. (rowh /. 2.0) +. 3.5)
          (100.0 *. d.P.d_busy_us /. wall))
      s.P.s_domains;
    Buffer.add_string b "</svg>";
    Buffer.add_string b
      (Printf.sprintf
         "<div class=\"legend\">\
          <span><i style=\"background:var(--series-1)\"></i>busy</span>\
          <span><i style=\"background:var(--series-4)\"></i>spin</span>\
          <span><i style=\"background:var(--surface-2)\"></i>parked</span>\
          <span><i style=\"background:%s\"></i>GC / stop-the-world</span>\
          </div>"
         overflow_red);
    Buffer.contents b
  end

(* GC pause breakdown: phase attribution plus the longest merged pauses. *)
let gc_pauses_html (s : Fbp_obs.Profiler.summary) =
  let module P = Fbp_obs.Profiler in
  let b = Buffer.create 2048 in
  Buffer.add_string b "<div id=\"gc-pauses\">";
  Printf.bprintf b
    "<p class=\"muted\">%d stop-the-world rendezvous &#183; minor %.1fms \
     &#183; major %.1fms &#183; %d runtime events%s%s</p>"
    s.P.s_stw_count (s.P.s_minor_us /. 1e3) (s.P.s_major_us /. 1e3)
    s.P.s_events
    (if s.P.s_lost > 0 then Printf.sprintf " &#183; %d LOST" s.P.s_lost else "")
    (if s.P.s_available then ""
     else " &#183; runtime events unavailable (pool occupancy only)");
  if s.P.s_phases <> [] then begin
    Buffer.add_string b
      "<table class=\"metrics\"><thead><tr><th>phase</th><th>wall</th>\
       <th>GC pause</th><th>pauses</th><th>GC %</th></tr></thead><tbody>";
    List.iter
      (fun (ph : P.phase_summary) ->
        Printf.bprintf b
          "<tr><td>%s</td><td>%.1fms</td><td>%.1fms</td><td>%d</td>\
           <td>%.2f%%</td></tr>"
          (escape_html ph.P.ph_name)
          (ph.P.ph_wall_us /. 1e3)
          (ph.P.ph_gc_us /. 1e3)
          ph.P.ph_gc_n
          (if ph.P.ph_wall_us > 0.0 then
             100.0 *. ph.P.ph_gc_us /. ph.P.ph_wall_us
           else 0.0))
      s.P.s_phases;
    Buffer.add_string b "</tbody></table>"
  end;
  if s.P.s_top_pauses <> [] then begin
    Buffer.add_string b "<h3>Longest pauses</h3><ul class=\"muted\">";
    List.iter
      (fun (p : P.pause) ->
        Printf.bprintf b "<li>domain %d: %s, %.2fms at t=%.1fms</li>" p.P.p_tid
          (escape_html p.P.p_kind) (p.P.p_dur_us /. 1e3) (p.P.p_ts_us /. 1e3))
      s.P.s_top_pauses;
    Buffer.add_string b "</ul>"
  end;
  Buffer.add_string b "</div>";
  Buffer.contents b

(* Per-PR performance trajectory (bench trajectory output): a sparkline of
   global placement time across committed BENCH artifacts plus the table. *)
let trajectory_html (j : J.t) =
  let entries =
    match J.member "entries" j with Some (J.Arr es) -> es | _ -> []
  in
  let num k o = match J.member k o with Some (J.Num f) -> Some f | _ -> None in
  let rows =
    List.filter_map
      (fun e ->
        match num "pr" e with
        | Some pr ->
          Some
            (int_of_float pr, num "qp_s" e, num "realization_s" e,
             num "global_s" e)
        | None -> None)
      entries
  in
  if rows = [] then "<p class=\"muted\">no trajectory entries</p>"
  else begin
    let b = Buffer.create 2048 in
    Buffer.add_string b "<div id=\"perf-trajectory\">";
    (* sparkline over the PRs that have a global time *)
    let gpts =
      List.filter_map
        (fun (pr, _, _, g) -> match g with Some g -> Some (pr, g) | None -> None)
        rows
    in
    if List.length gpts >= 2 then begin
      let n = List.length gpts in
      let w = 420.0 and h = 80.0 and ml = 10.0 and mt = 8.0 in
      let iw = w -. (2.0 *. ml) and ih = h -. (2.0 *. mt) -. 14.0 in
      let gmax =
        List.fold_left (fun a (_, g) -> Float.max a g) 1e-9 gpts
      in
      let x i = ml +. (iw *. float_of_int i /. float_of_int (n - 1)) in
      let y g = mt +. (ih *. (1.0 -. (g /. gmax))) in
      Printf.bprintf b
        "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" \
         role=\"img\" aria-label=\"global placement time per PR\">"
        w h w h;
      Buffer.add_string b "<polyline class=\"series-line\" points=\"";
      List.iteri (fun i (_, g) -> Printf.bprintf b "%.1f,%.1f " (x i) (y g)) gpts;
      Buffer.add_string b "\"/>";
      List.iteri
        (fun i (pr, g) ->
          Printf.bprintf b
            "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"3\" class=\"series-dot\">\
             <title>PR %d: global %.3fs</title></circle>"
            (x i) (y g) pr g;
          Printf.bprintf b
            "<text x=\"%.1f\" y=\"%.1f\" class=\"tick\" \
             text-anchor=\"middle\">pr%d</text>"
            (x i) (h -. 4.0) pr)
        gpts;
      Buffer.add_string b "</svg>"
    end;
    Buffer.add_string b
      "<table class=\"metrics\"><thead><tr><th>PR</th><th>qp</th>\
       <th>realization</th><th>global</th></tr></thead><tbody>";
    let cell = function Some v -> fsec v | None -> "&#8212;" in
    List.iter
      (fun (pr, q, r, g) ->
        Printf.bprintf b
          "<tr><td>pr%d</td><td>%s</td><td>%s</td><td>%s</td></tr>" pr (cell q)
          (cell r) (cell g))
      rows;
    Buffer.add_string b "</tbody></table>";
    Buffer.add_string b
      "<p class=\"muted\">times are the committed BENCH artifacts' 1-domain \
       smoke numbers; machines differ across PRs, so read trends, not \
       absolutes.</p>";
    Buffer.add_string b "</div>";
    Buffer.contents b
  end

(* -------------------------------------------------------------- tables *)

let levels_table (levels : R.level list) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "<table><thead><tr><th>level</th><th>grid</th><th>|W|</th><th>|R|</th>\
     <th>|V|</th><th>|E|</th><th>HPWL</th><th>overflow</th><th>viol</th>\
     <th>CG it</th><th>residual</th><th>MCF cost</th><th>pivots</th>\
     <th>waves</th><th>shipped</th><th>QP</th><th>flow</th><th>realize</th>\
     <th>GC maj</th></tr></thead><tbody>";
  List.iter
    (fun (l : R.level) ->
      Printf.bprintf b
        "<tr class=\"level-row\"><td>%d</td><td>%dx%d</td><td>%d</td>\
         <td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td><td>%d</td>\
         <td>%d</td><td>%.2e</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td>\
         <td>%s</td><td>%s</td><td>%s</td><td>%d</td></tr>"
        l.R.level l.R.nx l.R.ny l.R.n_windows l.R.n_pieces l.R.flow_nodes
        l.R.flow_edges (fnum l.R.hpwl) (fpct l.R.density_overflow)
        l.R.mb_violations l.R.cg_iterations l.R.cg_residual (fnum l.R.mcf_cost)
        l.R.mcf_rounds l.R.waves l.R.shipped_cells (fsec l.R.qp_time)
        (fsec l.R.flow_time) (fsec l.R.realization_time)
        l.R.gc.R.major_collections)
    levels;
  Buffer.add_string b "</tbody></table>";
  Buffer.contents b

let metrics_tables (m : J.t) =
  let b = Buffer.create 4096 in
  (match J.member "counters" m with
   | Some (J.Obj cs) when cs <> [] ->
     Buffer.add_string b
       "<h3>Counters</h3><table class=\"metrics\"><thead><tr><th>counter</th>\
        <th>value</th></tr></thead><tbody>";
     List.iter
       (fun (k, v) ->
         match v with
         | J.Num f ->
           Printf.bprintf b "<tr><td>%s</td><td>%.0f</td></tr>" (escape_html k) f
         | _ -> ())
       cs;
     Buffer.add_string b "</tbody></table>"
   | _ -> ());
  (match J.member "histograms" m with
   | Some (J.Obj hs) when hs <> [] ->
     Buffer.add_string b
       "<h3>Histograms</h3><table class=\"metrics\"><thead><tr>\
        <th>histogram</th><th>count</th><th>mean</th><th>p50</th><th>p90</th>\
        <th>p99</th><th>max</th></tr></thead><tbody>";
     List.iter
       (fun (k, summary) ->
         let num field =
           match J.member field summary with
           | Some (J.Num f) -> fnum f
           | _ -> "&#8212;"
         in
         Printf.bprintf b
           "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td>\
            <td>%s</td><td>%s</td></tr>"
           (escape_html k) (num "count") (num "mean") (num "p50") (num "p90")
           (num "p99") (num "max"))
       hs;
     Buffer.add_string b "</tbody></table>"
   | _ -> ());
  Buffer.contents b

(* ---------------------------------------------------------------- page *)

let stat_tile label value = Printf.sprintf
    "<div class=\"tile\"><div class=\"tile-value\">%s</div>\
     <div class=\"tile-label\">%s</div></div>" value label

let css =
  {css|
:root { color-scheme: light dark; }
.viz-root {
  --surface-1: #fcfcfb; --surface-2: #f0efec;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #73726e;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --grid-line: #e4e3df;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.45 system-ui, sans-serif;
  max-width: 980px; margin: 0 auto; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --surface-1: #1a1a19; --surface-2: #262625;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #908f89;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --grid-line: #383835;
  }
}
h1 { font-size: 20px; margin: 0 0 2px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 14px; margin: 18px 0 6px; }
.muted { color: var(--text-muted); font-size: 12px; }
.provenance { color: var(--text-secondary); margin-bottom: 18px; }
.provenance code { background: var(--surface-2); padding: 1px 5px; border-radius: 4px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.tile { background: var(--surface-2); border-radius: 8px; padding: 10px 16px; min-width: 120px; }
.tile-value { font-size: 20px; font-weight: 600; }
.tile-label { font-size: 12px; color: var(--text-secondary); }
svg { display: block; margin: 8px 0; max-width: 100%; }
svg text { font: 11px system-ui, sans-serif; }
.grid { stroke: var(--grid-line); stroke-width: 1; }
.tick { fill: var(--text-secondary); }
.label { fill: var(--text-primary); font-weight: 600; }
.series-line { fill: none; stroke: var(--series-1); stroke-width: 2; }
.series-dot { fill: var(--series-1); stroke: var(--surface-1); stroke-width: 2; }
.legend { display: flex; gap: 16px; font-size: 12px; color: var(--text-secondary); margin: 4px 0 12px; }
.legend i { display: inline-block; width: 10px; height: 10px; border-radius: 2px; margin-right: 5px; }
.overflow-chip { color: #b51f1f; font-weight: 600; }
table { border-collapse: collapse; font-size: 12px; width: 100%; }
th, td { text-align: right; padding: 4px 8px; border-bottom: 1px solid var(--grid-line); }
th:first-child, td:first-child { text-align: left; }
thead th { color: var(--text-secondary); font-weight: 600; }
table.metrics { max-width: 640px; }
|css}

let render ?trajectory (t : R.t) =
  let b = Buffer.create 16384 in
  let p = t.R.provenance in
  Buffer.add_string b
    "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\
     <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">";
  Printf.bprintf b "<title>fbp run report — %s</title>" (escape_html p.R.design);
  Printf.bprintf b "<style>%s</style></head><body class=\"viz-root\">" css;
  Printf.bprintf b "<h1>Placement run report</h1>";
  Printf.bprintf b
    "<div class=\"provenance\"><code>%s</code> &#183; %d cells &#183; %d nets \
     &#183; %d movebounds &#183; tool %s%s &#183; run-record v%d%s</div>"
    (escape_html p.R.design) p.R.cells p.R.nets p.R.movebounds
    (escape_html p.R.tool)
    (match p.R.seed with Some s -> Printf.sprintf " &#183; seed %d" s | None -> "")
    t.R.version
    ((if p.R.config = [] then ""
      else
        " &#183; "
        ^ String.concat ", "
            (List.map
               (fun (k, v) ->
                 Printf.sprintf "%s=%s" (escape_html k) (escape_html v))
               p.R.config))
     ^
     match p.R.host with
     | None -> ""
     | Some h ->
       Printf.sprintf
         " &#183; host: %d hw domains, %d effective%s" h.R.hardware_domains
         h.R.eff_domains
         (match h.R.peak_rss_kb with
          | Some kb -> Printf.sprintf ", peak RSS %d MB" (kb / 1024)
          | None -> ""));
  (match t.R.totals with
   | Some tt ->
     Buffer.add_string b "<div class=\"tiles\">";
     Buffer.add_string b (stat_tile "final HPWL" (fnum tt.R.hpwl));
     Buffer.add_string b (stat_tile "total time" (fsec tt.R.total_time));
     Buffer.add_string b
       (stat_tile "legality"
          (if tt.R.legal then "&#10003; legal" else "&#10007; ILLEGAL"));
     Buffer.add_string b
       (stat_tile "movebound violations" (string_of_int tt.R.violations));
     Buffer.add_string b
       (stat_tile "levels" (string_of_int (List.length t.R.levels)));
     Buffer.add_string b "</div>"
   | None -> ());
  Buffer.add_string b "<h2>HPWL convergence</h2>";
  Buffer.add_string b (convergence_svg t.R.levels t.R.legalization);
  Buffer.add_string b "<h2>Wall time by phase</h2>";
  Buffer.add_string b (phase_svg t.R.levels t.R.legalization);
  (match t.R.density with
   | Some d ->
     Buffer.add_string b "<h2>Final density</h2>";
     Buffer.add_string b (heatmap_svg d)
   | None -> ());
  (match t.R.profile with
   | Some s ->
     Buffer.add_string b "<h2>Domain utilization</h2>";
     Buffer.add_string b (domain_svg s);
     Buffer.add_string b "<h2>GC pauses</h2>";
     Buffer.add_string b (gc_pauses_html s)
   | None -> ());
  (match trajectory with
   | Some j ->
     Buffer.add_string b "<h2>Performance trajectory</h2>";
     Buffer.add_string b (trajectory_html j)
   | None -> ());
  Buffer.add_string b "<h2>Levels</h2>";
  Buffer.add_string b (levels_table t.R.levels);
  (match t.R.legalization with
   | Some l ->
     Buffer.add_string b "<h2>Legalization</h2>";
     Printf.bprintf b
       "<table><thead><tr><th>HPWL</th><th>overflow</th><th>viol</th>\
        <th>time</th><th>spilled</th><th>failed</th><th>avg disp</th>\
        <th>max disp</th></tr></thead><tbody><tr><td>%s</td><td>%s</td>\
        <td>%d</td><td>%s</td><td>%d</td><td>%d</td><td>%.2f</td>\
        <td>%.2f</td></tr></tbody></table>"
       (fnum l.R.leg_hpwl) (fpct l.R.leg_density_overflow)
       l.R.leg_mb_violations (fsec l.R.leg_time) l.R.spilled l.R.failed
       l.R.avg_displacement l.R.max_displacement
   | None -> ());
  (match t.R.metrics with
   | Some m ->
     Buffer.add_string b "<h2>Metrics</h2>";
     Buffer.add_string b (metrics_tables m)
   | None -> ());
  Buffer.add_string b "</body></html>\n";
  Buffer.contents b
