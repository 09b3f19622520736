(* In-memory span recorder for the traced replay.

   A span is one call into a layer: its name, the span that caused it, the
   design and level it belongs to, wall-clock start and end, and the words
   the calling domain allocated inside it.  Spans are appended to a list in
   memory and only serialized when the benchmark ends, so recording costs
   two clock reads and two GC counter reads per call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  name : string;
  design : int;
  level : int;  (** -1 outside the level loop *)
  t0 : float;
  t1 : float;
  alloc_w : float;  (** words allocated by the calling domain *)
  major_gcs : int;  (** major collections completed inside the span *)
}

type t = {
  design : int;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable stack : int list;  (* open spans, innermost first *)
}

let create ~design = { design; spans = []; next_id = 0; stack = [] }

(* [Gc.minor_words] reads the live allocation pointer; [quick_stat]'s
   major counters are refreshed at GC events, which is where they change. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

let with_span t ?(level = -1) name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let gcs0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = alloc_words () in
  let t0 = Fbp_util.Timer.now () in
  let finish () =
    let t1 = Fbp_util.Timer.now () in
    let w1 = alloc_words () in
    let gcs1 = (Gc.quick_stat ()).Gc.major_collections in
    t.stack <- List.tl t.stack;
    t.spans <-
      { id; parent; name; design = t.design; level; t0; t1;
        alloc_w = w1 -. w0; major_gcs = gcs1 - gcs0 }
      :: t.spans
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.spans

let duration s = s.t1 -. s.t0

type totals = { seconds : float; words : float; gcs : int }

(* Durations, allocations and major collections of every span named [name]. *)
let total t name =
  List.fold_left
    (fun a s ->
      if s.name = name then
        { seconds = a.seconds +. duration s; words = a.words +. s.alloc_w;
          gcs = a.gcs + s.major_gcs }
      else a)
    { seconds = 0.0; words = 0.0; gcs = 0 } t.spans

let to_json s =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"name\":%S,\"design\":%d,\"level\":%d,\
     \"start_s\":%.9f,\"end_s\":%.9f,\"alloc_words\":%.0f,\"major_gcs\":%d}"
    s.id s.parent s.name s.design s.level s.t0 s.t1 s.alloc_w s.major_gcs
