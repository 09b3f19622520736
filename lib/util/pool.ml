(* Persistent worker-domain pool with deterministic chunking.

   [Domain.spawn] costs tens of microseconds and a GC handshake; the seed
   paid it for every parallel realization wave and would have paid it per
   CG kernel call.  This pool spawns each worker domain once, parks it on a
   condition variable, and hands out idle workers to parallel regions from
   a free list — so a region costs two mutex handoffs per worker instead of
   a spawn/join pair, and nested regions (a realization worker running a
   local CG) simply find no free workers and run on their own domain: no
   blocking acquire, hence no deadlock by construction.  Workers are
   spawned only up to the default domain count minus one, so nesting
   never adds domains.

   Determinism contract (the property PR 4's lint and sanitizer enforce):
   results must be bit-identical for any domain count.  Two mechanisms:

   - work is split into chunks whose count and boundaries depend only on
     the problem size ([n_chunks] / [chunk_bounds]), never on how many
     domains execute them;
   - reductions combine per-chunk partials in a fixed-shape binary tree
     over the chunk index order ([reduce]), so float summation order is a
     function of the size alone.

   Which domain executes which chunk is scheduled dynamically (an atomic
   cursor), but every chunk writes only its own slot, so scheduling cannot
   influence results — only wall-clock. *)

type worker = {
  wid : int;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;  (* guarded by [mutex] *)
}

(* Completion latch of one parallel region. *)
type region = {
  rmutex : Mutex.t;
  rcond : Condition.t;
  mutable pending : int;
}

(* Hard cap on pool workers (domains beyond the caller's).  Far above any
   count the placer gains from; its kernels are memory-bound long before. *)
let max_workers = 30

type state = {
  lock : Mutex.t;
  workers : worker option array;  (* slot i <-> worker i, spawned lazily *)
  mutable n_spawned : int;
  mutable free : int list;  (* idle worker ids *)
}

let state =
  {
    lock = Mutex.create ();
    workers = Array.make max_workers None;
    n_spawned = 0;
    free = [];
  }

let cap n = max 1 (min n (max_workers + 1))

(* Domains the hardware can actually run at once.  Only counts that enter
   from outside the program are clamped to it ([clamp_to_hardware]):
   beyond the core count, extra domains only time-slice one core and add
   wakeup latency.  Correctness never depends on it (the determinism
   contract holds at any domain count). *)
let hardware_domains = max 1 (Domain.recommended_domain_count ())

let clamp_to_hardware n = cap (min n hardware_domains)

(* [FBP_DOMAINS] when it parses to at least 1, else 8; either way clamped
   to the hardware, since it comes from outside the program. *)
let default_domains =
  let requested =
    match Sys.getenv_opt "FBP_DOMAINS" with
    | Some s -> int_of_string_opt (String.trim s)
    | None -> None
  in
  Atomic.make
    (match requested with
    | Some n when n >= 1 -> clamp_to_hardware n
    | _ -> clamp_to_hardware 8)

let set_default_domains n = Atomic.set default_domains (cap n)
let get_default_domains () = Atomic.get default_domains

(* The process-wide count is the one every layer reads, so a caller that
   owns a [Config.t] pins it for the duration of its work.  Nested calls
   with the same count (the usual case) write nothing, so pool workers
   re-entering here never race the owner. *)
let with_domains n f =
  let n = cap n and prev = Atomic.get default_domains in
  if n = prev then f ()
  else begin
    Atomic.set default_domains n;
    Fun.protect ~finally:(fun () -> Atomic.set default_domains prev) f
  end

(* Worker handoffs since process start: one per [dispatch] (a job handed to
   a parked worker) plus one per [lease_run] submission (a whole batch
   enters the lease's helpers as a single event).  Exposed so callers can
   assert dispatch amortization — e.g. realization records the per-call
   delta as the [pool.dispatches] counter. *)
let dispatches = Atomic.make 0

let n_dispatches () = Atomic.get dispatches

(* -------------------------------------------------------- profiling hook *)

(* Occupancy telemetry for the profiler: every scheduling transition a
   worker makes (parked / spinning / running, per-chunk start/stop, lease
   batch submission) is pushed through one optional hook.  The disabled
   path is a single [Atomic.get] per transition — the same budget as an
   [Obs] probe — and transitions happen per wave / per chunk, never per
   element, so an armed hook stays out of the kernels' way too. *)

type profile_kind =
  | Pe_park_begin  (* worker blocks on its condition variable *)
  | Pe_park_end
  | Pe_spin_begin  (* lease helper spinning on the epoch atomic *)
  | Pe_spin_end
  | Pe_run_begin  (* a dispatched job / lease batch starts executing *)
  | Pe_run_end
  | Pe_chunk_begin of int  (* chunk index within the current region *)
  | Pe_chunk_end of int
  | Pe_submit of int  (* lease batch submitted; payload is the new epoch *)

type profile_event = {
  pe_wid : int;  (* worker id; -1 is the calling (owner) domain *)
  pe_domain : int;  (* [Domain.self] of the emitting domain *)
  pe_kind : profile_kind;
}

let profile_hook : (profile_event -> unit) option Atomic.t = Atomic.make None
let set_profile_hook f = Atomic.set profile_hook (Some f)
let clear_profile_hook () = Atomic.set profile_hook None

let[@inline] emit pe_wid pe_kind =
  match Atomic.get profile_hook with
  | None -> ()
  | Some f -> f { pe_wid; pe_domain = (Domain.self () :> int); pe_kind }

(* Workers loop forever: jobs are exception-safe wrappers built by
   [run_chunks]/[fork2], so nothing can escape into the loop.  A worker
   parked in [Condition.wait] does not keep the process alive: the runtime
   exits with the main domain. *)
let rec worker_loop (w : worker) =
  Mutex.lock w.mutex;
  if w.job = None then begin
    emit w.wid Pe_park_begin;
    while w.job = None do
      Condition.wait w.cond w.mutex
    done;
    emit w.wid Pe_park_end
  end;
  let job = w.job in
  w.job <- None;
  Mutex.unlock w.mutex;
  (match job with Some j -> j () | None -> ());
  worker_loop w

let spawn_worker wid =
  let w = { wid; mutex = Mutex.create (); cond = Condition.create (); job = None } in
  ignore (Domain.spawn (fun () -> worker_loop w) : unit Domain.t);
  w

(* Take up to [k] idle workers without blocking, spawning new domains only
   while fewer than [limit] exist (default: the domain count minus the
   caller's).  Returns fewer (possibly none) when the pool is busy — the
   caller then runs those shares itself.  So a region nested in a lease or
   in another region, which finds every worker taken, runs on its caller
   instead of adding a domain that would join every minor-GC
   stop-the-world. *)
let acquire ?(limit = Atomic.get default_domains - 1) k =
  if k <= 0 then []
  else begin
    Mutex.lock state.lock;
    let limit = min limit max_workers in
    let rec go k acc =
      if k = 0 then acc
      else
        match state.free with
        | id :: tl ->
          state.free <- tl;
          let w = match state.workers.(id) with Some w -> w | None -> assert false in
          go (k - 1) (w :: acc)
        | [] ->
          if state.n_spawned < limit then begin
            let id = state.n_spawned in
            let w = spawn_worker id in
            state.workers.(id) <- Some w;
            state.n_spawned <- state.n_spawned + 1;
            go (k - 1) (w :: acc)
          end
          else acc
    in
    let ws = go k [] in
    Mutex.unlock state.lock;
    ws
  end

let release ws =
  Mutex.lock state.lock;
  List.iter (fun w -> state.free <- w.wid :: state.free) ws;
  Mutex.unlock state.lock

let dispatch w job =
  Atomic.incr dispatches;
  Mutex.lock w.mutex;
  w.job <- Some job;
  Condition.signal w.cond;
  Mutex.unlock w.mutex

let region_done r =
  Mutex.lock r.rmutex;
  r.pending <- r.pending - 1;
  if r.pending = 0 then Condition.signal r.rcond;
  Mutex.unlock r.rmutex

let region_wait r =
  Mutex.lock r.rmutex;
  while r.pending > 0 do
    Condition.wait r.rcond r.rmutex
  done;
  Mutex.unlock r.rmutex

let region_reset r n =
  Mutex.lock r.rmutex;
  r.pending <- n;
  Mutex.unlock r.rmutex

(* ------------------------------------------------ deterministic chunking *)

(* Chunk-count cap: partial arrays stay tiny and the reduction tree shallow
   while chunks keep growing with n.  Must stay a pure function of n. *)
let max_chunks = 64

let n_chunks ~grain n =
  if n <= 0 then 0 else min max_chunks ((n + grain - 1) / grain)

let chunk_bounds ~n ~n_chunks c = (c * n / n_chunks, (c + 1) * n / n_chunks)

(* ------------------------------------------------------ parallel regions *)

let reraise (e, bt) = Printexc.raise_with_backtrace e bt

(* First recorded failure in chunk order; every chunk always runs (no
   cancellation), so which exception wins is deterministic. *)
let check_errors errs =
  match Array.find_map Fun.id errs with Some eb -> reraise eb | None -> ()

let run_chunks ~n_chunks:k body =
  if k > 0 then begin
    let d = min (Atomic.get default_domains) k in
    if d <= 1 then
      for c = 0 to k - 1 do
        body c
      done
    else begin
      let helpers = acquire (d - 1) in
      if helpers = [] then
        for c = 0 to k - 1 do
          body c
        done
      else begin
        let errs = Array.make k None in
        let next = Atomic.make 0 in
        let rec drain wid =
          let c = Atomic.fetch_and_add next 1 in
          if c < k then begin
            emit wid (Pe_chunk_begin c);
            (try body c
             with e -> errs.(c) <- Some (e, Printexc.get_raw_backtrace ()));
            emit wid (Pe_chunk_end c);
            drain wid
          end
        in
        let r =
          { rmutex = Mutex.create (); rcond = Condition.create ();
            pending = List.length helpers }
        in
        List.iter
          (fun w ->
            dispatch w (fun () ->
                emit w.wid Pe_run_begin;
                drain w.wid;
                emit w.wid Pe_run_end;
                region_done r))
          helpers;
        drain (-1);
        region_wait r;
        release helpers;
        check_errors errs
      end
    end
  end

(* ------------------------------------------------------ reusable leases *)

(* A lease holds acquired workers across many consecutive parallel regions
   (realization waves), so a region costs one submission instead of a
   per-wave acquire / dispatch-each-worker / release cycle.  Helpers run a
   resident loop: after draining a submission they spin briefly on the
   epoch atomic (consecutive waves are usually microseconds apart, so the
   next batch lands while they are still hot), then park on a condition
   variable.  Submissions are strictly serialized by the completion latch
   — the owner cannot submit epoch N+1 until every helper finished epoch N
   — so helpers can never miss a batch.  Error semantics are identical to
   [run_chunks]: every chunk runs, the first failure in chunk order is
   re-raised, and the lease stays usable afterwards. *)
type lease = {
  lhelpers : worker list;
  n_helpers : int;
  lmutex : Mutex.t;  (* parks helpers between submissions *)
  lcond : Condition.t;
  lepoch : int Atomic.t;  (* bumped once per submission (and once to stop) *)
  lstop : bool Atomic.t;
  lcursor : int Atomic.t;
  llatch : region;
  (* submission slots: written by the owner strictly between submissions
     (all helpers idle), published by the [lepoch] bump *)
  mutable lk : int;
  mutable lbody : slot:int -> int -> unit;
  mutable lerrs : (exn * Printexc.raw_backtrace) option array;
}

(* 4096 [cpu_relax] before parking: 96–115 µs measured on a 2-vCPU Xeon
   VM (one x86 [pause] is ~25 ns there).  Waves inside one realization
   call are typically closer together than that, so the next batch
   usually lands before the helper parks; [fbp_place profile -j 2] puts
   the spin below 1% of a helper's time. *)
let lease_spin_budget = 4096

(* [slot] names the draining domain within the lease: 0 for the owner,
   i for helper i.  No two domains drain one batch under the same slot. *)
let lease_drain ?(wid = -1) ~slot (l : lease) =
  let k = l.lk and body = l.lbody and errs = l.lerrs in
  let rec go () =
    let c = Atomic.fetch_and_add l.lcursor 1 in
    if c < k then begin
      emit wid (Pe_chunk_begin c);
      (try body ~slot c
       with e -> errs.(c) <- Some (e, Printexc.get_raw_backtrace ()));
      emit wid (Pe_chunk_end c);
      go ()
    end
  in
  go ()

let lease_helper (l : lease) wid slot =
  let rec spin_wait seen spin =
    if Atomic.get l.lepoch = seen && spin > 0 then begin
      Domain.cpu_relax ();
      spin_wait seen (spin - 1)
    end
  in
  let await seen =
    if Atomic.get l.lepoch = seen then begin
      emit wid Pe_spin_begin;
      spin_wait seen lease_spin_budget;
      emit wid Pe_spin_end;
      if Atomic.get l.lepoch = seen then begin
        emit wid Pe_park_begin;
        Mutex.lock l.lmutex;
        while Atomic.get l.lepoch = seen do
          Condition.wait l.lcond l.lmutex
        done;
        Mutex.unlock l.lmutex;
        emit wid Pe_park_end
      end
    end
  in
  let rec go seen =
    await seen;
    let e = Atomic.get l.lepoch in
    if Atomic.get l.lstop then region_done l.llatch
    else begin
      emit wid Pe_run_begin;
      lease_drain ~wid ~slot l;
      emit wid Pe_run_end;
      region_done l.llatch;
      go e
    end
  in
  go 0

let lease () =
  let d = Atomic.get default_domains in
  let helpers = acquire (d - 1) in
  let l =
    {
      lhelpers = helpers;
      n_helpers = List.length helpers;
      lmutex = Mutex.create ();
      lcond = Condition.create ();
      lepoch = Atomic.make 0;
      lstop = Atomic.make false;
      lcursor = Atomic.make 0;
      llatch =
        { rmutex = Mutex.create (); rcond = Condition.create (); pending = 0 };
      lk = 0;
      lbody = (fun ~slot:_ _ -> ());
      lerrs = [||];
    }
  in
  List.iteri
    (fun i w -> dispatch w (fun () -> lease_helper l w.wid (i + 1)))
    helpers;
  l

let lease_helpers l = l.n_helpers

let lease_submit (l : lease) =
  Mutex.lock l.lmutex;
  Atomic.incr l.lepoch;
  Condition.broadcast l.lcond;
  Mutex.unlock l.lmutex

let lease_run (l : lease) ~n_chunks:k body =
  if k > 0 then begin
    if Atomic.get l.lstop then
      invalid_arg "Pool.lease_run: lease was already released"
    else if l.n_helpers = 0 || k = 1 then
      for c = 0 to k - 1 do
        body ~slot:0 c
      done
    else begin
      l.lk <- k;
      l.lbody <- body;
      l.lerrs <- Array.make k None;
      Atomic.set l.lcursor 0;
      region_reset l.llatch l.n_helpers;
      Atomic.incr dispatches;
      emit (-1) (Pe_submit (Atomic.get l.lepoch + 1));
      lease_submit l;
      emit (-1) Pe_run_begin;
      lease_drain ~slot:0 l;
      emit (-1) Pe_run_end;
      region_wait l.llatch;
      let errs = l.lerrs in
      l.lbody <- (fun ~slot:_ _ -> ());
      l.lerrs <- [||];
      check_errors errs
    end
  end

let release_lease (l : lease) =
  if not (Atomic.get l.lstop) then begin
    if l.n_helpers > 0 then begin
      region_reset l.llatch l.n_helpers;
      Atomic.set l.lstop true;
      lease_submit l;
      region_wait l.llatch;
      release l.lhelpers
    end
    else Atomic.set l.lstop true
  end

(* Spawn (and immediately park) the helper workers that [n]-domain regions
   will use, so domain-spawn cost never lands inside a timed or
   latency-sensitive path.  Callers pass a count they already clamped to
   the hardware: on OCaml 5 every live domain — parked or not — joins each
   minor-GC stop-the-world rendezvous, so surplus domains tax *sequential*
   code on small machines (measured ~4x on one core with 7 parked
   workers). *)
let prewarm n =
  let k = cap n - 1 in
  release (acquire ~limit:k k)

let fork2 f g =
  if Atomic.get default_domains < 2 then
    let a = f () in
    let b = g () in
    (a, b)
  else
    match acquire 1 with
    | [] ->
      let a = f () in
      let b = g () in
      (a, b)
    | w :: _ as ws ->
      let res_g = ref None in
      let err_g = ref None in
      let r =
        { rmutex = Mutex.create (); rcond = Condition.create (); pending = 1 }
      in
      dispatch w (fun () ->
          emit w.wid Pe_run_begin;
          (try res_g := Some (g ())
           with e -> err_g := Some (e, Printexc.get_raw_backtrace ()));
          emit w.wid Pe_run_end;
          region_done r);
      let res_f =
        try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      region_wait r;
      release ws;
      (* deterministic precedence: the first task's failure wins *)
      (match res_f with
      | Error eb -> reraise eb
      | Ok a -> (
        match !err_g with
        | Some eb -> reraise eb
        | None -> (
          match !res_g with Some b -> (a, b) | None -> assert false)))

let reduce ~grain ~n chunk combine =
  let k = n_chunks ~grain n in
  if k = 0 then None
  else if k = 1 then Some (chunk 0 n)
  else begin
    let parts = Array.make k None in
    run_chunks ~n_chunks:k (fun c ->
        let lo, hi = chunk_bounds ~n ~n_chunks:k c in
        parts.(c) <- Some (chunk lo hi));
    (* fixed-shape binary tree over chunk order: the combine shape depends
       only on k, never on the executing domain count *)
    let rec tree lo hi =
      if hi - lo = 1 then
        match parts.(lo) with Some v -> v | None -> assert false
      else begin
        let mid = lo + (((hi - lo) + 1) / 2) in
        let l = tree lo mid in
        let r = tree mid hi in
        combine l r
      end
    in
    Some (tree 0 k)
  end

let n_workers_spawned () =
  Mutex.lock state.lock;
  let n = state.n_spawned in
  Mutex.unlock state.lock;
  n
