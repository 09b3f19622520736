(** Persistent worker-domain pool with deterministic chunking.

    Worker domains are spawned once (lazily, and only while fewer than the
    default domain count minus one exist), parked on condition variables,
    and handed to parallel regions from a free list: a region costs two
    mutex handoffs per worker instead of a [Domain.spawn]/[join] pair.
    Acquisition never blocks — nested regions (e.g. a local CG running on
    a realization worker) find no free workers and execute on their own
    domain, so deadlock is impossible by construction.

    Determinism contract: results are bit-identical for any domain count.
    Chunk count and boundaries depend only on the problem size, and
    {!reduce} combines per-chunk partials in a fixed-shape binary tree over
    chunk order; dynamic scheduling affects wall-clock only.

    One domain count sizes every region: the process-wide default.  It
    starts at [FBP_DOMAINS] when that parses to at least 1, else 8,
    clamped by {!clamp_to_hardware}; callers that own a count (a
    [Config.t]) pin it with {!with_domains}. *)

val set_default_domains : int -> unit
val get_default_domains : unit -> int

(** [with_domains n f] runs [f] with the default domain count set to [n]
    and restores the previous count afterwards, also when [f] raises.  The
    count is process-wide: nested calls with the same [n] are free, but
    concurrent domains must not pin different counts. *)
val with_domains : int -> (unit -> 'a) -> 'a

(** Number of chunks for [n] items at the given [grain] (target items per
    chunk), capped so partial arrays stay tiny.  Pure in [n] and [grain] —
    never a function of the domain count. *)
val n_chunks : grain:int -> int -> int

(** [chunk_bounds ~n ~n_chunks c] is the half-open range of chunk [c]. *)
val chunk_bounds : n:int -> n_chunks:int -> int -> int * int

(** [run_chunks ~n_chunks body] executes [body c] for every chunk [c] in
    [0, n_chunks), distributing chunks over up to the pool's domain count
    (the caller plus free pool workers).  [body] must only write state
    private to its chunk.  If bodies raise, every chunk still runs and the
    first failure in chunk order is re-raised — no worker is ever lost and
    the pool is immediately reusable. *)
val run_chunks : n_chunks:int -> (int -> unit) -> unit

(** [fork2 f g] runs the two thunks concurrently when a worker is free
    and the pool's domain count is at least 2, else sequentially.  If both
    raise, [f]'s exception wins (deterministic precedence). *)
val fork2 : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

(** [reduce ~grain ~n chunk combine] computes [chunk lo hi] partials over
    the deterministic chunking of [0, n) and combines them in a fixed-shape
    binary tree over chunk order, so the result is bit-identical for any
    domain count even when [combine] is float addition.  [None] iff
    [n <= 0]. *)
val reduce :
  grain:int ->
  n:int ->
  (int -> int -> 'a) ->
  ('a -> 'a -> 'a) ->
  'a option

(** Domains the hardware can actually run at once
    ([Domain.recommended_domain_count], at least 1).  Provenance only:
    the one decision based on it is {!clamp_to_hardware}. *)
val hardware_domains : int

(** [clamp_to_hardware n] is [n] limited to [1 .. hardware_domains]: the
    policy for a count that enters from outside the program ([FBP_DOMAINS],
    the CLI's [-j], a benchmark's domain sweep).  Domains beyond the core
    count only time-slice and add wakeup latency.  Library calls are never
    clamped: they run at exactly the count they are given. *)
val clamp_to_hardware : int -> int

(** {1 Reusable leases}

    A lease holds acquired workers across many consecutive parallel
    regions (e.g. realization waves): helpers stay resident — spinning
    briefly, then parked — between {!lease_run} calls, so each region
    costs one batch submission instead of a per-region
    acquire/dispatch/release cycle per worker. *)

type lease

(** [lease ()] acquires up to the pool's domain count minus one free
    workers as resident helpers.  Acquisition never blocks: with no free workers the
    lease has zero helpers and every {!lease_run} executes sequentially.
    Must be paired with {!release_lease}. *)
val lease : unit -> lease

(** Number of helper workers held by the lease (0 on an exhausted pool). *)
val lease_helpers : lease -> int

(** [lease_run l ~n_chunks body] executes [body ~slot c] for every chunk
    [c] in [0, n_chunks) across the lease's helpers plus the calling
    domain.  [slot] in [0, lease_helpers l] names the executing domain
    within the lease (0 is the caller): chunks that run at the same time
    never share a slot, so [slot] can index per-domain buffers.
    Same contract as {!run_chunks}: [body] writes only chunk-private
    state; every chunk runs even under exceptions and the first failure
    in chunk order is re-raised, leaving the lease reusable.  Raises
    [Invalid_argument] after {!release_lease}. *)
val lease_run : lease -> n_chunks:int -> (slot:int -> int -> unit) -> unit

(** Stops the helpers and returns them to the pool's free list.
    Idempotent. *)
val release_lease : lease -> unit

(** [prewarm n] eagerly spawns (and parks) the workers that [n]-domain
    regions will use, so domain-spawn cost never lands inside a timed or
    latency-sensitive path.  Pass a count already clamped to the
    hardware: every live domain joins each minor-GC stop-the-world
    rendezvous, so surplus parked domains measurably tax sequential code
    on small machines. *)
val prewarm : int -> unit

(** Number of worker domains spawned so far (for tests/metrics). *)
val n_workers_spawned : unit -> int

(** {1 Profiling hook}

    Occupancy telemetry for [Fbp_obs.Profiler]: every worker scheduling
    transition (parked / spinning / running a batch, per-chunk start and
    stop, lease submission) is pushed through one optional process-global
    hook.  Disabled cost is a single [Atomic.get] per transition, and
    transitions happen per wave / per chunk — never per element. *)

type profile_kind =
  | Pe_park_begin  (** worker blocks on its condition variable *)
  | Pe_park_end
  | Pe_spin_begin  (** lease helper spinning on the epoch atomic *)
  | Pe_spin_end
  | Pe_run_begin  (** a dispatched job / lease batch starts executing *)
  | Pe_run_end
  | Pe_chunk_begin of int  (** chunk index within the current region *)
  | Pe_chunk_end of int
  | Pe_submit of int  (** lease batch submitted; payload is the new epoch *)

type profile_event = {
  pe_wid : int;  (** worker id; [-1] is the calling (owner) domain *)
  pe_domain : int;  (** [Domain.self] of the emitting domain *)
  pe_kind : profile_kind;
}

(** Install the hook.  The callback runs on worker domains (sometimes while
    holding a worker's own mutex), so it must be fast, never raise, and
    touch shared state only through a lock or atomics — fbp-lint's
    [domain-safety] rule walks closures passed here like any other pool
    entry point. *)
val set_profile_hook : (profile_event -> unit) -> unit

val clear_profile_hook : unit -> unit

(** Worker handoffs since process start: one per parked-worker job
    dispatch plus one per {!lease_run} batch submission.  Callers can
    record deltas to assert dispatch amortization (e.g. realization's
    [pool.dispatches] counter). *)
val n_dispatches : unit -> int
