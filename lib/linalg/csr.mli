(** Compressed-sparse-row matrices assembled from triplets (duplicates are
    accumulated), for the QP's Laplacian-plus-diagonal systems.

    The builder stores triplets in growable unboxed arrays; {!freeze} dedups
    rows with stamp arrays (no per-row hashing).  Because the QP sparsity
    pattern is fixed across rounds, {!freeze_capture} records the symbolic
    structure once and {!refreeze} re-assembles later rounds as a flat value
    sweep — bit-identical to a fresh {!freeze}.  {!mul} is row-chunked over
    the domain pool and deterministic at any domain count. *)

type t

type builder

(** Symbolic sparsity structure captured by {!freeze_capture}: the mapping
    from triplet slot to CSR slot plus the frozen index arrays, which
    together pin the (row, col) stream without storing it.  Valid for any
    later builder producing the same stream. *)
type structure

(** [builder ?capacity n] starts an empty n×n assembly with room for
    [capacity] triplets (default 64) before it regrows. *)
val builder : ?capacity:int -> int -> builder

(** Add a triplet; zero values are dropped. Raises on out-of-range. *)
val add : builder -> row:int -> col:int -> float -> unit

(** Laplacian stencil of a spring between [i] and [j] with stiffness [w]. *)
val add_spring : builder -> int -> int -> float -> unit

(** Add [w] to the diagonal entry [i] (anchors, fixed-pin stiffness). *)
val add_diag : builder -> int -> float -> unit

val builder_dim : builder -> int

(** Number of triplets currently stored. *)
val builder_count : builder -> int

(** Drop all triplets, keeping the capacity (for builder reuse); [dim]
    also changes the dimension. *)
val reset : ?dim:int -> builder -> unit

(** Temporaries of {!freeze}, reusable across calls.  They only grow;
    a freeze without one allocates them at exactly the size it needs.
    Not safe for concurrent use. *)
type scratch

val create_scratch : unit -> scratch

(** Assemble into CSR: rows sorted by column, duplicates accumulated.
    In sanitizer mode the result is validated (site ["csr.freeze"]).
    The result never shares memory with [b] or [scratch], and is the same
    with or without a (reused) [scratch]. *)
val freeze : ?scratch:scratch -> builder -> t

(** Like {!freeze}, but also captures the symbolic structure for
    {!refreeze}. *)
val freeze_capture : ?scratch:scratch -> builder -> t * structure

(** Number of triplets in the stream a structure was captured from: the
    exact builder capacity for a matching re-assembly. *)
val structure_count : structure -> int

(** [refreeze s b] re-assembles [b] against the captured structure [s] as a
    flat value scatter (no sorting, no dedup bookkeeping), sharing the
    frozen index arrays.  Returns [None] when [b]'s triplet stream differs
    from the captured one — callers must then fall back to a full
    {!freeze_capture}.  When it succeeds the result is bit-identical to
    [freeze b]: value accumulation order is insertion order per duplicate
    group in both paths. *)
val refreeze : structure -> builder -> t option

(** Checked invariants (sanitizer mode; also exposed for tests): monotone
    row pointers, strictly increasing in-range columns per row, finite
    values.  Returns the first violation. *)
val validate : t -> (unit, string) result

val dim : t -> int
val nnz : t -> int

(** [mul a x out]: out <- A x. Raises on dimension mismatch.  Rows are
    chunked over the domain pool; each row is a fixed sequential sum, so
    the product is independent of the domain count. *)
val mul : t -> float array -> float array -> unit

val diagonal : t -> float array

(** Entry lookup (linear in the row's nnz); for tests. *)
val get : t -> int -> int -> float

(** Iterate stored entries in CSR order: [f row col value].  Used by the
    benchmark harness to replay a matrix through other assembly paths. *)
val iter_entries : t -> (int -> int -> float -> unit) -> unit

val is_symmetric : ?eps:float -> t -> bool
