(* Compressed-sparse-row matrices, assembled from (row, col, value) triplets.

   The QP net models (clique/star) generate Laplacian-plus-diagonal systems;
   assembly accumulates duplicate triplets, then freezes into CSR for the
   matrix-vector products inside conjugate gradients.

   PR 5 rebuilt the assembly path for speed while keeping results
   bit-identical:

   - the builder stores triplets in growable unboxed [int]/[float] arrays
     (the seed used three boxed lists: ~3 allocations per triplet and a
     full unspool at freeze);
   - [freeze] dedups each row with a stamp array over column ids instead of
     a per-row [Hashtbl] (O(1) per entry, allocation-free), and sorts row
     segments with an in-place dual-array quicksort instead of boxing
     (col, val) tuples;
   - across QP rounds the sparsity pattern is fixed (same nets, same
     movable set), so [freeze_capture] additionally records the symbolic
     structure — a permutation from triplet slot to CSR slot next to the
     frozen index arrays — and [refreeze] re-assembles the next round as
     a flat value sweep: check each triplet against the (row, col) of its
     slot while scatter-accumulating (O(count), falling back to a full
     freeze when the topology changed).  Value
     accumulation order equals the fresh-freeze order (insertion order per
     duplicate group), so a reused and a fresh assembly are bit-identical.

   [mul] runs row-chunked on the domain pool; each row's accumulation is a
   fixed sequential sum, so the product does not depend on the domain
   count. *)

module Pool = Fbp_util.Pool

type t = {
  n : int;                 (* square dimension *)
  row_start : int array;   (* length n+1 *)
  col : int array;
  value : float array;
}

type builder = {
  mutable dim : int;
  mutable rows : int array;   (* triplets, insertion order *)
  mutable cols : int array;
  mutable vals : float array;
  mutable count : int;
}

(* The captured stream itself is not kept: a CSR slot holds exactly one
   (row, col) pair, so [s_perm] with the frozen index arrays already pins
   every triplet (see [refreeze]).  A structure lives as long as the cache
   that holds it — a whole placement for the global QP — and a copy of
   the stream would add two triplet-sized arrays to the live heap for all
   that time. *)
type structure = {
  s_dim : int;
  s_perm : int array;      (* triplet slot -> CSR slot *)
  s_row_start : int array; (* shared with every refrozen matrix *)
  s_col : int array;
}

(* Temporaries of [freeze]: row counts and cursors (n+1), the per-row
   dedup stamps and slots (n), and the row-grouped triplet copy (m), which
   the dedup compacts in place.  A caller that freezes many small systems
   in a row keeps one scratch, whose arrays grow to the largest system
   seen; without one, each freeze allocates them at exactly the size it
   needs. *)
type scratch = {
  mutable row_count : int array;
  mutable row_cursor : int array;
  mutable stamp : int array;
  mutable slot_of : int array;
  mutable gcol : int array;
  mutable gval : float array;
}

let create_scratch () =
  { row_count = [||]; row_cursor = [||]; stamp = [||]; slot_of = [||];
    gcol = [||]; gval = [||] }

let builder ?(capacity = 64) n =
  let cap = max 1 capacity in
  { dim = n; rows = Array.make cap 0; cols = Array.make cap 0;
    vals = Array.make cap 0.0; count = 0 }

let grow b =
  let cap = Array.length b.rows in
  let cap' = cap * 2 in
  let rows' = Array.make cap' 0 and cols' = Array.make cap' 0 in
  let vals' = Array.make cap' 0.0 in
  Array.blit b.rows 0 rows' 0 cap;
  Array.blit b.cols 0 cols' 0 cap;
  Array.blit b.vals 0 vals' 0 cap;
  b.rows <- rows';
  b.cols <- cols';
  b.vals <- vals'

(* Append one triplet.  Inlined, so a float argument computed at the call
   site (the spring's [-.w]) goes straight into [vals] unboxed. *)
let[@inline] push b row col v =
  if b.count = Array.length b.rows then grow b;
  Array.unsafe_set b.rows b.count row;
  Array.unsafe_set b.cols b.count col;
  Array.unsafe_set b.vals b.count v;
  b.count <- b.count + 1

let add b ~row ~col v =
  if row < 0 || row >= b.dim || col < 0 || col >= b.dim then
    invalid_arg "Csr.add: index out of range";
  if not (Float.equal v 0.0) then push b row col v

(* Symmetric convenience: adds the four entries of a spring between i and j
   with stiffness w (Laplacian stencil), the same triplets as four [add]s. *)
let add_spring b i j w =
  if i < 0 || i >= b.dim || j < 0 || j >= b.dim then
    invalid_arg "Csr.add: index out of range";
  if not (Float.equal w 0.0) then begin
    push b i i w;
    push b j j w;
    push b i j (-.w);
    push b j i (-.w)
  end

(* Diagonal-only convenience (anchors / fixed-pin stiffness). *)
let add_diag b i w = add b ~row:i ~col:i w

let builder_dim b = b.dim
let builder_count b = b.count

let reset ?dim b =
  (match dim with Some n -> b.dim <- n | None -> ());
  b.count <- 0

(* Structural well-formedness: monotone row pointers, strictly increasing
   in-range columns per row, finite values.  Returns the first violation. *)
let validate t =
  let bad = ref None in
  let report msg = if Option.is_none !bad then bad := Some msg in
  let m = Array.length t.col in
  if Array.length t.row_start <> t.n + 1 then
    report
      (Printf.sprintf "row_start has %d entries for dimension %d"
         (Array.length t.row_start) t.n)
  else begin
    if t.row_start.(0) <> 0 then
      report (Printf.sprintf "row_start.(0) = %d, not 0" t.row_start.(0));
    if t.row_start.(t.n) <> m then
      report
        (Printf.sprintf "row_start.(n) = %d but %d stored entries"
           t.row_start.(t.n) m);
    for r = 0 to t.n - 1 do
      if t.row_start.(r) > t.row_start.(r + 1) then
        report
          (Printf.sprintf "row %d: row_start decreases (%d > %d)" r
             t.row_start.(r)
             t.row_start.(r + 1))
    done
  end;
  if Array.length t.value <> m then
    report
      (Printf.sprintf "col/value length mismatch (%d vs %d)" m
         (Array.length t.value));
  for r = 0 to t.n - 1 do
    if r + 1 < Array.length t.row_start then begin
      let lo = max 0 t.row_start.(r) and hi = min m t.row_start.(r + 1) in
      for k = lo to hi - 1 do
        let c = t.col.(k) in
        if c < 0 || c >= t.n then
          report (Printf.sprintf "row %d: column %d out of range" r c)
        else if k > lo && t.col.(k - 1) >= c then
          report
            (Printf.sprintf
               "row %d: columns not strictly increasing (%d then %d)" r
               t.col.(k - 1) c);
        if not (Float.is_finite t.value.(k)) then
          report (Printf.sprintf "row %d: non-finite value at slot %d" r k)
      done
    end
  done;
  match !bad with None -> Ok () | Some msg -> Error msg

(* In-place quicksort of cols.(lo..hi) with vals permuted alongside —
   avoids the boxed (col, val) pairs the seed sorted.  Row segments are
   usually tiny; star rows can be wide, hence quicksort over insertion
   sort. *)
let rec sort_segment cols vals lo hi =
  if hi - lo > 8 then begin
    let pivot = cols.((lo + hi) / 2) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while cols.(!i) < pivot do incr i done;
      while cols.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let tc = cols.(!i) in
        cols.(!i) <- cols.(!j);
        cols.(!j) <- tc;
        let tv = vals.(!i) in
        vals.(!i) <- vals.(!j);
        vals.(!j) <- tv;
        incr i;
        decr j
      end
    done;
    sort_segment cols vals lo !j;
    sort_segment cols vals !i hi
  end
  else
    for i = lo + 1 to hi do
      let c = cols.(i) and v = vals.(i) in
      let j = ref (i - 1) in
      while !j >= lo && cols.(!j) > c do
        cols.(!j + 1) <- cols.(!j);
        vals.(!j + 1) <- vals.(!j);
        decr j
      done;
      cols.(!j + 1) <- c;
      vals.(!j + 1) <- v
    done

(* [ensure_* a n]: [a] when it holds at least [n] slots, else a new
   array of exactly [n] (contents not preserved).  Exact rather than
   doubling: a reused scratch then holds no more than its largest system
   needs. *)
let ensure_int a n = if Array.length a >= n then a else Array.make n 0
let ensure_float a n = if Array.length a >= n then a else Array.make n 0.0

(* Shared freeze core.  Every scratch slot it reads is written first in
   this call ([row_count] and [stamp] are cleared over the live range), so
   a reused scratch gives the same matrix as a fresh one. *)
let freeze_core sc b =
  let n = b.dim in
  let m = b.count in
  sc.row_count <- ensure_int sc.row_count (n + 1);
  sc.row_cursor <- ensure_int sc.row_cursor (n + 1);
  sc.stamp <- ensure_int sc.stamp n;
  sc.slot_of <- ensure_int sc.slot_of n;
  sc.gcol <- ensure_int sc.gcol m;
  sc.gval <- ensure_float sc.gval m;
  let count = sc.row_count and cursor = sc.row_cursor in
  let gcol = sc.gcol and gval = sc.gval in
  let stamp = sc.stamp and slot_of = sc.slot_of in
  (* counting sort by row; the scatter is stable, so within a row the
     insertion order is preserved (duplicate accumulation order below is
     therefore the insertion order — the determinism contract [refreeze]
     relies on) *)
  Array.fill count 0 (n + 1) 0;
  for k = 0 to m - 1 do
    let r = Array.unsafe_get b.rows k in
    count.(r + 1) <- count.(r + 1) + 1
  done;
  for i = 1 to n do
    count.(i) <- count.(i) + count.(i - 1)
  done;
  Array.blit count 0 cursor 0 (n + 1);
  for k = 0 to m - 1 do
    let r = Array.unsafe_get b.rows k in
    let at = cursor.(r) in
    Array.unsafe_set gcol at (Array.unsafe_get b.cols k);
    Array.unsafe_set gval at (Array.unsafe_get b.vals k);
    cursor.(r) <- at + 1
  done;
  (* per-row dedup via stamp arrays over column ids: stamp.(c) = r marks
     column c as seen in row r, slot_of.(c) its accumulation slot.  The
     unique entries are compacted into the front of gcol/gval: the write
     position nnz never passes the read position idx, and every slot an
     accumulation touches is below nnz, so no unread entry is
     overwritten. *)
  Array.fill stamp 0 n (-1);
  let row_start = Array.make (n + 1) 0 in
  let nnz = ref 0 in
  for r = 0 to n - 1 do
    row_start.(r) <- !nnz;
    for idx = count.(r) to count.(r + 1) - 1 do
      let c = Array.unsafe_get gcol idx in
      if Array.unsafe_get stamp c = r then begin
        let slot = Array.unsafe_get slot_of c in
        Array.unsafe_set gval slot
          (Array.unsafe_get gval slot +. Array.unsafe_get gval idx)
      end
      else begin
        Array.unsafe_set stamp c r;
        Array.unsafe_set slot_of c !nnz;
        Array.unsafe_set gcol !nnz c;
        Array.unsafe_set gval !nnz (Array.unsafe_get gval idx);
        incr nnz
      end
    done
  done;
  row_start.(n) <- !nnz;
  (* sort columns within each row: deterministic layout independent of
     triplet insertion order, and strictly-increasing columns become a
     checkable invariant (see [validate]) *)
  for r = 0 to n - 1 do
    let lo = row_start.(r) and hi = row_start.(r + 1) in
    if hi - lo > 1 then sort_segment gcol gval lo (hi - 1)
  done;
  {
    n;
    row_start;
    col = Array.sub gcol 0 !nnz;
    value = Array.sub gval 0 !nnz;
  }

let check_frozen ~site t =
  Fbp_resilience.Sanitize.check ~site ~invariant:"CSR well-formedness"
    (fun () -> validate t)

let scratch_or_fresh = function
  | Some sc -> sc
  | None -> create_scratch ()

let freeze ?scratch b =
  let t = freeze_core (scratch_or_fresh scratch) b in
  check_frozen ~site:"csr.freeze" t;
  t

(* Binary search for [c] in the sorted row segment [lo, hi). *)
let find_slot col lo hi c =
  let lo = ref lo and hi = ref (hi - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let cm = Array.unsafe_get col mid in
    if cm = c then found := mid
    else if cm < c then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let freeze_capture ?scratch b =
  let t = freeze_core (scratch_or_fresh scratch) b in
  check_frozen ~site:"csr.freeze" t;
  let m = b.count in
  let perm = Array.make m 0 in
  for k = 0 to m - 1 do
    let r = Array.unsafe_get b.rows k in
    let slot =
      find_slot t.col t.row_start.(r) t.row_start.(r + 1)
        (Array.unsafe_get b.cols k)
    in
    (* every triplet was folded into exactly one slot of its row *)
    assert (slot >= 0);
    perm.(k) <- slot
  done;
  let s =
    { s_dim = b.dim; s_perm = perm; s_row_start = t.row_start; s_col = t.col }
  in
  (t, s)

let structure_count s = Array.length s.s_perm

(* Verify and scatter in one pass.  Triplet k of the captured stream went
   to slot perm.(k); the incoming triplet (r, c) is the same pair iff that
   slot lies in row r's range and stores column c.  The first mismatch
   abandons the sweep (the caller falls back to a full freeze). *)
let refreeze s b =
  let m = b.count in
  if b.dim <> s.s_dim || m <> Array.length s.s_perm then None
  else begin
    let perm = s.s_perm and row_start = s.s_row_start and col = s.s_col in
    let rows = b.rows and cols = b.cols and vals = b.vals in
    let value = Array.make (Array.length col) 0.0 in
    let ok = ref true and k = ref 0 in
    while !ok && !k < m do
      let slot = Array.unsafe_get perm !k and r = Array.unsafe_get rows !k in
      if
        slot >= Array.unsafe_get row_start r
        && slot < Array.unsafe_get row_start (r + 1)
        && Array.unsafe_get col slot = Array.unsafe_get cols !k
      then
        Array.unsafe_set value slot
          (Array.unsafe_get value slot +. Array.unsafe_get vals !k)
      else ok := false;
      incr k
    done;
    if not !ok then None
    else begin
      let t = { n = s.s_dim; row_start; col; value } in
      check_frozen ~site:"csr.refreeze" t;
      Some t
    end
  end

let dim t = t.n
let nnz t = t.row_start.(t.n)

(* Rows per parallel chunk in [mul]; each row is an independent fixed
   sequential accumulation, so chunking never affects the product. *)
let mul_grain = 2048

(* out <- A x *)
let mul t x out =
  if Array.length x <> t.n || Array.length out <> t.n then
    invalid_arg "Csr.mul: dimension mismatch";
  let row_start = t.row_start and col = t.col and value = t.value in
  let rows lo hi =
    for r = lo to hi - 1 do
      let acc = ref 0.0 in
      for k = Array.unsafe_get row_start r to Array.unsafe_get row_start (r + 1) - 1 do
        acc :=
          !acc
          +. (Array.unsafe_get value k
              *. Array.unsafe_get x (Array.unsafe_get col k))
      done;
      Array.unsafe_set out r !acc
    done
  in
  let k = Fbp_util.Pool.n_chunks ~grain:mul_grain t.n in
  if k <= 1 then rows 0 t.n
  else
    Pool.run_chunks ~n_chunks:k (fun c ->
        let lo, hi = Pool.chunk_bounds ~n:t.n ~n_chunks:k c in
        rows lo hi)

let diagonal t =
  let d = Array.make t.n 0.0 in
  for r = 0 to t.n - 1 do
    for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
      if t.col.(k) = r then d.(r) <- d.(r) +. t.value.(k)
    done
  done;
  d

let get t r c =
  let acc = ref 0.0 in
  for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
    if t.col.(k) = c then acc := !acc +. t.value.(k)
  done;
  !acc

let iter_entries t f =
  for r = 0 to t.n - 1 do
    for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
      f r t.col.(k) t.value.(k)
    done
  done

let is_symmetric ?(eps = 1e-9) t =
  let ok = ref true in
  for r = 0 to t.n - 1 do
    for k = t.row_start.(r) to t.row_start.(r + 1) - 1 do
      let c = t.col.(k) in
      if Float.abs (t.value.(k) -. get t c r) > eps then ok := false
    done
  done;
  !ok
