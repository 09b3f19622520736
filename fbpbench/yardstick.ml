(* A fixed piece of work that measures how fast the host runs right now.

   On a shared host the CPU time of the same placement drifted by a third
   between two sets of runs twenty minutes apart, and every workload and
   the set-up drifted together.  The yardstick is timed many times during a
   run; its fastest time gives the host's speed over that run, and the
   end-to-end times are scaled by it to the speed of a reference host.

   The work resembles the placer's two kinds of inner loop: Dijkstra with a
   binary heap on a grid graph (as in the min-cost flow) and Jacobi sweeps
   of a five-point stencil (as in the QP solves).  It allocates a few words
   per run after [create], so neither the garbage collector's settings nor the
   state of the heap change its time.  It is the benchmark's own code: the
   program under test never runs inside it. *)

let side = 384
let n = side * side

type t = {
  w : int array;  (** weight of the edge from node u in direction d at [4u + d] *)
  dist : int array;
  heap : int array;
  pos : int array;  (** heap index of a queued node, -1 unseen, -2 settled *)
  a : float array;
  b : float array;
}

let create () =
  let st = ref 0x2545F491 in
  let rand () =
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    !st lsr 8
  in
  {
    w = Array.init (4 * n) (fun _ -> 1 + (rand () mod 100));
    dist = Array.make n max_int;
    heap = Array.make n 0;
    pos = Array.make n (-1);
    a = Array.init n (fun i -> float_of_int (i mod 17));
    b = Array.make n 0.0;
  }

let swap t i j =
  let x = t.heap.(i) and y = t.heap.(j) in
  t.heap.(i) <- y;
  t.heap.(j) <- x;
  t.pos.(y) <- i;
  t.pos.(x) <- j

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if t.dist.(t.heap.(p)) > t.dist.(t.heap.(i)) then begin
      swap t i p;
      sift_up t p
    end
  end

let rec sift_down t size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let r = l + 1 in
    let c = if r < size && t.dist.(t.heap.(r)) < t.dist.(t.heap.(l)) then r else l in
    if t.dist.(t.heap.(c)) < t.dist.(t.heap.(i)) then begin
      swap t i c;
      sift_down t size c
    end
  end

(* Shortest distances from node 0; returns their sum. *)
let dijkstra t =
  Array.fill t.dist 0 n max_int;
  Array.fill t.pos 0 n (-1);
  t.dist.(0) <- 0;
  t.heap.(0) <- 0;
  t.pos.(0) <- 0;
  let size = ref 1 and total = ref 0 in
  let relax u v d =
    let nd = t.dist.(u) + t.w.((4 * u) + d) in
    if t.pos.(v) <> -2 && nd < t.dist.(v) then begin
      t.dist.(v) <- nd;
      if t.pos.(v) = -1 then begin
        t.heap.(!size) <- v;
        t.pos.(v) <- !size;
        incr size
      end;
      sift_up t t.pos.(v)
    end
  in
  while !size > 0 do
    let u = t.heap.(0) in
    decr size;
    swap t 0 !size;
    sift_down t !size 0;
    t.pos.(u) <- -2;
    total := !total + t.dist.(u);
    let r = u / side and c = u mod side in
    if c + 1 < side then relax u (u + 1) 0;
    if c > 0 then relax u (u - 1) 1;
    if r + 1 < side then relax u (u + side) 2;
    if r > 0 then relax u (u - side) 3
  done;
  !total

let sweep src dst =
  for r = 1 to side - 2 do
    for c = 1 to side - 2 do
      let i = (r * side) + c in
      dst.(i) <- 0.25 *. (src.(i - 1) +. src.(i + 1) +. src.(i - side) +. src.(i + side))
    done
  done

(* Jacobi sweeps over the interior, from [a] into [b] and back; returns
   the sum of the result. *)
let stencil t sweeps =
  for i = 0 to n - 1 do
    t.a.(i) <- float_of_int (i mod 17)
  done;
  for _ = 1 to sweeps do
    sweep t.a t.b;
    sweep t.b t.a
  done;
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. t.a.(i)
  done;
  !s

(* One measurement of the host: the work, and a checksum that must repeat
   exactly. *)
let run t = dijkstra t + int_of_float (stencil t 4)
