(* Pool worker count in a fresh process: regions nested in a [fork2] must
   run on their caller once the domain count's workers exist, not spawn
   more.  Any earlier pool use would leave free workers behind and hide
   the spawn, so this runs as its own executable. *)

module Pool = Fbp_util.Pool
module Vec = Fbp_linalg.Vec

let test_nested_regions_spawn_nothing () =
  Alcotest.(check int) "no worker before the first region" 0
    (Pool.n_workers_spawned ());
  let a = Array.init 20_000 (fun i -> float_of_int (i mod 7)) in
  let d1, d2 =
    Pool.with_domains 2 (fun () ->
        (* each thunk's dot is a chunked region over > 4096 items *)
        Pool.fork2 (fun () -> Vec.dot a a) (fun () -> Vec.dot a a))
  in
  Alcotest.(check bool) "both dots agree" true (Float.equal d1 d2);
  Alcotest.(check int) "2 domains: one worker, nested regions run inline" 1
    (Pool.n_workers_spawned ())

let () =
  Alcotest.run "fbp-pool"
    [
      ( "parallel-determinism",
        [
          Alcotest.test_case "nested regions spawn no extra domain" `Quick
            test_nested_regions_spawn_nothing;
        ] );
    ]
