(* Umbrella test runner; suites are added per library as they land.
   Fan-outs are forced past the oversubscription clamp so the
   jobs=4 ≡ jobs=1 differential layers exercise real cross-domain
   execution even on 1-core CI machines. *)
let () = Corechase.Par.force_parallel true

let () = Alcotest.run "corechase" (Test_syntax.suites @ Test_homo.suites @ Test_treewidth.suites @ Test_chase.suites @ Test_zoo.suites @ Test_core.suites @ Test_rclasses.suites @ Test_integration.suites @ Test_experiments.suites @ Test_repl.suites @ Test_egd.suites @ Test_datalog.suites @ Test_incremental.suites @ Test_props.suites @ Test_obs.suites @ Test_scoped_core.suites @ Test_par.suites @ Test_resilience.suites @ Test_analyze.suites @ Test_server.suites @ Test_storage.suites @ Test_entail.suites)
