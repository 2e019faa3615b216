let () =
  Alcotest.run "wf_repro"
    [
      ("core", Test_core.suite);
      ("algebra", Test_algebra.suite);
      ("residuation", Test_residue.suite);
      ("temporal", Test_temporal.suite);
      ("guards", Test_guard.suite);
      ("knowledge", Test_knowledge.suite);
      ("synthesis", Test_synth.suite);
      ("gtable", Test_gtable.suite);
      ("simulator", Test_sim.suite);
      ("channel", Test_channel.suite);
      ("observability", Test_obs.suite);
      ("tasks", Test_tasks.suite);
      ("log", Test_log.suite);
      ("codec", Test_codec.suite);
      ("schedulers", Test_sched.suite);
      ("conformance", Test_conformance.suite);
      ("recovery", Test_recovery.suite);
      ("flow", Test_flow.suite);
      ("fleet", Test_fleet.suite);
      ("properties", Test_props.suite);
      ("parametrized", Test_param.suite);
      ("language", Test_lang.suite);
      ("performance", Test_perf.suite);
      ("check", Test_check.suite);
    ]
