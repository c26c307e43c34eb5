let run ?(opts = Binpack.default_options) ?trace machine func =
  (* Wall-clock: [Sys.time] counts CPU over every domain of the process,
     which misattributes time once functions allocate in parallel. *)
  let t0 = Unix.gettimeofday () in
  let g0 = Stats.gc_mark () in
  let scanned = Binpack.scan ~opts ?trace machine func in
  let stats = scanned.Binpack.stats in
  Stats.timed stats Stats.Resolution (fun () -> Resolution.run scanned);
  Stats.record_gc_since stats g0;
  stats.Stats.alloc_time <- Unix.gettimeofday () -. t0;
  stats

let run_program ?opts ?jobs ?trace machine prog =
  (* A shared trace sink is not domain-safe: force sequential. *)
  let jobs = if trace = None then jobs else Some 1 in
  Parallel.fold_stats ?jobs prog (run ?opts ?trace machine)
