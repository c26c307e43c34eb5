open Lsra_ir

type algorithm =
  | Second_chance of Binpack.options
  | Two_pass
  | Poletto
  | Graph_coloring
  | Optimal of Optimal.options

let default_second_chance = Second_chance Binpack.default_options
let default_optimal = Optimal Optimal.default_options

(* The four heuristic allocators in the order the paper discusses them,
   plus the exact branch-and-bound oracle as the top rung. Corpus-wide
   oracles (verification, differential execution) iterate this list so a
   new allocator is checked everywhere by adding it here. *)
let all =
  [ default_second_chance; Two_pass; Poletto; Graph_coloring; default_optimal ]

let name = function
  | Second_chance _ -> "second-chance binpacking"
  | Two_pass -> "two-pass binpacking"
  | Poletto -> "poletto linear scan"
  | Graph_coloring -> "graph coloring"
  | Optimal _ -> "exact branch-and-bound"

let short_name = function
  | Second_chance _ -> "binpack"
  | Two_pass -> "twopass"
  | Poletto -> "poletto"
  | Graph_coloring -> "gc"
  | Optimal _ -> "optimal"

(* The envelope around every allocation: one analysis, wall time and GC
   accounting. Each allocator's entry point only fills the stats it is
   given. Wall-clock, not [Sys.time]: process CPU time counts every
   domain, which misattributes time once functions allocate in parallel.
   The [Fn] event opens the function's trace section; the exact
   allocator's fallback records its [Downgrade] before that. *)
let run ?trace algorithm machine func =
  let t0 = Unix.gettimeofday () in
  let g0 = Stats.gc_mark () in
  let stats = Stats.create () in
  let begin_fn () = Trace.begin_fn trace func in
  let analysis () = Analysis.build stats machine func in
  (match algorithm with
  | Second_chance opts ->
    begin_fn ();
    Resolution.run
      (Binpack.scan ~opts ?trace ~analysis:(analysis ()) ~stats machine func)
  | Two_pass ->
    begin_fn ();
    Two_pass.allocate ?trace stats (analysis ()) func
  | Poletto ->
    begin_fn ();
    Poletto.allocate ?trace stats (analysis ()) func
  | Graph_coloring ->
    begin_fn ();
    Coloring.allocate ?trace stats machine func
  | Optimal opts -> (
    (* The exact allocator opens its own section once it commits; the
       size gate runs before any analysis is built. *)
    match
      Optimal.check_gate opts func;
      Optimal.allocate ~opts ?trace stats (analysis ()) func
    with
    | () -> ()
    | exception Optimal.Budget_exceeded _ ->
      (* Degrade like the service's deadline ladder does, and account for
         it the same way: a Downgrade event plus a [downgrades] bump, so a
         fallen-back function can never pose as an exact result. *)
      (match trace with
      | None -> ()
      | Some sink ->
        let budget = float_of_int opts.Optimal.node_budget in
        Trace.emit sink
          (Trace.Downgrade
             {
               req = Func.name func;
               from_algo = "optimal";
               to_algo = "gc";
               budget;
               predicted = budget;
             }));
      begin_fn ();
      Coloring.allocate ?trace stats machine func;
      stats.Stats.downgrades <- stats.Stats.downgrades + 1));
  Stats.record_gc_since stats g0;
  stats.Stats.alloc_time <- Unix.gettimeofday () -. t0;
  stats

let run_program ?jobs ?trace algorithm machine prog =
  (* A shared trace sink is not domain-safe: force sequential. *)
  let jobs = if trace = None then jobs else Some 1 in
  Parallel.fold_stats ?jobs prog (run ?trace algorithm machine)

(* The paper's full pipeline (§3): the pre-allocation passes of
   [passes], allocation, then its post-allocation cleanups — with the
   oracle sandwich around every stage. Verification and the caller's
   [check_each] oracle run after allocation AND again after every
   cleanup pass, so Motion/Peephole/Slots output is held to the same
   standard as the allocator's; a pass list without Peephole really does
   skip it (the flag and the pipeline agree). *)
let pipeline ?(precheck = false) ?(verify = false) ?(passes = Passes.default)
    ?check_each ?jobs ?trace algorithm machine prog =
  if precheck then
    List.iter (fun (_, f) -> Precheck.run machine f) (Program.funcs prog);
  let pre, post = List.partition Passes.is_pre (Passes.normalize passes) in
  let checked pass =
    match check_each with None -> () | Some f -> f pass prog
  in
  let pre_stats = Stats.create () in
  List.iter
    (fun pass ->
      ignore (Passes.run_pass ~stats:pre_stats ?trace pass prog);
      checked (Some pass))
    pre;
  (* Snapshot after the pre-allocation passes: the verifier matches
     instructions by uid, so the original must be the exact program the
     allocator saw. *)
  let originals =
    if verify then
      List.map (fun (n, f) -> (n, Func.copy f)) (Program.funcs prog)
    else []
  in
  let stats = run_program ?jobs ?trace algorithm machine prog in
  Stats.add ~into:stats pre_stats;
  let verify_all () =
    if verify then
      List.iter
        (fun (n, allocated) ->
          Verify.run machine ~original:(List.assoc n originals) ~allocated)
        (Program.funcs prog)
  in
  verify_all ();
  checked None;
  List.iter
    (fun pass ->
      ignore (Passes.run_pass ~stats ?trace pass prog);
      verify_all ();
      checked (Some pass))
    post;
  stats
