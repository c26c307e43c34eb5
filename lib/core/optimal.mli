(** Exact spill-cost minimisation by branch and bound: the quality
    ladder's measured ceiling (ROADMAP item 3, after the Castañeda
    Lozano/Schulte survey of combinatorial register allocation).

    The model is whole-lifetime binpacking over the CSR interval slices
    of {!Lifetime}: every non-empty interval is either {e assigned} a
    register for its entire lifetime (holes and all, exploiting lifetime
    holes exactly as two-pass binpacking does) or {e spilled} to memory,
    in which case each textual reference costs one spill instruction (a
    load before a read, a store after a write) through a scratch register
    that must be free at that reference's position. The search minimises
    the number of spill instructions — the same static count
    {!Stats.total_spill} reports for every heuristic rung — and prunes
    with an admissible lower bound: the sum, over the undecided suffix of
    intervals, of each interval's cheapest conceivable cost (0 when some
    register's convention-busy segments leave room for it, its full spill
    cost otherwise).

    Two honesty mechanisms make the result an {e oracle} rather than a
    fifth heuristic:

    - the incumbent is warm-started from the best heuristic rung
      (coloring, binpack, two-pass, poletto run on scratch copies), so
      the reported optimum is never worse than any heuristic even where
      the paper's intra-lifetime splitting falls outside the
      whole-lifetime model — if the search cannot strictly beat the best
      rung, that rung's own output is adopted verbatim;
    - the search is budgeted ({!options.node_budget} nodes, plus a
      {!options.max_instrs} size gate) and raises {!Budget_exceeded}
      rather than hanging on oversized functions; [Allocator.run]
      degrades such functions to graph coloring, recording a
      {!Trace.Downgrade} and a {!Stats.t.downgrades} bump exactly like
      the service's deadline degradation, so downgraded results can never
      silently pose as exact. *)

open Lsra_ir
open Lsra_target

type options = {
  node_budget : int;
      (** maximum branch-and-bound nodes across both register classes *)
  max_instrs : int;
      (** functions with more instructions than this raise
          {!Budget_exceeded} before any search work *)
}

val default_options : options

(** Raised by {!check_gate}, {!allocate} and {!run_exact} when the size
    gate or the node budget trips; the payload says which and at what
    count. *)
exception Budget_exceeded of string

(** Raise {!Budget_exceeded} when the function is over the size gate.
    Cheap, so callers run it before building any analysis. *)
val check_gate : options -> Func.t -> unit

(** Exact allocation of one function from its [analysis], filling
    [stats]; the warm starts read the same analysis. The warm starts and
    the search are timed as {!Stats.Scan}, and an adopted rung times its
    own phases. Raises {!Budget_exceeded} when the node budget trips,
    before [func] or [trace] is touched. [Stats.opt_proven] is set to 1
    (the result is a proven optimum of the whole-lifetime model and a
    certified floor under every heuristic) and [Stats.opt_nodes] counts
    the nodes explored. Does not check the size gate. *)
val allocate :
  ?opts:options -> ?trace:Trace.t -> Stats.t -> Analysis.t -> Func.t -> unit

(** {!check_gate}, then {!allocate} over a freshly built analysis: exact
    allocation or {!Budget_exceeded}, with no fallback and no whole-run
    timing or GC accounting. *)
val run_exact :
  ?opts:options -> ?trace:Trace.t -> Machine.t -> Func.t -> Stats.t
