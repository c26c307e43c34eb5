(** Static allocation statistics, in the categories of the paper's
    Figure 3 (evict vs. resolve, load/store/move) plus allocator-internal
    counters and a per-pass wall-time breakdown. Dynamic (executed) counts
    come from the simulator, which classifies instructions by their
    {!Lsra_ir.Instr.tag}. *)

type t = {
  mutable evict_loads : int;
  mutable evict_stores : int;
  mutable evict_moves : int;
  mutable resolve_loads : int;
  mutable resolve_stores : int;
  mutable resolve_moves : int;
  mutable slots : int;
  mutable frame_saved : int;
      (** frame words reclaimed by the {!Slots} compaction pass *)
  mutable dataflow_rounds : int;
  mutable coloring_iterations : int;
  mutable interference_edges : int;
  mutable coalesced_moves : int;
  mutable downgrades : int;
      (** deadline-driven algorithm downgrades taken by the allocation
          service (see [Lsra_service.Service]), and budget-driven
          downgrades taken by the exact allocator (see [Optimal]) *)
  mutable opt_nodes : int;
      (** branch-and-bound nodes explored by the exact allocator *)
  mutable opt_proven : int;
      (** functions whose exact search ran to completion: the result is a
          proven optimum of the whole-lifetime model *)
  mutable alloc_time : float;  (** seconds spent inside the allocator *)
  pass_times : float array;
      (** wall seconds spent inside each {!timed} pass, indexed by
          {!pass_index}; read one with {!pass_time} *)
  mutable minor_words : float;
      (** GC pressure attributed to the allocator, recorded as
          {!gc_mark} deltas on whichever domain ran the function
          (per-domain counters, so parallel runs attribute correctly) *)
  mutable promoted_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  pass_minor_words : float array;
      (** minor words allocated inside each {!timed} pass, indexed by
          {!pass_index} *)
}

(** The passes the wall-time breakdown distinguishes: the two analyses
    feeding the allocator, the allocate-and-rewrite scan, the CFG-edge
    resolution, and the managed pipeline passes around allocation
    (copy propagation, DCE, spill motion, the peephole and slot
    compaction). *)
type pass =
  | Liveness
  | Lifetime
  | Scan
  | Resolution
  | Copyprop
  | Dce
  | Motion
  | Peephole
  | Slots

val create : unit -> t
val total_spill : t -> int

(** Number of {!pass} constructors; [pass_times] and [pass_minor_words]
    have this length. *)
val n_passes : int

(** Dense index of a pass, for [pass_times] and [pass_minor_words]. *)
val pass_index : pass -> int

(** Accumulated wall seconds recorded for a pass. *)
val pass_time : t -> pass -> float

(** [timed s pass f] runs [f ()] and adds its wall-clock duration and
    minor-heap allocation to [pass]'s counters in [s] (also on
    exception). *)
val timed : t -> pass -> (unit -> 'a) -> 'a

(** A snapshot of the current domain's GC counters: the exact
    [Gc.minor_words] count plus a [Gc.quick_stat] for the others. *)
type gc_mark

val gc_mark : unit -> gc_mark

(** [record_gc_since s m] adds the GC-counter deltas since the mark [m]
    to [s]. Take [m] on the same domain. *)
val record_gc_since : t -> gc_mark -> unit

(** Accumulate [s] into [into] (max for round/iteration counters, sums
    elsewhere, including the pass times). *)
val add : into:t -> t -> unit

val pp : Format.formatter -> t -> unit
