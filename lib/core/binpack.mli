(** The second-chance binpacking scan (paper §2.2–§2.3): one forward pass
    over the linear order that allocates registers and rewrites the
    instruction stream simultaneously, splitting lifetimes at spills and
    giving spilled temporaries new register homes at later references.

    The scan alone assumes linear control flow; {!Resolution.run} must
    follow to repair the allocation assumptions across real CFG edges. *)

open Lsra_ir
open Lsra_analysis
open Lsra_target

(** Where a temporary's current value lives, in the scan's view. *)
type rloc = In_reg of Mreg.t | In_mem

type consistency_mode =
  | Iterative
      (** trust consistency along the linear order; repair with the
          iterative bit-vector dataflow during resolution (paper §2.4) *)
  | Conservative
      (** strictly linear variant (paper §2.6): re-derive consistency at
          each block top from predecessors' saved vectors *)

type options = {
  early_second_chance : bool;  (** move instead of store+load at convention
                                   evictions (paper §2.5) *)
  move_opt : bool;  (** give a move's destination its source's register
                        when the hole fits (paper §2.5) *)
  consistency : consistency_mode;
}

val default_options : options

(** Scan result: the function with rewritten bodies plus everything the
    resolution phase needs. Arrays are indexed by linear block index;
    hashtables map temp ids. *)
type t = {
  func : Func.t;
  regidx : Regidx.t;
  liveness : Liveness.t;
  lifetimes : Lifetime.t;
  top_loc : (int, rloc) Hashtbl.t array;
  bottom_loc : (int, rloc) Hashtbl.t array;
  are_consistent : Bitset.t array;
  used_consistency : Bitset.t array;
  wrote_tr : Bitset.t array;
  slot_of : int option array;
  stats : Stats.t;
  opts : options;
  trace : Trace.t option;
      (** the sink the scan recorded into, for {!Resolution.run} to
          continue the same function's section *)
}

exception Out_of_registers of string

(** Run the allocate-and-rewrite scan, mutating [func]'s block bodies and
    terminators, and time it as the {!Stats.Scan} pass of [stats] (a
    fresh record by default, returned as the result's [stats]). The scan
    reads [analysis], built here when absent. When [trace] is given,
    every allocation decision is recorded into it (see {!Trace}); with it
    absent the scan pays only a pointer test per decision. Raises
    {!Out_of_registers} only when a single instruction references more
    distinct locations than the machine has registers. *)
val scan :
  ?opts:options ->
  ?trace:Trace.t ->
  ?analysis:Analysis.t ->
  ?stats:Stats.t ->
  Machine.t ->
  Func.t ->
  t
