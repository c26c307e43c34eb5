(** The allocators' shared front half (paper §2.1): block liveness and
    the lifetimes-with-holes of one function, built once and consumed by
    every allocator that scans lifetimes. Graph coloring is the
    exception: its spill-and-rebuild loop recomputes liveness on the
    rewritten function every round and never needs lifetimes. *)

open Lsra_ir
open Lsra_analysis
open Lsra_target

type t = { regidx : Regidx.t; liveness : Liveness.t; lifetimes : Lifetime.t }

(** [build stats machine func] computes the analysis of [func], timing
    liveness and lifetime construction (loop nesting included) under
    their {!Stats.pass} counters in [stats]. The result stays valid for
    any {!Func.copy} of [func] until that copy is rewritten. *)
val build : Stats.t -> Machine.t -> Func.t -> t
