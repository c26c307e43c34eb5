(** Poletto/Engler/Kaashoek-style linear scan (paper §4, related work):
    convex intervals without holes, an active list, spill-furthest-end,
    whole lifetimes to memory, and registers reserved up front for spill
    code. The weakest but fastest of the four allocators; included as the
    family's original point of comparison. *)

open Lsra_ir

exception Out_of_registers of string

(** Allocate one function in place from its [analysis], timing the scan
    and the rewrite as the {!Stats.Scan} pass of [stats]. [trace] records
    each decision (see {!Trace}); with it absent tracing costs one pointer
    test per site. *)
val allocate : ?trace:Trace.t -> Stats.t -> Analysis.t -> Func.t -> unit
