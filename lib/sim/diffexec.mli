(** Differential-execution oracle over the allocators.

    The strongest correctness check available: interpret a program before
    allocation and after, and compare every observable — the output
    written through the [ext_put*] routines and the value returned from
    [main]. The interpreter poisons caller-saved registers at calls and
    traps on reads of undefined values, so convention violations and
    lost spills surface as concrete divergences.

    [check_with] / [check] apply the oracle to an allocation function or
    an {!Lsra.Allocator} algorithm; {!sweep} and {!sweep_native} drive
    machines × programs × allocators through the pipeline and native
    oracles, and shrink failures to minimal textual reproducers. *)

open Lsra_ir
open Lsra_target

type divergence =
  | Reference_trap of string
      (** the pre-allocation program itself traps — an ill-defined input,
          not an allocator bug *)
  | Allocated_trap of string
  | Output_mismatch of { expected : string; actual : string }
  | Ret_mismatch of { expected : Value.t; actual : Value.t }
  | Verifier_reject of Lsra.Verify.error
      (** the abstract verifier rejected the allocation (only with
          [~verify:true], the default) *)
  | Allocator_raise of string
  | Trace_mismatch of string
      (** the decision trace disagrees with the allocator's own [Stats]
          counters, or the event stream is malformed — the allocator's
          accounting and its actions have drifted apart *)
  | Pass_divergence of { pass : string; underlying : divergence }
      (** a managed pipeline pass (named by {!Lsra.Passes.name}), not the
          allocation itself, introduced the underlying divergence — only
          from {!check_pipeline} / {!sweep} *)

val divergence_to_string : divergence -> string

(** [true] for {!Verifier_reject}, including one wrapped in a
    {!Pass_divergence} — the exit-code split the diffcheck driver uses. *)
val is_verifier_reject : divergence -> bool

(** An in-place per-function allocator, as the test suites use. *)
type alloc_fn = Machine.t -> Func.t -> unit

(** [check_with machine alloc prog] interprets [prog] (untouched — a copy
    is allocated), allocates every function of the copy with [alloc],
    optionally verifies each against its pre-allocation form
    ([verify] defaults to [true]), re-interprets, and compares.
    [input] feeds [ext_getc] on both runs. *)
val check_with :
  ?fuel:int ->
  ?verify:bool ->
  ?input:string ->
  Machine.t ->
  alloc_fn ->
  Program.t ->
  (unit, divergence) result

(** {!check_with} over one of the named allocators, allocating under a
    decision trace whose replay must agree with the reported stats (and
    whose event stream must be well formed), so every differential check
    is also a trace consistency check; a disagreement surfaces as a
    [Trace_mismatch] divergence. *)
val check :
  ?verify:bool ->
  ?input:string ->
  Machine.t ->
  Lsra.Allocator.algorithm ->
  Program.t ->
  (unit, divergence) result

(** The oracle sandwich over the whole managed pipeline: interpret the
    program once for reference, then run the pre-allocation passes of
    [passes] (default {!Lsra.Passes.all}), the allocation (traced, as in
    {!check}) and the post-allocation cleanups — re-interpreting after
    {e every} pass and re-running the abstract verifier after every
    post-allocation stage ([verify] defaults to [true]). A divergence
    introduced by a cleanup pass is reported as {!Pass_divergence},
    pinned to that pass by name. On success, returns the pipeline's pass
    statistics (per-pass wall times and [frame_saved], the frame words
    reclaimed by Slots). *)
val check_pipeline :
  ?fuel:int ->
  ?verify:bool ->
  ?input:string ->
  ?passes:Lsra.Passes.t list ->
  Machine.t ->
  Lsra.Allocator.algorithm ->
  Program.t ->
  (Lsra.Stats.t, divergence) result

(** Result of a native-versus-interpreter cross-check. *)
type native_status =
  | Native_ok of {
      code_bytes : int;
      alloc_s : float;
      emit_s : float;
      interp_s : float;
      native_s : float;
    }
      (** with the walls, in seconds, of the managed pipeline, the
          emission, the post-allocation interpreter run and the native
          run *)
  | Native_skipped of string
      (** nothing to compare: non-x86-64 host, a trapping reference run
          (native semantics are only pinned on interpreter-clean
          executions), or an interpreter-level divergence that
          {!check_pipeline} owns *)
  | Native_diverged of string
      (** the emitted machine code disagrees with the post-allocation
          interpreter run — an encoder/lowering bug, or a failure to
          emit an interpreter-clean allocated program at all *)

(** The native oracle sandwich: interpret [prog] before allocation,
    allocate it through the managed pipeline ([passes] defaults to
    {!Lsra.Passes.all}), re-interpret, then emit x86-64 with
    {!Lsra_native.Lower.compile}, execute it in-process and require the
    machine-level observables — the ext output bytes and the integer
    return register — to match the post-allocation interpreter run
    exactly. Comparison is gated on both interpreter runs being clean
    and agreeing, so a [Native_diverged] always indicts the native
    backend, never the allocator. A native run that cannot start (e.g.
    the code cannot be mapped) is a [Native_diverged] too. *)
val check_native :
  ?fuel:int ->
  ?input:string ->
  ?passes:Lsra.Passes.t list ->
  Machine.t ->
  Lsra.Allocator.algorithm ->
  Program.t ->
  native_status

(** Greedy delta-debugging of a program failing under [alloc] (run with
    no input): repeatedly delete one instruction or straighten one
    conditional branch, keeping an edit only while the reference run
    stays well-defined {e and} the divergence persists, until no single
    edit helps (or 2000 candidates were evaluated). Each candidate's
    interpreter budget is derived from the reference execution of the
    input, so edits that create runaway loops are rejected quickly.
    Returns the input unchanged if it does not fail in the first place. *)
val shrink : ?verify:bool -> Machine.t -> alloc_fn -> Program.t -> Program.t

(** One (machine, program, allocator) check of a sweep. [reference] is
    the program's pre-allocation run, shared by every allocator of the
    same (machine, program). *)
type 'a cell = {
  machine_name : string;
  program_name : string;
  algorithm : Lsra.Allocator.algorithm;
  reference : (Interp.outcome, string) result;
  result : 'a;
}

(** A divergence as found on the whole program, with the program shrunk
    under the same oracle (as {!shrink} does, against {!check_pipeline};
    a trapping reference is kept whole). When [LSRA_DIFF_ARTIFACT_DIR]
    or else [LSRA_FUZZ_ARTIFACT_DIR] names a directory, the reproducer is
    written there as [PROGRAM_MACHINE_ALLOCATOR.lsra] beside the
    allocator's decision trace over it ([.trace.txt], [.trace.jsonl]),
    and [artifact] is the reproducer's path. *)
type finding = {
  divergence : divergence;
  reproducer : Program.t;
  artifact : string option;
}

(** The report of one diverging cell: a [DIVERGENCE] line naming the
    program, machine and allocator, then the reproducer, then the
    artifact's path if one was written. *)
val finding_to_string : finding cell -> string

(** [sweep ~algorithms machines programs f] runs every labelled machine
    × every entry of [programs machine] × every algorithm through
    {!check_pipeline} ([passes] defaults to {!Lsra.Passes.all}, the
    allocation runs under a replay-checked trace), calling [f] on each
    cell in that order. Each (machine, program) reference is interpreted
    once. *)
val sweep :
  ?fuel:int ->
  ?verify:bool ->
  ?passes:Lsra.Passes.t list ->
  algorithms:Lsra.Allocator.algorithm list ->
  (string * Machine.t) list ->
  (Machine.t -> Lsra_workloads.Corpus.entry list) ->
  ((Lsra.Stats.t, finding) result cell -> unit) ->
  unit

(** {!sweep} through {!check_native} instead: no shrinking, no
    artifacts. *)
val sweep_native :
  ?fuel:int ->
  ?passes:Lsra.Passes.t list ->
  algorithms:Lsra.Allocator.algorithm list ->
  (string * Machine.t) list ->
  (Machine.t -> Lsra_workloads.Corpus.entry list) ->
  (native_status cell -> unit) ->
  unit
