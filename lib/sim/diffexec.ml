open Lsra_ir
open Lsra_target

(* Differential-execution oracle: run a program before allocation and
   after, on the same interpreter, and compare everything observable —
   the output stream and the returned value. The interpreter poisons
   caller-saved registers at calls and traps on undefined reads, so a
   divergence pins an allocator bug to a concrete execution, which is a
   strictly stronger (if slower) oracle than the abstract verifier.

   The sweep half drives machines × programs × allocators through the
   oracle and, on a divergence, shrinks the program — deleting
   instructions and straightening branches while the failure persists —
   to a minimal textual reproducer. *)

type divergence =
  | Reference_trap of string
  | Allocated_trap of string
  | Output_mismatch of { expected : string; actual : string }
  | Ret_mismatch of { expected : Value.t; actual : Value.t }
  | Verifier_reject of Lsra.Verify.error
  | Allocator_raise of string
  | Trace_mismatch of string
  | Pass_divergence of { pass : string; underlying : divergence }

let rec divergence_to_string = function
  | Reference_trap e -> Printf.sprintf "pre-allocation program traps: %s" e
  | Allocated_trap e -> Printf.sprintf "allocated program traps: %s" e
  | Output_mismatch { expected; actual } ->
    Printf.sprintf "output mismatch: expected %S, got %S" expected actual
  | Ret_mismatch { expected; actual } ->
    Printf.sprintf "return-value mismatch: expected %s, got %s"
      (Value.to_string expected) (Value.to_string actual)
  | Verifier_reject e ->
    Printf.sprintf "verifier rejects function '%s' (block '%s') at '%s': %s"
      e.Lsra.Verify.fn e.Lsra.Verify.block e.Lsra.Verify.where
      e.Lsra.Verify.what
  | Allocator_raise e -> Printf.sprintf "allocator raised: %s" e
  | Trace_mismatch e -> Printf.sprintf "decision-trace mismatch: %s" e
  | Pass_divergence { pass; underlying } ->
    Printf.sprintf "after cleanup pass '%s': %s" pass
      (divergence_to_string underlying)

(* A Verifier_reject (even one attributed to a cleanup pass) means the
   abstract checker balked; everything else is a behavioral failure. The
   diffcheck driver keys its exit code on this split. *)
let rec is_verifier_reject = function
  | Verifier_reject _ -> true
  | Pass_divergence { underlying; _ } -> is_verifier_reject underlying
  | Reference_trap _ | Allocated_trap _ | Output_mismatch _ | Ret_mismatch _
  | Allocator_raise _ | Trace_mismatch _ ->
    false

type alloc_fn = Machine.t -> Func.t -> unit

exception Stop of divergence

(* Allocate under a decision trace and replay-check the stream against
   the reported stats, so every differential check is also a trace
   consistency check. Raises [Stop (Trace_mismatch _)]. *)
let traced_alloc_of algo machine func =
  let t = Lsra.Trace.create () in
  let stats = Lsra.Allocator.run ~trace:t algo machine func in
  let evs = Lsra.Trace.events t in
  let ctx what e =
    Printf.sprintf "%s under %s in '%s': %s" what
      (Lsra.Allocator.short_name algo) (Func.name func) e
  in
  (match Lsra.Trace.replay_check evs stats with
  | Ok () -> ()
  | Error e -> raise (Stop (Trace_mismatch (ctx "replay" e))));
  let strict =
    match algo with
    | Lsra.Allocator.Second_chance _ -> true
    | Lsra.Allocator.Two_pass | Lsra.Allocator.Poletto
    | Lsra.Allocator.Graph_coloring | Lsra.Allocator.Optimal _ ->
      false
  in
  match Lsra.Trace.well_formed ~strict evs with
  | Ok () -> ()
  | Error e -> raise (Stop (Trace_mismatch (ctx "event stream" e)))

(* ------------------------------------------------------------------ *)
(* Full-pipeline oracle                                                *)

(* The oracle sandwich over the whole managed pipeline, against an
   already-interpreted reference run: re-interpret (and re-verify) after
   every pass — the pre-allocation passes, the allocation itself ([alloc]
   on every function), and each post-allocation cleanup. A divergence
   introduced by a cleanup pass is pinned to that pass by name, so
   "Motion broke this program" and "the allocator broke this program"
   are distinct findings. *)
let pipeline_against ~fuel ~verify ~input ~passes ~(alloc : alloc_fn) machine
    prog reference =
  match reference with
  | Error e -> Error (Reference_trap e)
  | Ok reference -> (
    let copy = Program.copy prog in
    let stats = Lsra.Stats.create () in
    let pre, post =
      List.partition Lsra.Passes.is_pre (Lsra.Passes.normalize passes)
    in
    let wrap pass d =
      match pass with
      | None -> d
      | Some p ->
        Pass_divergence { pass = Lsra.Passes.name p; underlying = d }
    in
    let compare_run pass =
      let fail d = raise (Stop (wrap pass d)) in
      match Interp.run ~fuel machine copy ~input with
      | Error e -> fail (Allocated_trap e)
      | Ok actual ->
        if reference.Interp.output <> actual.Interp.output then
          fail
            (Output_mismatch
               {
                 expected = reference.Interp.output;
                 actual = actual.Interp.output;
               })
        else if
          reference.Interp.ret <> Value.Undef
          && not (Value.equal reference.Interp.ret actual.Interp.ret)
          (* undefined reference return: any refinement is acceptable *)
        then
          fail
            (Ret_mismatch
               { expected = reference.Interp.ret; actual = actual.Interp.ret })
    in
    let originals = ref [] in
    let verify_all pass =
      if verify then
        List.iter
          (fun (n, allocated) ->
            match
              Lsra.Verify.check machine ~original:(List.assoc n !originals)
                ~allocated
            with
            | Ok () -> ()
            | Error e -> raise (Stop (wrap pass (Verifier_reject e))))
          (Program.funcs copy)
    in
    try
      List.iter
        (fun p ->
          ignore (Lsra.Passes.run_pass ~stats p copy);
          compare_run (Some p))
        pre;
      if verify then
        originals :=
          List.map (fun (n, f) -> (n, Func.copy f)) (Program.funcs copy);
      List.iter
        (fun (_, f) ->
          try alloc machine f with
          | Stop _ as stop -> raise stop
          | e -> raise (Stop (Allocator_raise (Printexc.to_string e))))
        (Program.funcs copy);
      verify_all None;
      compare_run None;
      List.iter
        (fun p ->
          ignore (Lsra.Passes.run_pass ~stats p copy);
          verify_all (Some p);
          compare_run (Some p))
        post;
      Ok stats
    with Stop d -> Error d)

let check_with ?(fuel = 200_000_000) ?(verify = true) ?(input = "") machine
    alloc prog =
  Result.map ignore
    (pipeline_against ~fuel ~verify ~input ~passes:[] ~alloc machine prog
       (Interp.run ~fuel machine prog ~input))

let check ?verify ?input machine algo prog =
  check_with ?verify ?input machine (traced_alloc_of algo) prog

let check_pipeline ?(fuel = 200_000_000) ?(verify = true) ?(input = "")
    ?(passes = Lsra.Passes.all) machine algo prog =
  pipeline_against ~fuel ~verify ~input ~passes ~alloc:(traced_alloc_of algo)
    machine prog
    (Interp.run ~fuel machine prog ~input)

(* ------------------------------------------------------------------ *)
(* Native cross-check                                                  *)

type native_status =
  | Native_ok of {
      code_bytes : int;
      alloc_s : float;
      emit_s : float;
      interp_s : float;
      native_s : float;
    }
  | Native_skipped of string
  | Native_diverged of string

let truncated s =
  if String.length s <= 160 then s else String.sub s 0 160 ^ "…"

exception Verdict of native_status

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The native oracle sandwich against a (lazily) interpreted reference:
   allocate through the managed pipeline, re-interpret, then emit and
   execute real x86-64 — and require the machine's observables (ext
   output bytes and the integer return register) to match the
   post-allocation interpreter run exactly. Comparison is gated on both
   interpreter runs being clean and agreeing: trapping or diverging
   programs are the ordinary {!check_pipeline} oracle's findings, not
   the encoder's. *)
let native_against ~fuel ~input ~passes machine algo prog reference =
  let skip why = raise (Verdict (Native_skipped why)) in
  let diverge why = raise (Verdict (Native_diverged why)) in
  try
    if not (Lsra_native.Exec.available ()) then skip "host is not x86-64";
    let reference =
      match Lazy.force reference with
      | Error e -> skip ("reference run traps: " ^ e)
      | Ok r -> r
    in
    let copy = Program.copy prog in
    let (), alloc_s =
      timed (fun () ->
          try
            ignore
              (Lsra.Allocator.pipeline ~precheck:false ~verify:false ~passes
                 algo machine copy)
          with e -> skip ("allocator raised: " ^ Printexc.to_string e))
    in
    let expected, interp_s =
      timed (fun () ->
          match Interp.run ~fuel machine copy ~input with
          | Error e -> skip ("allocated run traps: " ^ e)
          | Ok o -> o)
    in
    if reference.Interp.output <> expected.Interp.output then
      skip "interpreter runs diverge (allocator bug)";
    let compiled, emit_s =
      timed (fun () ->
          match Lsra_native.Lower.compile machine copy with
          | Error e -> diverge ("emission failed: " ^ e)
          | Ok c -> c)
    in
    let native, native_s =
      timed (fun () ->
          try
            Lsra_native.Exec.run_compiled ~fuel ~input compiled
              ~heap_words:(Program.heap_words prog)
          with Failure e -> diverge ("native execution failed: " ^ e))
    in
    Option.iter
      (fun t ->
        diverge ("native run trapped on an interpreter-clean program: " ^ t))
      native.Lsra_native.Exec.trap;
    if native.Lsra_native.Exec.output <> expected.Interp.output then
      diverge
        (Printf.sprintf "output mismatch: interpreter %S, native %S"
           (truncated expected.Interp.output)
           (truncated native.Lsra_native.Exec.output));
    (match expected.Interp.ret with
    | Value.Int want when want <> native.Lsra_native.Exec.ret ->
      diverge
        (Printf.sprintf "return-value mismatch: interpreter %d, native %d"
           want native.Lsra_native.Exec.ret)
    | Value.Int _ | Value.Flt _ | Value.Undef -> ());
    let code_bytes = native.Lsra_native.Exec.code_bytes in
    Native_ok { code_bytes; alloc_s; emit_s; interp_s; native_s }
  with Verdict status -> status

let check_native ?(fuel = 200_000_000) ?(input = "")
    ?(passes = Lsra.Passes.all) machine algo prog =
  native_against ~fuel ~input ~passes machine algo prog
    (lazy (Interp.run ~fuel machine prog ~input))

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)

(* A failure still counts only if the *pre-allocation* program stays
   well-defined: a shrink step that makes the reference itself trap
   (e.g. deleting an initialisation) is rejected, so the reproducer is
   always a valid input on which only the allocator (or a cleanup pass)
   is wrong. *)
let delete_instr prog fname bi k =
  let f = Program.find_exn prog fname in
  let b = (Cfg.blocks (Func.cfg f)).(bi) in
  let body = Block.body b in
  let n = Array.length body in
  Block.set_body b
    (Array.append (Array.sub body 0 k) (Array.sub body (k + 1) (n - k - 1)))

let straighten_branch prog fname bi takeso =
  let f = Program.find_exn prog fname in
  let b = (Cfg.blocks (Func.cfg f)).(bi) in
  match Block.term b with
  | Block.Branch { ifso; ifnot; _ } ->
    Block.set_term b (Block.Jump (if takeso then ifso else ifnot))
  | Block.Jump _ | Block.Ret -> ()

(* Every single-step edit of the current program: delete one body
   instruction, or turn one conditional branch into a jump (dead blocks
   are harmless — the interpreter and allocators never reach them). *)
let edits prog =
  List.concat_map
    (fun (fname, f) ->
      let blocks = Cfg.blocks (Func.cfg f) in
      List.concat
        (List.init (Array.length blocks) (fun bi ->
             let b = blocks.(bi) in
             let deletes =
               List.init (Array.length (Block.body b)) (fun k p ->
                   delete_instr p fname bi k)
             in
             let straightens =
               match Block.term b with
               | Block.Branch _ ->
                 [
                   (fun p -> straighten_branch p fname bi true);
                   (fun p -> straighten_branch p fname bi false);
                 ]
               | Block.Jump _ | Block.Ret -> []
             in
             deletes @ straightens)))
    (Program.funcs prog)

(* Bound every candidate run by the reference execution of the full
   program: an edit that creates a runaway loop (straightening a loop
   exit, deleting an induction increment) then traps in milliseconds
   instead of burning the interpreter's huge default budget on every such
   candidate. *)
let shrink_fuel (o : Interp.outcome) =
  max (20 * o.Interp.counts.Interp.total) 100_000

(* The shrinking loop itself is oracle-agnostic: [recheck] is any
   program-level differential checker (allocation-only via {!check_with},
   or the full pipeline via {!check_pipeline}). A failure still counts
   only if the *pre-allocation* program stays well-defined: a shrink step
   that makes the reference itself trap (e.g. deleting an
   initialisation) is rejected, so the reproducer is always a valid input
   on which only the allocator (or a cleanup pass) is wrong. *)
let shrink_by ~fuel recheck prog =
  let max_checks = 2_000 in
  let checks = ref 0 in
  let still_fails p =
    incr checks;
    match recheck ~fuel p with
    | Error (Reference_trap _) | Ok () -> false
    | Error _ -> true
  in
  let try_edit cur edit =
    let cand = Program.copy cur in
    match
      edit cand;
      Program.validate cand
    with
    | () -> if still_fails cand then Some cand else None
    | exception Cfg.Malformed _ -> None
    | exception Invalid_argument _ -> None
  in
  if not (still_fails prog) then prog
  else begin
    let cur = ref prog in
    let progress = ref true in
    while !progress && !checks < max_checks do
      progress := false;
      (* One pass over the edit list: re-derive it after every accepted
         edit (indices shift) but resume the scan in place, so an edit
         rejected earlier in the pass is not retried until the next
         pass. *)
      let i = ref 0 in
      let scanning = ref true in
      while !scanning && !checks < max_checks do
        let es = edits !cur in
        if !i >= List.length es then scanning := false
        else
          match try_edit !cur (List.nth es !i) with
          | Some smaller ->
            cur := smaller;
            progress := true
          | None -> incr i
      done
    done;
    !cur
  end

let shrink ?verify machine (alloc : alloc_fn) prog =
  let fuel =
    match Interp.run machine prog ~input:"" with
    | Ok o -> shrink_fuel o
    | Error _ -> 100_000
  in
  shrink_by ~fuel (fun ~fuel p -> check_with ~fuel ?verify machine alloc p) prog

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)

type 'a cell = {
  machine_name : string;
  program_name : string;
  algorithm : Lsra.Allocator.algorithm;
  reference : (Interp.outcome, string) result;
  result : 'a;
}

type finding = {
  divergence : divergence;
  reproducer : Program.t;
  artifact : string option;
}

(* Machines × programs × allocators. Each (machine, program) reference is
   interpreted once, before any allocator sees the program, and handed
   to every allocator's [check]. *)
let grid ~fuel ~algorithms machines programs check f =
  List.iter
    (fun ((machine_name, machine) as m) ->
      List.iter
        (fun (entry : Lsra_workloads.Corpus.entry) ->
          let program_name = entry.name in
          let reference =
            Interp.run ~fuel machine entry.program ~input:entry.input
          in
          List.iter
            (fun algorithm ->
              let result = check m entry algorithm reference in
              f { machine_name; program_name; algorithm; reference; result })
            algorithms)
        (programs machine))
    machines

let sanitize =
  String.map (function
    | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.') as c -> c
    | _ -> '-')

(* The reproducer as textual IR, plus the diverging allocator's decision
   trace over it in both renderings, so a CI failure can be diagnosed
   from the uploaded files alone, without re-running the sweep. Returns
   the reproducer's path. *)
let write_artifact dir ~machine_name ~program_name machine algo reproducer =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let stem =
    Filename.concat dir
      (String.concat "_"
         (List.map sanitize
            [ program_name; machine_name; Lsra.Allocator.short_name algo ]))
  in
  let write ext contents =
    Out_channel.with_open_text (stem ^ ext) (fun oc ->
        Out_channel.output_string oc contents)
  in
  write ".lsra" (Lsra_text.Ir_text.to_string reproducer);
  (match
     let trace = Lsra.Trace.create () in
     ignore
       (Lsra.Allocator.run_program ~trace algo machine
          (Program.copy reproducer));
     Lsra.Trace.events trace
   with
  | events ->
    write ".trace.txt" (Lsra.Trace.to_text events);
    write ".trace.jsonl" (Lsra.Trace.to_jsonl events)
  | exception e ->
    (* e.g. the divergence is the allocator crashing: record that
       instead of a trace *)
    write ".trace.txt"
      ("no trace: allocation failed with " ^ Printexc.to_string e ^ "\n"));
  stem ^ ".lsra"

let finding_to_string c =
  Printf.sprintf "DIVERGENCE %s on %s under %s: %s\nminimal reproducer:\n%s%s"
    c.program_name c.machine_name
    (Lsra.Allocator.short_name c.algorithm)
    (divergence_to_string c.result.divergence)
    (Lsra_text.Ir_text.to_string c.result.reproducer)
    (match c.result.artifact with
    | None -> ""
    | Some path -> Printf.sprintf "  reproducer written to %s\n" path)

let sweep ?(fuel = 200_000_000) ?(verify = true) ?(passes = Lsra.Passes.all)
    ~algorithms machines programs f =
  (* CI sets one variable for the corpus sweep and one for the fuzzer. *)
  let dir =
    List.find_map Sys.getenv_opt
      [ "LSRA_DIFF_ARTIFACT_DIR"; "LSRA_FUZZ_ARTIFACT_DIR" ]
  in
  grid ~fuel ~algorithms machines programs
    (fun (machine_name, machine) (entry : Lsra_workloads.Corpus.entry) algo
         reference ->
      match
        pipeline_against ~fuel ~verify ~input:entry.input ~passes
          ~alloc:(traced_alloc_of algo) machine entry.program reference
      with
      | Ok stats -> Ok stats
      | Error divergence ->
        (* A trapping reference leaves nothing to shrink: the input
           itself is ill-defined. *)
        let reproducer =
          match reference with
          | Error _ -> entry.program
          | Ok r ->
            shrink_by ~fuel:(shrink_fuel r)
              (fun ~fuel p ->
                Result.map ignore
                  (check_pipeline ~fuel ~verify ~input:entry.input ~passes
                     machine algo p))
              entry.program
        in
        let artifact =
          Option.map
            (fun dir ->
              write_artifact dir ~machine_name ~program_name:entry.name
                machine algo reproducer)
            dir
        in
        Error { divergence; reproducer; artifact })
    f

let sweep_native ?(fuel = 200_000_000) ?(passes = Lsra.Passes.all)
    ~algorithms machines programs f =
  grid ~fuel ~algorithms machines programs
    (fun (_, machine) (entry : Lsra_workloads.Corpus.entry) algo reference ->
      native_against ~fuel ~input:entry.input ~passes machine algo
        entry.program (Lazy.from_val reference))
    f
