open Lsra_ir
open Lsra_target
module D = Lsra_sim.Diffexec

(* The differential-execution oracle: it must pass every allocator on
   well-defined programs, catch a deliberately corrupted allocation
   purely by executing it (verifier off), and shrink failing programs to
   smaller ones that still fail. *)

let tiny = Machine.small ~int_regs:4 ~float_regs:4 ()

let gen_prog ?(machine = tiny) seed =
  let params =
    {
      Lsra_workloads.Gen.default_params with
      Lsra_workloads.Gen.seed;
      n_temps = 8;
      n_stmts = 10;
      n_funcs = 2;
    }
  in
  Lsra_workloads.Gen.program ~params machine

(* Every allocator on every program: no cell of the sweep may diverge.
   [passes] defaults to none, i.e. the allocation-only oracle. *)
let expect_clean_sweep ?(passes = []) machines programs =
  D.sweep ~passes ~algorithms:Lsra.Allocator.all machines programs (fun c ->
      match c.D.result with
      | Ok _ -> ()
      | Error f ->
        Alcotest.failf "%s on %s under %s: %s" c.program_name c.machine_name
          (Lsra.Allocator.short_name c.algorithm)
          (D.divergence_to_string f.D.divergence))

let test_oracle_accepts_all_allocators () =
  expect_clean_sweep [ ("tiny-4", tiny) ] (fun _ ->
      List.map
        (fun seed ->
          {
            Lsra_workloads.Corpus.name = Printf.sprintf "gen%d" seed;
            program = gen_prog seed;
            input = "abc";
          })
        [ 1; 2; 3; 4; 5 ])

(* An allocator that allocates correctly, then corrupts one live
   original instruction: flip the `* 31` of the observable-state hash
   fold into `* 29`. With the verifier off, only execution can notice. *)
let corrupting_alloc machine func =
  ignore (Lsra.Allocator.(run default_second_chance) machine func);
  let corrupted = ref false in
  Cfg.iter_blocks
    (fun b ->
      Block.set_body b
        (Array.map
           (fun i ->
             match Instr.desc i with
             | Instr.Bin { op = Instr.Mul; dst; a; b = Operand.Int 31 }
               when not !corrupted ->
               corrupted := true;
               Instr.with_desc i
                 (Instr.Bin
                    { op = Instr.Mul; dst; a; b = Operand.Int 29 })
             | _ -> i)
           (Block.body b)))
    (Func.cfg func)

let test_oracle_catches_corruption () =
  let prog = gen_prog 7 in
  match D.check_with ~verify:false tiny corrupting_alloc prog with
  | Error (D.Ret_mismatch _ | D.Output_mismatch _) -> ()
  | Error d ->
    Alcotest.failf "unexpected divergence kind: %s" (D.divergence_to_string d)
  | Ok () -> Alcotest.fail "oracle missed a corrupted multiplication"

let test_verifier_reject_is_reported () =
  (* With the verifier on, the same corruption of an original
     instruction's constant is not a verifier concern (operands other
     than locations are untouched by allocation in its model), so it
     still surfaces as an execution divergence — but a corrupted
     register must surface as a Verifier_reject before execution. *)
  let reg_corrupting_alloc machine func =
    ignore (Lsra.Allocator.(run default_second_chance) machine func);
    let evil = Loc.Reg (Mreg.make ~cls:Rclass.Int 0) in
    let corrupted = ref false in
    Cfg.iter_blocks
      (fun b ->
        Block.set_body b
          (Array.map
             (fun i ->
               match Instr.tag i, Instr.desc i with
               | Instr.Original, Instr.Bin { op; dst; a = Operand.Loc _; b }
                 when not !corrupted ->
                 corrupted := true;
                 Instr.with_desc i
                   (Instr.Bin { op; dst; a = Operand.Loc evil; b })
               | _ -> i)
             (Block.body b)))
      (Func.cfg func)
  in
  let prog = gen_prog 11 in
  match D.check_with ~verify:true tiny reg_corrupting_alloc prog with
  | Error (D.Verifier_reject e) ->
    Alcotest.(check bool) "fn is reported" true (String.length e.Lsra.Verify.fn > 0)
  | Error d ->
    Alcotest.failf "expected a verifier reject, got: %s"
      (D.divergence_to_string d)
  | Ok () -> Alcotest.fail "verifier missed a rewritten register operand"

let prog_size p =
  List.fold_left (fun acc (_, f) -> acc + Func.n_instrs f) 0 (Program.funcs p)

let test_shrink_reduces_and_preserves_failure () =
  let prog = gen_prog 13 in
  let alloc = corrupting_alloc in
  (match D.check_with ~verify:false tiny alloc prog with
  | Ok () -> Alcotest.fail "expected the corrupted allocation to fail"
  | Error _ -> ());
  let small = D.shrink ~verify:false tiny alloc prog in
  Alcotest.(check bool)
    "shrunk program is no larger" true
    (prog_size small <= prog_size prog);
  (match D.check_with ~verify:false tiny alloc small with
  | Ok () -> Alcotest.fail "shrinking lost the failure"
  | Error _ -> ());
  (* the reproducer must survive a textual round-trip *)
  let text = Lsra_text.Ir_text.to_string small in
  ignore (Lsra_text.Ir_text.of_string text)

let test_shrink_keeps_passing_program () =
  let prog = gen_prog 17 in
  let alloc machine f =
    ignore (Lsra.Allocator.(run default_second_chance) machine f)
  in
  let out = D.shrink tiny alloc prog in
  Alcotest.(check int) "untouched" (prog_size prog) (prog_size out)

let test_corpus_spot_check () =
  (* one synthetic benchmark and one Minilang program, every allocator,
     on a spill-heavy machine *)
  let module C = Lsra_workloads.Corpus in
  expect_clean_sweep [ ("small-7", C.small7) ] (fun m ->
      List.filter
        (fun (e : C.entry) -> e.name = "spec:wc" || e.name = "mini:collatz")
        (C.spec m ~scale:1 @ C.mini m))

let test_fuzz_smoke () =
  expect_clean_sweep ~passes:Lsra.Passes.all
    Lsra_workloads.Corpus.fuzz_machines (fun m ->
      List.map (fun seed -> Lsra_workloads.Corpus.fuzz m ~seed) [ 0; 1; 2 ])

(* The full managed pipeline (every cleanup pass, per-pass oracle
   checks) must agree with the plain allocation oracle on random
   programs, and its stats must carry the Slots accounting. *)
let test_pipeline_oracle_accepts_all_passes () =
  List.iter
    (fun seed ->
      let prog = gen_prog seed in
      List.iter
        (fun algo ->
          match
            D.check_pipeline ~input:"abc" ~passes:Lsra.Passes.all tiny algo
              prog
          with
          | Ok stats ->
            if stats.Lsra.Stats.frame_saved < 0 then
              Alcotest.fail "negative frame_saved"
          | Error d ->
            Alcotest.failf "pipeline oracle failed seed %d under %s: %s" seed
              (Lsra.Allocator.name algo)
              (D.divergence_to_string d))
        Lsra.Allocator.all)
    [ 11; 12; 13 ]

(* Exit-code classification: a verifier reject stays a "reject" even
   when a cleanup pass introduced it, everything else is behavioral. *)
let test_pass_divergence_classification () =
  let reject =
    D.Verifier_reject
      { Lsra.Verify.fn = "f"; block = "entry"; where = "x"; what = "w" }
  in
  let behavioral = D.Output_mismatch { expected = "1"; actual = "2" } in
  Alcotest.(check bool) "bare reject" true (D.is_verifier_reject reject);
  Alcotest.(check bool)
    "reject wrapped in a pass" true
    (D.is_verifier_reject
       (D.Pass_divergence { pass = "peephole"; underlying = reject }));
  Alcotest.(check bool)
    "behavioral wrapped in a pass" false
    (D.is_verifier_reject
       (D.Pass_divergence { pass = "motion"; underlying = behavioral }));
  let printed =
    D.divergence_to_string
      (D.Pass_divergence { pass = "motion"; underlying = behavioral })
  in
  if not (String.length printed > 0) then Alcotest.fail "empty rendering"

(* A program reading an undefined temp: it traps before allocation. *)
let trapping_prog () =
  let b = Builder.create ~name:"main" in
  let x = Builder.temp b Rclass.Int in
  Builder.start_block b "entry";
  Builder.bin b Instr.Add x (Operand.temp x) (Operand.int 1);
  Builder.move b (Loc.Reg (Machine.int_ret tiny)) (Operand.temp x);
  Builder.ret b;
  Program.create ~main:"main" [ ("main", Builder.finish b) ]

let test_reference_trap_is_not_an_allocator_bug () =
  (* the oracle must blame the input, not the allocator *)
  let prog = trapping_prog () in
  match D.check tiny Lsra.Allocator.default_second_chance prog with
  | Error (D.Reference_trap _) -> ()
  | Error d ->
    Alcotest.failf "expected a reference trap, got %s"
      (D.divergence_to_string d)
  | Ok () -> Alcotest.fail "expected the ill-defined program to trap"

(* The sweeps against the direct oracles on a small corpus: two
   generated programs and one whose reference traps. Every cell must
   equal the direct check_pipeline / check_native result; the cells of
   one program must share a single reference run (the same value, not
   an equal one); and the trapping program must come back as one
   identical skip per allocator, unallocated — had it been allocated,
   its post-allocation run would trap as well and the pipeline verdict
   would be an Allocated_trap. *)
let sweep_corpus () =
  List.map
    (fun seed ->
      {
        Lsra_workloads.Corpus.name = Printf.sprintf "gen%d" seed;
        program = gen_prog seed;
        input = "abc";
      })
    [ 3; 4 ]
  @ [
      {
        Lsra_workloads.Corpus.name = "trap";
        program = trapping_prog ();
        input = "";
      };
    ]

let sweep_cells sweep =
  let corpus = sweep_corpus () in
  let cells = ref [] in
  sweep [ ("tiny-4", tiny) ] (fun _ -> corpus) (fun c -> cells := c :: !cells);
  (corpus, List.rev !cells)

let check_shared_reference corpus cells =
  Alcotest.(check int)
    "one cell per program and allocator"
    (List.length corpus * List.length Lsra.Allocator.all)
    (List.length cells);
  List.iter
    (fun (e : Lsra_workloads.Corpus.entry) ->
      match List.filter (fun c -> c.D.program_name = e.name) cells with
      | [] -> Alcotest.failf "no cells for %s" e.name
      | first :: rest ->
        List.iter
          (fun c ->
            if c.D.reference != first.D.reference then
              Alcotest.failf "%s: reference interpreted more than once" e.name)
          rest)
    corpus

let entry_of corpus name =
  List.find (fun (e : Lsra_workloads.Corpus.entry) -> e.name = name) corpus

let test_pipeline_sweep_matches_direct () =
  let corpus, cells = sweep_cells (D.sweep ~algorithms:Lsra.Allocator.all) in
  check_shared_reference corpus cells;
  let summary = function
    | Ok stats ->
      Ok (stats.Lsra.Stats.frame_saved, Lsra.Stats.total_spill stats)
    | Error d -> Error (D.divergence_to_string d)
  in
  List.iter
    (fun c ->
      let e = entry_of corpus c.D.program_name in
      let direct =
        D.check_pipeline ~input:e.input tiny c.algorithm e.program
      in
      let swept = Result.map_error (fun f -> f.D.divergence) c.result in
      if summary swept <> summary direct then
        Alcotest.failf "%s under %s: sweep and direct check disagree"
          e.name
          (Lsra.Allocator.short_name c.algorithm);
      match (e.name, c.result) with
      | "trap", Error { D.divergence = D.Reference_trap _; reproducer; _ } ->
        if reproducer != e.program then
          Alcotest.fail "a trapping input must not be shrunk"
      | "trap", _ -> Alcotest.fail "expected a reference trap"
      | _, Error f ->
        Alcotest.failf "%s: %s" e.name (D.divergence_to_string f.D.divergence)
      | _, Ok _ -> ())
    cells

let test_native_sweep_matches_direct () =
  let corpus, cells =
    sweep_cells (D.sweep_native ~algorithms:Lsra.Allocator.all)
  in
  check_shared_reference corpus cells;
  let summary = function
    | D.Native_ok { code_bytes; _ } -> Ok code_bytes
    | D.Native_skipped why -> Error ("skipped: " ^ why)
    | D.Native_diverged why -> Error ("diverged: " ^ why)
  in
  List.iter
    (fun c ->
      let e = entry_of corpus c.D.program_name in
      let direct = D.check_native ~input:e.input tiny c.algorithm e.program in
      Alcotest.(check (result int string))
        (e.name ^ " under " ^ Lsra.Allocator.short_name c.algorithm)
        (summary direct) (summary c.result))
    cells;
  if Lsra_native.Exec.available () then
    match
      List.sort_uniq compare
        (List.filter_map
           (fun c ->
             if c.D.program_name = "trap" then Some (summary c.result)
             else None)
           cells)
    with
    | [ Error why ]
      when String.starts_with ~prefix:"skipped: reference run traps" why ->
      ()
    | _ -> Alcotest.fail "expected one identical reference-trap skip"

let suite =
  [
    Alcotest.test_case "oracle passes all allocators on random programs"
      `Quick test_oracle_accepts_all_allocators;
    Alcotest.test_case "oracle catches a corrupted computation by execution"
      `Quick test_oracle_catches_corruption;
    Alcotest.test_case "verifier rejects are reported with context" `Quick
      test_verifier_reject_is_reported;
    Alcotest.test_case "shrink reduces a failing program and keeps it failing"
      `Quick test_shrink_reduces_and_preserves_failure;
    Alcotest.test_case "shrink leaves a passing program alone" `Quick
      test_shrink_keeps_passing_program;
    Alcotest.test_case "corpus spot check under all four allocators" `Quick
      test_corpus_spot_check;
    Alcotest.test_case "fuzz smoke on fixed seeds" `Slow test_fuzz_smoke;
    Alcotest.test_case "pipeline oracle passes with every cleanup pass" `Quick
      test_pipeline_oracle_accepts_all_passes;
    Alcotest.test_case "pass divergences classify and render" `Quick
      test_pass_divergence_classification;
    Alcotest.test_case "a trapping input blames the reference" `Quick
      test_reference_trap_is_not_an_allocator_bug;
    Alcotest.test_case "pipeline sweep cells equal direct checks" `Quick
      test_pipeline_sweep_matches_direct;
    Alcotest.test_case "native sweep cells equal direct checks" `Quick
      test_native_sweep_matches_direct;
  ]
