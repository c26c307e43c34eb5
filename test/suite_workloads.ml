open Lsra_ir
open Lsra_target

(* Every synthetic benchmark, compiled by every allocator, must verify
   and behave exactly like the unallocated program. *)

let algorithms =
  [
    ("binpack", Lsra.Allocator.default_second_chance);
    ("gc", Lsra.Allocator.Graph_coloring);
    ("twopass", Lsra.Allocator.Two_pass);
    ("poletto", Lsra.Allocator.Poletto);
  ]

let check_case machine (case : Lsra_workloads.Specbench.case) =
  let reference =
    Lsra_sim.Interp.run machine case.Lsra_workloads.Specbench.program
      ~input:case.Lsra_workloads.Specbench.input
  in
  let ref_out =
    match reference with
    | Ok o -> o.Lsra_sim.Interp.output
    | Error e ->
      Alcotest.failf "%s: reference trapped: %s"
        case.Lsra_workloads.Specbench.name e
  in
  Alcotest.(check bool)
    (case.Lsra_workloads.Specbench.name ^ " produces output")
    true
    (String.length ref_out > 0);
  List.iter
    (fun (aname, algo) ->
      let copy = Program.copy case.Lsra_workloads.Specbench.program in
      List.iter
        (fun (fname, f) ->
          let original = Func.copy f in
          ignore (Lsra.Allocator.run algo machine f);
          match Lsra.Verify.check machine ~original ~allocated:f with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s/%s: verifier rejects %s at '%s': %s"
              case.Lsra_workloads.Specbench.name aname fname
              e.Lsra.Verify.where e.Lsra.Verify.what)
        (Program.funcs copy);
      ignore (Lsra.Peephole.run_program copy);
      match
        Lsra_sim.Interp.run machine copy
          ~input:case.Lsra_workloads.Specbench.input
      with
      | Ok o ->
        Alcotest.(check string)
          (Printf.sprintf "%s under %s" case.Lsra_workloads.Specbench.name
             aname)
          ref_out o.Lsra_sim.Interp.output
      | Error e ->
        Alcotest.failf "%s/%s: allocated run trapped: %s"
          case.Lsra_workloads.Specbench.name aname e)
    algorithms

let machine_tests machine mname =
  List.map
    (fun case ->
      Alcotest.test_case
        (Printf.sprintf "%s on %s" case.Lsra_workloads.Specbench.name mname)
        `Quick
        (fun () -> check_case machine case))
    (Lsra_workloads.Specbench.all machine ~scale:1)

(* The corpus entry names, in order, as the sweeps and reports see them:
   the CLI corpus (specbench, Minilang, pressure modules) on the alpha and
   small-7 machines, and the specbench + Minilang corpus of bench jit and
   optgap on alpha and small-8. A small machine drops the Minilang
   programs whose calling convention it cannot compile. *)
let spec_names =
  [
    "spec:alvinn"; "spec:doduc"; "spec:eqntott"; "spec:espresso";
    "spec:fpppp"; "spec:li"; "spec:tomcatv"; "spec:compress";
    "spec:m88ksim"; "spec:sort"; "spec:wc";
  ]

let mini_names =
  [
    "mini:matmul"; "mini:quicksort"; "mini:collatz"; "mini:newton";
    "mini:wordcount";
  ]

let mini_names_small = List.filter (( <> ) "mini:quicksort") mini_names
let pressure_names = [ "pressure:cvrin"; "pressure:twldrv"; "pressure:fpppp" ]

let test_corpus_names () =
  let module C = Lsra_workloads.Corpus in
  let names entries = List.map (fun (e : C.entry) -> e.name) entries in
  let check what expected entries =
    Alcotest.(check (list string)) what expected (names entries)
  in
  check "CLI corpus on alpha-like"
    (spec_names @ mini_names @ pressure_names)
    (C.builtin Machine.alpha_like ~scale:1);
  check "CLI corpus on small-7"
    (spec_names @ mini_names_small @ pressure_names)
    (C.builtin C.small7 ~scale:1);
  Alcotest.(check (list string))
    "bench machines" [ "alpha"; "small-8" ]
    (List.map fst C.alpha_and_small8);
  List.iter2
    (fun (label, m) expected ->
      check ("bench corpus on " ^ label) expected
        (C.spec m ~scale:1 @ C.mini m))
    C.alpha_and_small8
    [ spec_names @ mini_names; spec_names @ mini_names_small ];
  Alcotest.(check (list string))
    "fuzz machines" [ "alpha"; "small-8"; "tiny-4" ]
    (List.map fst C.fuzz_machines);
  check "hostile" [ "hostile:1000"; "hostile:1001" ]
    (C.hostile C.small7 ~count:2)

let suite =
  machine_tests Machine.alpha_like "alpha"
  @ machine_tests
      (Machine.small ~int_regs:9 ~float_regs:9 ~int_caller_saved:5
         ~float_caller_saved:5 ())
      "small-9"
  @ [ Alcotest.test_case "corpus entry names" `Quick test_corpus_names ]
