(* The benchmark's own checks, run by [dune runtest]:

   - the span helper counts minor words exactly: a list of n conses
     built inside a span reads 3n words (quick_stat-based counters read
     0 until the next minor collection);
   - two runs of the compile-and-run component over the same programs
     give identical allocation digests and deterministic counts, and
     the traced pipeline rebuilt from public calls prints the same bytes
     as [Allocator.pipeline] (a difference is a failed operation). *)

open Lsra_target
module C = Compile_run

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("selftest: " ^ s); exit 1) fmt

let rec build acc i = if i = 0 then acc else build (i :: acc) (i - 1)

let words () =
  let r = Span.create () in
  let n = 1000 in
  let l = Span.record r ~name:"list" ~id:1 (fun () -> build [] n) in
  if List.length l <> n then fail "list length";
  let nested =
    Span.record r ~name:"outer" ~id:2 (fun () ->
        Span.record r ~name:"inner" ~id:2 (fun () -> build [] 500))
  in
  if List.length nested <> 500 then fail "nested list length";
  let spans = Span.spans r in
  let find name = (Array.to_list spans |> List.find (fun s -> s.Span.name = name)).Span.words in
  if find "list" <> float_of_int (3 * n) then
    fail "span counted %.0f words for %d conses, expected %d" (find "list") n (3 * n);
  if find "inner" <> 1500. then fail "nested span counted %.0f words, expected 1500" (find "inner");
  let _, self_w = Span.self r in
  let outer = ref (-1) in
  Array.iteri (fun i s -> if s.Span.name = "outer" then outer := i) spans;
  if self_w.(!outer) <> find "outer" -. 1500. then fail "self words do not subtract the child";
  print_endline "selftest: span word counts exact"

let determinism () =
  let small8 =
    Machine.small ~int_regs:8 ~float_regs:8 ~int_caller_saved:4 ~float_caller_saved:4 ()
  in
  let progs =
    List.concat_map
      (fun (mname, m) ->
        List.filteri
          (fun i _ -> i < 3)
          (List.map
             (fun (c : Lsra_workloads.Specbench.case) ->
               {
                 C.pname = c.name;
                 mname;
                 machine = m;
                 text = Lsra_text.Ir_text.to_string c.program;
                 input = c.input;
               })
             (Lsra_workloads.Specbench.all m ~scale:1)))
      [ ("alpha", Machine.alpha_like); ("small-8", small8) ]
  in
  let once () =
    let recorder = Span.create () in
    let res = C.run ~recorder ~seed:1 ~seconds:0. ~min_rounds:1 ~reps:1 progs in
    C.determinism res
  in
  let a = once () and b = once () in
  if a <> b then
    List.iter2
      (fun (k, x) (_, y) -> if x <> y then fail "%s differs between runs: %s vs %s" k x y)
      a b;
  if Common.tally.failed > 0 then fail "%d failed operations" Common.tally.failed;
  Printf.printf "selftest: %d digests and counts identical across two runs, %d checks passed\n"
    (List.length a) Common.tally.attempted

let () =
  words ();
  if Lsra_native.Exec.available () then determinism ()
  else print_endline "selftest: native execution unavailable, determinism check skipped"
