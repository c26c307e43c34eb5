open Lsra_ir
open Lsra_target
open Helpers
module B = Builder

let two_pass machine f = ignore (Lsra.Allocator.(run Two_pass) machine f)
let poletto machine f = ignore (Lsra.Allocator.(run Poletto) machine f)

let test_two_pass_basic () =
  let machine = Machine.small () in
  let f = pressure_func ~width:3 ~iters:5 in
  ignore
    (check_differential ~name:"twopass-basic" machine (prog_of_func f)
       (two_pass machine))

let test_two_pass_pressure () =
  let machine = Machine.small ~int_regs:4 () in
  let f = pressure_func ~width:8 ~iters:10 in
  let o =
    check_differential ~name:"twopass-pressure" machine (prog_of_func f)
      (two_pass machine)
  in
  Alcotest.(check bool)
    "spills" true
    (Lsra_sim.Interp.spill_total o.Lsra_sim.Interp.counts > 0)

let test_poletto_basic () =
  let machine = Machine.small ~int_regs:6 ~float_regs:6 () in
  let f = pressure_func ~width:3 ~iters:5 in
  ignore
    (check_differential ~name:"poletto-basic" machine (prog_of_func f)
       (poletto machine))

let test_poletto_pressure () =
  let machine = Machine.small ~int_regs:6 ~float_regs:6 () in
  let f = pressure_func ~width:9 ~iters:10 in
  let o =
    check_differential ~name:"poletto-pressure" machine (prog_of_func f)
      (poletto machine)
  in
  Alcotest.(check bool)
    "spills" true
    (Lsra_sim.Interp.spill_total o.Lsra_sim.Interp.counts > 0)

(* The paper's §3.1 wc observation: temporaries live across a call in a
   loop make two-pass binpacking much worse than second chance, because
   only second chance can park them in caller-saved registers between
   calls. *)
let wc_shape machine n =
  (* Read-only "weights" live around a loop containing a call, each read
     several times per iteration: second chance parks them in caller-saved
     registers, pays one store ever, and reloads once per iteration;
     two-pass spills them outright and reloads at every use. *)
  let b = B.create ~name:"main" in
  let live = List.init n (fun k -> B.temp b Rclass.Int ~name:(Printf.sprintf "w%d" k)) in
  let c = B.temp b Rclass.Int in
  let acc = B.temp b Rclass.Int ~name:"acc" in
  B.start_block b "entry";
  List.iteri (fun k t -> B.li b t (k + 3)) live;
  B.li b acc 0;
  B.start_block b "loop";
  call_int b machine ~func:"ext_getc" ~args:[] ~ret:(Some c);
  B.branch b Instr.Lt (o_temp c) (o_int 0) ~ifso:"exit" ~ifnot:"body";
  B.start_block b "body";
  List.iter
    (fun t ->
      let p = B.temp b Rclass.Int in
      B.bin b Instr.Mul p (o_temp t) (o_temp c);
      B.bin b Instr.Add acc (o_temp acc) (o_temp p);
      B.bin b Instr.Xor acc (o_temp acc) (o_temp t);
      B.bin b Instr.Add acc (o_temp acc) (o_temp t))
    live;
  B.jump b "loop";
  B.start_block b "exit";
  List.iter (fun t -> B.bin b Instr.Add acc (o_temp acc) (o_temp t)) live;
  B.move b (Loc.Reg (Machine.int_ret machine)) (o_temp acc);
  B.ret b;
  B.finish b

let test_wc_two_pass_worse () =
  (* callee-saved registers cannot hold all the loop-carried values, so
     two-pass must spill inside the loop; second chance evicts around the
     call without stores. *)
  let machine = Machine.small ~int_regs:8 ~int_caller_saved:5 () in
  let input = String.make 40 'a' in
  let n = 5 in
  let run alloc name =
    let o =
      check_differential ~name ~input machine (prog_of_func (wc_shape machine n))
        alloc
    in
    o.Lsra_sim.Interp.counts.Lsra_sim.Interp.total
  in
  let sc = run (second_chance machine) "wc-sc" in
  let tp = run (two_pass machine) "wc-tp" in
  Alcotest.(check bool)
    (Printf.sprintf "two-pass (%d) slower than second chance (%d)" tp sc)
    true (tp > sc)

(* Two-pass output pinned to MD5 digests of [Ir_text] after the verified
   default pipeline. The digests predate the ordered per-register
   occupancy, so they hold its placements and tie-breaks (first register
   with the strictly smallest gap, the min_int wrap) to the original
   list-based packing. *)
let test_two_pass_digests () =
  let module W = Lsra_workloads in
  let tiny4 = Machine.small ~int_regs:4 ~float_regs:4 () in
  let text machine prog =
    ignore
      (Lsra.Allocator.pipeline ~verify:true Lsra.Allocator.Two_pass machine
         prog);
    Lsra_text.Ir_text.to_string prog
  in
  let check name expected s =
    Alcotest.(check string) name expected (Digest.to_hex (Digest.string s))
  in
  let alpha = Machine.alpha_like in
  check "twldrv" "138403e70881cdc2f495334a66758f3c"
    (text alpha (W.Pressure.build alpha W.Pressure.twldrv));
  check "fpppp" "056bad0126b64a316df091a798518bfb"
    (text alpha (W.Pressure.build alpha W.Pressure.fpppp));
  check "scaled 2000x24 on tiny-4" "a9f36befb82a6134824e70b92ce046b3"
    (text tiny4 (W.Pressure.scaled ~candidates:2000 ~window:24 tiny4));
  check "hostile seeds 0..19 on tiny-4" "a616a1778136de7d3400a13c250309b1"
    (String.concat ""
       (List.init 20 (fun seed ->
            text tiny4
              (W.Gen.program ~params:(W.Gen.hostile_params ~seed) tiny4))))

(* Every allocator's output and decisions pinned to MD5 digests: [out]
   is the [Ir_text] of the verified default pipeline, [trace] the text of
   the event stream [Allocator.run_program] records. Inputs C and D push
   the exact allocator through its node-budget and size-gate fallbacks to
   coloring, where event order (Downgrade before the fallback's Fn) is
   easiest to disturb. The table runs twice, so it also checks that both
   digests are deterministic. *)
let test_allocator_digests () =
  let module W = Lsra_workloads in
  let module A = Lsra.Allocator in
  let alpha = Machine.alpha_like in
  let small8 =
    Machine.small ~int_regs:8 ~float_regs:8 ~int_caller_saved:4
      ~float_caller_saved:4 ()
  in
  let tiny4 = Machine.small ~int_regs:4 ~float_regs:4 () in
  let spec m =
    (m, List.map (fun c -> c.W.Specbench.program) (W.Specbench.all m ~scale:1))
  in
  let inputs =
    [
      ("A", spec alpha);
      ("B", spec small8);
      ( "C",
        ( tiny4,
          List.init 5 (fun seed ->
              W.Gen.program ~params:(W.Gen.hostile_params ~seed) tiny4) ) );
      ("D", (alpha, [ W.Pressure.build alpha W.Pressure.cvrin ]));
    ]
  in
  let table =
    [
      ("A", "binpack", "bc9a94cb7bfe03680cd01132a8dc18cd", "8ef23b05cfe9cad85d975a4559637f07");
      ("A", "twopass", "408fbaea3384bc7bdbd8523fc6d076f3", "d41744a16524fabd0a666e471745e756");
      ("A", "poletto", "c8ddb710a57fbd168b9250914386740c", "732f034f1bf5451161d914faaccd195d");
      ("A", "gc", "630798c23ffc59eca49f1b125dbb627d", "0c2afdb2e54263fe5a84a62550285645");
      ("A", "optimal", "9c728571e3c8b28a5d88f8f30025f315", "8aae8fd88ccf43cc08ad9fee893acc44");
      ("B", "binpack", "af5733dde3fd9b3211516d1aad3718d4", "801a91e8aec9d32bc877bb34bf41853c");
      ("B", "twopass", "fad02873c5c0611962f5231279789c44", "f83d3de920278b972bf7443d8531856e");
      ("B", "poletto", "6333c55efb8a8e7f9bb4fc0a9dcc182c", "98b14834cdcfba2e2ce813fc93a2ef87");
      ("B", "gc", "1ce5ddd54bad60c062a614dadcb7a35f", "0b0fa568cb2887f9ecbd1cc3284d3db5");
      ("B", "optimal", "2fb6d1f4ddc1c86cf13a3a9a72b59140", "7ff9a9b6120d28ce7c8123d24f41f852");
      ("C", "binpack", "68bc3a9dde6081b145b85aa727447cf9", "f51d907376515ee058818b4d022f35ec");
      ("C", "twopass", "97eb4cca212be28fdf1fcfd96edfda71", "f3b05a5abfd276a86a2205140a9a0d3d");
      ("C", "poletto", "113c5d17f6a7ca7cda24acaa46917dd3", "93cce360c870c13a951a3648a7a15ea8");
      ("C", "gc", "2b8771f3b2ad71430cbaac5102064d30", "62e74caa454a24c1254d2c59b71a4dcc");
      ("C", "optimal", "2b8771f3b2ad71430cbaac5102064d30", "ff0b315b282f54dbbf86cae2fa25bfc5");
      ("D", "binpack", "a02216ed56f060ac70f48c6bf5a2a3e8", "e59529c4b7647be9621177eb22a496a5");
      ("D", "twopass", "ad55f6969082fa599a248857433546d3", "c4c1982eee6ff7c6857701069968145b");
      ("D", "poletto", "a02216ed56f060ac70f48c6bf5a2a3e8", "625abe12f9b2b0b8d059fadc89c7524d");
      ("D", "gc", "b15f59c517f024e2ff663697aabee730", "29d9ac00bb3bebb451dfd473c93c5086");
      ("D", "optimal", "b15f59c517f024e2ff663697aabee730", "39a9c6b242dc79b3c7a3eb32fab56aa4");
    ]
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  let check_row (input, algo_name, out, trace) =
    let m, progs = List.assoc input inputs in
    let algo = List.find (fun a -> A.short_name a = algo_name) A.all in
    let texts =
      List.map
        (fun p ->
          let p = Program.copy p in
          ignore (A.pipeline ~verify:true algo m p);
          Lsra_text.Ir_text.to_string p)
        progs
    in
    let traces =
      List.map
        (fun p ->
          let t = Lsra.Trace.create () in
          ignore (A.run_program ~trace:t algo m (Program.copy p));
          Lsra.Trace.to_text (Lsra.Trace.events t))
        progs
    in
    let row = input ^ "/" ^ algo_name in
    Alcotest.(check string) (row ^ " out") out (md5 (String.concat "" texts));
    Alcotest.(check string)
      (row ^ " trace") trace
      (md5 (String.concat "" traces))
  in
  for _ = 1 to 2 do
    List.iter check_row table
  done

(* Phase coverage: the analysis, scan and resolution spans of every
   allocator account for 90-100% of the minor words its whole envelope
   records. Below 90% a phase goes untimed; above 100% one is counted
   twice. *)
let test_phase_coverage () =
  let machine = Machine.alpha_like in
  let progs =
    List.map
      (fun c -> c.Lsra_workloads.Specbench.program)
      (Lsra_workloads.Specbench.all machine ~scale:1)
  in
  List.iter
    (fun algo ->
      let stats = Lsra.Stats.create () in
      List.iter
        (fun p ->
          Lsra.Stats.add ~into:stats
            (Lsra.Allocator.run_program algo machine (Program.copy p)))
        progs;
      let phase p =
        stats.Lsra.Stats.pass_minor_words.(Lsra.Stats.pass_index p)
      in
      let covered =
        Lsra.Stats.(
          phase Liveness +. phase Lifetime +. phase Scan +. phase Resolution)
      in
      let share = covered /. stats.Lsra.Stats.minor_words in
      Alcotest.(check bool)
        (Printf.sprintf "%s: phases cover %.1f%% of %.0f minor words"
           (Lsra.Allocator.short_name algo) (100. *. share)
           stats.Lsra.Stats.minor_words)
        true
        (share >= 0.9 && share <= 1.0))
    Lsra.Allocator.all

(* Complexity gate on exact allocation counts, not wall time: four times
   the candidates may cost at most six times the minor-heap words. A
   packing loop that walks each register's whole occupancy per query
   is quadratic and lands near 12. *)
let test_two_pass_near_linear () =
  let machine = Machine.alpha_like in
  let words candidates =
    let prog = Lsra_workloads.Pressure.scaled ~candidates ~window:9 machine in
    let w0 = Gc.minor_words () in
    ignore (Lsra.Allocator.run_program Lsra.Allocator.Two_pass machine prog);
    Gc.minor_words () -. w0
  in
  let small = words 1000 in
  let large = words 4000 in
  let ratio = large /. small in
  Alcotest.(check bool)
    (Printf.sprintf "4000/1000 allocation ratio %.2f <= 6" ratio)
    true (ratio <= 6.)

let suite =
  [
    Alcotest.test_case "two-pass basic" `Quick test_two_pass_basic;
    Alcotest.test_case "two-pass pressure" `Quick test_two_pass_pressure;
    Alcotest.test_case "poletto basic" `Quick test_poletto_basic;
    Alcotest.test_case "poletto pressure" `Quick test_poletto_pressure;
    Alcotest.test_case "wc: two-pass worse than second chance" `Quick
      test_wc_two_pass_worse;
    Alcotest.test_case "two-pass output digests" `Quick test_two_pass_digests;
    Alcotest.test_case "every allocator's output and trace digests" `Quick
      test_allocator_digests;
    Alcotest.test_case "every allocator's phases cover its words" `Quick
      test_phase_coverage;
    Alcotest.test_case "two-pass allocation near-linear" `Quick
      test_two_pass_near_linear;
  ]
