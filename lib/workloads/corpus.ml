open Lsra_ir
open Lsra_target

type entry = { name : string; program : Program.t; input : string }

let small7 =
  Machine.small ~int_regs:7 ~float_regs:7 ~int_caller_saved:4
    ~float_caller_saved:4 ()

let small8 =
  Machine.small ~int_regs:8 ~float_regs:8 ~int_caller_saved:4
    ~float_caller_saved:4 ()

let alpha_and_small8 = [ ("alpha", Machine.alpha_like); ("small-8", small8) ]

let fuzz_machines =
  alpha_and_small8 @ [ ("tiny-4", Machine.small ~int_regs:4 ~float_regs:4 ()) ]

let spec machine ~scale =
  List.map
    (fun { Specbench.name; program; input; description = _ } ->
      { name = "spec:" ^ name; program; input })
    (Specbench.all machine ~scale)

let mini machine =
  List.filter_map
    (fun { Mini_corpus.mname; source; minput } ->
      match Lsra_frontend.Minilang.compile machine source with
      | program -> Some { name = "mini:" ^ mname; program; input = minput }
      | exception Lsra_frontend.Lower.Error _ -> None)
    Mini_corpus.all

let pressure_shapes = [ Pressure.cvrin; Pressure.twldrv; Pressure.fpppp ]

let pressure machine =
  List.map
    (fun (shape : Pressure.shape) ->
      let program = Pressure.build machine shape in
      { name = "pressure:" ^ shape.sname; program; input = "" })
    pressure_shapes

let builtin machine ~scale =
  spec machine ~scale @ mini machine @ pressure machine

let hostile machine ~count =
  List.init count (fun i ->
      let seed = 1000 + i in
      let program = Gen.program ~params:(Gen.hostile_params ~seed) machine in
      { name = Printf.sprintf "hostile:%d" seed; program; input = "" })

let fuzz machine ~seed =
  let params =
    {
      Gen.default_params with
      Gen.seed;
      n_funcs = 1 + (seed mod 3);
      n_temps = 6 + (seed mod 13);
      n_stmts = 6 + (seed mod 15);
      max_depth = 2 + (seed mod 2);
      carried = 1 + (seed mod 4);
      ext_call_prob = 0.05 +. (0.02 *. float_of_int (seed mod 5));
    }
  in
  {
    name = Printf.sprintf "seed%d" seed;
    program = Gen.program ~params machine;
    input = String.init 8 (fun i -> Char.chr (65 + ((seed + i) mod 26)));
  }
