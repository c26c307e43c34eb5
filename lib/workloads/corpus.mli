(** The named workload corpus and the machines every comparison runs on:
    the only place the CLI, the benches and the sweeps get them from.
    Entry names are [spec:NAME], [mini:NAME], [pressure:NAME],
    [hostile:SEED] and [seedSEED]; callers compose the families in the
    order their reports need. *)

open Lsra_ir
open Lsra_target

type entry = { name : string; program : Program.t; input : string }

(** Spill-heavy machines with 7 and 8 registers per class, 4 of them
    caller-saved. *)
val small7 : Machine.t

val small8 : Machine.t

(** ["alpha"] and ["small-8"]: the alpha rarely spills; small-8 has
    enough argument registers for the Minilang conventions and few
    enough registers for real spill pressure. *)
val alpha_and_small8 : (string * Machine.t) list

(** {!alpha_and_small8} plus ["tiny-4"], 4 registers per class (2
    caller-saved). *)
val fuzz_machines : (string * Machine.t) list

(** The eleven synthetic benchmarks, in the paper's Table 1 order. *)
val spec : Machine.t -> scale:int -> entry list

(** The Minilang programs, minus those whose calling convention the
    machine cannot compile (too few argument registers). *)
val mini : Machine.t -> entry list

(** The paper's three Table-3 modules: cvrin, twldrv, fpppp. *)
val pressure_shapes : Pressure.shape list

val pressure : Machine.t -> entry list

(** [spec], then [mini], then [pressure]. *)
val builtin : Machine.t -> scale:int -> entry list

(** [count] call-dense, deep-spill programs ({!Gen.hostile_params}, seeds
    1000, 1001, ...). *)
val hostile : Machine.t -> count:int -> entry list

(** The program a differential-fuzz seed runs: size, call density and
    loop-carried pressure derived from the seed, so a fixed seed set
    covers a spread of shapes; input is eight letters from the seed. *)
val fuzz : Machine.t -> seed:int -> entry
