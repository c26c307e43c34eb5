open Lsra_ir
open Lsra_analysis

type t = { regidx : Regidx.t; liveness : Liveness.t; lifetimes : Lifetime.t }

let build stats machine func =
  let liveness =
    Stats.timed stats Stats.Liveness (fun () -> Liveness.compute func)
  in
  Stats.timed stats Stats.Lifetime (fun () ->
      let regidx = Regidx.create machine in
      let loops = Loop.compute (Func.cfg func) in
      { regidx; liveness; lifetimes = Lifetime.compute regidx func liveness loops })
