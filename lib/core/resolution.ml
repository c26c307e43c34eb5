open Lsra_ir
open Lsra_analysis

(* A pending parallel write on an edge: register [dst] receives the value
   of temp [temp_id], either from register [`Reg r] (a move) or from its
   spill slot [`Slot s] (a load). *)
type wop = { dst : Mreg.t; src : [ `Reg of Mreg.t | `Slot of int ]; temp_id : int }

let spill_tag kind = Instr.Spill { phase = Instr.Resolve; kind }

let store_instr r slot =
  Instr.make ~tag:(spill_tag Instr.Spill_st)
    (Instr.Spill_store { src = Loc.Reg r; slot })

let load_instr r slot =
  Instr.make ~tag:(spill_tag Instr.Spill_ld)
    (Instr.Spill_load { dst = Loc.Reg r; slot })

let move_instr dst src =
  Instr.make ~tag:(spill_tag Instr.Spill_mv)
    (Instr.Move { dst = Loc.Reg dst; src = Operand.Loc (Loc.Reg src) })

(* Sequentialise the parallel writes of one edge. Destinations are
   distinct, and each register is the source of at most one op (bottom
   locations are injective over live temps), so blocked configurations are
   pure register cycles; we break them with a scratch register when one is
   free across the edge, falling back to the temp's spill slot. *)
let sequentialize (res : Binpack.t) ~trace ~tname ~get_slot ~scratch_for
    (ops : wop list) =
  let stats = res.Binpack.stats in
  let out = ref [] in
  let emit i = out := i :: !out in
  let tr ev = match trace with None -> () | Some t -> Trace.emit t ev in
  let pending = ref ops in
  while !pending <> [] do
    let blockers =
      List.filter_map
        (fun w -> match w.src with `Reg r -> Some r | `Slot _ -> None)
        !pending
    in
    let ready, stuck =
      List.partition
        (fun w -> not (List.exists (Mreg.equal w.dst) blockers))
        !pending
    in
    match ready with
    | _ :: _ ->
      List.iter
        (fun w ->
          match w.src with
          | `Reg r ->
            emit (move_instr w.dst r);
            stats.Stats.resolve_moves <- stats.Stats.resolve_moves + 1;
            tr
              (Trace.Resolve_move
                 {
                   temp = tname w.temp_id;
                   id = w.temp_id;
                   dst = w.dst;
                   src = r;
                   cycle = false;
                 })
          | `Slot s ->
            emit (load_instr w.dst s);
            stats.Stats.resolve_loads <- stats.Stats.resolve_loads + 1;
            tr
              (Trace.Resolve_load
                 { temp = tname w.temp_id; id = w.temp_id; reg = w.dst; slot = s }))
        ready;
      pending := stuck
    | [] -> (
      (* Pure cycle(s) of register moves. Pick one edge to detach. *)
      match stuck with
      | [] -> assert false
      | w0 :: _ -> (
        let v =
          match w0.src with `Reg r -> r | `Slot _ -> assert false
        in
        match scratch_for (Mreg.cls v) with
        | Some scratch ->
          emit (move_instr scratch v);
          stats.Stats.resolve_moves <- stats.Stats.resolve_moves + 1;
          tr
            (Trace.Resolve_move
               {
                 temp = tname w0.temp_id;
                 id = w0.temp_id;
                 dst = scratch;
                 src = v;
                 cycle = true;
               });
          pending :=
            List.map
              (fun w ->
                match w.src with
                | `Reg r when Mreg.equal r v -> { w with src = `Reg scratch }
                | `Reg _ | `Slot _ -> w)
              !pending
        | None ->
          let slot = get_slot w0.temp_id in
          emit (store_instr v slot);
          stats.Stats.resolve_stores <- stats.Stats.resolve_stores + 1;
          tr
            (Trace.Resolve_store
               {
                 temp = tname w0.temp_id;
                 id = w0.temp_id;
                 reg = v;
                 slot;
                 cycle = true;
               });
          pending :=
            List.map
              (fun w ->
                match w.src with
                | `Reg r when Mreg.equal r v -> { w with src = `Slot slot }
                | `Reg _ | `Slot _ -> w)
              !pending))
  done;
  List.rev !out

let run ?trace (res : Binpack.t) =
  let stats = res.Binpack.stats in
  Stats.timed stats Stats.Resolution @@ fun () ->
  let trace = match trace with Some _ as t -> t | None -> res.Binpack.trace in
  let tr ev = match trace with None -> () | Some t -> Trace.emit t ev in
  let func = res.Binpack.func in
  let cfg = Func.cfg func in
  let ntemps = Liveness.width res.Binpack.liveness in
  let bi l = Cfg.block_index cfg l in
  let preds = Cfg.preds_table cfg in
  let edges = Cfg.edges cfg in
  let tname id =
    Temp.to_string
      (Interval.temp (Lifetime.interval_of_id res.Binpack.lifetimes id))
  in
  let get_slot id =
    match res.Binpack.slot_of.(id) with
    | Some s -> s
    | None ->
      let s = Func.fresh_slot func in
      res.Binpack.slot_of.(id) <- Some s;
      tr (Trace.Slot_alloc { temp = tname id; id; slot = s });
      s
  in
  let loc_bottom p id =
    match Hashtbl.find_opt res.Binpack.bottom_loc.(bi p) id with
    | Some l -> l
    | None -> Binpack.In_mem
  in
  let loc_top s id =
    match Hashtbl.find_opt res.Binpack.top_loc.(bi s) id with
    | Some l -> l
    | None -> Binpack.In_mem
  in
  let a_bit p id = Bitset.mem res.Binpack.are_consistent.(bi p) id in
  let w_bit p id = Bitset.mem res.Binpack.wrote_tr.(bi p) id in

  (* Pass 1: location-mismatch repairs. Suppressing a store because the
     register and memory were consistent at the bottom of [p] relies on
     consistency holding on every path into [p] whenever it was not
     (re-)established inside [p] itself, so such suppressions feed the
     same dataflow as in-scan ones. *)
  let extra_used = Array.init (Cfg.n_blocks cfg) (fun _ -> Bitset.create ntemps) in
  let base_ops =
    List.map
      (fun (p, s) ->
        let stores = ref [] in
        let writes = ref [] in
        Bitset.iter
          (fun id ->
            let lp = loc_bottom p id and ls = loc_top s id in
            match lp, ls with
            | Binpack.In_reg rp, Binpack.In_mem ->
              if a_bit p id then begin
                if not (w_bit p id) then Bitset.add extra_used.(bi p) id
              end
              else stores := (rp, id) :: !stores
            | Binpack.In_mem, Binpack.In_reg rs ->
              writes := { dst = rs; src = `Slot (get_slot id); temp_id = id } :: !writes
            | Binpack.In_reg rp, Binpack.In_reg rs ->
              if not (Mreg.equal rp rs) then
                writes := { dst = rs; src = `Reg rp; temp_id = id } :: !writes
            | Binpack.In_mem, Binpack.In_mem -> ())
          (Liveness.live_in res.Binpack.liveness s);
        ((p, s), (!stores, !writes)))
      edges
  in

  (* Consistency dataflow (paper §2.4): USED_C_in/out over the
     USED_CONSISTENCY gen and WROTE_TR kill sets. *)
  let used_c_in =
    match res.Binpack.opts.Binpack.consistency with
    | Binpack.Conservative -> None
    | Binpack.Iterative ->
      let rounds = ref 0 in
      let gen b =
        let i = bi (Block.label b) in
        let g = Bitset.copy res.Binpack.used_consistency.(i) in
        ignore (Bitset.union_into ~dst:g ~src:extra_used.(i));
        g
      in
      let kill b = res.Binpack.wrote_tr.(bi (Block.label b)) in
      let r =
        Dataflow.solve cfg ~direction:Dataflow.Backward ~meet:Dataflow.Union
          ~width:ntemps ~gen ~kill ~rounds ()
      in
      stats.Stats.dataflow_rounds <- !rounds;
      Some r.Dataflow.in_of
  in

  (* Pass 2: consistency-repair stores on edges whose successor (or deeper)
     relies on register/memory agreement the predecessor does not
     provide. Only needed when the temp stays register-resident across the
     edge; the mismatch cases established consistency in pass 1. *)
  let ops_per_edge =
    List.map
      (fun ((p, s), (stores, writes)) ->
        let stores = ref stores in
        (match used_c_in with
        | None -> ()
        | Some inv ->
          Bitset.iter
            (fun id ->
              if
                Bitset.mem (Liveness.live_in res.Binpack.liveness s) id
                && not (a_bit p id)
              then
                match loc_bottom p id, loc_top s id with
                | Binpack.In_reg rp, Binpack.In_reg _ ->
                  stores := (rp, id) :: !stores
                | Binpack.In_reg _, Binpack.In_mem
                | Binpack.In_mem, (Binpack.In_reg _ | Binpack.In_mem) ->
                  ())
            inv.(bi s));
        ((p, s), (!stores, writes)))
      base_ops
  in

  (* Sequentialise and place. *)
  List.iter
    (fun ((p, s), (stores, writes)) ->
      if stores <> [] || writes <> [] then begin
        tr (Trace.Edge { src = p; dst = s });
        let store_instrs =
          List.map
            (fun (rp, id) ->
              stats.Stats.resolve_stores <- stats.Stats.resolve_stores + 1;
              let slot = get_slot id in
              tr
                (Trace.Resolve_store
                   { temp = tname id; id; reg = rp; slot; cycle = false });
              store_instr rp slot)
            stores
        in
        (* Registers holding live values across this edge must not be used
           as scratch; a flat bool table makes the scratch search O(regs)
           instead of O(regs × live). *)
        let ridx = res.Binpack.regidx in
        let used_regs = Array.make (Regidx.total ridx) false in
        let mark = function
          | Binpack.In_reg r -> used_regs.(Regidx.of_reg ridx r) <- true
          | Binpack.In_mem -> ()
        in
        Bitset.iter
          (fun id ->
            mark (loc_bottom p id);
            mark (loc_top s id))
          (Liveness.live_in res.Binpack.liveness s);
        Bitset.iter
          (fun id -> mark (loc_bottom p id))
          (Liveness.live_out res.Binpack.liveness p);
        let scratch_for cls =
          List.find_map
            (fun i ->
              if used_regs.(i) then None else Some (Regidx.to_reg ridx i))
            (Regidx.of_cls ridx cls)
        in
        let write_instrs =
          sequentialize res ~trace ~tname ~get_slot ~scratch_for writes
        in
        let instrs = store_instrs @ write_instrs in
        (* Placement (paper §2.4 footnote): top of a single-predecessor
           successor, else bottom of a single-successor predecessor ending
           in an unconditional jump, else split the edge. *)
        let s_block = Cfg.block cfg s in
        let p_block = Cfg.block cfg p in
        let single_pred = List.length (Hashtbl.find preds s) = 1 in
        if single_pred then
          Block.set_body s_block
            (Array.append (Array.of_list instrs) (Block.body s_block))
        else begin
          match Block.term p_block with
          | Block.Jump _ ->
            Block.set_body p_block
              (Array.append (Block.body p_block) (Array.of_list instrs))
          | Block.Branch _ | Block.Ret ->
            let l = Func.fresh_label ~hint:"resolve" func in
            let nb =
              Block.make ~label:l ~body:(Array.of_list instrs)
                ~term:(Block.Jump s)
            in
            Cfg.append_block cfg nb;
            Block.retarget_term p_block ~from:s ~to_:l
        end
      end)
    ops_per_edge;
  stats.Stats.slots <- Func.n_slots func
