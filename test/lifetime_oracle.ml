open Lsra_ir
open Lsra_analysis
open Lsra

let iter_temps f locs =
  List.iter
    (fun l -> match Loc.as_temp l with Some t -> f t | None -> ())
    locs

let iter_regs f locs =
  List.iter (fun l -> match Loc.as_reg l with Some r -> f r | None -> ()) locs

(* The retired list-based lifetime construction, the structural oracle
   for the arena path in Lsra.Lifetime (qcheck compares the two on random
   programs). Do not optimise this: its value is being the
   obviously-correct original. Returns the intervals by temp id and the
   busy segments by flat register index. *)
let compute_boxed regidx func liveness loops =
  let linear = Linear.number func in
  let cfg = Func.cfg func in
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  let ntemps = Func.temp_bound func in
  let nregs = Regidx.total regidx in
  let block_depth = Array.init nb (fun i -> Loop.depth loops i) in

  (* Per-temp open segment end (-1 = closed) and collected segments in
     decreasing order. *)
  let open_end = Array.make ntemps (-1) in
  let segs : Interval.seg list array = Array.make ntemps [] in
  let temps_of : Temp.t option array = Array.make ntemps None in
  let reg_open = Array.make nregs (-1) in
  let reg_segs : Interval.seg list array = Array.make nregs [] in

  let close_temp id spos =
    if open_end.(id) >= 0 then begin
      segs.(id) <- { Interval.s = spos; e = open_end.(id) } :: segs.(id);
      open_end.(id) <- -1
    end
  in
  let close_reg ri spos =
    if reg_open.(ri) >= 0 then begin
      reg_segs.(ri) <- { Interval.s = spos; e = reg_open.(ri) } :: reg_segs.(ri);
      reg_open.(ri) <- -1
    end
  in

  for bi = nb - 1 downto 0 do
    let b = blocks.(bi) in
    let bottom = Linear.block_bottom linear bi in
    let opened = ref [] in
    Bitset.iter
      (fun id ->
        open_end.(id) <- bottom;
        opened := id :: !opened)
      (Liveness.live_out liveness (Block.label b));
    let body = Block.body b in
    let nbody = Array.length body in
    let last = Linear.last_instr linear bi in
    let step k (defs : Loc.t list) (uses : Loc.t list) =
      let dp = Linear.def_pos k and up = Linear.use_pos k in
      iter_temps
        (fun tp ->
          let id = Temp.id tp in
          temps_of.(id) <- Some tp;
          if open_end.(id) >= 0 then close_temp id dp
          else segs.(id) <- { Interval.s = dp; e = dp } :: segs.(id))
        defs;
      iter_regs
        (fun r ->
          let ri = Regidx.of_reg regidx r in
          if reg_open.(ri) >= 0 then close_reg ri dp
          else reg_segs.(ri) <- { Interval.s = dp; e = dp } :: reg_segs.(ri))
        defs;
      iter_temps
        (fun tp ->
          let id = Temp.id tp in
          temps_of.(id) <- Some tp;
          if open_end.(id) < 0 then begin
            open_end.(id) <- up;
            opened := id :: !opened
          end)
        uses;
      iter_regs
        (fun r ->
          let ri = Regidx.of_reg regidx r in
          if reg_open.(ri) < 0 then reg_open.(ri) <- up)
        uses
    in
    step last [] (Block.term_uses b);
    for j = nbody - 1 downto 0 do
      let k = Linear.first_instr linear bi + j in
      step k (Instr.defs body.(j)) (Instr.uses body.(j))
    done;
    let top = Linear.block_top linear bi in
    List.iter (fun id -> close_temp id top) !opened;
    for ri = 0 to nregs - 1 do
      close_reg ri top
    done
  done;

  (* Reference points, gathered forward. Two passes — count, then fill
     exact-size arrays — so no per-reference list cells are built. *)
  let n_refs = Array.make ntemps 0 in
  let each_ref f =
    Array.iteri
      (fun bi b ->
        let depth = block_depth.(bi) in
        let note k kind locs =
          iter_temps (fun tp -> f (Temp.id tp) k kind depth) locs
        in
        Array.iteri
          (fun j i ->
            let k = Linear.first_instr linear bi + j in
            note k Interval.Read (Instr.uses i);
            note k Interval.Write (Instr.defs i))
          (Block.body b);
        note (Linear.last_instr linear bi) Interval.Read (Block.term_uses b))
      blocks
  in
  each_ref (fun id _ _ _ -> n_refs.(id) <- n_refs.(id) + 1);
  let dummy = { Interval.rpos = 0; rkind = Interval.Read; rdepth = 0 } in
  let refs =
    Array.init ntemps (fun id -> Array.make n_refs.(id) dummy)
  in
  let fill = Array.make ntemps 0 in
  each_ref (fun id k kind depth ->
      let rpos =
        match kind with
        | Interval.Read -> Linear.use_pos k
        | Interval.Write -> Linear.def_pos k
      in
      refs.(id).(fill.(id)) <- { Interval.rpos; rkind = kind; rdepth = depth };
      fill.(id) <- fill.(id) + 1);

  let merge_segments l =
    let sorted = l in
    let rec go acc = function
      | [] -> List.rev acc
      | seg :: rest -> (
        match acc with
        | { Interval.s; e } :: acc' when seg.Interval.s <= e + 1 ->
          go ({ Interval.s; e = max e seg.Interval.e } :: acc') rest
        | _ -> go (seg :: acc) rest)
    in
    go [] sorted
  in
  let intervals =
    Array.init ntemps (fun id ->
        let temp =
          match temps_of.(id) with
          | Some t -> t
          | None -> Temp.make ~cls:Rclass.Int id
        in
        Interval.make ~temp
          ~segs:(Array.of_list (merge_segments segs.(id)))
          ~refs:refs.(id))
  in
  let reg_busy =
    Array.init nregs (fun ri -> Array.of_list (merge_segments reg_segs.(ri)))
  in
  (intervals, reg_busy)
