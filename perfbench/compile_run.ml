(* The compile-and-run component every workload shares.

   A unit is one (program, machine, allocator) triple. Its compile is
   the JIT path, text -> allocated -> emitted:
   [Ir_text.of_string] -> [Allocator.pipeline] (default passes, no
   verifier) -> [Lower.compile]; its run is [Exec.run_compiled].

   - The check round (untimed) compiles every unit once through
     [Allocator.pipeline ~verify:true], which runs [Verify] on every
     allocated function after allocation and after every cleanup pass,
     interprets the allocated program for the dynamic counts, and checks
     that its output and return value equal the pre-allocation
     interpreter's (the reference, independent of every allocator) and
     that native execution equals both. It records the MD5 of every
     allocated program text: the determinism fingerprint.
   - A timed round compiles every unit, allocator by allocator in a
     seeded order, then executes every compiled unit [reps] times.
     Every native output is compared with the check round's.
   - A traced round does the same work with each public call wrapped in
     a span, rebuilding the pipeline from its parts (parse, DCE, per
     function [Allocator.run] -- [Binpack.scan] + [Resolution.run] for
     binpack -- peephole, emit). It also runs the standalone analyses
     ([Liveness.compute], [Loop.compute], [Lifetime.compute]) and
     [Verify.check] so those layers are measured; they are extra work
     and are subtracted before the tracing overhead is computed. The
     rebuilt pipeline must print byte-identical to
     [Allocator.pipeline]'s output, or the unit counts as failed. *)

open Lsra_ir
open Lsra_target
open Common
module A = Lsra.Allocator

type prog = {
  pname : string;
  mname : string;
  machine : Machine.t;
  text : string;  (** pre-allocation textual IR *)
  input : string;
}

let allocators =
  [
    ("binpack", A.default_second_chance);
    ("twopass", A.Two_pass);
    ("poletto", A.Poletto);
    ("gc", A.Graph_coloring);
    ("optimal", A.default_optimal);
  ]

let anames = List.map fst allocators

type expect = { out : string; ret : int option }

type unit_ = {
  uid : int;  (** also the span id of everything done for this unit *)
  label : string;  (** machine/program/allocator, for failure reports *)
  prog : prog;
  aname : string;
  algo : A.algorithm;
  mutable digest : string;  (** MD5 of the allocated text *)
  mutable heap_words : int;
  mutable expect : expect option;  (** what native runs must print *)
}

(* Deterministic counts of the check round, per allocator unless
   noted. *)
type counts = {
  mutable dyn : int;
  mutable cycles : int;
  dyn_spill : int array;
      (** evict loads/stores/moves, resolve loads/stores/moves *)
  mutable static_spill : int;
  mutable code_bytes : int;
}

let spill_kinds =
  [|
    "evict_loads"; "evict_stores"; "evict_moves"; "resolve_loads";
    "resolve_stores"; "resolve_moves";
  |]

type context = {
  mutable dataflow_rounds : int;
  mutable coloring_iterations : int;
  mutable interference_edges : int;
  mutable opt_nodes : int;
  mutable opt_proven : int;
  mutable instrs : int;  (** pre-allocation IR instructions, per program *)
  mutable interp_instrs : int;  (** instructions the check round interpreted *)
}

type result = {
  units : unit_ array;
  counts : (string * counts) list;
  context : context;
  fingerprints : (string * string) list;
      (** "machine/allocator" -> MD5 over its programs' allocated texts *)
  compile : unit_ -> float list;
      (** a unit's compile times, one a round, at the reference speed *)
  native : unit_ -> float list;
      (** a unit's execution times, one a run, at the reference speed *)
  untraced_rounds : float list;
  traced_rounds : float list;  (** wall, minus the extra traced work *)
  layer_rounds : (string, float * float * float * float) Hashtbl.t list;
      (** per traced round: name -> self s, self words, inclusive s,
          inclusive words *)
  check_layers : (string, float * float * float * float) Hashtbl.t;
      (** the check round's spans (the interpreter) *)
  check_rss_mb : float;
      (** the process's peak resident set after the check round: a fixed
          prefix of the run, so it does not grow with the number of
          rounds the run fits *)
  reps : int;
}

let make_units progs =
  let uid = ref 0 in
  Array.of_list
    (List.concat_map
       (fun prog ->
         List.map
           (fun (aname, algo) ->
             incr uid;
             {
               uid = !uid;
               label = Printf.sprintf "%s/%s/%s" prog.mname prog.pname aname;
               prog;
               aname;
               algo;
               digest = "";
               heap_words = 0;
               expect = None;
             })
           allocators)
       progs)

let int_ret = function Lsra_sim.Value.Int k -> Some k | _ -> None

let interp rec_ ~id (p : prog) program =
  Span.with_ rec_ ~name:"sim.interp" ~id (fun () ->
      Lsra_sim.Interp.run p.machine program ~input:p.input)

let native_matches (e : expect) (o : Lsra_native.Exec.outcome) =
  o.Lsra_native.Exec.trap = None
  && String.equal o.Lsra_native.Exec.output e.out
  && match e.ret with None -> true | Some k -> k = o.Lsra_native.Exec.ret

let emit machine program =
  match Lsra_native.Lower.compile machine program with
  | Ok c -> c
  | Error e -> failwith ("Lower.compile: " ^ e)

(* ---- check round ---------------------------------------------------- *)

let check_round rec_ progs units =
  let counts =
    List.map
      (fun a ->
        ( a,
          {
            dyn = 0;
            cycles = 0;
            dyn_spill = Array.make 6 0;
            static_spill = 0;
            code_bytes = 0;
          } ))
      anames
  in
  let ctx =
    {
      dataflow_rounds = 0;
      coloring_iterations = 0;
      interference_edges = 0;
      opt_nodes = 0;
      opt_proven = 0;
      instrs = 0;
      interp_instrs = 0;
    }
  in
  (* The reference: the unallocated program, interpreted once. *)
  let references =
    List.map
      (fun (p : prog) ->
        let program = Lsra_text.Ir_text.of_string p.text in
        List.iter
          (fun (_, f) -> ctx.instrs <- ctx.instrs + Func.n_instrs f)
          (Program.funcs program);
        match interp rec_ ~id:0 p program with
        | Ok o ->
          ctx.interp_instrs <- ctx.interp_instrs + o.Lsra_sim.Interp.counts.total;
          (p, Some o)
        | Error e ->
          check false ~what:(p.mname ^ "/" ^ p.pname) ("reference run trapped: " ^ e);
          (p, None))
      progs
  in
  Array.iter
    (fun u ->
      let p = u.prog and what = u.label in
      ignore
        (guarded ~what (fun () ->
             let program = Lsra_text.Ir_text.of_string p.text in
             let stats = A.pipeline ~verify:true u.algo p.machine program in
             u.digest <- md5 (Lsra_text.Ir_text.to_string program);
             u.heap_words <- Program.heap_words program;
             let compiled = emit p.machine program in
             let c = List.assoc u.aname counts in
             c.static_spill <- c.static_spill + Lsra.Stats.total_spill stats;
             c.code_bytes <- c.code_bytes + Bytes.length compiled.code;
             ctx.dataflow_rounds <- ctx.dataflow_rounds + stats.dataflow_rounds;
             ctx.coloring_iterations <-
               ctx.coloring_iterations + stats.coloring_iterations;
             ctx.interference_edges <-
               ctx.interference_edges + stats.interference_edges;
             ctx.opt_nodes <- ctx.opt_nodes + stats.opt_nodes;
             ctx.opt_proven <- ctx.opt_proven + stats.opt_proven;
             match (List.assq p references, interp rec_ ~id:u.uid p program) with
             | None, _ -> ()
             | Some _, Error e -> check false ~what ("allocated run trapped: " ^ e)
             | Some r, Ok o ->
               let k = o.Lsra_sim.Interp.counts in
               ctx.interp_instrs <- ctx.interp_instrs + k.total;
               c.dyn <- c.dyn + k.total;
               c.cycles <- c.cycles + k.cycles;
               Array.iteri
                 (fun i v -> c.dyn_spill.(i) <- c.dyn_spill.(i) + v)
                 [|
                   k.evict_loads; k.evict_stores; k.evict_moves;
                   k.resolve_loads; k.resolve_stores; k.resolve_moves;
                 |];
               let agree =
                 String.equal o.output r.Lsra_sim.Interp.output
                 && Lsra_sim.Value.equal o.ret r.Lsra_sim.Interp.ret
               in
               check agree ~what "interpreter before and after allocation disagree";
               if agree then begin
                 let e = { out = o.output; ret = int_ret o.ret } in
                 let n =
                   Lsra_native.Exec.run_compiled ~input:p.input compiled
                     ~heap_words:u.heap_words
                 in
                 check (native_matches e n) ~what "native run differs from the interpreter";
                 u.expect <- Some e
               end)))
    units;
  (counts, ctx)

let fingerprints units =
  List.concat_map
    (fun mname ->
      List.filter_map
        (fun a ->
          let ds =
            Array.to_list units
            |> List.filter (fun u -> u.prog.mname = mname && u.aname = a)
            |> List.map (fun u -> u.digest)
          in
          if ds = [] then None
          else Some (mname ^ "/" ^ a, md5 (String.concat "," ds)))
        anames)
    (List.sort_uniq compare
       (Array.to_list (Array.map (fun u -> u.prog.mname) units)))

(* ---- timed and traced rounds ---------------------------------------- *)

(* The pipeline rebuilt from its public parts, one span per call. *)
let traced_compile r u ~analyses =
  let id = u.uid and m = u.prog.machine in
  let span name f = Span.record r ~name ~id f in
  let program = span "text.parse" (fun () -> Lsra_text.Ir_text.of_string u.prog.text) in
  ignore (span "core.pass.dce" (fun () -> Lsra.Passes.run_pass Lsra.Passes.Dce program));
  let funcs = Program.funcs program in
  let originals =
    span "check.originals" (fun () -> List.map (fun (n, f) -> (n, Func.copy f)) funcs)
  in
  if analyses then
    List.iter
      (fun (_, f) ->
        let live = span "analysis.liveness" (fun () -> Lsra_analysis.Liveness.compute f) in
        let loops = span "analysis.loop" (fun () -> Lsra_analysis.Loop.compute (Func.cfg f)) in
        ignore
          (span "core.lifetime" (fun () ->
               Lsra.Lifetime.compute (Lsra.Regidx.create m) f live loops)))
      funcs;
  List.iter
    (fun (_, f) ->
      span ("core.alloc." ^ u.aname) (fun () ->
          match u.algo with
          | A.Second_chance opts ->
            let scanned = span "core.scan" (fun () -> Lsra.Binpack.scan ~opts m f) in
            span "core.resolution" (fun () -> Lsra.Resolution.run scanned)
          | algo -> ignore (A.run algo m f)))
    funcs;
  ignore (span "core.pass.peephole" (fun () -> Lsra.Passes.run_pass Lsra.Passes.Peephole program));
  List.iter
    (fun (n, f) ->
      match
        span "core.verify" (fun () ->
            Lsra.Verify.check m ~original:(List.assoc n originals) ~allocated:f)
      with
      | Ok () -> ()
      | Error e -> failwith ("Verify.check: " ^ e.Lsra.Verify.what))
    funcs;
  let compiled = span "native.emit" (fun () -> emit m program) in
  let same = span "check.digest" (fun () -> md5 (Lsra_text.Ir_text.to_string program)) in
  check (same = u.digest) ~what:u.label "traced pipeline output differs from Allocator.pipeline";
  compiled

(* Spans that do work the untraced round does not. *)
let extra_work =
  [
    "analysis.liveness"; "analysis.loop"; "core.lifetime"; "core.verify";
    "check.originals"; "check.digest";
  ]

let compile u =
  let m = u.prog.machine in
  let program = Lsra_text.Ir_text.of_string u.prog.text in
  ignore (A.pipeline ~verify:false u.algo m program);
  emit m program

let push tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

(* One round; [r] = Some recorder makes it a traced round. Every unit's
   compile and every native execution go to [comp] and [nat] as start
   and end times, keyed by unit; [Calib] samples the host's speed
   between them. *)
let round ~rng ~reps r units ~comp ~nat =
  let order = shuffle rng anames in
  let compiled = ref [] in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      (* Every pass starts from the same collected heap, so no pass pays
         for another's garbage. *)
      Gc.full_major ();
      Array.iter
        (fun u ->
          if u.aname = a then begin
            Calib.maybe ();
            let t = now () in
            match
              guarded ~what:u.label (fun () ->
                  match r with
                  | None -> compile u
                  | Some r ->
                    traced_compile r u
                      ~analyses:(not (Hashtbl.mem seen (u.prog.mname, u.prog.pname))))
            with
            | Some c ->
              push comp u.uid (t, now ());
              compiled := (u, c) :: !compiled
            | None -> ()
          end)
        units;
      Array.iter (fun u -> Hashtbl.replace seen (u.prog.mname, u.prog.pname) ()) units)
    order;
  let compiled = List.rev !compiled in
  Gc.full_major ();
  for _ = 1 to reps do
    List.iter
      (fun (u, c) ->
        let run () =
          Lsra_native.Exec.run_compiled ~input:u.prog.input c ~heap_words:u.heap_words
        in
        Calib.maybe ();
        let t = now () in
        let o =
          match r with
          | None -> run ()
          | Some r -> Span.record r ~name:("native.exec." ^ u.aname) ~id:u.uid run
        in
        push nat u.uid (t, now ());
        match u.expect with
        | Some e -> check (native_matches e o) ~what:u.label "native output changed between runs"
        | None -> ())
      compiled
  done

(* Run the component: the check round, then timed rounds for [seconds]
   (at least [min_rounds]); with [trace], traced and untraced rounds
   alternate so both see the same machine state. *)
let run ?recorder ~seed ~seconds ~min_rounds ~reps progs =
  let units = make_units progs in
  let t_check = now () in
  let counts, context = check_round recorder progs units in
  Printf.eprintf "perfbench: check round %.1f s\n%!" (now () -. t_check);
  let check_rss_mb = peak_rss_mb "self" in
  let check_layers =
    match recorder with Some r -> Span.table r | None -> Hashtbl.create 1
  in
  let rng = Random.State.make [| seed; 17 |] in
  let comp = Hashtbl.create 256 and nat = Hashtbl.create 256 in
  let untraced = ref [] and traced = ref [] and layers = ref [] in
  let t_end = now () +. seconds in
  let k = ref 0 in
  while
    !k < (match recorder with None -> min_rounds | Some _ -> 2 * min_rounds)
    || now () < t_end
  do
    let r = match recorder with Some r when !k mod 2 = 1 -> Some r | _ -> None in
    let from = match r with Some r -> Array.length (Span.spans r) | None -> 0 in
    let t0 = now () and c0 = Calib.spent () in
    (* Traced rounds' samples are thrown away: spans slow them down. *)
    (match r with
    | None -> round ~rng ~reps r units ~comp ~nat
    | Some _ -> round ~rng ~reps r units ~comp:(Hashtbl.create 1) ~nat:(Hashtbl.create 1));
    let wall = now () -. t0 -. (Calib.spent () -. c0) in
    (match r with
    | None -> untraced := wall :: !untraced
    | Some r ->
      let tbl = Span.table r ~from in
      let extra =
        List.fold_left
          (fun acc n ->
            match Hashtbl.find_opt tbl n with Some (_, _, t, _) -> acc +. t | None -> acc)
          0. extra_work
      in
      traced := (wall -. extra) :: !traced;
      layers := tbl :: !layers);
    incr k
  done;
  Printf.eprintf "perfbench: %d rounds, median %.2f s untraced\n%!" !k (median !untraced);
  Calib.sample ();
  let samples tbl u =
    List.map Calib.scale (Option.value ~default:[] (Hashtbl.find_opt tbl u.uid))
  in
  {
    units;
    counts;
    context;
    fingerprints = fingerprints units;
    compile = samples comp;
    native = samples nat;
    untraced_rounds = !untraced;
    traced_rounds = !traced;
    layer_rounds = !layers;
    check_layers;
    check_rss_mb;
    reps;
  }

(* ---- metrics --------------------------------------------------------- *)

let total_counts res f = List.fold_left (fun acc (_, c) -> acc + f c) 0 res.counts

(* One pass over some units: the sum of each unit's median time. *)
let pass_time res samples keep =
  Array.fold_left
    (fun acc u ->
      match samples u with
      | [] -> acc
      | l when keep u -> acc +. median l
      | _ -> acc)
    0. res.units

let compile_s res a = pass_time res res.compile (fun u -> u.aname = a)
let native_s res = pass_time res res.native (fun _ -> true)

(* Per unit: its median compile plus its median execution. *)
let latencies res =
  Array.to_list res.units
  |> List.filter_map (fun u ->
         match (res.compile u, res.native u) with
         | [], _ | _, [] -> None
         | c, n -> Some (median c +. median n))

let end_to_end res (m : metrics) =
  List.iter (fun a -> put m ("compile_s." ^ a) "s" (compile_s res a)) anames;
  put m "run_native_s" "s" (native_s res);
  puti m "dyn_instrs" "count" (total_counts res (fun c -> c.dyn));
  puti m "dyn_spill_instrs" "count"
    (total_counts res (fun c -> Array.fold_left ( + ) 0 c.dyn_spill));
  puti m "static_spill_instrs" "count" (total_counts res (fun c -> c.static_spill));
  puti m "code_bytes" "bytes" (total_counts res (fun c -> c.code_bytes))

let request_metrics res (m : metrics) =
  let lat = latencies res in
  put m "req_p50_ms" "ms" (1e3 *. rank lat 0.5);
  put m "req_p99_ms" "ms" (1e3 *. rank lat 0.99);
  put m "req_per_s" "1/s" (float_of_int (List.length lat) /. sum lat)

let per_layer res (m : metrics) =
  let pick f name =
    median
      (List.map
         (fun tbl -> match Hashtbl.find_opt tbl name with Some v -> f v | None -> 0.)
         res.layer_rounds)
  in
  let self_s = pick (fun (t, _, _, _) -> t) and self_w = pick (fun (_, w, _, _) -> w) in
  let incl_s = pick (fun (_, _, t, _) -> t) and incl_w = pick (fun (_, _, _, w) -> w) in
  put m "text.parse_s" "s" (self_s "text.parse");
  put m "text.parse_words" "words" (self_w "text.parse");
  put m "analysis.liveness_s" "s" (self_s "analysis.liveness");
  put m "analysis.liveness_words" "words" (self_w "analysis.liveness");
  put m "analysis.loop_s" "s" (self_s "analysis.loop");
  put m "core.lifetime_s" "s" (self_s "core.lifetime");
  put m "core.lifetime_words" "words" (self_w "core.lifetime");
  List.iter
    (fun a ->
      put m ("core.alloc_s." ^ a) "s" (incl_s ("core.alloc." ^ a));
      put m ("core.alloc_words." ^ a) "words" (incl_w ("core.alloc." ^ a)))
    anames;
  put m "core.scan_s" "s" (self_s "core.scan");
  put m "core.resolution_s" "s" (self_s "core.resolution");
  put m "core.pass.dce_s" "s" (self_s "core.pass.dce");
  put m "core.pass.peephole_s" "s" (self_s "core.pass.peephole");
  put m "core.verify_s" "s" (self_s "core.verify");
  let emit_s = self_s "native.emit" in
  put m "native.emit_s" "s" emit_s;
  put m "native.emit_words" "words" (self_w "native.emit");
  put m "native.emit_mb_per_s" "MB/s"
    (float_of_int (total_counts res (fun c -> c.code_bytes)) /. emit_s /. 1e6);
  List.iter
    (fun a ->
      put m ("native.exec_s." ^ a) "s"
        (incl_s ("native.exec." ^ a) /. float_of_int res.reps))
    anames;
  let interp_s =
    match Hashtbl.find_opt res.check_layers "sim.interp" with
    | Some (_, _, t, _) -> t
    | None -> nan
  in
  put m "sim.interp_s" "s" interp_s;
  put m "sim.interp_instrs_per_s" "1/s" (float_of_int res.context.interp_instrs /. interp_s);
  List.iter
    (fun (a, c) ->
      Array.iteri
        (fun i kind -> puti m (Printf.sprintf "sim.dyn_%s.%s" kind a) "count" c.dyn_spill.(i))
        spill_kinds;
      puti m ("sim.cycles." ^ a) "count" c.cycles;
      puti m ("core.static_spill." ^ a) "count" c.static_spill)
    res.counts;
  let c = res.context in
  puti m "core.dataflow_rounds" "count" c.dataflow_rounds;
  puti m "core.coloring_iterations" "count" c.coloring_iterations;
  puti m "core.interference_edges" "count" c.interference_edges;
  puti m "core.opt_nodes" "count" c.opt_nodes;
  puti m "core.opt_proven" "count" c.opt_proven;
  puti m "instrs" "count" c.instrs;
  let traced = median res.traced_rounds and untraced = median res.untraced_rounds in
  put m "trace.overhead_pct" "%" (100. *. (traced -. untraced) /. untraced)

(* The determinism record: fingerprints and every deterministic count,
   one "key value" line each, for the run report and the self-test. *)
let determinism res =
  List.map (fun (k, d) -> ("md5." ^ k, d)) res.fingerprints
  @ List.concat_map
      (fun (a, c) ->
        [
          ("dyn." ^ a, string_of_int c.dyn);
          ("cycles." ^ a, string_of_int c.cycles);
          ( "dyn_spill." ^ a,
            String.concat "/" (Array.to_list (Array.map string_of_int c.dyn_spill)) );
          ("static_spill." ^ a, string_of_int c.static_spill);
          ("code_bytes." ^ a, string_of_int c.code_bytes);
        ])
      res.counts
