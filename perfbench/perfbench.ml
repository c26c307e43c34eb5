(* The repository's benchmark: three workloads, each measuring the same
   end-to-end metrics (untraced run) or per-layer metrics (traced run).
   See README.md in this directory for every metric and workload.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               --tool PATH/lsra_tool.exe [--out DIR]

   The last line of standard output is the result:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   The run report (every metric, the determinism record, the failure
   tally) and, for traced runs, the spans go to DIR. *)

open Lsra_target
open Common
module C = Compile_run

let alpha = Machine.alpha_like

let small8 =
  Machine.small ~int_regs:8 ~float_regs:8 ~int_caller_saved:4 ~float_caller_saved:4 ()

(* Trip-count scale of the spec-run stand-ins: large enough that native
   execution, repeated [spec_reps] times per round, outweighs compiling
   every program with all five allocators; small enough that the check
   round's interpreter runs stay a few seconds. *)
let spec_scale = 40
let spec_reps = 20

(* serve-mixed: hot-set scale (texts barely depend on it), the share of
   fresh requests, and the fresh programs generated per second of run. *)
let serve_scale = 6
let fresh_share = 0.1
let fresh_per_s = 50
let replay_cap = 1000

(* serve-mixed's peak_rss_mb is read after this many loop replies: a
   seed-determined prefix of the stream, so the figure does not grow
   with how many requests a run managed to serve. *)
let rss_after = 1500

(* The compile-and-run measurement after the serving loop runs for this
   share of --seconds. *)
let side_share = 0.4

(* Set-up is repeated [setups] times; setup_s is the median. A fixed
   count, not a time: the heap the check round starts from, and with
   it the peak resident set read after it, then do not depend on how
   fast the host ran. *)
let setups = 7

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tool : string;
  out : string;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload pressure-compile|spec-run|serve-mixed --seed N \
     --seconds S --trace 0|1 --tool LSRA_TOOL [--out DIR]";
  exit 2

let parse_args () =
  let get k =
    let rec go i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = k then Some Sys.argv.(i + 1)
      else go (i + 1)
    in
    go 1
  in
  let req k conv = match Option.bind (get k) conv with Some v -> v | None -> usage () in
  {
    workload = req "--workload" Option.some;
    seed = req "--seed" int_of_string_opt;
    seconds = req "--seconds" float_of_string_opt;
    trace =
      req "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None);
    tool = req "--tool" Option.some;
    out = Option.value ~default:".bench_build/perfbench" (get "--out");
  }

(* Run set-up [f] repeatedly; the median time at the reference speed
   ([Calib]) and the last result. [f] gets the repetition's number;
   [before], untimed, runs ahead of every repetition. *)
let repeated_setup ?(before = ignore) f =
  let rec go i spans =
    before ();
    Gc.full_major ();
    Calib.sample ();
    let t0 = now () in
    let v = f i in
    let spans = (t0, now ()) :: spans in
    if i < setups then go (i + 1) spans
    else begin
      Calib.sample ();
      (median (List.map Calib.scale spans), v)
    end
  in
  go 1 []

(* The Mini_corpus programs that compile on [m]; the frontend spans of
   set-up repetition [id] share that id. *)
let mini_progs ?(id = 0) rec_ (mname, m) =
  List.filter_map
    (fun { Lsra_workloads.Mini_corpus.mname = pname; source; minput } ->
      match
        Span.with_ rec_ ~name:"frontend.compile" ~id (fun () ->
            Lsra_frontend.Minilang.compile m source)
      with
      | prog ->
        Some
          {
            C.pname = "mini:" ^ pname;
            mname;
            machine = m;
            text = Lsra_text.Ir_text.to_string prog;
            input = minput;
          }
      | exception Lsra_frontend.Lower.Error _ -> None)
    Lsra_workloads.Mini_corpus.all

let spec_progs ~scale (mname, m) =
  List.map
    (fun (c : Lsra_workloads.Specbench.case) ->
      {
        C.pname = "spec:" ^ c.name;
        mname;
        machine = m;
        text = Lsra_text.Ir_text.to_string c.program;
        input = c.input;
      })
    (Lsra_workloads.Specbench.all m ~scale)

(* The three Table 3 modules on alpha-like. After DCE they do not
   spill there, so one more small module keeps the workload's spill
   counts above zero: a single cvrin-sized procedure with twelve values
   live at every point, allocated on small-8's eight registers. *)
let pressure_progs () =
  let prog pname (mname, m) program =
    { C.pname; mname; machine = m; text = Lsra_text.Ir_text.to_string program; input = "" }
  in
  List.map
    (fun (s : Lsra_workloads.Pressure.shape) ->
      prog ("pressure:" ^ s.sname) ("alpha", alpha) (Lsra_workloads.Pressure.build alpha s))
    Lsra_workloads.Pressure.[ cvrin; twldrv; fpppp ]
  @ [
      prog "pressure:w12" ("small-8", small8)
        (Lsra_workloads.Pressure.scaled ~candidates:245 ~window:12 small8);
    ]

(* frontend.compile_s: the frontend's share of one set-up, median over
   the set-ups. *)
let frontend_metric m rec_ =
  match rec_ with
  | None -> ()
  | Some r ->
    let per_setup = Hashtbl.create 4 in
    Array.iter
      (fun (s : Span.span) ->
        if s.name = "frontend.compile" then
          Hashtbl.replace per_setup s.id
            (s.t1 -. s.t0 +. Option.value ~default:0. (Hashtbl.find_opt per_setup s.id)))
      (Span.spans r);
    put m "frontend.compile_s" "s" (median (Hashtbl.fold (fun _ v l -> v :: l) per_setup []))

(* ---- service per-layer metrics -------------------------------------- *)

let service_metrics m ~replies ~field ~replay =
  let ms l = List.map (fun us -> float_of_int us /. 1e3) l in
  let hit = ms (List.filter_map (fun (r : Serve.reply) -> if r.hit then Some r.wall_us else None) replies)
  and cold = ms (List.filter_map (fun (r : Serve.reply) -> if r.hit then None else Some r.wall_us) replies) in
  put m "service.wall_ms.hit.p50" "ms" (rank hit 0.5);
  put m "service.wall_ms.hit.p99" "ms" (rank hit 0.99);
  put m "service.wall_ms.cold.p50" "ms" (rank cold 0.5);
  put m "service.wall_ms.cold.p99" "ms" (rank cold 0.99);
  let transport =
    List.map
      (fun (r : Serve.reply) -> (1e3 *. r.latency) -. (float_of_int r.wall_us /. 1e3))
      replies
  in
  put m "service.transport_ms.p50" "ms" (rank transport 0.5);
  put m "service.transport_ms.p99" "ms" (rank transport 0.99);
  let calls = Span.durations replay in
  let per_call name = median (Option.value ~default:[] (Hashtbl.find_opt calls name)) in
  put m "service.key_s" "s" (per_call "service.key");
  put m "service.handle_s.hit" "s" (per_call "service.handle.hit");
  put m "service.handle_s.cold" "s" (per_call "service.handle.cold");
  put m "service.batch_s" "s" (per_call "service.batch");
  let frames = Hashtbl.create 256 in
  Array.iter
    (fun (s : Span.span) ->
      if s.name = "service.frame" then
        Hashtbl.replace frames s.id
          (s.t1 -. s.t0 +. Option.value ~default:0. (Hashtbl.find_opt frames s.id)))
    (Span.spans replay);
  put m "service.frame_s" "s" (median (Hashtbl.fold (fun _ v l -> v :: l) frames []));
  put m "service.store_append_s" "s" (per_call "service.store_append");
  put m "service.hit_rate" "ratio" (field "hits" /. field "requests");
  put m "service.spot_checks" "count" (field "spot-checks");
  put m "service.evictions" "count" (field "evictions")

(* The per-layer service numbers of a workload that is not served in
   its timed loop: its alpha-like programs sent once cold and once as
   hits over one connection, then the same stream replayed in process. *)
let service_session args m texts =
  let texts = Array.of_list texts in
  let expected = Array.map (fun t -> Some (Serve.reference t)) texts in
  let n = Array.length texts in
  let order = List.init n Fun.id @ List.init n Fun.id in
  let replies, field =
    Serve.with_server ~tool:args.tool ~dir:(Filename.concat args.out "serve") (fun srv ->
        let replies =
          Serve.count_failures (Serve.sequential ~sock:srv.sock ~texts ~expected order)
        in
        (replies, fst (Serve.stats srv)))
  in
  let replay = Span.create () in
  Serve.replay replay ~dir:(Filename.concat args.out "replay") ~texts order;
  service_metrics m ~replies ~field ~replay;
  replay

(* ---- workloads ------------------------------------------------------- *)

type outcome = {
  e2e : metrics;
  layers : metrics;
  determinism : (string * string) list;
  recorders : (string * Span.t) list;
}

let compile_workload args ~setup ~reps ~min_rounds =
  let setup_rec = if args.trace then Some (Span.create ()) else None in
  let setup_s, progs = repeated_setup (setup setup_rec) in
  let recorder = if args.trace then Some (Span.create ()) else None in
  let res = C.run ?recorder ~seed:args.seed ~seconds:args.seconds ~min_rounds ~reps progs in
  let e2e = metrics () and layers = metrics () in
  put e2e "setup_s" "s" setup_s;
  C.end_to_end res e2e;
  C.request_metrics res e2e;
  put e2e "peak_rss_mb" "MB" res.check_rss_mb;
  let recorders = ref [] in
  (match recorder with
  | None -> ()
  | Some r ->
    C.per_layer res layers;
    frontend_metric layers setup_rec;
    let replay =
      service_session args layers
        (List.filter_map
           (fun (p : C.prog) -> if p.mname = "alpha" then Some p.text else None)
           progs)
    in
    recorders := [ ("compile", r); ("setup", Option.get setup_rec); ("replay", replay) ]);
  { e2e; layers; determinism = C.determinism res; recorders = !recorders }

let pressure_compile args =
  compile_workload args ~reps:20 ~min_rounds:3
    ~setup:(fun rec_ id ->
      let progs = pressure_progs () in
      (* Pressure modules have no source-language form: the frontend
         layer is measured on the one frontend corpus instead. *)
      ignore (mini_progs ~id rec_ ("alpha", alpha));
      progs)

let spec_run args =
  compile_workload args ~reps:spec_reps ~min_rounds:3
    ~setup:(fun rec_ id ->
      List.concat_map
        (fun m -> spec_progs ~scale:spec_scale m @ mini_progs ~id rec_ m)
        [ ("alpha", alpha); ("small-8", small8) ])

(* serve-mixed. The request stream of connection [c] is drawn from
   Random.State [seed; c]: with probability [fresh_share] the
   connection's next unsent fresh program, otherwise a uniformly chosen
   hot text. *)
let serve_mixed args =
  let n_fresh = max 16 (int_of_float (float_of_int fresh_per_s *. args.seconds)) in
  let setup_rec = if args.trace then Some (Span.create ()) else None in
  let boot = ref None in
  let stop_previous () =
    match !boot with
    | Some (srv, _) -> Serve.stop srv
    | None -> ()
  in
  let setup_s, (hot, fresh) =
    repeated_setup ~before:stop_previous (fun i ->
        let hot =
          List.map (fun (p : C.prog) -> p.text) (spec_progs ~scale:serve_scale ("alpha", alpha))
          @ List.map (fun (p : C.prog) -> p.text) (mini_progs ~id:i setup_rec ("alpha", alpha))
        in
        let fresh =
          List.init n_fresh (fun k ->
              Lsra_text.Ir_text.to_string
                (Lsra_workloads.Gen.program
                   ~params:
                     { Lsra_workloads.Gen.default_params with seed = (args.seed * 100_003) + k }
                   alpha))
        in
        let texts = Array.of_list (hot @ fresh) in
        let srv =
          Serve.start ~tool:args.tool
            ~dir:(Filename.concat args.out (Printf.sprintf "serve%d" i))
        in
        let warm =
          Serve.sequential ~sock:srv.sock ~texts
            ~expected:(Array.make (Array.length texts) None)
            (List.init (List.length hot) Fun.id)
        in
        boot := Some (srv, warm);
        (hot, fresh))
  in
  let srv, warm = Option.get !boot in
  let texts = Array.of_list (hot @ fresh) in
  let n_hot = List.length hot in
  (* The oracle: direct pipeline runs, outside set-up and the loop. *)
  let expected =
    Array.mapi (fun i t -> if i < n_hot then Some (Serve.reference t) else None) texts
  in
  let t_end = now () +. args.seconds in
  let n_sent_fresh = List.length fresh in
  let streams =
    Array.init 2 (fun c ->
        let rng = Random.State.make [| args.seed; c |] in
        let next_fresh = ref c in
        fun () ->
          if now () >= t_end then None
          else if Random.State.float rng 1. < fresh_share && !next_fresh < n_sent_fresh
          then begin
            let k = !next_fresh in
            next_fresh := k + 2;
            Some (n_hot + k)
          end
          else Some (Random.State.int rng n_hot))
  in
  let prefix_rss = ref None in
  let on_reply n =
    if n = rss_after then prefix_rss := Some (peak_rss_mb (string_of_int srv.pid))
  in
  Calib.sample ();
  let t0 = now () and c0 = Calib.spent () in
  let loop =
    Serve.closed_loop ~calibrate:true ~on_reply ~sock:srv.sock ~texts ~expected ~conns:2
      (fun c -> streams.(c) ())
  in
  let t1 = now () in
  Calib.sample ();
  (* The loop's time without its calibration pauses, at the reference
     speed. *)
  let loop_s =
    (t1 -. t0 -. (Calib.spent () -. c0)) *. Calib.ref_s /. Calib.median_between t0 t1
  in
  let field, rss = Serve.stats srv in
  Serve.stop srv;
  let check_kept (replies, _) =
    List.iter
      (fun (r : Serve.reply) ->
        if r.body <> "" then
          check
            (String.equal r.body (Serve.reference texts.(r.item)))
            ~what:(Printf.sprintf "request for text %d" r.item)
            "served body differs from Allocator.pipeline")
      replies
  in
  check_kept warm;
  check_kept loop;
  let warm_replies = Serve.count_failures warm in
  let loop_replies = Serve.count_failures loop in
  let e2e = metrics () and layers = metrics () in
  put e2e "setup_s" "s" setup_s;
  let lat =
    List.map
      (fun (r : Serve.reply) -> 1e3 *. Calib.scale (r.sent, r.sent +. r.latency))
      loop_replies
  in
  (* The side measurement: the hot set compiled and run like spec-run,
     with every allocator, outside the serving loop. Fresh programs stay
     out of it, so its counts do not depend on the seed. *)
  let recorder = if args.trace then Some (Span.create ()) else None in
  let res =
    C.run ?recorder ~seed:args.seed ~seconds:(side_share *. args.seconds) ~min_rounds:5
      ~reps:5
      (spec_progs ~scale:serve_scale ("alpha", alpha) @ mini_progs None ("alpha", alpha))
  in
  C.end_to_end res e2e;
  put e2e "req_p50_ms" "ms" (rank lat 0.5);
  put e2e "req_p99_ms" "ms" (rank lat 0.99);
  put e2e "req_per_s" "1/s" (float_of_int (List.length lat) /. loop_s);
  put e2e "peak_rss_mb" "MB" (Option.value ~default:rss !prefix_rss);
  let recorders = ref [] in
  (match recorder with
  | None -> ()
  | Some r ->
    C.per_layer res layers;
    frontend_metric layers setup_rec;
    (* Request spans, recorded from each reply's send and receive
       times; the replay covers the warm-up and the first requests of
       the loop, in send order. *)
    let requests = Span.create () in
    let all = warm_replies @ loop_replies in
    let by_send =
      List.sort (fun (a : Serve.reply) b -> compare a.sent b.sent) all
    in
    List.iteri
      (fun id (rp : Serve.reply) ->
        Span.add requests ~name:"service.request" ~id ~t0:rp.sent ~t1:(rp.sent +. rp.latency)
          ~words:0.)
      by_send;
    let order =
      List.filteri (fun i _ -> i < replay_cap) (List.map (fun (rp : Serve.reply) -> rp.item) by_send)
    in
    let replay = Span.create () in
    Serve.replay replay ~dir:(Filename.concat args.out "replay") ~texts order;
    service_metrics layers ~replies:loop_replies ~field ~replay;
    recorders :=
      [ ("compile", r); ("setup", Option.get setup_rec); ("requests", requests); ("replay", replay) ]);
  let determinism =
    C.determinism res
    @ [ ("fresh.md5", md5 (String.concat "\n" fresh)); ("hot.md5", md5 (String.concat "\n" hot)) ]
  in
  { e2e; layers; determinism; recorders = !recorders }

(* ---- output ---------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    prerr_endline "perfbench: a metric is not a finite number";
    "0"
  end

let metrics_json (m : metrics) =
  "{"
  ^ String.concat ", "
      (List.rev_map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         !m)
  ^ "}"

let () =
  (* Stop the servers (at_exit) when asked to terminate. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 3));
  let args = parse_args () in
  let run =
    match args.workload with
    | "pressure-compile" -> pressure_compile
    | "spec-run" -> spec_run
    | "serve-mixed" -> serve_mixed
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  if not (Lsra_native.Exec.available ()) then begin
    prerr_endline "perfbench: native execution is unavailable on this host (x86-64 only)";
    exit 2
  end;
  mkdir_p args.out;
  let o = run args in
  let chosen = if args.trace then o.layers else o.e2e in
  let stem =
    Filename.concat args.out
      (Printf.sprintf "%s-seed%d-trace%d" args.workload args.seed (Bool.to_int args.trace))
  in
  Out_channel.with_open_text (stem ^ ".json") (fun oc ->
      Printf.fprintf oc
        "{\"workload\": %S, \"seed\": %d, \"attempted\": %d, \"failed\": %d,\n\
         \"calibration\": {\"ref_s\": %.6f, \"median_s\": %.6f, \"samples\": %d},\n\
         \"end_to_end\": %s,\n\"per_layer\": %s,\n\"determinism\": {%s}}\n"
        args.workload args.seed tally.attempted tally.failed Calib.ref_s
        (Calib.median_between neg_infinity infinity) (Calib.count ()) (metrics_json o.e2e)
        (metrics_json o.layers)
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) o.determinism)));
  if o.recorders <> [] then
    Out_channel.with_open_text (stem ^ ".spans.jsonl") (fun oc ->
        List.iter (fun (name, r) -> Span.to_jsonl oc ~recorder:name r) o.recorders);
  List.iter (fun (k, v) -> Printf.eprintf "perfbench: %s %s\n" k v) o.determinism;
  Printf.eprintf "perfbench: calibration kernel median %.5f s over %d samples (reference %.5f s)\n"
    (Calib.median_between neg_infinity infinity) (Calib.count ()) Calib.ref_s;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    (tally.failed = 0) (max 1 tally.attempted) tally.failed (metrics_json chosen)
