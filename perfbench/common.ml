(* Plumbing shared by the workloads: the failure tally, order
   statistics, the clock and the metric table the result line is built
   from. *)

let now = Unix.gettimeofday

(* Every checked operation bumps [attempted]; a wrong output, an ERR
   frame, a timeout or an exception bumps [failed] and is reported on
   stderr, never raised: one bad output must not end the run. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let check ok ~what msg =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.failed <= 20 then
      Printf.eprintf "perfbench: FAILED %s: %s\n%!" what msg
  end

(* Run [f] as one checked operation; an exception fails it. *)
let guarded ~what f =
  match f () with
  | v ->
    check true ~what "";
    Some v
  | exception e ->
    check false ~what (Printexc.to_string e);
    None

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile: always one of the samples, so a quantile that
   falls between two clusters of samples does not average across the
   gap. *)
let rank l q =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1))

let sum l = List.fold_left ( +. ) 0. l

let md5 s = Digest.to_hex (Digest.string s)

(* Peak resident set (VmHWM) of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      nan
      (String.split_on_char '\n' text)

(* The metrics of one run, in insertion order: name, unit, value. *)
type metrics = (string * string * float) list ref

let metrics () : metrics = ref []
let put (m : metrics) name unit v = m := (name, unit, v) :: !m
let puti m name unit v = put m name unit (float_of_int v)

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

