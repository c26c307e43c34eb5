(* In-memory span recorder for the traced run.

   A span is one timed call into a layer's public function: a name, the
   id of the program or request it belongs to, its parent span, wall
   start/end and the exact number of minor-heap words the call allocated
   ([Gc.minor_words] deltas, which are exact at any point on OCaml 5, not
   [Gc.quick_stat], which only advances at a minor collection). Spans are
   appended to a growable buffer owned by one domain and written out when
   the run ends; nothing here is shared between domains. *)

type span = {
  name : string;
  id : int;  (** program or request the span belongs to *)
  parent : int;  (** index of the enclosing span in the same recorder, -1 at top *)
  t0 : float;
  t1 : float;
  words : float;  (** minor words allocated between start and end *)
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable open_ : int;  (** innermost open span, -1 when none *)
}

let dummy = { name = ""; id = 0; parent = -1; t0 = 0.; t1 = 0.; words = 0. }
let create () = { spans = Array.make 1024 dummy; len = 0; open_ = -1 }

let reserve r =
  if r.len = Array.length r.spans then begin
    let bigger = Array.make (2 * r.len) dummy in
    Array.blit r.spans 0 bigger 0 r.len;
    r.spans <- bigger
  end;
  let i = r.len in
  r.len <- i + 1;
  i

(* Append an already-finished span (the caller timed it) under the
   innermost open one. *)
let add r ~name ~id ~t0 ~t1 ~words =
  let i = reserve r in
  r.spans.(i) <- { name; id; parent = r.open_; t0; t1; words }

let close r i ~name ~id ~parent ~t0 ~words =
  let t1 = Unix.gettimeofday () in
  r.spans.(i) <- { name; id; parent; t0; t1; words };
  r.open_ <- parent

(* Read the clock outside the word window and the word counter inside
   it, so the span's [words] is exactly what [f] allocated: the
   unboxed [Gc.minor_words] reads allocate nothing, and the boxed clock
   readings and the span record fall outside the window. *)
let record r ~name ~id f =
  let i = reserve r in
  let parent = r.open_ in
  r.open_ <- i;
  let t0 = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  match f () with
  | v ->
    let words = Gc.minor_words () -. w0 in
    close r i ~name ~id ~parent ~t0 ~words;
    v
  | exception e ->
    let words = Gc.minor_words () -. w0 in
    close r i ~name ~id ~parent ~t0 ~words;
    raise e

(* [with_ (Some r)] records, [with_ None] just calls: the untraced run
   pays one match per call. *)
let with_ r ~name ~id f =
  match r with None -> f () | Some r -> record r ~name ~id f

let spans r = Array.sub r.spans 0 r.len

(* Self time and self words: each span's own measure minus its direct
   children's. *)
let self r =
  let n = r.len in
  let dt = Array.init n (fun i -> r.spans.(i).t1 -. r.spans.(i).t0) in
  let dw = Array.init n (fun i -> r.spans.(i).words) in
  for i = 0 to n - 1 do
    let p = r.spans.(i).parent in
    if p >= 0 then begin
      dt.(p) <- dt.(p) -. (r.spans.(i).t1 -. r.spans.(i).t0);
      dw.(p) <- dw.(p) -. r.spans.(i).words
    end
  done;
  (dt, dw)

(* Per-name sums over the spans recorded since index [from]: self
   seconds, self words, inclusive seconds, inclusive words. *)
let table ?(from = 0) r =
  let dt, dw = self r in
  let tbl = Hashtbl.create 64 in
  for i = from to r.len - 1 do
    let s = r.spans.(i) in
    let a, b, c, d = Option.value ~default:(0., 0., 0., 0.) (Hashtbl.find_opt tbl s.name) in
    Hashtbl.replace tbl s.name (a +. dt.(i), b +. dw.(i), c +. (s.t1 -. s.t0), d +. s.words)
  done;
  tbl

(* Per-name lists of inclusive durations, one entry per span: the
   per-call samples that request-level medians come from. *)
let durations r =
  let tbl = Hashtbl.create 32 in
  for i = 0 to r.len - 1 do
    let s = r.spans.(i) in
    let l = Option.value ~default:[] (Hashtbl.find_opt tbl s.name) in
    Hashtbl.replace tbl s.name ((s.t1 -. s.t0) :: l)
  done;
  tbl

let to_jsonl oc ~recorder r =
  let base = match r.len with 0 -> 0. | _ -> r.spans.(0).t0 in
  for i = 0 to r.len - 1 do
    let s = r.spans.(i) in
    Printf.fprintf oc
      "{\"recorder\":%S,\"span\":%d,\"name\":%S,\"id\":%d,\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\"words\":%.0f}\n"
      recorder i s.name s.id s.parent
      ((s.t0 -. base) *. 1e6)
      ((s.t1 -. base) *. 1e6)
      s.words
  done
