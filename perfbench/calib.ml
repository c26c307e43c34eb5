(* Host-speed calibration.

   On a shared host the CPU this benchmark runs on turns slower or
   faster, by up to half its speed, for seconds to minutes at a time,
   as other tenants' work comes and goes; a whole run can fall in a
   slow or a fast stretch, so medians over a run still differ by that
   much from run to run. A fixed kernel,
   the benchmark's own code, is therefore timed between the timed
   operations, at most every [interval] seconds, and every timed
   operation is reported at the reference speed: its wall time times
   [ref_s] over the kernel's time around it (the mean of the kernel
   sample just before it starts and the one just after it ends).

   The kernel sorts a fixed array of floats: boxed floats, polymorphic
   code, comparisons and branches, which slow down with the host as the
   allocators' code does, while a dependent-multiply loop barely moves.
   Nothing in the repository's libraries runs inside it, so a change to
   them cannot move the reference. *)

let now = Common.now

(* The kernel's time at the reference speed: a two-vCPU x86-64 VM
   (Intel Xeon) in its usual, slower state. Only a constant factor on
   every scaled time. *)
let ref_s = 0.0075

(* The least time between two samples: the kernel then takes ~4% of a
   run. *)
let interval = 0.15

let input =
  let s = ref 12345 in
  Array.init 20_000 (fun _ ->
      s := ((!s * 1103515245) + 12345) land 0x3fffffff;
      float_of_int !s)

let scratch = Array.make (Array.length input) 0.

let kernel () =
  Array.blit input 0 scratch 0 (Array.length input);
  Array.sort Float.compare scratch

(* Kernel samples in time order: start times and durations. *)
let starts = ref (Array.make 1024 0.)
let durs = ref (Array.make 1024 0.)
let n = ref 0
let spent_s = ref 0.
let last = ref neg_infinity

let sample () =
  if !n = Array.length !starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0.) in
    starts := grow !starts;
    durs := grow !durs
  end;
  let t0 = now () in
  kernel ();
  let t1 = now () in
  !starts.(!n) <- t0;
  !durs.(!n) <- t1 -. t0;
  incr n;
  spent_s := !spent_s +. (t1 -. t0);
  last := t1

(* Whether the last sample is [interval] old. *)
let due () = now () -. !last >= interval

(* Take a sample if one is due: call it right before starting a timed
   operation. *)
let maybe () = if due () then sample ()

let count () = !n

(* Seconds spent in the kernel so far, to take out of wall-clock
   totals. *)
let spent () = !spent_s

(* Index of the first sample that starts at or after [t]. *)
let first_from t =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if !starts.(mid) < t then go (mid + 1) hi else go lo mid
  in
  go 0 !n

(* The kernel's time around [t0, t1]. *)
let local t0 t1 =
  let before = first_from t0 - 1 and after = first_from t1 in
  match (before >= 0, after < !n) with
  | true, true -> (!durs.(before) +. !durs.(after)) /. 2.
  | true, false -> !durs.(before)
  | false, true -> !durs.(after)
  | false, false -> ref_s

(* An operation that ran from [t0] to [t1], in seconds at the
   reference speed. Scale only once the samples after [t1] are taken:
   end the measurement with [sample ()]. *)
let scale (t0, t1) = (t1 -. t0) *. ref_s /. local t0 t1

(* The median kernel time over [t0, t1], for totals over a long
   stretch. *)
let median_between t0 t1 =
  let i = first_from t0 and j = first_from t1 in
  if j <= i then local t0 t1 else Common.median (Array.to_list (Array.sub !durs i (j - i)))
