(* Span recorder for the traced run.

   Each span is (name, start, end, parent), recorded by the
   benchmark around one call into a layer's public API and kept in
   memory until the run ends. A span's self time is its duration minus
   the durations of its direct children. When recording is off,
   [enter] and [leave] are a single branch each: the untraced run pays
   nothing. *)

type name =
  | Op  (** one workload operation; the benchmark's own glue is its self time *)
  | Core_run  (** Lz_cpu.Core.run *)
  | Api_run  (** Lightzone.Api.run *)
  | Lz_alloc
  | Lz_free
  | Lz_map_gate_pgt
  | Lz_prot
  | Snap_fork  (** Lz_snap.Snapshot.fork *)
  | Snap_retire  (** Lz_snap.Snapshot.retire_fork *)
  | Snap_capture

let all =
  [ Op; Core_run; Api_run; Lz_alloc; Lz_free; Lz_map_gate_pgt; Lz_prot;
    Snap_fork; Snap_retire; Snap_capture ]

let label = function
  | Op -> "op"
  | Core_run -> "core.run"
  | Api_run -> "api.run"
  | Lz_alloc -> "api.lz_alloc"
  | Lz_free -> "api.lz_free"
  | Lz_map_gate_pgt -> "api.lz_map_gate_pgt"
  | Lz_prot -> "api.lz_prot"
  | Snap_fork -> "snapshot.fork"
  | Snap_retire -> "snapshot.retire"
  | Snap_capture -> "snapshot.capture"

(* Position in [all], the slot a span's name is counted under. *)
let index nm =
  let rec go i = function
    | [] -> invalid_arg "Spans.index"
    | x :: rest -> if x = nm then i else go (i + 1) rest
  in
  go 0 all

type t = {
  mutable on : bool;
  mutable n : int;
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable open_ : int;  (** innermost open span, -1 at top level *)
}

let create () =
  { on = false; n = 0; name = [||]; start = [||]; stop = [||];
    parent = [||]; open_ = -1 }

let grow t =
  let cap = max 1024 (2 * t.n) in
  let extend a z =
    let b = Array.make cap z in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- extend t.name 0;
  t.start <- extend t.start 0.;
  t.stop <- extend t.stop 0.;
  t.parent <- extend t.parent (-1)

let enter t nm =
  if t.on then begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- index nm;
    t.parent.(i) <- t.open_;
    t.open_ <- i;
    t.start.(i) <- Measure.cpu ()
  end

let leave t =
  if t.on then begin
    let i = t.open_ in
    t.stop.(i) <- Measure.cpu ();
    t.open_ <- t.parent.(i)
  end

(* Close every open span, after an exception escaped a layer call. *)
let unwind t =
  while t.on && t.open_ >= 0 do
    leave t
  done

let span t nm f =
  enter t nm;
  let r = f () in
  leave t;
  r

type agg = { count : int; total_s : float; self_s : float }

(* Per-name count, total duration and self time over all spans whose
   start lies at or after [since] (a CPU timestamp), so a phase can be
   summarized apart from the set-up that preceded it. *)
let summarize ?(since = neg_infinity) t =
  let k = List.length all in
  let count = Array.make k 0
  and total = Array.make k 0.
  and self = Array.make k 0. in
  for i = 0 to t.n - 1 do
    if t.start.(i) >= since then begin
      let d = t.stop.(i) -. t.start.(i) and nm = t.name.(i) in
      count.(nm) <- count.(nm) + 1;
      total.(nm) <- total.(nm) +. d;
      self.(nm) <- self.(nm) +. d;
      let p = t.parent.(i) in
      if p >= 0 && t.start.(p) >= since then
        self.(t.name.(p)) <- self.(t.name.(p)) -. d
    end
  done;
  fun nm ->
    let j = index nm in
    { count = count.(j); total_s = total.(j); self_s = self.(j) }
