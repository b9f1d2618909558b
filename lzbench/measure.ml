(* Host-side measurement: the process CPU clock every timing uses,
   order statistics over samples, the memory high-water mark, and the
   host fingerprint printed beside each run.

   Timings use process CPU time (CLOCK_PROCESS_CPUTIME_ID, nanosecond
   resolution), not wall clock: on a shared host wall time also counts
   the stretches the process waits for a CPU. Wall time is reported
   beside it, never gated on. *)

external cpu : unit -> (float[@unboxed])
  = "lzbench_cpu_seconds_byte" "lzbench_cpu_seconds"
[@@noalloc]

let wall () = Unix.gettimeofday ()

(* Growable float buffer: samples are appended in the timed loop, so
   the buffer doubles instead of consing a list. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let clear b = b.n <- 0
  let to_array b = Array.sub b.a 0 b.n
end

(* Quantile with linear interpolation between closest ranks. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median xs = quantile xs 0.5

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let words s = String.split_on_char ' ' s |> List.filter (( <> ) "")

(* Peak resident set (VmHWM) in MiB; nan where /proc is absent. *)
let peak_rss_mib () =
  match read_file "/proc/self/status" with
  | None -> nan
  | Some s -> (
      let line =
        String.split_on_char '\n' s
        |> List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      in
      match Option.map words line with
      | Some [ _; kb; _ ] -> float_of_string kb /. 1024.
      | _ -> nan)

(* Aggregate steal ticks from the first line of /proc/stat (field 8). *)
let steal_ticks () =
  match read_file "/proc/stat" with
  | None -> 0
  | Some s -> (
      match words (List.hd (String.split_on_char '\n' s)) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          int_of_string steal
      | _ -> 0)

let loadavg_1m () =
  match Option.map words (read_file "/proc/loadavg") with
  | Some (l :: _) -> float_of_string l
  | _ -> nan

(* CPU milliseconds of a fixed loop over a 2 MiB array. It moves only
   with the host (a busy hyperthread sibling, cache contention,
   frequency), which slows a run without showing up as steal or load. *)
let probe_ms () =
  let a = Array.make (1 lsl 18) 1 in
  let t0 = cpu () in
  let s = ref 0 in
  for _ = 1 to 32 do
    for i = 0 to Array.length a - 1 do
      s := !s + a.(i)
    done
  done;
  ignore (Sys.opaque_identity !s);
  1e3 *. (cpu () -. t0)

type fingerprint = {
  nproc : int;
  load0 : float;
  steal0 : int;
  probe0 : float;
  wall0 : float;
  cpu0 : float;
}

let start_fingerprint () =
  let probe0 = probe_ms () in
  { nproc = Domain.recommended_domain_count (); load0 = loadavg_1m ();
    steal0 = steal_ticks (); probe0; wall0 = wall (); cpu0 = cpu () }

(* The host line: a run is marked noisy when the host stole more than
   2% of the wall time from its CPUs, the 1-minute load exceeded the
   CPU count, or the probe's time moved by more than 10% between the
   start and the end, so a slow outlier explains itself. *)
let host_json f =
  let wall_s = wall () -. f.wall0 and cpu_s = cpu () -. f.cpu0 in
  let probe1 = probe_ms () in
  let load1 = loadavg_1m () in
  let steal = steal_ticks () - f.steal0 in
  let steal_s = float_of_int steal /. 100. (* USER_HZ ticks *) in
  let steal_pct = 100. *. steal_s /. (wall_s *. float_of_int f.nproc) in
  let noisy =
    steal_pct > 2.
    || Float.max f.load0 load1 > float_of_int f.nproc
    || Float.abs (probe1 -. f.probe0) > 0.1 *. Float.min f.probe0 probe1
  in
  ( noisy,
    Printf.sprintf
      {|{"host": {"nproc": %d, "ocaml": %S, "loadavg_1m_start": %.2f, "loadavg_1m_end": %.2f, "steal_ticks": %d, "steal_pct": %.2f, "probe_ms_start": %.3f, "probe_ms_end": %.3f, "wall_s": %.3f, "cpu_s": %.3f, "noisy": %b}}|}
      f.nproc Sys.ocaml_version f.load0 load1 steal steal_pct f.probe0 probe1
      wall_s cpu_s noisy )
