(* Multi-core simulation benchmark.

   Two measurements over the lz_smp machine:

   - MIPS vs core count (1/2/4/8): independent compute processes, one
     per core, fully pre-populated, run with one host domain per core;
     aggregate simulated MIPS against host wall clock (the cores run
     in parallel, so process CPU time would count them all). The core
     counts alternate inside each repetition. The curve only scales
     when the host actually has the cores, so the host fingerprint
     sits beside it.

   - Shootdown latency: a 2-core shared-process run where core 0
     drives mprotect ro/rw flips (each one an IS shootdown with a DVM
     completion stall) while core 1 keeps reading the flipped page;
     reports average ack latency in barriers and cycles. The protocol
     guarantees acks within two barriers.

   Gates: a 2-core machine driven sequentially and with one host
   domain per core ends with identical outcomes, digests and merged
   traces; every shootdown is sent and acked within 2 barriers on
   average; simulated insns and barrier counts equal the baseline's;
   on hosts with >= 4 cpus, the median 4-core aggregate MIPS is >= 2x
   1-core. `--smoke` skips the MIPS curve and runs 100 shootdowns
   instead of 400. *)

open Lz_kernel
module Json = Benchkit.Json
module Smp = Lz_smp.Smp
module Core = Lz_cpu.Core

let code_va = 0x400000
let data_va = 0x600000
let code1_va = 0x410000
let stack_top = 0x7F0000010000

(* Independent compute kernel: rotate over 8 data pages with a
   store/load/xor loop, exit with a per-core mark. 8 insns/iter. *)
let compute_program ~iters ~mark =
  let open Lz_arm.Insn in
  [ Movz (4, 7, 0);
    Movz (1, iters land 0xFFFF, 0);
    Movk (1, (iters lsr 16) land 0xFFFF, 16);
    Movz (9, 0, 0);
    Movz (0, data_va lsr 16, 16);
    And_reg (3, 1, 4);
    Lsl_imm (3, 3, 12);
    Add (3, 0, Reg 3);
    Str (1, 3, 0);
    Ldr (5, 3, 0);
    Eor_reg (9, 9, 5);
    Subs (1, 1, Imm 1);
    Bcond (NE, -28);
    Movz (8, Kernel.Nr.exit, 0);
    Movz (0, mark, 0);
    Svc 0 ]

let build_compute ~cores ~iters () =
  let t = Smp.create ~fast:true ~blocks:true ~cores () in
  for i = 0 to cores - 1 do
    let kernel = Kernel.create (Smp.slot_machine t i) Kernel.Host_vhe in
    let proc = Kernel.create_process kernel in
    ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x8000 Vma.rw);
    Kernel.load_program kernel proc ~va:code_va
      (compute_program ~iters:(iters + (977 * i)) ~mark:(40 + i));
    Kernel.populate kernel proc ~start:data_va ~len:0x8000;
    Smp.assign ~pool:8 t i kernel proc ~entry:code_va ~sp:stack_top
  done;
  t

let total_insns t =
  Array.fold_left
    (fun a (s : Smp.slot) -> a + s.Smp.core.Core.insns)
    0 t.Smp.slots

(* Shootdown latency rig: core 0 flips one page ro/rw [pairs] times
   (two shootdowns per pair), core 1 reads it forever (reads survive
   the ro window, so only TLB refills happen — no faults). *)
let build_shootdown ~pairs () =
  let quantum = 2_000 in
  let t = Smp.create ~cores:2 ~quantum () in
  let kernel = Kernel.create (Smp.slot_machine t 0) Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore (Kernel.map_anon kernel proc ~at:data_va ~len:0x1000 Vma.rw);
  let open Lz_arm.Insn in
  Kernel.load_program kernel proc ~va:code_va
    [ Movz (12, pairs, 0);
      Movz (15, data_va lsr 16, 16);
      Add (0, 15, Imm 0);
      Movz (1, 0x1000, 0);
      Movz (2, 1, 0);
      Movz (8, Kernel.Nr.mprotect, 0);
      Svc 0;
      Add (0, 15, Imm 0);
      Movz (1, 0x1000, 0);
      Movz (2, 3, 0);
      Movz (8, Kernel.Nr.mprotect, 0);
      Svc 0;
      Subs (12, 12, Imm 1);
      Bcond (NE, -44);
      Movz (8, Kernel.Nr.exit, 0);
      Movz (0, 0, 0);
      Svc 0 ];
  Kernel.load_program kernel proc ~va:code1_va
    [ Movz (0, data_va lsr 16, 16);
      Ldr (5, 0, 0);
      Add (9, 9, Imm 1);
      B (-8) ];
  Kernel.populate kernel proc ~start:data_va ~len:0x1000;
  Smp.assign ~pool:0 t 0 kernel proc ~entry:code_va ~sp:stack_top;
  Smp.assign ~pool:0 t 1 kernel proc ~entry:code1_va ~sp:stack_top;
  t

(* Sequential-oracle ≡ parallel-domains check on a 2-core machine. *)
let seq_par_identical ~iters () =
  let a = build_compute ~cores:2 ~iters () in
  let b = build_compute ~cores:2 ~iters () in
  let oa = Smp.run ~parallel:false a in
  let ob = Smp.run ~parallel:true b in
  oa = ob
  && Smp.digests a = Smp.digests b
  && Smp.merged_trace a = Smp.merged_trace b

let () =
  let kit = Benchkit.init "smp" in
  let host_cpus = Domain.recommended_domain_count () in
  Benchkit.say kit "host has %d usable cpu(s)" host_cpus;
  let seq_par = seq_par_identical ~iters:30_000 () in
  (* MIPS curve. *)
  let iters = 100_000 in
  let counts = if kit.smoke then [] else [ 1; 2; 4; 8 ] in
  let insns = Hashtbl.create 4 in
  let curve =
    Array.init (if kit.smoke then 0 else Benchkit.reps) (fun _ ->
        List.map
          (fun cores ->
            let t = build_compute ~cores ~iters () in
            let os = ref [] in
            let s =
              Benchkit.wall_time (fun () -> os := Smp.run ~parallel:true t)
            in
            List.iteri
              (fun i (_, o) ->
                match o with
                | Kernel.Exited c when c = 40 + i -> ()
                | _ -> failwith (Printf.sprintf "smp: core %d bad outcome" i))
              !os;
            Hashtbl.replace insns cores (total_insns t);
            float_of_int (total_insns t) /. s /. 1e6)
          counts)
  in
  let mips i = Array.map (fun row -> List.nth row i) curve in
  List.iteri
    (fun i cores ->
      Benchkit.say kit "%d core(s): %d insns, %.1f MIPS" cores
        (Hashtbl.find insns cores) (Benchkit.median (mips i)))
    counts;
  let speedup4 = Array.map2 ( /. ) (mips 2) (mips 0) in

  (* Shootdown latency. *)
  let pairs = if kit.smoke then 50 else 200 in
  let t = build_shootdown ~pairs () in
  ignore (Smp.run ~max_insns:(15_000 * pairs) t);
  let s0 = Smp.slot t 0 in
  let avg_barriers =
    float_of_int s0.Smp.stall_barriers /. float_of_int (max 1 s0.Smp.sd_sent)
  in
  Benchkit.say kit
    "shootdown: %d sent, acked in %.2f barriers (%.0f cycles at Q=%d)"
    s0.Smp.sd_sent avg_barriers
    (avg_barriers *. float_of_int t.Smp.quantum)
    t.Smp.quantum;
  let scaling =
    if kit.smoke then []
    else if host_cpus >= 4 then
      [ Benchkit.at_least "median 4-core / 1-core MIPS"
          (Benchkit.median speedup4) 2. ]
    else begin
      Benchkit.say kit
        "4-core scaling gate skipped: the host has %d cpu(s), it needs >= 4"
        host_cpus;
      []
    end
  in
  Benchkit.finish kit
    ([ ("host_cpus", Json.Int host_cpus); ("iters_per_core", Int iters);
       ("insns",
        Obj
          (List.map
             (fun c -> (string_of_int c, Json.Int (Hashtbl.find insns c)))
             counts));
       ("shootdown",
        Obj
          [ ("sent", Int s0.Smp.sd_sent);
            ("stall_barriers", Int s0.Smp.stall_barriers);
            ("quantum", Int t.Smp.quantum) ]);
       ("mips",
        Obj (List.mapi (fun i c -> (string_of_int c, Benchkit.stats (mips i)))
               counts)) ]
    @ if kit.smoke then [] else [ ("speedup_4core", Benchkit.stats speedup4) ])
    ([ Benchkit.Bound
         ("2-core sequential and parallel runs identical (outcomes, digests, \
           traces)", seq_par);
       Benchkit.at_least "shootdowns sent" (float_of_int s0.Smp.sd_sent)
         (float_of_int (2 * pairs));
       Benchkit.at_most "average shootdown ack barriers" avg_barriers 2.;
       Same "insns"; Same "shootdown" ]
    @ scaling)
