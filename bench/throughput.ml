(* Host-throughput benchmark for the execution engines.

   Runs each Microbench program five ways on the same iteration count:
   the superblock engine, the per-instruction fast path, the forced
   slow path, and the first two again traced (tracer attached, a PC
   marker on the code page: the worst case for block-aware tracing,
   since every block then runs per-insn marker checks). The engines
   alternate inside each repetition, timed on process CPU time.

   Gates: simulated insns, cycles and block statistics equal the
   baseline's; the median speedup over the slow oracle and over the
   per-insn engine stay within the band of the baseline's; nginx keeps
   >= 10 insns per block and, at full size, a median block speedup
   >= 1.5 (the trace-tree formation gains must not silently reopen).
   MIPS is reported, not gated. *)

open Lz_workloads
module Core = Lz_cpu.Core
module Fastpath = Lz_cpu.Fastpath
module Pmu = Lz_arm.Pmu
module Trace = Lz_trace.Trace
module Json = Benchkit.Json

type run = { insns : int; cycles : int; seconds : float; blk : Fastpath.stats }

(* Program INST_RETIRED and CPU_CYCLES onto PMU counters before the
   run, then cross-check the architectural counter reads against the
   core's own insn/cycle totals: the PMU model must agree with the
   execution engine exactly (event counters modulo their 32-bit
   width).  A mismatch means counter drift — fail loudly. *)
let arm_pmu core =
  let p = Core.attach_pmu core in
  let cycles = core.Core.cycles and insns = core.Core.insns in
  Pmu.write_evtyper p ~cycles ~insns 0 Pmu.Event.inst_retired;
  Pmu.write_evtyper p ~cycles ~insns 1 Pmu.Event.cpu_cycles;
  Pmu.write_cntenset p ~cycles ~insns
    ((1 lsl Pmu.cycle_counter_bit) lor 0b11);
  Pmu.write_pmcr p ~cycles ~insns 0b1;
  p

let mask32 = 0xFFFF_FFFF

let cross_check name core p ~c0 ~i0 =
  let cycles = core.Core.cycles and insns = core.Core.insns in
  let ev_insns = Pmu.read_evcntr p ~cycles ~insns 0 in
  let ev_cycles = Pmu.read_evcntr p ~cycles ~insns 1 in
  let ccntr = Pmu.read_ccntr p ~cycles in
  let want_insns = (insns - i0) land mask32 in
  let want_cycles = (cycles - c0) land mask32 in
  if ev_insns <> want_insns then begin
    Printf.eprintf
      "throughput: %s: PMU INST_RETIRED %d disagrees with core.insns %d\n"
      name ev_insns want_insns;
    exit 1
  end;
  if ev_cycles <> want_cycles || ccntr <> cycles - c0 then begin
    Printf.eprintf
      "throughput: %s: PMU CPU_CYCLES %d / PMCCNTR %d disagree with \
       core.cycles %d\n"
      name ev_cycles ccntr (cycles - c0);
    exit 1
  end

let run_once ~traced ~fast ~blocks ~iters name =
  let env = Microbench.build ~fast ~blocks ~iters name in
  let core = env.Microbench.core in
  if traced then begin
    (* The marker sits on the prologue pc, so it fires exactly once
       and the ring never drops. *)
    let tr = Trace.create ~capacity:1024 () in
    Core.set_tracer core (Some tr);
    Trace.add_marker tr ~pc:Microbench.code_va (Trace.Syscall { nr = 0 })
  end;
  let p = arm_pmu core in
  let c0 = core.Core.cycles and i0 = core.Core.insns in
  let seconds = Benchkit.cpu_time (fun () -> Microbench.run_to_brk env) in
  cross_check name core p ~c0 ~i0;
  { insns = core.Core.insns; cycles = core.Core.cycles - c0; seconds;
    blk = Fastpath.stats core.Core.fp }

(* (name, fast, blocks, traced), in the order each repetition runs
   them. *)
let engines =
  [ ("fast", true, true, false); ("fast_per_insn", true, false, false);
    ("slow", false, false, false); ("traced", true, true, true);
    ("traced_per_insn", true, false, true) ]

let blocks_json (s : Fastpath.stats) =
  Json.Obj
    [ ("entries", Int s.blk_entries); ("hits", Int s.blk_hits);
      ("builds", Int s.blk_builds); ("insns", Int s.blk_insns);
      ("chain_follows", Int s.chain_follows); ("side_exits", Int s.side_exits);
      ("folds", Int s.folds); ("depth_max", Int s.depth_max);
      ("retrains", Int s.retrains);
      ("avg_block_len", Num (Fastpath.avg_block_len s)) ]

let () =
  let kit = Benchkit.init "throughput" in
  let iters = if kit.smoke then 5_000 else 100_000 in
  let workload name =
    (* Warm the OCaml heap/code paths once before timing. *)
    ignore (run_once ~traced:false ~fast:true ~blocks:true ~iters:1_000 name);
    let runs =
      Array.init Benchkit.reps (fun _ ->
          List.map
            (fun (_, fast, blocks, traced) ->
              run_once ~traced ~fast ~blocks ~iters name)
            engines)
    in
    let seconds e = Array.map (fun rs -> (List.nth rs e).seconds) runs in
    let ratio slow fast = Array.map2 ( /. ) (seconds slow) (seconds fast) in
    let fast = List.hd runs.(0) in
    let mips e =
      Array.map (fun s -> float_of_int fast.insns /. s /. 1e6) (seconds e)
    in
    let med e = Benchkit.median (mips e) in
    let speedup = ratio 2 0 and block_speedup = ratio 1 0 in
    let traced_block_speedup = ratio 4 3 in
    Printf.printf
      "%-8s %9d insns   fast %7.2f MIPS   per-insn %7.2f   slow %7.2f   \
       traced %7.2f   traced per-insn %7.2f\n"
      name fast.insns (med 0) (med 1) (med 2) (med 3) (med 4);
    Printf.printf
      "         speedup %.2fx, %.2fx over per-insn, traced %.2fx (medians \
       of %d)   %.1f insns/block   %d side exits\n%!"
      (Benchkit.median speedup) (Benchkit.median block_speedup)
      (Benchkit.median traced_block_speedup) Benchkit.reps
      (Fastpath.avg_block_len fast.blk) fast.blk.side_exits;
    ( name,
      Json.Obj
        [ ("insns", Int fast.insns); ("cycles", Int fast.cycles);
          ("blocks", blocks_json fast.blk);
          ("mips",
           Obj (List.mapi (fun e (n, _, _, _) -> (n, Benchkit.stats (mips e)))
                  engines));
          ("speedup", Benchkit.stats speedup);
          ("block_speedup", Benchkit.stats block_speedup);
          ("traced_block_speedup", Benchkit.stats traced_block_speedup) ] )
  in
  let results = List.map workload Microbench.names in
  let checks =
    List.concat_map
      (fun (name, r) ->
        let p k = Printf.sprintf "workloads.%s.%s" name k in
        let nginx =
          if name <> "nginx" then []
          else
            let f k = Json.to_float (Json.path k r) in
            Benchkit.at_least "nginx avg_block_len"
              (f "blocks.avg_block_len") 10.
            :: (if kit.smoke then []
                else
                  [ Benchkit.at_least "nginx median block_speedup"
                      (f "block_speedup.median") 1.5 ])
        in
        [ Benchkit.Same (p "insns"); Same (p "cycles"); Same (p "blocks");
          Ratio (p "speedup"); Ratio (p "block_speedup") ]
        @ nginx)
      results
  in
  Benchkit.finish kit
    [ ("iters", Int iters); ("workloads", Obj results) ]
    checks
