(* The four workloads. Each one is chosen to put most of its host time
   in a layer the others barely touch (see lzbench/README.md):

   - user-compute: Microbench aes/mysql/nginx on the block engine —
     Fastpath/Core block execution and the TLB fronts, nothing else;
   - zone-switch: the Table 5 TTBR program at 128 gate-attached
     domains — Gate, ASID-tagged TLB and MMU walks, short blocks, GC;
   - tenant-churn: 4096 resident zones behind the Lowvisor, one
     connection per op — lz_alloc/lz_free, gate re-pointing, traps,
     nested forwarding and ASID generation rollover;
   - fleet-fork: forks of one warm zone-switch image — Snapshot, Phys
     copy-on-write and cold block formation.

   A workload's [setup] builds the machine, runs a warm-up pass so
   demand paging and caches settle, then a reference pass of fixed
   size whose simulated insns, cycles and architectural digest are
   compared against lzbench/expected.ml. Its [step] runs one sample of
   timed operations and checks each one outside the timed span. *)

module Core = Lz_cpu.Core
module Fastpath = Lz_cpu.Fastpath
module Tlb = Lz_mem.Tlb
module Phys = Lz_mem.Phys
module Pmu = Lz_arm.Pmu
module Insn = Lz_arm.Insn
module Microbench = Lz_workloads.Microbench
module Sb = Lz_eval.Switch_bench
module Snapshot = Lz_snap.Snapshot
open Lz_kernel
open Lightzone

type size = Full | Tiny

let cost = Lz_cpu.Cost_model.cortex_a55

type reference = { ops : int; insns : int; cycles : int; digest : string }

(* What one run collects: a CPU time, op count and simulated insn
   count per timed sample, and the ops attempted and failed. *)
type ctx = {
  spans : Spans.t;
  dt : Measure.Buf.t;
  ops : Measure.Buf.t;
  insns : Measure.Buf.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first, at most 8 *)
}

let create_ctx spans =
  { spans; dt = Measure.Buf.create (); ops = Measure.Buf.create ();
    insns = Measure.Buf.create (); attempted = 0; failed = 0; errors = [] }

let fail ctx ~ops msg =
  ctx.failed <- ctx.failed + ops;
  if List.length ctx.errors < 8 then ctx.errors <- msg :: ctx.errors

let record ctx ~dt ~ops ~insns =
  Measure.Buf.add ctx.dt dt;
  Measure.Buf.add ctx.ops (float_of_int ops);
  Measure.Buf.add ctx.insns (float_of_int insns)

type instance = {
  reference : reference;
  ops_per_step : int;
  step : ctx -> unit;
  counters : unit -> (string * int) list;
      (** cumulative layer counters; the traced run reports deltas
          ([store_slots] is a level, reported as its final value). *)
}

type t = {
  name : string;
  seeded : bool;  (** whether [--seed] drives the inputs *)
  setup : size -> seed:int -> Spans.t -> instance;
}

let fail_outcome what o =
  failwith (Format.asprintf "%s: %a" what Kmod.pp_outcome o)

(* Counters of one core and its TLB. *)
let core_counters (core : Core.t) =
  let s = Fastpath.stats core.Core.fp in
  [ ("blk_entries", s.Fastpath.blk_entries); ("blk_hits", s.Fastpath.blk_hits);
    ("blk_builds", s.Fastpath.blk_builds); ("blk_insns", s.Fastpath.blk_insns);
    ("chain_follows", s.Fastpath.chain_follows);
    ("side_exits", s.Fastpath.side_exits);
    ("tlb_hits", Tlb.hits core.Core.tlb);
    ("tlb_misses", Tlb.misses core.Core.tlb) ]

let zone_counters (t : Kmod.t) =
  core_counters t.Kmod.core
  @ [ ("traps", t.Kmod.traps); ("fault_traps", t.Kmod.fault_traps);
      ("forwards",
       match t.Kmod.backend with
       | Kmod.Guest lv -> lv.Lowvisor.forwards
       | Kmod.Host -> 0);
      ("rollovers", Asid_alloc.rollovers t.Kmod.asids);
      ("recycled", Asid_alloc.recycled t.Kmod.asids) ]

let phys_counters phys =
  let st = Phys.stats phys in
  [ ("unshares", st.Phys.unshares); ("store_slots", st.Phys.store_slots) ]

let sum_counters l =
  List.fold_left
    (fun acc c ->
      List.map2 (fun (k, a) (k', b) -> assert (k = k'); (k, a + b)) acc c)
    (List.hd l) (List.tl l)

(* [len] values in [0, block): consecutive shuffles of 0..block-1.
   Every seed then draws each value equally often, so a seed changes
   the order of the work but not its mix. *)
let shuffled_blocks prng ~len ~block =
  let a = Array.init len (fun i -> i mod block) in
  let lo = ref 0 in
  while !lo < len do
    let hi = min len (!lo + block) in
    for i = hi - 1 downto !lo + 1 do
      let j = !lo + Random.State.int prng (i - !lo + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    lo := hi
  done;
  a

(* ------------------------------------------------------------------ *)
(* user-compute *)

module User_compute = struct
  type prog = {
    env : Microbench.env;
    pmu : Pmu.t;
    c0 : int;
    i0 : int;
    mutable run_insns : int;  (** per run, from the reference round *)
    mutable run_cycles : int;
  }

  (* INST_RETIRED and CPU_CYCLES onto PMU counters, as
     bench/throughput.ml does, so every run can cross-check the PMU
     model against the core's own totals. *)
  let arm_pmu core =
    let p = Core.attach_pmu core in
    let cycles = core.Core.cycles and insns = core.Core.insns in
    Pmu.write_evtyper p ~cycles ~insns 0 Pmu.Event.inst_retired;
    Pmu.write_evtyper p ~cycles ~insns 1 Pmu.Event.cpu_cycles;
    Pmu.write_cntenset p ~cycles ~insns ((1 lsl Pmu.cycle_counter_bit) lor 0b11);
    Pmu.write_pmcr p ~cycles ~insns 0b1;
    p

  let build name ~iters =
    let env = Microbench.build ~fast:true ~blocks:true ~iters name in
    let core = env.Microbench.core in
    let pmu = arm_pmu core in
    { env; pmu; c0 = core.Core.cycles; i0 = core.Core.insns; run_insns = 0;
      run_cycles = 0 }

  let mask32 = 0xFFFF_FFFF

  let pmu_mismatch p =
    let core = p.env.Microbench.core in
    let cycles = core.Core.cycles and insns = core.Core.insns in
    let ev_insns = Pmu.read_evcntr p.pmu ~cycles ~insns 0 in
    let ev_cycles = Pmu.read_evcntr p.pmu ~cycles ~insns 1 in
    let ccntr = Pmu.read_ccntr p.pmu ~cycles in
    ev_insns <> (insns - p.i0) land mask32
    || ev_cycles <> (cycles - p.c0) land mask32
    || ccntr <> cycles - p.c0

  (* One run to BRK, then ERET and rewind so the next run re-executes
     the same program on warm caches. *)
  let run_once sp p =
    let core = p.env.Microbench.core in
    Spans.enter sp Spans.Core_run;
    let stop = Core.run ~max_insns:max_int core in
    Spans.leave sp;
    (match stop with
    | Core.Trap_el1 (Core.Ec_brk _) -> ()
    | s -> Format.kasprintf failwith "user-compute: stop %a" Core.pp_stop s);
    Core.eret_from_el1 core;
    core.Core.pc <- Microbench.code_va

  let digest progs =
    let b = Buffer.create 65536 in
    List.iter
      (fun p ->
        let core = p.env.Microbench.core in
        Array.iter (fun v -> Buffer.add_string b (string_of_int v ^ ","))
          core.Core.regs;
        Buffer.add_string b (Printf.sprintf "pc=%x;" core.Core.pc);
        List.iter
          (fun pa -> Buffer.add_bytes b (Phys.read_bytes core.Core.phys pa 4096))
          p.env.Microbench.data_pas)
      progs;
    Digest.to_hex (Digest.string (Buffer.contents b))

  let setup size ~seed:_ sp =
    let iters = match size with Full -> 1024 | Tiny -> 128 in
    let progs = List.map (build ~iters) Microbench.names in
    List.iter (run_once sp) progs;
    List.iter
      (fun p ->
        let core = p.env.Microbench.core in
        let i = core.Core.insns and c = core.Core.cycles in
        run_once sp p;
        p.run_insns <- core.Core.insns - i;
        p.run_cycles <- core.Core.cycles - c)
      progs;
    let sum f = List.fold_left (fun acc p -> acc + f p) 0 progs in
    let ops = 3 * iters in
    let reference =
      { ops; insns = sum (fun p -> p.run_insns);
        cycles = sum (fun p -> p.run_cycles); digest = digest progs }
    in
    let step ctx =
      let sp = ctx.spans in
      let dt = ref 0. and bad = ref 0 in
      List.iter
        (fun p ->
          let core = p.env.Microbench.core in
          let i = core.Core.insns and c = core.Core.cycles in
          Spans.enter sp Spans.Op;
          let t0 = Measure.cpu () in
          run_once sp p;
          dt := !dt +. (Measure.cpu () -. t0);
          Spans.leave sp;
          if core.Core.insns - i <> p.run_insns
             || core.Core.cycles - c <> p.run_cycles
             || pmu_mismatch p
          then incr bad)
        progs;
      if !bad > 0 then
        fail ctx ~ops:(!bad * iters)
          "user-compute: insns, cycles or PMU counters diverged from the \
           reference run"
      else record ctx ~dt:!dt ~ops ~insns:reference.insns
    in
    let counters () =
      sum_counters (List.map (fun p -> core_counters p.env.Microbench.core) progs)
      @ phys_counters (List.hd progs).env.Microbench.core.Core.phys
    in
    { reference; ops_per_step = ops; step; counters }
end

(* ------------------------------------------------------------------ *)
(* The Table 5 TTBR program, shared by zone-switch and fleet-fork.

   The layout matches Lz_eval.Switch_bench (so its [zone_digest]
   applies); the program is built here because Switch_bench draws its
   domain sequence from a fixed PRNG seed, and this one comes from
   [--seed]. *)

module Switch_prog = struct
  let code_va = 0x400000
  let funcs_va = 0x420000
  let arr_va = 0x500000
  let domains_va = 0x600000
  let stack_va = 0x7F0000000000
  let func_stride_insns = 16

  (* x19 = index array, x20 = i, x21 = end, x22 = function base; the
     host sets x20 and x21 before each slice. Each iteration loads the
     next domain index and calls that domain's access function, which
     switches through its gate, loads from the domain's page and
     returns. *)
  let program ~domains =
    let b = Builder.create ~base:code_va in
    Builder.mov_imm64 b 19 arr_va;
    Builder.mov_imm64 b 22 funcs_va;
    let loop = Builder.here b in
    Builder.emit b
      [ Insn.Lsl_imm (23, 20, 3); Insn.Ldr_reg (0, 19, 23);
        Insn.Lsl_imm (0, 0, 6); Insn.Add (0, 22, Insn.Reg 0); Insn.Blr 0;
        Insn.Add (20, 20, Insn.Imm 1); Insn.Subs (31, 20, Insn.Reg 21) ];
    Builder.emit b [ Insn.Bcond (Insn.NE, loop - Builder.here b) ];
    Builder.emit b [ Insn.Brk 0 ];
    while Builder.here b < funcs_va do
      Builder.emit b [ Insn.Nop ]
    done;
    for d = 0 to domains - 1 do
      let start = Builder.here b in
      Builder.emit b [ Insn.Mov_reg (24, 30) ];
      Builder.switch_gate b ~gate:d;
      Builder.mov_imm64 b 0 (domains_va + (d * 4096));
      Builder.emit b [ Insn.Ldr (1, 0, 0); Insn.Mov_reg (30, 24); Insn.Ret 30 ];
      while Builder.here b - start < 4 * func_stride_insns do
        Builder.emit b [ Insn.Nop ]
      done
    done;
    b

  (* A Host-backed LightZone process with [domains] gate-attached
     zones, one protected page each, and the domain sequence [order]
     in its index array. Nothing has run yet. *)
  let build sp ~domains ~order =
    let n = Array.length order in
    let machine = Machine.create ~cost () in
    let kernel = Kernel.create machine Kernel.Host_vhe in
    let proc = Kernel.create_process kernel in
    ignore
      (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000 Vma.rw);
    ignore (Kernel.map_anon kernel proc ~at:arr_va ~len:(8 * n) Vma.rw);
    ignore
      (Kernel.map_anon kernel proc ~at:domains_va ~len:(domains * 4096) Vma.rw);
    let idx = Bytes.create (8 * n) in
    Array.iteri (fun i d -> Bytes.set_int64_le idx (8 * i) (Int64.of_int d)) order;
    Kernel.write_user kernel proc ~va:arr_va idx;
    let t =
      Api.lz_enter ~backend:Kmod.Host ~allow_scalable:true ~insn_san:1
        ~entry:code_va ~sp:stack_va kernel proc
    in
    for d = 0 to domains - 1 do
      let pgt = Spans.span sp Spans.Lz_alloc (fun () -> Api.lz_alloc t) in
      Spans.span sp Spans.Lz_map_gate_pgt (fun () ->
          Api.lz_map_gate_pgt t ~pgt ~gate:d);
      Spans.span sp Spans.Lz_prot (fun () ->
          Api.lz_prot t ~addr:(domains_va + (d * 4096)) ~len:4096 ~pgt
            ~perm:(Perm.read lor Perm.write))
    done;
    Api.load_and_register t (program ~domains) ~va:code_va;
    t

  (* The exit BRK parks the core at EL2: ERET back to EL1 and rewind
     to the entry point, so the next slice reruns the same image. *)
  let rewind (t : Kmod.t) =
    Core.eret_from_el2 t.Kmod.core;
    t.Kmod.proc.Proc.exit_code <- None;
    t.Kmod.core.Core.pc <- code_va

  (* Switches [lo, hi) of the domain sequence, then rewind. *)
  let slice sp (t : Kmod.t) ~lo ~hi =
    Core.set_reg t.Kmod.core 20 lo;
    Core.set_reg t.Kmod.core 21 hi;
    Spans.enter sp Spans.Api_run;
    let o = Api.run ~max_insns:200_000_000 t in
    Spans.leave sp;
    match o with
    | Kmod.Exited _ -> rewind t
    | o -> fail_outcome "switch slice" o
end

(* ------------------------------------------------------------------ *)
(* zone-switch *)

module Zone_switch = struct
  (* The domain sequence is uniform over the domains, as in Table 5,
     and long enough that its per-switch cost varies little between
     seeds; each slice runs the next [slice] switches of it, so
     samples are short enough for a per-op tail. *)
  let setup size ~seed sp =
    let domains, len, slice =
      match size with Full -> (128, 16384, 512) | Tiny -> (8, 1024, 128)
    in
    let prng = Random.State.make [| 0x5a17; seed |] in
    let order = Array.init len (fun _ -> Random.State.int prng domains) in
    let t = Switch_prog.build sp ~domains ~order in
    let core = t.Kmod.core in
    let next = ref 0 in
    let run_slice sp =
      let lo = !next in
      next := (lo + slice) mod len;
      Switch_prog.slice sp t ~lo ~hi:(lo + slice)
    in
    let pass () =
      for _ = 1 to len / slice do
        run_slice sp
      done
    in
    pass ();
    let i0 = core.Core.insns and c0 = core.Core.cycles in
    pass ();
    let reference =
      { ops = len; insns = core.Core.insns - i0;
        cycles = core.Core.cycles - c0; digest = Sb.zone_digest t }
    in
    let step ctx =
      let sp = ctx.spans in
      let i = core.Core.insns and hi = !next + slice in
      Spans.enter sp Spans.Op;
      let t0 = Measure.cpu () in
      run_slice sp;
      let dt = Measure.cpu () -. t0 in
      Spans.leave sp;
      (* After warm-up the program still takes an occasional fault
         trap (one per 16k-50k switches in traced runs), so a slice's
         insn count varies by the few the handler path retires; each
         slice is checked for completing its switches, and the
         reference pass pins the exact counts. *)
      if Core.reg core 20 <> hi then
        fail ctx ~ops:slice "zone-switch: slice did not complete its switches"
      else record ctx ~dt ~ops:slice ~insns:(core.Core.insns - i)
    in
    let counters () =
      zone_counters t @ phys_counters t.Kmod.machine.Machine.phys
    in
    { reference; ops_per_step = slice; step; counters }
end

(* ------------------------------------------------------------------ *)
(* tenant-churn *)

module Tenant_churn = struct
  (* The serve image shares Switch_prog's entry point, so its rewind
     applies, and its protected page sits at Switch_bench's domain
     base, so zone_digest reads it. *)
  let code_va = Switch_prog.code_va
  let serve_va = Switch_prog.domains_va
  let stack_va = Switch_prog.stack_va

  (* x21 = request count. Each request switches through gate 1 into
     the connection's zone, stores and reloads its protected page, and
     switches back through gate 0. *)
  let program () =
    let b = Builder.create ~base:code_va in
    let loop = Builder.here b in
    Builder.switch_gate b ~gate:1;
    Builder.mov_imm64 b 0 serve_va;
    Builder.emit b
      [ Insn.Movz (1, 0xAB, 0); Insn.Str (1, 0, 0); Insn.Ldr (2, 0, 0) ];
    Builder.switch_gate b ~gate:0;
    Builder.emit b [ Insn.Subs (21, 21, Insn.Imm 1) ];
    Builder.emit b [ Insn.Bcond (Insn.NE, loop - Builder.here b) ];
    Builder.emit b [ Insn.Brk 0 ];
    b

  let setup size ~seed sp =
    let zones, asid_bits, ref_conns =
      match size with Full -> (4096, 13, 512) | Tiny -> (64, 7, 32)
    in
    let machine = Machine.create ~cost () in
    let hyp = Lz_hyp.Hypervisor.create machine in
    let vm = Lz_hyp.Hypervisor.create_vm hyp in
    let kernel = Lz_hyp.Hypervisor.make_guest_kernel hyp vm in
    let lv = Lowvisor.create hyp vm in
    let proc = Kernel.create_process kernel in
    ignore
      (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000 Vma.rw);
    ignore (Kernel.map_anon kernel proc ~at:serve_va ~len:0x1000 Vma.rw);
    let t =
      Kmod.enter ~backend:(Kmod.Guest lv) ~asid_bits ~allow_scalable:true
        ~san_mode:Sanitizer.Ttbr_mode ~vmid:0x400 ~entry:code_va ~sp:stack_va
        kernel proc
    in
    let core = t.Kmod.core in
    for _ = 1 to zones do
      ignore (Spans.span sp Spans.Lz_alloc (fun () -> Api.lz_alloc t))
    done;
    Api.lz_map_gate_pgt t ~pgt:0 ~gate:0;
    Api.load_and_register t (program ()) ~va:code_va;
    (* Requests per connection: 1..16, each block of 16 connections a
       shuffle drawn from the seed. *)
    let prng = Random.State.make [| 0x7e4a; seed |] in
    let requests = shuffled_blocks prng ~len:4096 ~block:16 in
    let next = ref 0 in
    let requests () =
      next := (!next + 1) land 4095;
      1 + requests.(!next)
    in
    (* One connection: allocate a zone, point gate 1 at it, grant it
       the protected page, serve the requests, free it. x2 is cleared
       first, so the reload the check reads is this connection's. *)
    let connection sp =
      Spans.enter sp Spans.Lz_alloc;
      let id = Api.lz_alloc t in
      Spans.leave sp;
      Spans.enter sp Spans.Lz_map_gate_pgt;
      Api.lz_map_gate_pgt t ~pgt:id ~gate:1;
      Spans.leave sp;
      Spans.enter sp Spans.Lz_prot;
      Api.lz_prot t ~addr:serve_va ~len:4096 ~pgt:id
        ~perm:(Perm.read lor Perm.write);
      Spans.leave sp;
      Core.set_reg core 21 (requests ());
      Core.set_reg core 2 0;
      Spans.enter sp Spans.Api_run;
      let o = Api.run ~max_insns:200_000_000 t in
      Spans.leave sp;
      (match o with
      | Kmod.Exited _ -> Switch_prog.rewind t
      | o -> fail_outcome "tenant-churn connection" o);
      Spans.enter sp Spans.Lz_free;
      Api.lz_free t id;
      Spans.leave sp;
      id
    in
    (* Freed ids recycle LIFO, so every connection gets the first's id. *)
    let first_id = connection sp in
    let clean id =
      id = first_id && Core.reg core 21 = 0 && Core.reg core 2 = 0xAB
    in
    let i0 = core.Core.insns and c0 = core.Core.cycles in
    for _ = 1 to ref_conns do
      if not (clean (connection sp)) then
        failwith "tenant-churn: reference connection did not exit cleanly"
    done;
    let reference =
      { ops = ref_conns; insns = core.Core.insns - i0;
        cycles = core.Core.cycles - c0;
        digest =
          Sb.zone_digest t
          ^ Printf.sprintf "/gen=%d" (Asid_alloc.generation t.Kmod.asids) }
    in
    let step ctx =
      let sp = ctx.spans in
      let i = core.Core.insns in
      Spans.enter sp Spans.Op;
      let t0 = Measure.cpu () in
      let id = connection sp in
      let dt = Measure.cpu () -. t0 in
      Spans.leave sp;
      if clean id then record ctx ~dt ~ops:1 ~insns:(core.Core.insns - i)
      else fail ctx ~ops:1 "tenant-churn: connection did not exit cleanly"
    in
    let counters () =
      zone_counters t @ phys_counters t.Kmod.machine.Machine.phys
    in
    { reference; ops_per_step = 1; step; counters }
end

(* ------------------------------------------------------------------ *)
(* fleet-fork *)

module Fleet_fork = struct
  let setup size ~seed sp =
    let domains, n, fleet =
      match size with Full -> (128, 256, 16) | Tiny -> (8, 64, 4)
    in
    (* Every fork runs the same slice; shuffled blocks keep its
       simulated cost nearly equal across seeds. *)
    let prng = Random.State.make [| 0x5a17; seed |] in
    let order = shuffled_blocks prng ~len:n ~block:domains in
    let src = Switch_prog.build sp ~domains ~order in
    Switch_prog.slice sp src ~lo:0 ~hi:n;
    let image = Spans.span sp Spans.Snap_capture (fun () -> Snapshot.capture src) in
    let phys = src.Kmod.machine.Machine.phys in
    (* Layer counters of retired forks accumulate here. *)
    let acc = ref (List.map (fun (k, _) -> (k, 0)) (zone_counters src)) in
    let dirty = ref 0 and forks = ref 0 in
    let account f before =
      acc :=
        List.map2 (fun (k, s) ((_, a), (_, b)) -> (k, s + b - a)) !acc
          (List.combine before (zone_counters f));
      dirty := !dirty + Snapshot.dirty_pages f image;
      incr forks
    in
    let slice sp (f : Kmod.t) = Switch_prog.slice sp f ~lo:0 ~hi:n in
    let f = Snapshot.fork src image in
    let core = f.Kmod.core in
    let i0 = core.Core.insns and c0 = core.Core.cycles in
    slice sp f;
    let reference =
      { ops = 1; insns = core.Core.insns - i0; cycles = core.Core.cycles - c0;
        digest = Sb.zone_digest f }
    in
    Snapshot.retire_fork f;
    (* One round: fork the fleet, run a slice on each fork, retire
       them. An op's time is its fork, slice and retire; digests and
       counters are read between the timed spans. *)
    let step ctx =
      let sp = ctx.spans in
      let dts = Array.make fleet 0. in
      let timed i f =
        Spans.enter sp Spans.Op;
        let t0 = Measure.cpu () in
        let r = f () in
        dts.(i) <- dts.(i) +. (Measure.cpu () -. t0);
        Spans.leave sp;
        r
      in
      let live =
        Array.init fleet (fun i ->
            timed i (fun () ->
                Spans.span sp Spans.Snap_fork (fun () -> Snapshot.fork src image)))
      in
      let ok =
        Array.mapi
          (fun i (f : Kmod.t) ->
            let core = f.Kmod.core in
            let before = zone_counters f in
            let i0 = core.Core.insns and c0 = core.Core.cycles in
            timed i (fun () -> slice sp f);
            let ok =
              core.Core.insns - i0 = reference.insns
              && core.Core.cycles - c0 = reference.cycles
              && Sb.zone_digest f = reference.digest
            in
            account f before;
            ok)
          live
      in
      Array.iteri
        (fun i f ->
          timed i (fun () ->
              Spans.span sp Spans.Snap_retire (fun () -> Snapshot.retire_fork f)))
        live;
      Array.iteri
        (fun i ok ->
          if ok then record ctx ~dt:dts.(i) ~ops:1 ~insns:reference.insns
          else fail ctx ~ops:1 "fleet-fork: fork diverged from the reference")
        ok
    in
    let counters () =
      !acc @ [ ("dirty_pages", !dirty); ("forks", !forks) ] @ phys_counters phys
    in
    { reference; ops_per_step = fleet; step; counters }
end

let all =
  [ { name = "user-compute"; seeded = false; setup = User_compute.setup };
    { name = "zone-switch"; seeded = true; setup = Zone_switch.setup };
    { name = "tenant-churn"; seeded = true; setup = Tenant_churn.setup };
    { name = "fleet-fork"; seeded = true; setup = Fleet_fork.setup } ]
