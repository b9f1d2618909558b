(* Tenant-scale connection-churn benchmark.

   Models a zone-per-tenant server: K long-lived tenant zones stay
   resident (their tables hold live ASIDs for the whole run) while
   connections churn — each connection allocates a zone, re-points a
   gate at it, serves a few request iterations through the gate
   (switch in, touch the connection's protected scratch page, switch
   back), and frees the zone. The allocator hands every connection a
   recycled pgt id and, once the churn has marched through the ASID
   space, recycled ASIDs under generation rollover — the paths this
   benchmark exists to keep honest at 4096+ resident zones.

   Sweeps K over 128 / 512 / 2048 / 4096 (smoke: 32 / 128 / 512 with
   a 10-bit ASID space so rollover still fires, and the top K is 16x
   the bottom so a per-switch cost that grows with K shows). The churn
   length is sized so every K crosses the ASID space at least once:
   connections = space - K + slack. Each K's churn is cut into
   repetitions that alternate between the machines, timed on process
   CPU time (host-side alloc/free included: that is what connection
   churn costs).

   Gates: each K's simulated insns, cycles per switch and allocator
   counters equal the baseline's; recycling and rollover fire at the
   top K; cycles per switch at the top K stay within 1.7x the bottom
   K's; the pgt id space stays dense; the per-insn switch path
   allocates nothing and the block engine's no more than the
   baseline's; the median top-K / bottom-K MIPS ratio stays within the
   band of the baseline's. MIPS itself is reported, not gated. *)

module Core = Lz_cpu.Core
open Lz_kernel
open Lightzone

let code_va = 0x400000
let serve_va = 0x600000
let stack_va = 0x7F0000000000

(* Serve loop: x21 = iteration countdown (set by the host before each
   slice). Each iteration switches through gate 1 into the
   connection's zone, stores and loads on the protected scratch page,
   and switches back through gate 0 to the default table — 2 gate
   passes per iteration. x17/x30 are the gate registers; x0..x2 are
   scratch. *)
let build_program () =
  let b = Builder.create ~base:code_va in
  let loop = Builder.here b in
  Builder.switch_gate b ~gate:1;
  Builder.mov_imm64 b 0 serve_va;
  Builder.emit b
    [ Lz_arm.Insn.Movz (1, 0xAB, 0); Lz_arm.Insn.Str (1, 0, 0);
      Lz_arm.Insn.Ldr (2, 0, 0) ];
  Builder.switch_gate b ~gate:0;
  Builder.emit b [ Lz_arm.Insn.Subs (21, 21, Lz_arm.Insn.Imm 1) ];
  Builder.emit b [ Lz_arm.Insn.Bcond (Lz_arm.Insn.NE, loop - Builder.here b) ];
  Builder.emit b [ Lz_arm.Insn.Brk 0 ];
  b

(* One brk-exit slice, then rewind to the loop head so the next
   connection reruns the same image (the Switch_bench warm-image
   idiom). *)
let rewind (t : Kmod.t) =
  Core.eret_from_el2 t.Kmod.core;
  t.Kmod.proc.Proc.exit_code <- None;
  t.Kmod.core.Core.pc <- code_va

let run_slice (t : Kmod.t) ~iters =
  Core.set_reg t.Kmod.core 21 iters;
  match Api.run ~max_insns:200_000_000 t with
  | Kmod.Exited _ -> rewind t
  | o -> failwith (Format.asprintf "scale: %a" Kmod.pp_outcome o)

(* Build a machine with [zones] resident tenants and the serve image
   loaded; gate 0 points back at the default table, gate 1 is
   re-pointed per connection. *)
let build ~zones ~asid_bits cm =
  let machine = Machine.create ~cost:cm () in
  let kernel = Kernel.create machine Kernel.Host_vhe in
  let proc = Kernel.create_process kernel in
  ignore (Kernel.map_anon kernel proc ~at:(stack_va - 0x10000) ~len:0x10000
            Vma.rw);
  ignore (Kernel.map_anon kernel proc ~at:serve_va ~len:0x1000 Vma.rw);
  let t =
    Kmod.enter ~asid_bits ~allow_scalable:true
      ~san_mode:Sanitizer.Ttbr_mode ~vmid:0x400 ~entry:code_va ~sp:stack_va
      kernel proc
  in
  for _ = 1 to zones do
    ignore (Api.lz_alloc t)
  done;
  Api.lz_map_gate_pgt t ~pgt:0 ~gate:0;
  Api.load_and_register t (build_program ()) ~va:code_va;
  t

(* One connection: allocate the tenant zone, point gate 1 at it,
   serve [iters] request iterations, free it. The pgt id recycles
   LIFO, so every connection after the first reuses the same id — and
   with it the scratch page's registry attachment. *)
let serve_connection t ~first_id ~iters =
  let id = Api.lz_alloc t in
  if first_id >= 0 && id <> first_id then
    failwith "scale: connection id did not recycle";
  Api.lz_map_gate_pgt t ~pgt:id ~gate:1;
  if first_id < 0 then
    Api.lz_prot t ~addr:serve_va ~len:4096 ~pgt:id
      ~perm:(Perm.read lor Perm.write);
  run_slice t ~iters;
  Api.lz_free t id;
  id

(* Minor words per switch on a warm zone (no churn — the connection
   stays allocated): the difference between two slices that differ
   only in switch count, so set-up cost cancels. The per-insn fast
   engine allocates nothing here. The block engine allocates on every
   block entry, not only when it forms a block: exec_block's closures
   and refs, the [Ok pa] box, the (block, bool) tuple, the Cblk/Csx
   boxes and the [Some] chain memos, ~35 words per entry. *)
let alloc_per_switch ~blocks ~asid_bits cm =
  let t = build ~zones:16 ~asid_bits cm in
  let core = t.Kmod.core in
  Core.set_fast core true;
  Core.set_blocks core blocks;
  let id = Api.lz_alloc t in
  Api.lz_map_gate_pgt t ~pgt:id ~gate:1;
  Api.lz_prot t ~addr:serve_va ~len:4096 ~pgt:id
    ~perm:(Perm.read lor Perm.write);
  run_slice t ~iters:64;
  (* warm: faults done *)
  let measure iters =
    let w0 = Gc.minor_words () in
    run_slice t ~iters;
    Gc.minor_words () -. w0
  in
  let n1 = 2_000 and n2 = 10_000 in
  let w1 = measure n1 in
  let w2 = measure n2 in
  (w2 -. w1) /. float_of_int (2 * (n2 - n1))


module Json = Benchkit.Json

(* A machine with [zones] residents and its churn, served in
   [Benchkit.reps] chunks. *)
type row = {
  zones : int;
  connections : int;
  t : Kmod.t;
  first_id : int;
  i0 : int;
  c0 : int;
  mips : float array;  (** per chunk *)
}

let () =
  let kit = Benchkit.init "scale" in
  (* The ASID space is sized to be crossed: big enough to park the
     largest K live, small enough that the churn reaches rollover at
     every K. *)
  let asid_bits = if kit.smoke then 10 else 13 in
  let space = (1 lsl asid_bits) - 1 in
  let sweep =
    if kit.smoke then [ 32; 128; 512 ] else [ 128; 512; 2048; 4096 ]
  in
  let slack = if kit.smoke then 64 else 512 in
  let iters = 8 in
  let cm = Lz_cpu.Cost_model.cortex_a55 in
  let rows =
    List.map
      (fun zones ->
        let t = build ~zones ~asid_bits cm in
        Core.set_fast t.Kmod.core true;
        Core.set_blocks t.Kmod.core true;
        (* Warm one connection outside the timed window: demand paging
           of the image, gate registration and the sanitizer scan are
           setup cost, not churn cost. *)
        let first_id = serve_connection t ~first_id:(-1) ~iters in
        { zones; connections = space - zones + slack; t; first_id;
          i0 = t.Kmod.core.Core.insns; c0 = t.Kmod.core.Core.cycles;
          mips = Array.make Benchkit.reps 0. })
      sweep
  in
  for r = 0 to Benchkit.reps - 1 do
    List.iter
      (fun row ->
        let chunk k = row.connections * k / Benchkit.reps in
        let core = row.t.Kmod.core in
        let i = core.Core.insns in
        let s =
          Benchkit.cpu_time (fun () ->
              for _ = chunk r + 1 to chunk (r + 1) do
                ignore (serve_connection row.t ~first_id:row.first_id ~iters)
              done)
        in
        row.mips.(r) <- float_of_int (core.Core.insns - i) /. s /. 1e6)
      rows
  done;
  let switches row = 2 * iters * row.connections in
  let cycles_per_switch row =
    float_of_int (row.t.Kmod.core.Core.cycles - row.c0)
    /. float_of_int (switches row)
  in
  let rollovers row = Asid_alloc.rollovers row.t.Kmod.asids in
  let recycled row = Asid_alloc.recycled row.t.Kmod.asids in
  let high_water row = Zone_tab.high_water row.t.Kmod.pgts in
  List.iter
    (fun row ->
      Benchkit.say kit
        "%4d zones   %5d conns   %6.2f MIPS   %6.1f cyc/switch   %d \
         rollovers   %d recycled   hw %d"
        row.zones row.connections (Benchkit.median row.mips)
        (cycles_per_switch row) (rollovers row) (recycled row)
        (high_water row))
    rows;
  let top = List.nth rows (List.length rows - 1) and bottom = List.hd rows in
  let top_bottom = Array.map2 ( /. ) top.mips bottom.mips in
  let per_insn = alloc_per_switch ~blocks:false ~asid_bits cm in
  let blocks = alloc_per_switch ~blocks:true ~asid_bits cm in
  Benchkit.say kit
    "top/bottom MIPS %.3f (median of %d); minor words per switch: %.4f \
     per-insn engine, %.1f block engine"
    (Benchkit.median top_bottom) Benchkit.reps per_insn blocks;
  let by_zones f =
    Json.Obj (List.map (fun r -> (string_of_int r.zones, f r)) rows)
  in
  Benchkit.finish kit
    [ ("asid_bits", Int asid_bits); ("serve_iters", Int iters);
      ("rows",
       by_zones (fun row ->
           Obj
             [ ("connections", Int row.connections);
               ("switches", Int (switches row));
               ("insns", Int (row.t.Kmod.core.Core.insns - row.i0));
               ("cycles_per_switch", Num (cycles_per_switch row));
               ("rollovers", Int (rollovers row));
               ("recycled", Int (recycled row));
               ("pgt_high_water", Int (high_water row)) ]));
      ("minor_words_per_switch",
       Obj [ ("per_insn", Num per_insn); ("blocks", Num blocks) ]);
      ("mips", by_zones (fun r -> Benchkit.stats r.mips));
      ("top_bottom_mips", Benchkit.stats top_bottom) ]
    [ Same "rows"; Not_above "minor_words_per_switch.blocks";
      Ratio "top_bottom_mips";
      Benchkit.at_least "ASIDs recycled at the top K"
        (float_of_int (recycled top)) 1.;
      Benchkit.at_least "rollovers at the top K"
        (float_of_int (rollovers top)) 1.;
      Benchkit.at_most "top/bottom K cycles per switch"
        (cycles_per_switch top /. cycles_per_switch bottom) 1.7;
      (* The connection's table recycles one id: the id space must not
         creep past residents + default + 1. *)
      Benchkit.at_most "top-K pgt high water over zones"
        (float_of_int (high_water top - top.zones)) 2.;
      Benchkit.at_most "per-insn minor words per switch" per_insn 0.01 ]
