(* Tests for lz_snap: CoW physical memory (fork isolation, dirty
   counts, shared/private accounting), whole-machine snapshot/restore
   exactness — the property that [snapshot → restore → run] is
   indistinguishable from an uninterrupted run in registers, memory,
   cycles, instructions and TLB statistics, with the superblock engine
   on and off and with the snapshot taken mid-preemption-slice — the
   replay regression: [Replay.replay_to] re-executes from periodic
   snapshots and reproduces the reference event ring byte-identically
   — and forking: forks that adopt the image's translations run
   exactly like cold forks, re-decode every frame whose bytes are not
   the image's, keep the zone tables they share with the image private
   once they change them, and give all their memory back when
   retired. *)

open Lz_arm
open Lz_mem
open Lz_cpu
open Lz_kernel
open Lightzone
module Snapshot = Lz_snap.Snapshot
module Trace = Lz_trace.Trace
module Sb = Lz_eval.Switch_bench

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let q = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Phys CoW unit tests *)

(* A second view sharing every frame of [p] as it is now. *)
let cow_clone p =
  let s = Phys.snapshot p in
  let c = Phys.of_snapshot p s in
  Phys.release p s;
  c

let test_phys_snapshot_restore () =
  let p = Phys.create () in
  let f1 = Phys.alloc_frame p and f2 = Phys.alloc_frame p in
  Phys.write64 p f1 0xAAAA;
  Phys.write64 p f2 0xBBBB;
  let s = Phys.snapshot p in
  check_int "clean after capture" 0 (Phys.dirty_pages p s);
  Phys.write64 p f1 0xCCCC;
  Phys.write64 p (f1 + 8) 0xDDDD;
  let f3 = Phys.alloc_frame p in
  Phys.write64 p f3 0xEEEE;
  check_int "two dirty frames" 2 (Phys.dirty_pages p s);
  let dirty = Phys.restore p s in
  check_int "restore reports dirty count" 2 dirty;
  check_int "f1 rewound" 0xAAAA (Phys.read64 p f1);
  check_int "f1+8 rewound" 0 (Phys.read64 p (f1 + 8));
  check_int "f2 untouched" 0xBBBB (Phys.read64 p f2);
  check_int "f3 back to hole" 0 (Phys.read64 p f3);
  (* Allocator state rewound too: the next frame is f3 again. *)
  check_int "allocator rewound" f3 (Phys.alloc_frame p);
  Phys.release p s

let test_phys_cow_fork_isolation () =
  let p = Phys.create () in
  let f = Phys.alloc_frame p in
  Phys.write64 p f 0x1111;
  let c = cow_clone p in
  check_int "clone reads shared frame" 0x1111 (Phys.read64 c f);
  Phys.write64 c f 0x2222;
  check_int "clone sees its write" 0x2222 (Phys.read64 c f);
  check_int "source unaffected" 0x1111 (Phys.read64 p f);
  Phys.write64 p f 0x3333;
  check_int "source write invisible to clone" 0x2222 (Phys.read64 c f);
  let st = Phys.stats p in
  check_bool "unshares happened" true (st.Phys.unshares >= 1)

let test_phys_stats_shared_private () =
  let p = Phys.create () in
  let f1 = Phys.alloc_frame p and f2 = Phys.alloc_frame p in
  Phys.write64 p f1 1;
  Phys.write64 p f2 2;
  let st = Phys.stats p in
  check_int "all private before clone" 0 st.Phys.shared;
  check_int "two resident" 2 st.Phys.resident;
  let c = cow_clone p in
  let st = Phys.stats p in
  check_int "all shared after clone" 2 st.Phys.shared;
  check_int "none private" 0 st.Phys.private_;
  Phys.write64 c f1 3;
  let st = Phys.stats p in
  check_int "one unshared" 1 st.Phys.shared;
  check_int "one private again" 1 st.Phys.private_

(* Satellite 1 regression: the 1-entry last-frame memo must not
   survive free_frame or a CoW unshare on the other side. *)
let test_phys_memo_invalidation () =
  let p = Phys.create () in
  let f = Phys.alloc_frame p in
  Phys.write64 p f 0x42;
  (* warm the memo on f *)
  check_int "warm" 0x42 (Phys.read64 p f);
  Phys.free_frame p f;
  check_int "freed frame reads zero" 0 (Phys.read64 p f);
  let f' = Phys.alloc_frame p in
  check_int "frame reused" f f';
  Phys.write64 p f' 0x43;
  (* Memo must not let a clone's writable base leak through a share. *)
  let c = cow_clone p in
  check_int "clone warm" 0x43 (Phys.read64 c f');
  Phys.write64 p f' 0x44;
  check_int "clone still sees old value" 0x43 (Phys.read64 c f');
  check_int "source sees new value" 0x44 (Phys.read64 p f')

(* ------------------------------------------------------------------ *)
(* Whole-machine snapshot/restore exactness *)

let cm = Cost_model.cortex_a55

type endstate = {
  digest : string;
  cycles : int;
  insns : int;
  tlb_hits : int;
  tlb_misses : int;
  output : string;
}

let endstate (z : Kmod.t) =
  {
    digest = Sb.zone_digest z;
    cycles = z.Kmod.core.Core.cycles;
    insns = z.Kmod.core.Core.insns;
    tlb_hits = Tlb.hits z.Kmod.machine.Lz_kernel.Machine.tlb;
    tlb_misses = Tlb.misses z.Kmod.machine.Lz_kernel.Machine.tlb;
    output = Buffer.contents z.Kmod.proc.Lz_kernel.Proc.output;
  }

(* Run a warm slice to completion, snapshotting at the [k]-th
   quiescent point along the way; then restore and re-run. Both
   completions must agree on every observable. *)
let snapshot_transparency ~blocks ~preempt ~domains ~n ~k () =
  let r = Sb.prepare ?preempt cm ~env:Sb.Host ~domains ~n in
  let z = r.Sb.t in
  Core.set_blocks z.Kmod.core blocks;
  let snap = ref None in
  let seen = ref 0 in
  z.Kmod.on_quiescent <-
    Some
      (fun () ->
        incr seen;
        if !seen = k && !snap = None then snap := Some (Snapshot.capture z));
  Sb.run_slice z;
  z.Kmod.on_quiescent <- None;
  let reference = endstate z in
  match !snap with
  | None ->
      (* Not enough quiescent points (cooperative short run): snapshot
         the rewound end state instead and check restore is exact. *)
      let s = Snapshot.capture z in
      ignore (Snapshot.restore z s);
      Snapshot.release z s;
      let got = endstate z in
      (reference, got)
  | Some s ->
      ignore (Snapshot.restore z s);
      Snapshot.release z s;
      Sb.run_slice z;
      let got = endstate z in
      (reference, got)

let check_endstates (a, b) =
  check_string "digest" a.digest b.digest;
  check_int "cycles" a.cycles b.cycles;
  check_int "insns" a.insns b.insns;
  check_int "tlb hits" a.tlb_hits b.tlb_hits;
  check_int "tlb misses" a.tlb_misses b.tlb_misses;
  check_string "output" a.output b.output

let test_snapshot_transparency_preempted () =
  check_endstates
    (snapshot_transparency ~blocks:true ~preempt:(Some 3000) ~domains:8
       ~n:400 ~k:3 ())

let test_snapshot_transparency_no_blocks () =
  check_endstates
    (snapshot_transparency ~blocks:false ~preempt:(Some 3000) ~domains:8
       ~n:400 ~k:3 ())

let test_snapshot_transparency_cooperative () =
  check_endstates
    (snapshot_transparency ~blocks:true ~preempt:None ~domains:4 ~n:100 ~k:1
       ())

let prop_snapshot_transparency =
  QCheck.Test.make ~count:12 ~name:"snapshot/restore/run == uninterrupted run"
    QCheck.(
      quad (int_range 1 8) (int_range 50 400) bool (int_range 1 6))
    (fun (domains, n, blocks, k) ->
      let slice = 1000 + (397 * k) in
      let a, b =
        snapshot_transparency ~blocks ~preempt:(Some slice) ~domains ~n ~k ()
      in
      a = b)

(* ------------------------------------------------------------------ *)
(* Forking *)

let test_fork_digest_identity () =
  let r = Sb.prepare cm ~env:Sb.Host ~domains:8 ~n:200 in
  let z = r.Sb.t in
  let image = Snapshot.capture z in
  let forks = List.init 4 (fun _ -> Snapshot.fork z image) in
  (* Forks must start from the image's architectural state... *)
  List.iter
    (fun f -> check_string "fork digest" (Sb.zone_digest z) (Sb.zone_digest f))
    forks;
  (* ...and running a slice on each must land where the source lands. *)
  Sb.run_slice z;
  let want = Sb.zone_digest z in
  List.iter
    (fun f ->
      Sb.run_slice f;
      check_string "fork slice digest" want (Sb.zone_digest f))
    forks;
  (* Forks are isolated: their writes never leak into the source. *)
  ignore (Snapshot.restore z image);
  check_int "source rewinds clean" 0 (Snapshot.dirty_pages z image);
  Snapshot.release z image

let test_fork_isolated_memory () =
  let r = Sb.prepare cm ~env:Sb.Host ~domains:2 ~n:50 in
  let z = r.Sb.t in
  let image = Snapshot.capture z in
  let f = Snapshot.fork z image in
  (* Write into the source's domain pages; the fork must not see it. *)
  let before = Sb.zone_digest f in
  Sb.run_slice z;
  check_string "fork unaffected by source run" before (Sb.zone_digest f);
  Snapshot.release z image

(* A snapshot, its source and the forks taken from it share the zone
   allocator, the ASID index and the fake-address tables until one of
   them changes its own: a change in one never shows in another. *)
let test_fork_zone_tables_private () =
  let r = Sb.prepare cm ~env:Sb.Host ~domains:4 ~n:50 in
  let z = r.Sb.t in
  let image = Snapshot.capture z in
  let assigned0 = Fake_phys.assigned z.Kmod.fake in
  let b = Snapshot.fork z image and c = Snapshot.fork z image in
  (* Fork c runs its slice first, as the reference for b. *)
  Sb.run_slice c;
  let want = Sb.zone_digest c in
  let a = Snapshot.fork z image in
  let alloc f =
    let id = Kmod.lz_alloc f in
    (id, Kmod.pgt_ttbr f id)
  in
  (* Fork a allocates a zone (a new ASID, new frames and new fake
     addresses, all its own) and frees one of the image's. *)
  let ia = alloc a in
  Kmod.lz_free a 1;
  check_bool "a assigned fake addresses" true
    (Fake_phys.assigned a.Kmod.fake > assigned0);
  check_int "b's fake tables untouched" assigned0
    (Fake_phys.assigned b.Kmod.fake);
  check_int "source's fake tables untouched" assigned0
    (Fake_phys.assigned z.Kmod.fake);
  (* Fork b runs exactly like c... *)
  Sb.run_slice b;
  check_string "b runs like c" want (Sb.zone_digest b);
  (* ...its fault path still resolves zone 1 (at 0x600000, Switch_bench's
     first domain page) from the ASID in TTBR0... *)
  Kmod.set_current_pgt b 1;
  Kmod.prefault b ~va:0x600000 ~access:Mmu.Read;
  check_bool "b resolves zone 1" true (b.Kmod.terminated = None);
  (* ...and, starting from the same allocator state as a, gets the same
     id, frames, fake root and ASID for its first new zone, as does the
     source. *)
  check_bool "b allocates what a did" true (alloc b = ia);
  check_bool "source allocates what a did" true (alloc z = ia);
  (* Restore rewinds the source's tables: the same allocation again. *)
  ignore (Snapshot.restore z image);
  check_int "restore rewinds fake tables" assigned0
    (Fake_phys.assigned z.Kmod.fake);
  check_bool "source allocates what a did after restore" true (alloc z = ia);
  (* A fork of a fork sees its parent's own assignments. *)
  let image_a = Snapshot.capture a in
  let a2 = Snapshot.fork a image_a in
  check_int "fork of a fork: fake tables" (Fake_phys.assigned a.Kmod.fake)
    (Fake_phys.assigned a2.Kmod.fake);
  check_int "fork of a fork: zone table" (snd ia)
    (Kmod.pgt_ttbr a2 (fst ia));
  Snapshot.release a image_a;
  Snapshot.release z image

(* ------------------------------------------------------------------ *)
(* Adopted translations *)

(* Architectural state after each of [slices] Table 5 slices. *)
let slice_states (f : Kmod.t) ~slices =
  List.init slices (fun _ ->
      Sb.run_slice f;
      let core = f.Kmod.core in
      ( Sb.zone_digest f,
        core.Core.cycles,
        core.Core.insns,
        Array.to_list core.Core.regs ))

(* A fork that adopts the warm source's translations must run exactly
   like a cold fork. The cold reference forks an image of the same
   state captured after [Core.set_fast] dropped the source's cache. *)
let adopted_matches_cold ~blocks () =
  let r = Sb.prepare cm ~env:Sb.Host ~domains:16 ~n:200 in
  let z = r.Sb.t in
  Core.set_blocks z.Kmod.core blocks;
  Sb.run_slice z;
  let warm = Snapshot.capture z in
  let adopted = Snapshot.fork z warm in
  Core.set_fast z.Kmod.core false;
  Core.set_fast z.Kmod.core true;
  Core.set_blocks z.Kmod.core blocks;
  let cold_image = Snapshot.capture z in
  let cold = Snapshot.fork z cold_image in
  let want = slice_states cold ~slices:3 in
  let got = slice_states adopted ~slices:3 in
  List.iteri
    (fun i ((d, c, n, regs), (d', c', n', regs')) ->
      let what = Printf.sprintf "slice %d " i in
      check_string (what ^ "digest") d d';
      check_int (what ^ "cycles") c c';
      check_int (what ^ "insns") n n';
      check_bool (what ^ "registers") true (regs = regs'))
    (List.combine want got);
  let a = Fastpath.stats adopted.Kmod.core.Core.fp
  and c = Fastpath.stats cold.Kmod.core.Core.fp in
  check_int "cold fork clones nothing" 0 c.Fastpath.blk_clones;
  if blocks then begin
    check_bool "adopted fork clones blocks" true (a.Fastpath.blk_clones > 0);
    check_bool "adopted fork builds fewer blocks" true
      (a.Fastpath.blk_builds < c.Fastpath.blk_builds)
  end;
  List.iter Snapshot.retire_fork [ adopted; cold ];
  Snapshot.release z warm;
  Snapshot.release z cold_image

(* Switch_bench's first domain data page. *)
let domain_va = 0x600000

(* A tiny program in a scratch rwx mapping of the zone's process: it
   loads [k] into x9 and exits through BRK. *)
let scratch_va = 0x700000

let map_scratch (z : Kmod.t) =
  ignore
    (Kernel.map_anon z.Kmod.kernel z.Kmod.proc ~at:scratch_va ~len:0x4000
       Vma.rwx)

let install (z : Kmod.t) k =
  let words = [ Insn.Movz (9, k, 0); Insn.Brk 0 ] in
  let b = Bytes.create (4 * List.length words) in
  List.iteri
    (fun i w -> Bytes.set_int32_le b (4 * i) (Int32.of_int (Encoding.encode w)))
    words;
  Kernel.write_user z.Kmod.kernel z.Kmod.proc ~va:scratch_va b

(* Run the scratch program from its start; x9 afterwards. *)
let run_scratch (z : Kmod.t) =
  let core = z.Kmod.core in
  core.Core.pc <- scratch_va;
  Core.set_reg core 9 0;
  (match Kmod.run ~max_insns:10_000 z with
  | Kmod.Exited _ -> ()
  | o -> Alcotest.failf "scratch run: %a" Kmod.pp_outcome o);
  Core.eret_from_el2 core;
  z.Kmod.proc.Proc.exit_code <- None;
  Core.reg core 9

(* A warm source whose scratch page holds the program for [k] and has
   run it, so its caches hold that page: blocks and decoded words, or
   decoded words only. *)
let scratch_source ~blocks k =
  let r = Sb.prepare cm ~env:Sb.Host ~domains:2 ~n:20 in
  let z = r.Sb.t in
  Core.set_blocks z.Kmod.core blocks;
  map_scratch z;
  install z k;
  check_int "source runs its program" k (run_scratch z);
  z

(* The source patches and runs its code after capture, then forks:
   the image must not carry the patched decode, which the source's
   caches hold at a current generation. *)
let test_fork_after_source_patch ~blocks () =
  let z = scratch_source ~blocks 1 in
  let image = Snapshot.capture z in
  install z 2;
  check_int "source runs the patch" 2 (run_scratch z);
  let f = Snapshot.fork z image in
  check_int "fork runs the image's bytes" 1 (run_scratch f);
  Snapshot.retire_fork f;
  Snapshot.release z image

(* Sibling forks share one image: a patch on fork A must stay A's. *)
let test_sibling_patch_isolated ~blocks () =
  let z = scratch_source ~blocks 1 in
  let image = Snapshot.capture z in
  let a = Snapshot.fork z image in
  check_int "fork A runs the image" 1 (run_scratch a);
  if blocks then
    check_bool "fork A adopted the page" true
      ((Fastpath.stats a.Kmod.core.Core.fp).Fastpath.blk_clones > 0);
  install a 2;
  check_int "fork A runs its patch" 2 (run_scratch a);
  let b = Snapshot.fork z image in
  check_int "fork B runs the original" 1 (run_scratch b);
  List.iter Snapshot.retire_fork [ a; b ];
  Snapshot.release z image

(* Freeing a code frame and getting the same frame number back gives
   it new bytes in a new slot: the fork must decode them. *)
let test_fork_reallocated_frame ~blocks () =
  let z = scratch_source ~blocks 1 in
  let image = Snapshot.capture z in
  let f = Snapshot.fork z image in
  check_int "fork runs the image" 1 (run_scratch f);
  let phys = f.Kmod.machine.Machine.phys in
  let pa =
    match Stage1.walk phys ~root:f.Kmod.proc.Proc.root ~va:scratch_va with
    | Ok w -> Bits.align_down w.Stage1.pa Phys.page_size
    | Error _ -> Alcotest.fail "scratch page unmapped"
  in
  Phys.free_frame phys pa;
  check_int "same frame back" pa (Phys.alloc_frame phys);
  Phys.write32 phys pa (Encoding.encode (Insn.Movz (9, 3, 0)));
  Phys.write32 phys (pa + 4) (Encoding.encode (Insn.Brk 0));
  check_int "fork runs the new bytes" 3 (run_scratch f);
  Snapshot.retire_fork f;
  Snapshot.release z image

(* Retiring a fork gives back every slot it holds: a fork-per-request
   fleet keeps the store flat. The handle is dead afterwards. *)
let test_retire_keeps_store_flat () =
  let r = Sb.prepare cm ~env:Sb.Host ~domains:4 ~n:20 in
  let z = r.Sb.t in
  let image = Snapshot.capture z in
  let phys = z.Kmod.machine.Machine.phys in
  let slots () = (Phys.stats phys).Phys.store_slots in
  (* Each round also writes a domain page, so the fork holds a private
     slot of its own when it is retired. *)
  let held = ref 0 in
  let round () =
    let f = Snapshot.fork z image in
    Sb.run_slice f;
    Kernel.write_user f.Kmod.kernel f.Kmod.proc ~va:domain_va
      (Bytes.make 8 '\x5a');
    held := slots ();
    Snapshot.retire_fork f;
    f
  in
  let base = slots () in
  for _ = 1 to 499 do
    ignore (round ())
  done;
  let f = round () in
  check_bool "the fork held private slots" true (!held > base);
  check_int "store slots after 500 rounds" base (slots ());
  check_bool "retired fork view disposed" true
    (Phys.disposed f.Kmod.machine.Machine.phys);
  check_bool "retired fork does not run" true
    (match Kmod.run ~max_insns:100 f with
    | Kmod.Terminated _ -> true
    | _ -> false);
  Alcotest.check_raises "second retire"
    (Invalid_argument "Snapshot.retire_fork: fork already retired")
    (fun () -> Snapshot.retire_fork f);
  Snapshot.release z image

(* ------------------------------------------------------------------ *)
(* Replay *)

let test_replay_byte_identical () =
  let tr = Trace.create () in
  let r = Sb.prepare ~preempt:3000 cm ~env:Sb.Host ~domains:8 ~n:400 in
  let z = r.Sb.t in
  (* The tracer was not attached during prepare; attach now so the
     reference slice is fully traced. *)
  Api.set_tracer z (Some tr);
  let rec_ = Snapshot.Replay.record ~every:2 z in
  Sb.run_slice z;
  Snapshot.Replay.detach rec_;
  let reference = Trace.events tr in
  let by_seq = Hashtbl.create 1024 in
  List.iter
    (fun e -> Hashtbl.replace by_seq e.Trace.seq (Trace.event_to_json e))
    reference;
  let snaps = Snapshot.Replay.snapshots rec_ in
  check_bool "periodic snapshots were taken" true (List.length snaps >= 2);
  List.iter
    (fun (at, _) ->
      let index = min (Trace.total tr - 1) (at + 40) in
      if index >= at then begin
        let replayed = Snapshot.Replay.replay_to rec_ ~index in
        check_bool "replay produced events" true (replayed <> []);
        List.iter
          (fun e ->
            match Hashtbl.find_opt by_seq e.Trace.seq with
            | Some json ->
                check_string
                  (Printf.sprintf "replayed event #%d" e.Trace.seq)
                  json (Trace.event_to_json e)
            | None -> ())
          replayed
      end)
    snaps;
  (* Replay must be side-effect-free on the reference timeline. *)
  let after = Trace.events tr in
  check_int "reference ring untouched" (List.length reference)
    (List.length after);
  Snapshot.Replay.release_all rec_

let suite =
  [
    ( "phys-cow",
      [
        Alcotest.test_case "snapshot/restore" `Quick
          test_phys_snapshot_restore;
        Alcotest.test_case "fork isolation" `Quick
          test_phys_cow_fork_isolation;
        Alcotest.test_case "shared/private stats" `Quick
          test_phys_stats_shared_private;
        Alcotest.test_case "memo invalidation" `Quick
          test_phys_memo_invalidation;
      ] );
    ( "machine-snapshot",
      [
        Alcotest.test_case "transparency (preempted, blocks)" `Quick
          test_snapshot_transparency_preempted;
        Alcotest.test_case "transparency (preempted, no blocks)" `Quick
          test_snapshot_transparency_no_blocks;
        Alcotest.test_case "transparency (cooperative)" `Quick
          test_snapshot_transparency_cooperative;
        q prop_snapshot_transparency;
      ] );
    ( "fork",
      [
        Alcotest.test_case "digest identity" `Quick test_fork_digest_identity;
        Alcotest.test_case "zone tables private" `Quick
          test_fork_zone_tables_private;
        Alcotest.test_case "memory isolation" `Quick
          test_fork_isolated_memory;
        Alcotest.test_case "adopted = cold (blocks)" `Quick
          (adopted_matches_cold ~blocks:true);
        Alcotest.test_case "adopted = cold (no blocks)" `Quick
          (adopted_matches_cold ~blocks:false);
        Alcotest.test_case "source patch after capture (blocks)" `Quick
          (test_fork_after_source_patch ~blocks:true);
        Alcotest.test_case "source patch after capture (no blocks)" `Quick
          (test_fork_after_source_patch ~blocks:false);
        Alcotest.test_case "sibling patch isolated (blocks)" `Quick
          (test_sibling_patch_isolated ~blocks:true);
        Alcotest.test_case "sibling patch isolated (no blocks)" `Quick
          (test_sibling_patch_isolated ~blocks:false);
        Alcotest.test_case "reallocated code frame (blocks)" `Quick
          (test_fork_reallocated_frame ~blocks:true);
        Alcotest.test_case "reallocated code frame (no blocks)" `Quick
          (test_fork_reallocated_frame ~blocks:false);
        Alcotest.test_case "retire keeps store flat" `Quick
          test_retire_keeps_store_flat;
      ] );
    ("replay", [ Alcotest.test_case "byte-identical" `Quick
                   test_replay_byte_identical ]);
  ]

let () = Alcotest.run "lz_snap" suite
