(* Fleet-forking benchmark: one warm 128-domain image, N instances.

   Builds the Table 5 TTBR-mechanism machine (128 gate-attached
   domains), runs one switch slice end-to-end so demand paging,
   sanitizer scans and the TLB are all warm, snapshots it, then forks
   instances off the image in [Benchkit.reps] batches. Each batch sits
   beside one cold setup of the same machine, timed on process CPU
   time, so the cold-start comparison is a same-process ratio.

   Reported: fork cost, cold setup cost, their ratio, and aggregate
   simulated MIPS as churned instances run one slice each.

   Gates: every fork's digest equals the source's, before and after
   running the slice the source ran; forking is >= 10x cheaper than a
   cold setup (median of the batches); CoW economics (dirty pages per
   churned instance, store slots against logical frames) and the
   churned insns equal the baseline's. `--smoke` runs 64 forks instead
   of 1024. *)

module Sb = Lz_eval.Switch_bench
module Snapshot = Lz_snap.Snapshot
module Phys = Lz_mem.Phys
module Json = Benchkit.Json
open Lightzone

let domains = 128

let () =
  let kit = Benchkit.init "fleet" in
  let instances = if kit.smoke then 64 else 1024 in
  let slice_n = if kit.smoke then 300 else 1000 in
  (* Batch sizes for the MIPS curve; batches are disjoint, so the
     total churned is their sum. *)
  let counts = if kit.smoke then [ 1; 4; 16 ] else [ 1; 4; 16; 64; 256 ] in
  let cm = Lz_cpu.Cost_model.cortex_a55 in
  let prepare () = Sb.prepare cm ~env:Sb.Host ~domains ~n:slice_n in

  (* Warm image. *)
  let r = ref None in
  let warm_s = Benchkit.cpu_time (fun () -> r := Some (prepare ())) in
  let z = (Option.get !r).Sb.t in
  let image = Snapshot.capture z in
  let image_digest = Sb.zone_digest z in
  Benchkit.say kit "warm %d-domain image built in %.3fs (digest %s)" domains
    warm_s image_digest;

  (* Fork the fleet, one batch per repetition beside a cold setup. *)
  let reps =
    Array.init Benchkit.reps (fun i ->
        let upto i = instances * i / Benchkit.reps in
        let n = upto (i + 1) - upto i in
        let cold = Benchkit.cpu_time (fun () -> ignore (prepare ())) in
        let batch = ref [||] in
        let s =
          Benchkit.cpu_time (fun () ->
              batch := Array.init n (fun _ -> Snapshot.fork z image))
        in
        (cold, s /. float_of_int n, !batch))
  in
  let cold_s = Array.map (fun (c, _, _) -> c) reps in
  let fork_s = Array.map (fun (_, f, _) -> f) reps in
  let speedup = Array.map2 ( /. ) cold_s fork_s in
  let forks =
    Array.concat (Array.to_list (Array.map (fun (_, _, b) -> b) reps))
  in
  Benchkit.say kit
    "forked %d instances: %.0f us/fork, cold setup %.1f ms (%.1fx)" instances
    (1e6 *. Benchkit.median fork_s) (1e3 *. Benchkit.median cold_s)
    (Benchkit.median speedup);
  let differing digest forks =
    Array.fold_left
      (fun n f -> if Sb.zone_digest f <> digest then n + 1 else n)
      0 forks
  in
  let fresh_mismatch = differing image_digest forks in

  (* Churn slices: run the switch workload on disjoint batches of
     forks, so every churned fork runs exactly one slice, as the
     source does. *)
  Sb.run_slice z;
  let ref_digest = Sb.zone_digest z in
  assert (List.fold_left ( + ) 0 counts <= instances);
  let offset = ref 0 in
  let churn =
    List.map
      (fun k ->
        let batch = Array.sub forks !offset k in
        offset := !offset + k;
        let insns f = f.Kmod.core.Lz_cpu.Core.insns in
        let runs =
          Array.map
            (fun f ->
              let i0 = insns f in
              let s = Benchkit.cpu_time (fun () -> Sb.run_slice f) in
              (insns f - i0, s))
            batch
        in
        let total = Array.fold_left (fun a (i, _) -> a + i) 0 runs in
        let mips = Array.map (fun (i, s) -> float_of_int i /. s /. 1e6) runs in
        Benchkit.say kit "%4d instances churned: %d insns, %.1f MIPS" k total
          (Benchkit.median mips);
        (string_of_int k, total, mips))
      counts
  in
  let churned = Array.sub forks 0 !offset in
  let slice_mismatch = differing ref_digest churned in
  let dirty = Array.map (fun f -> Snapshot.dirty_pages f image) churned in
  let st = Phys.stats z.Kmod.machine.Lz_kernel.Machine.phys in
  Benchkit.say kit
    "dirty pages/instance max %d; store %d slots for %d logical frames x %d \
     views"
    (Array.fold_left max 0 dirty) st.Phys.store_slots st.Phys.allocated
    (instances + 1);
  Benchkit.finish kit
    [ ("domains", Int domains); ("slice_switches", Int slice_n);
      ("instances", Int instances);
      ("counts",
       Obj
         [ ("churned", Int (Array.length churned));
           ("churned_insns",
            Obj (List.map (fun (k, i, _) -> (k, Json.Int i)) churn));
           ("dirty_pages_sum", Int (Array.fold_left ( + ) 0 dirty));
           ("dirty_pages_max", Int (Array.fold_left max 0 dirty));
           ("store_slots", Int st.Phys.store_slots);
           ("logical_frames", Int st.Phys.allocated);
           ("unshares", Int st.Phys.unshares) ]);
      ("warm_image_s", Benchkit.stats [| warm_s |]);
      ("cold_setup_s", Benchkit.stats cold_s);
      ("fork_us", Benchkit.stats (Array.map (( *. ) 1e6) fork_s));
      ("speedup_vs_cold", Benchkit.stats speedup);
      ("mips", Obj (List.map (fun (k, _, m) -> (k, Benchkit.stats m)) churn)) ]
    [ Benchkit.at_most "forks whose digest differs from the image"
        (float_of_int fresh_mismatch) 0.;
      Benchkit.at_most "churned forks whose digest differs from the source"
        (float_of_int slice_mismatch) 0.;
      Benchkit.at_least "median fork-vs-cold speedup" (Benchkit.median speedup)
        10.;
      Same "counts" ]
