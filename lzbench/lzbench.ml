(* lzbench: one benchmark for the simulator.

   Usage (from the repository root):
     bash lzbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     bash lzbench/run.sh --self-test

   A run sets its workload up several times (reporting the median as
   setup_s and checking every reference pass against the others and
   against lzbench/expected.ml), then times operations for [--seconds]
   of process CPU time (or twice that in wall time). With [--trace 0]
   the last stdout line carries the end-to-end metrics; with
   [--trace 1] the first half of the
   timed phase runs untraced and the second half records spans, and
   the last line carries the per-layer metrics. The seed drives the
   zone-switch domain sequence, the tenant-churn requests per
   connection and the fleet-fork domain sequence; user-compute runs
   fixed programs. Exits 1 when any correctness check failed. *)

module W = Workloads

(* ------------------------------------------------------------------ *)
(* Metric names and units; BENCHMARK.json lists the same. *)

let end_to_end =
  [ ("host_mips", "MIPS"); ("ops_per_s", "1/s"); ("op_us_p50", "us");
    ("op_us_p99", "us"); ("sim_cycles_per_op", "cycles");
    ("table5_err_pct", "%"); ("peak_rss_mib", "MiB"); ("setup_s", "s");
    ("ok_pct", "%") ]

let self_spans =
  Spans.[ Op; Core_run; Api_run; Lz_alloc; Lz_free; Lz_map_gate_pgt;
          Snap_fork; Snap_retire ]

let per_layer =
  [ ("core.run_ns_per_insn", "ns"); ("fastpath.avg_block_len", "insns");
    ("fastpath.chain_ratio", "ratio"); ("fastpath.hit_rate", "ratio");
    ("fastpath.side_exits", "count"); ("fastpath.blk_builds_per_op", "count");
    ("tlb.miss_rate", "ratio"); ("tlb.misses_per_op", "count");
    ("api.lz_alloc_us", "us"); ("api.lz_free_us", "us");
    ("api.lz_map_gate_pgt_us", "us"); ("api.lz_prot_us", "us");
    ("api.run_us_per_op", "us"); ("kmod.traps_per_op", "count");
    ("kmod.fault_traps_per_op", "count"); ("lowvisor.forwards_per_op", "count");
    ("asid_alloc.rollovers", "count"); ("asid_alloc.recycled", "count");
    ("snapshot.fork_us", "us"); ("snapshot.retire_us", "us");
    ("snapshot.capture_us", "us"); ("snapshot.dirty_pages_per_fork", "count");
    ("phys.unshares_per_op", "count"); ("phys.store_slots", "count");
    ("gc.minor_words_per_insn", "words"); ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count"); ("gc.live_growth_words_per_op", "words");
    ("trace.overhead_pct", "%") ]
  @ List.map (fun s -> ("self_us." ^ Spans.label s, "us")) self_spans

(* ------------------------------------------------------------------ *)
(* Table 5 accuracy: Switch_bench.measure for the TTBR mechanism at
   128 domains on the Cortex-A55 host model, against the paper's 82
   cycles. Deterministic, so it is computed once per process. *)

let table5_err_pct =
  lazy
    (let m =
       Lz_eval.Switch_bench.measure W.cost ~env:Lz_eval.Switch_bench.Host
         ~mechanism:Lz_eval.Switch_bench.Lz_ttbr ~domains:128 ()
     in
     100. *. Float.abs (m -. 82.) /. 82.)

(* ------------------------------------------------------------------ *)

(* sum(num) / sum(den): a rate over the whole timed phase. *)
let total_rate num den =
  Array.fold_left ( +. ) 0. num /. Array.fold_left ( +. ) 0. den

(* Set-ups per run; setup_s is their median. *)
let setup_reps = 9

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  errors : string list;
  reference : W.reference;
}

(* Run one workload: set-ups, timed phase, checks, metrics. *)
let run ?(size = W.Full) (w : W.t) ~seed ~seconds ~trace ~expected =
  let spans = Spans.create () in
  spans.Spans.on <- trace;
  let ctx = W.create_ctx spans in
  (* Each set-up's reference pass must agree with the first. *)
  let setup_s = Measure.Buf.create () and first = ref None in
  let setup () =
    Gc.full_major ();
    let t0 = Measure.cpu () in
    let inst = w.W.setup size ~seed spans in
    Measure.Buf.add setup_s (Measure.cpu () -. t0);
    let r = inst.W.reference in
    ctx.W.attempted <- ctx.W.attempted + r.W.ops;
    (match !first with
    | None -> first := Some r
    | Some r0 when r0 <> r ->
        W.fail ctx ~ops:r.W.ops
          (w.W.name ^ ": set-ups disagree on the reference pass")
    | Some _ -> ());
    inst
  in
  for _ = 2 to setup_reps do
    ignore (setup ())
  done;
  (* The last set-up is the instance timed. *)
  let inst = setup () in
  let reference = inst.W.reference in
  Printf.eprintf "lzbench: set-up CPU seconds: %s\n%!"
    (String.concat " "
       (Array.to_list
          (Array.map (Printf.sprintf "%.4f") (Measure.Buf.to_array setup_s))));
  (match expected with
  | Some e when e <> reference ->
      W.fail ctx ~ops:reference.W.ops
        (Printf.sprintf
           "%s: reference pass differs from the expected one (insns %d vs \
            %d, cycles %d vs %d, digest %s vs %s)"
           w.W.name reference.W.insns e.W.insns reference.W.cycles e.W.cycles
           reference.W.digest e.W.digest)
  | _ -> ());
  (* Timed phase. Peak memory is read after its first step, a fixed
     amount of work, so a faster or slower run does not move it;
     memory that grows with every op shows in the traced run as
     gc.live_growth_words_per_op instead. *)
  let peak_rss_mib = ref nan in
  let phase ~seconds =
    let c0 = Measure.cpu () and w0 = Measure.wall () in
    let stop = ref false in
    while not !stop do
      ctx.W.attempted <- ctx.W.attempted + inst.W.ops_per_step;
      (try inst.W.step ctx
       with e ->
         Spans.unwind spans;
         W.fail ctx ~ops:inst.W.ops_per_step (Printexc.to_string e);
         stop := true);
      if Float.is_nan !peak_rss_mib then peak_rss_mib := Measure.peak_rss_mib ();
      if Measure.cpu () -. c0 >= seconds
         || Measure.wall () -. w0 >= 2. *. seconds
      then stop := true
    done
  in
  let rates () =
    let dt = Measure.Buf.to_array ctx.W.dt
    and ops = Measure.Buf.to_array ctx.W.ops
    and insns = Measure.Buf.to_array ctx.W.insns in
    (dt, ops, insns, total_rate insns dt /. 1e6, total_rate ops dt)
  in
  spans.Spans.on <- false;
  let metrics =
    if not trace then begin
      phase ~seconds;
      let dt, ops, _, mips, ops_per_s = rates () in
      let op_us = Array.mapi (fun i d -> 1e6 *. d /. ops.(i)) dt in
      let setup_s = Measure.median (Measure.Buf.to_array setup_s) in
      let ok_pct =
        100. *. float_of_int (ctx.W.attempted - ctx.W.failed)
        /. float_of_int (max 1 ctx.W.attempted)
      in
      Printf.eprintf "lzbench: %s: %d timed samples, %d ops\n%!" w.W.name
        (Array.length dt) (int_of_float (Array.fold_left ( +. ) 0. ops));
      [ ("host_mips", mips); ("ops_per_s", ops_per_s);
        ("op_us_p50", Measure.quantile op_us 0.5);
        ("op_us_p99", Measure.quantile op_us 0.99);
        ("sim_cycles_per_op",
         float_of_int reference.W.cycles /. float_of_int reference.W.ops);
        ("table5_err_pct", Lazy.force table5_err_pct);
        ("peak_rss_mib", !peak_rss_mib); ("setup_s", setup_s);
        ("ok_pct", ok_pct) ]
    end
    else begin
      (* Untraced half, then traced half over fresh sample buffers. *)
      phase ~seconds:(seconds /. 2.);
      let _, _, _, mips_untraced, _ = rates () in
      List.iter Measure.Buf.clear [ ctx.W.dt; ctx.W.ops; ctx.W.insns ];
      let c0 = inst.W.counters () in
      let live () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let live0 = live () in
      let g0 = Gc.quick_stat () in
      let since = Measure.cpu () in
      spans.Spans.on <- true;
      phase ~seconds:(seconds /. 2.);
      spans.Spans.on <- false;
      let g1 = Gc.quick_stat () in
      let live1 = live () in
      let c1 = inst.W.counters () in
      let _, ops_a, insns_a, mips_traced, _ = rates () in
      let ops = Array.fold_left ( +. ) 0. ops_a
      and insns = Array.fold_left ( +. ) 0. insns_a in
      let count c k = Option.value (List.assoc_opt k c) ~default:0 in
      let delta k = float_of_int (count c1 k - count c0 k) in
      let ratio a b = if b = 0. then 0. else a /. b in
      let phase_sum = Spans.summarize ~since spans in
      let all_sum = Spans.summarize spans in
      (* Per-call mean over the traced phase; calls made only during
         set-up (capture, and lz_prot outside tenant-churn) are averaged over
         the set-ups. *)
      let call_us nm =
        let a = phase_sum nm in
        let a = if a.Spans.count > 0 then a else all_sum nm in
        ratio (1e6 *. a.Spans.total_s) (float_of_int a.Spans.count)
      in
      let run_s =
        (phase_sum Spans.Core_run).Spans.total_s
        +. (phase_sum Spans.Api_run).Spans.total_s
      in
      Printf.eprintf "lzbench: spans (name count total_s self_s):\n";
      List.iter
        (fun nm ->
          let a = all_sum nm in
          if a.Spans.count > 0 then
            Printf.eprintf "  %-22s %8d %10.6f %10.6f\n" (Spans.label nm)
              a.Spans.count a.Spans.total_s a.Spans.self_s)
        Spans.all;
      [ ("core.run_ns_per_insn", ratio (1e9 *. run_s) insns);
        ("fastpath.avg_block_len",
         ratio (delta "blk_insns") (delta "blk_entries"));
        ("fastpath.chain_ratio",
         ratio (delta "chain_follows") (delta "blk_entries"));
        ("fastpath.hit_rate", ratio (delta "blk_hits") (delta "blk_entries"));
        ("fastpath.side_exits", delta "side_exits");
        ("fastpath.blk_builds_per_op", ratio (delta "blk_builds") ops);
        ("tlb.miss_rate",
         ratio (delta "tlb_misses") (delta "tlb_misses" +. delta "tlb_hits"));
        ("tlb.misses_per_op", ratio (delta "tlb_misses") ops);
        ("api.lz_alloc_us", call_us Spans.Lz_alloc);
        ("api.lz_free_us", call_us Spans.Lz_free);
        ("api.lz_map_gate_pgt_us", call_us Spans.Lz_map_gate_pgt);
        ("api.lz_prot_us", call_us Spans.Lz_prot);
        ("api.run_us_per_op",
         ratio (1e6 *. (phase_sum Spans.Api_run).Spans.total_s) ops);
        ("kmod.traps_per_op", ratio (delta "traps") ops);
        ("kmod.fault_traps_per_op", ratio (delta "fault_traps") ops);
        ("lowvisor.forwards_per_op", ratio (delta "forwards") ops);
        ("asid_alloc.rollovers", delta "rollovers");
        ("asid_alloc.recycled", delta "recycled");
        ("snapshot.fork_us", call_us Spans.Snap_fork);
        ("snapshot.retire_us", call_us Spans.Snap_retire);
        ("snapshot.capture_us", call_us Spans.Snap_capture);
        ("snapshot.dirty_pages_per_fork",
         ratio (delta "dirty_pages") (delta "forks"));
        ("phys.unshares_per_op", ratio (delta "unshares") ops);
        ("phys.store_slots", float_of_int (count c1 "store_slots"));
        ("gc.minor_words_per_insn",
         ratio (g1.Gc.minor_words -. g0.Gc.minor_words) insns);
        ("gc.promoted_words_per_op",
         ratio (g1.Gc.promoted_words -. g0.Gc.promoted_words) ops);
        ("gc.major_collections",
         float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
        ("gc.live_growth_words_per_op",
         ratio (float_of_int (live1 - live0)) ops);
        ("trace.overhead_pct",
         100. *. (mips_untraced -. mips_traced) /. mips_untraced) ]
      @ List.map
          (fun s ->
            ( "self_us." ^ Spans.label s,
              ratio (1e6 *. (phase_sum s).Spans.self_s) ops ))
          self_spans
    end
  in
  let units = if trace then per_layer else end_to_end in
  { correct = ctx.W.failed = 0;
    attempted = ctx.W.attempted;
    failed = ctx.W.failed;
    metrics = List.map (fun (k, v) -> (k, v, List.assoc k units)) metrics;
    errors = List.rev ctx.W.errors;
    reference }

let result_json r =
  (* A run that timed nothing has no rates; JSON has no nan. *)
  let num v =
    if not (Float.is_finite v) then "null"
    else if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.1f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (k, v, u) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} k (num v) u)
          r.metrics))

let expected_for (w : W.t) seed =
  if w.W.seeded && seed <> Expected.default_seed then None
  else List.assoc_opt w.W.name Expected.table

(* ------------------------------------------------------------------ *)
(* Self-test: every workload at tiny size, in both trace modes, must
   pass its checks and emit every metric with its unit; a corrupted
   expected digest must fail the run; BENCHMARK.json must list the
   same metrics. *)

let self_test () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names_units r = List.map (fun (k, _, u) -> (k, u)) r.metrics in
  List.iter
    (fun (w : W.t) ->
      let go ~trace ~expected =
        run ~size:W.Tiny w ~seed:7 ~seconds:0.2 ~trace ~expected
      in
      let r0 = go ~trace:false ~expected:None in
      if not r0.correct then
        problem "%s: untraced run failed: %s" w.W.name
          (String.concat "; " r0.errors);
      if names_units r0 <> end_to_end then
        problem "%s: end-to-end metrics or units differ" w.W.name;
      List.iter
        (fun (k, v, _) ->
          if Float.is_nan v || v = 0. then problem "%s: %s = %g" w.W.name k v)
        r0.metrics;
      let r1 = go ~trace:true ~expected:(Some r0.reference) in
      if not r1.correct then
        problem "%s: traced run failed: %s" w.W.name
          (String.concat "; " r1.errors);
      if names_units r1 <> per_layer then
        problem "%s: per-layer metrics or units differ" w.W.name;
      let corrupt = { r0.reference with W.digest = "corrupted" } in
      let r2 = go ~trace:false ~expected:(Some corrupt) in
      if r2.correct || r2.failed = 0 then
        problem "%s: a corrupted expected digest did not fail the run"
          w.W.name;
      Printf.printf "self-test: %s ok (%d ops attempted)\n%!" w.W.name
        (r0.attempted + r1.attempted + r2.attempted))
    W.all;
  (match Measure.read_file "BENCHMARK.json" with
  | None -> problem "BENCHMARK.json not found in the working directory"
  | Some json ->
      let has s =
        let n = String.length s and m = String.length json in
        let rec go i = i + n <= m && (String.sub json i n = s || go (i + 1)) in
        go 0
      in
      List.iter
        (fun (k, u) ->
          if not (has (Printf.sprintf {|"name": "%s", "unit": "%s"|} k u)) then
            problem "BENCHMARK.json lacks metric %s (%s)" k u)
        (end_to_end @ per_layer);
      List.iter
        (fun (w : W.t) ->
          if not (has (Printf.sprintf {|"name": "%s"|} w.W.name)) then
            problem "BENCHMARK.json lacks workload %s" w.W.name)
        W.all);
  match !problems with
  | [] -> print_endline "self-test: ok"
  | ps ->
      List.iter (fun p -> Printf.printf "self-test: FAIL: %s\n" p) (List.rev ps);
      exit 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref Expected.default_seed in
  let seconds = ref 10. and trace = ref 0 and self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME  user-compute | zone-switch | tenant-churn | fleet-fork");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  CPU seconds to time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  1 = per-layer traced run");
      ("--self-test", Arg.Set self, " run every workload at tiny size") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lzbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] | --self-test";
  if !self then self_test ()
  else begin
    let w =
      match List.find_opt (fun (w : W.t) -> w.W.name = !workload) W.all with
      | Some w -> w
      | None ->
          prerr_endline ("lzbench: unknown workload " ^ !workload);
          exit 2
    in
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "lzbench: --trace takes 0 or 1";
      exit 2
    end;
    let fp = Measure.start_fingerprint () in
    let r =
      try
        run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~expected:(expected_for w !seed)
      with e ->
        Printf.eprintf "lzbench: FAIL: %s: %s\n" w.W.name (Printexc.to_string e);
        exit 1
    in
    let ref_ = r.reference in
    Printf.eprintf "lzbench: reference %S, { ops = %d; insns = %d; cycles = %d; digest = %S }\n"
      w.W.name ref_.W.ops ref_.W.insns ref_.W.cycles ref_.W.digest;
    List.iter (fun e -> Printf.eprintf "lzbench: FAIL: %s\n" e) r.errors;
    let noisy, host = Measure.host_json fp in
    if noisy then prerr_endline "lzbench: warning: noisy host during this run";
    print_endline host;
    print_endline (result_json r);
    if not r.correct then exit 1
  end
