open Lz_arm
open Lz_mem

(* ------------------------------------------------------------------ *)
(* Superblocks / trace trees: runs of decoded instructions, cached by
   (physical page, offset) on top of the per-page decode cache and
   executed by Core's block dispatcher.  A block is straight-line
   except that *hot* conditional branches (B.cond, CBZ, CBNZ) and
   unconditional in-page B are folded into it: the block continues
   along the observed hot direction and the other direction leaves
   through a recorded side exit that re-enters block dispatch.  A
   block ends at the first unfolded branch, exception-generating or
   system instruction, at the page boundary, or at [max_block_insns].
   Validity is anchored to the frame's write generation captured at
   build time ([b_dgen]) and to the cache epoch ([b_epoch], bumped by
   flush/reset to sever chain links into dropped blocks); [b_dead]
   marks blocks retired individually (bias retraining) so chain memos
   into them are never followed. *)

type side_exit = {
  sx_hot_delta : int;
      (* byte delta from the branch pc along the folded hot direction;
         the cold direction is whatever [exec] left in [t.pc]. *)
  sx_slot : int;  (* branch's instruction slot in its dpage (bias) *)
  mutable sx_hot : int;  (* hot continuations since last decay *)
  mutable sx_cold : int;  (* cold exits since last decay *)
  (* Memoized chain target for the cold direction: side-exit targets
     are first-class chain candidates, validated exactly like block
     successors (epoch + both page generations + live translation). *)
  mutable sx_chain_va : int;
  mutable sx_chain : block option;
}

and block = {
  b_pa : int;  (* physical address of the first instruction *)
  b_page : int;  (* page-aligned base of [b_pa] *)
  b_dgen : int;  (* Phys.page_gen at build time *)
  b_code : Insn.t array;  (* >= 1 insns *)
  b_ipa : int array;
      (* physical address of each instruction; no longer an arithmetic
         progression once branches are folded. *)
  b_sx : side_exit option array;  (* Some at folded conditionals *)
  b_eff : int array;
      (* per-instruction effect bits (see [eff_of]); the executor skips
         boundary revalidation that only memory traffic can defeat. *)
  b_folds : int;  (* number of folded conditionals (tree depth) *)
  b_chainable : bool;  (* last insn is a plain branch / fall-through *)
  b_epoch : int;
  mutable b_dead : bool;
  (* Terminator-bias profiling: when the block ends at an unfolded
     conditional branch, [b_term_slot] is that branch's dpage slot and
     the dispatcher records taken/not-taken outcomes into [b_prof]
     (the owning dpage's bias array) at each [Bend].  The fold_ok
     flags capture, at build time, whether folding each direction
     would be legal (target in-page, room left in the block). *)
  b_prof : int array;
  b_term_slot : int;  (* -1 when the terminator is not conditional *)
  b_fold_taken_ok : bool;
  b_fold_fall_ok : bool;
  (* Memoized successors (fall-through and taken targets), validated
     on follow against epoch, generation and the live translation. *)
  mutable b_succ_va : int;
  mutable b_succ : block option;
  mutable b_succ2_va : int;
  mutable b_succ2 : block option;
}

(* One decoded physical page: 1024 instruction slots, filled lazily,
   revalidated against the frame's write generation; [blk] caches the
   superblock starting at each slot and [bias] holds the per-slot
   saturating taken/not-taken counter driving branch folding.
   [tmpl] is the adopted image's block templates for this page (never
   written; all [None] when the page did not come from an image). A
   template is used only for a slot whose [blk] entry is still [None]:
   once a slot has held a block, dead or stale, it is re-formed.
   [code] is the image's own array while [code_shared]; the first
   decode into the page copies it. *)
type dpage = {
  mutable dgen : int;
  mutable code : Insn.t option array;
  mutable code_shared : bool;
  blk : block option array;
  bias : int array;
  mutable tmpl : block option array;
}

(* A translation image: one core's decode and superblock caches frozen
   at a snapshot, for forks of that snapshot to adopt. Each page holds
   the decoded words and branch bias of a code frame whose bytes are
   the snapshot's, and its blocks that were live at the freeze as
   templates. Nothing in an image is ever written again; a fork copies
   a page's words and bias into its own cache when it first touches
   the frame (see [dpage_of]) and clones a template the first time it
   dispatches it (see [block_at_cached]). *)
type xpage = {
  x_code : Insn.t option array;
  x_blk : block option array;
  x_bias : int array;
}

type image = {
  x_snap : Phys.snapshot;
  x_pages : (int, xpage) Hashtbl.t;  (* physical page number -> page *)
}

type t = {
  mutable enabled : bool;
  mutable blocks : bool;
  itlb : Tlb.front;
  dtlb : Tlb.front;
  (* Memoized MMU context (unpriv = false), rebuilt only when a
     TTBR/HCR/VTTBR write bumps the sysreg file's mmu generation or
     PSTATE.{EL,PAN} changed since it was built. *)
  mutable ctx : Mmu.ctx option;
  mutable ctx_gen : int;
  (* Decoded-instruction cache keyed by physical page number. *)
  dcache : (int, dpage) Hashtbl.t;
  mutable dlast_page : int;
  (* Valid iff [dlast_page] matches the probed page (initially -1,
     matching no page). Non-optional so the 1-entry memo refill is a
     pair of field writes — a [Some] box here is two minor words per
     code-page change, paid twice per zone-gate transit. *)
  mutable dlast : dpage;
  (* Translation image this core seeds pages from (a fork's, or its own
     after [freeze]), consulted whenever a page is (re)decoded. *)
  mutable adopted : image option;
  (* Bumped whenever cached blocks are dropped wholesale: a chain link
     into a block from an older epoch is never followed. *)
  mutable epoch : int;
  (* Cached "any watchpoint armed" flag, revalidated against the
     sysreg file's debug generation. *)
  mutable wp_gen : int;
  mutable wp_armed : bool;
  (* Block-engine statistics (host-side observability only). *)
  mutable st_hits : int;
  mutable st_builds : int;
  mutable st_clones : int;
  mutable st_entries : int;
  mutable st_insns : int;
  mutable st_chain_follows : int;
  mutable st_side_exits : int;
  mutable st_folds : int;
  mutable st_depth_max : int;
  mutable st_retrains : int;
}

(* LZ_NO_BLOCKS=1 keeps the per-instruction fast path but disables the
   block layer, for three-way differential runs. *)
let default_blocks = ref (Sys.getenv_opt "LZ_NO_BLOCKS" <> Some "1")

let insns_per_page = Phys.page_size / 4

(* The [tmpl] of pages that did not come from an image. Shared, so
   never written. *)
let no_templates = Array.make insns_per_page None

let empty_dpage dgen =
  { dgen;
    code = Array.make insns_per_page None;
    code_shared = false;
    blk = Array.make insns_per_page None;
    bias = Array.make insns_per_page 0;
    tmpl = no_templates }

(* What [dlast] holds while [dlast_page] is -1. Never returned by
   [dpage_of], so never written: every core can share it. *)
let no_dpage = empty_dpage (-1)

let create ~enabled =
  { enabled;
    blocks = enabled && !default_blocks;
    itlb = Tlb.front_create ();
    dtlb = Tlb.front_create ();
    ctx = None;
    ctx_gen = -1;
    dcache = Hashtbl.create 64;
    dlast_page = -1;
    dlast = no_dpage;
    adopted = None;
    epoch = 0;
    wp_gen = -1;
    wp_armed = false;
    st_hits = 0;
    st_builds = 0;
    st_clones = 0;
    st_entries = 0;
    st_insns = 0;
    st_chain_follows = 0;
    st_side_exits = 0;
    st_folds = 0;
    st_depth_max = 0;
    st_retrains = 0 }

let flush_decode t =
  (* IC IALLU: every cached block and memoized chain link predates the
     flush — bump the epoch so none is ever re-entered, even if a
     stale reference survives in a caller.  Decoded words need no
     wholesale drop: they are revalidated against the frame's write
     generation on every dispatch, which is what keeps them coherent
     in the first place.  The branch-bias profile describes unchanged
     bytes and survives too — JIT-style code that patches and flushes
     in a loop would otherwise never accumulate enough bias to re-form
     its trace trees. *)
  t.epoch <- t.epoch + 1

let reset t =
  flush_decode t;
  Tlb.front_reset t.itlb;
  Tlb.front_reset t.dtlb;
  t.ctx <- None;
  t.ctx_gen <- -1;
  t.wp_gen <- -1;
  t.wp_armed <- false

let drop t =
  reset t;
  Hashtbl.reset t.dcache;
  t.dlast_page <- -1;
  t.dlast <- no_dpage;
  t.adopted <- None

(* The adopted image's copy of physical page [ppage], if the frame
   still holds the bytes it was decoded from. *)
let adopted_page t phys ppage =
  match t.adopted with
  | Some img when Phys.unchanged_since phys img.x_snap (ppage * Phys.page_size)
    ->
      Hashtbl.find_opt img.x_pages ppage
  | _ -> None

(* A page entering the cache at generation [g]: the adopted image's
   page if the frame still holds its bytes (its decoded words shared,
   its bias copied), else empty. *)
let new_dpage t phys ppage g =
  match adopted_page t phys ppage with
  | Some x ->
      { dgen = g;
        code = x.x_code;
        code_shared = true;
        blk = Array.make insns_per_page None;
        bias = Array.copy x.x_bias;
        tmpl = x.x_blk }
  | None -> empty_dpage g

let dpage_of t phys ppage =
  let g = Phys.page_gen phys (ppage * Phys.page_size) in
  let dp =
    if t.dlast_page = ppage then t.dlast
    else begin
      let dp =
        match Hashtbl.find t.dcache ppage with
        | dp -> dp
        | exception Not_found ->
            let dp = new_dpage t phys ppage g in
            Hashtbl.add t.dcache ppage dp;
            dp
      in
      t.dlast_page <- ppage;
      t.dlast <- dp;
      dp
    end
  in
  if dp.dgen <> g then begin
    (* The frame was written since these decodes were cached (page
       generations cover simulated stores and OCaml-side loads
       alike): drop them, blocks and branch bias included — or, if
       the frame holds an adopted image's bytes, start from its
       page. *)
    Array.fill dp.blk 0 insns_per_page None;
    (match adopted_page t phys ppage with
    | Some x ->
        dp.code <- x.x_code;
        dp.code_shared <- true;
        Array.blit x.x_bias 0 dp.bias 0 insns_per_page;
        dp.tmpl <- x.x_blk
    | None ->
        if dp.code_shared then begin
          dp.code <- Array.make insns_per_page None;
          dp.code_shared <- false
        end
        else Array.fill dp.code 0 insns_per_page None;
        Array.fill dp.bias 0 insns_per_page 0;
        dp.tmpl <- no_templates);
    dp.dgen <- g
  end;
  dp

let fetch t phys pa =
  let dp = dpage_of t phys (pa / Phys.page_size) in
  let idx = (pa land (Phys.page_size - 1)) lsr 2 in
  match dp.code.(idx) with
  | Some i -> i
  | None ->
      let i = Encoding.decode (Phys.read32 phys pa) in
      if dp.code_shared then begin
        dp.code <- Array.copy dp.code;
        dp.code_shared <- false
      end;
      dp.code.(idx) <- Some i;
      i

(* ------------------------------------------------------------------ *)
(* Block formation *)

let max_block_insns = 64

(* |bias| at which a conditional branch is folded into the block. *)
let fold_threshold = 4

(* Saturation bound for the per-slot bias counters. *)
let bias_sat = 16

(* Minimum cold exits through one side exit before its hot/cold ratio
   is examined for retraining. *)
let retrain_min = 16

(* How an instruction ends (or doesn't end) a block.  [Chain]: plain
   control flow that cannot touch interrupt-delivery state, so the
   dispatcher may follow a memoized chain link under the same
   interrupt horizon.  [Cond off]: a conditional branch with taken
   byte-offset [off] — fold candidate; when unfolded it behaves as
   [Chain].  Folded or not, these are pure PC writes: they can never
   change DAIF, translation, GIC/timer/PMU state, so side exits keep
   the interrupt horizon valid (horizon inputs change only at [Stop]
   terminators).  [Stop]: exception-generating or system instructions
   (MSR/MRS, barriers, cache/TLB maintenance, ERET...) that can change
   translation, DAIF, GIC/timer/PMU state or flush this very cache —
   the dispatcher must return to a full poll. *)
type ending = Straight | Chain | Cond of int | Stop

let ending_of = function
  | Insn.Movz _ | Insn.Movk _ | Insn.Mov_reg _ | Insn.Add _ | Insn.Sub _
  | Insn.Subs _ | Insn.And_reg _ | Insn.Orr_reg _ | Insn.Eor_reg _
  | Insn.Lsl_imm _ | Insn.Lsr_imm _ | Insn.Nop | Insn.Ldr _ | Insn.Str _
  | Insn.Ldrb _ | Insn.Ldr32 _ | Insn.Str32 _ | Insn.Strb _ | Insn.Ldr_reg _
  | Insn.Str_reg _ | Insn.Ldtr _ | Insn.Sttr _ | Insn.Ldtrb _ | Insn.Sttrb _
    ->
      Straight
  | Insn.Bcond (_, off) | Insn.Cbz (_, off) | Insn.Cbnz (_, off) -> Cond off
  | Insn.B _ | Insn.Bl _ | Insn.Br _ | Insn.Blr _ | Insn.Ret _ -> Chain
  | _ -> Stop

(* Per-instruction effect class, consumed by the block executor to
   elide boundary revalidation that only memory traffic can defeat:
   bit 0 — the instruction may access memory (a data-side miss can
   move the shared TLB generation mid-block); bit 1 — it may write
   memory (a store can move the code frame's write generation
   mid-block).  After an instruction with a bit clear, the matching
   generation re-check at the next boundary is provably a no-op.
   Anything unrecognized conservatively carries both bits, which is
   always sound. *)
let eff_of = function
  | Insn.Ldr _ | Insn.Ldrb _ | Insn.Ldr32 _ | Insn.Ldr_reg _ | Insn.Ldtr _
  | Insn.Ldtrb _ ->
      1
  | Insn.Str _ | Insn.Strb _ | Insn.Str32 _ | Insn.Str_reg _ | Insn.Sttr _
  | Insn.Sttrb _ ->
      3
  | Insn.Movz _ | Insn.Movk _ | Insn.Mov_reg _ | Insn.Add _ | Insn.Sub _
  | Insn.Subs _ | Insn.And_reg _ | Insn.Orr_reg _ | Insn.Eor_reg _
  | Insn.Lsl_imm _ | Insn.Lsr_imm _ | Insn.Nop | Insn.Bcond _ | Insn.Cbz _
  | Insn.Cbnz _ | Insn.B _ | Insn.Bl _ | Insn.Br _ | Insn.Blr _ | Insn.Ret _
    ->
      0
  | _ -> 3

let build_block t phys pa =
  let page = pa land lnot (Phys.page_size - 1) in
  let dp = dpage_of t phys (pa / Phys.page_size) in
  let in_page p = p land lnot (Phys.page_size - 1) = page in
  let slot_of p = (p land (Phys.page_size - 1)) lsr 2 in
  let idx0 = slot_of pa in
  let code = ref [] and ipa = ref [] and sxs = ref [] and effs = ref [] in
  let n = ref 0 in
  let folds = ref 0 in
  let chainable = ref true in
  let term_slot = ref (-1) in
  let fold_taken_ok = ref false in
  let fold_fall_ok = ref false in
  let stop = ref false in
  let pos = ref pa in
  while not !stop do
    let p = !pos in
    let insn = fetch t phys p in
    let push sx =
      code := insn :: !code;
      ipa := p :: !ipa;
      sxs := sx :: !sxs;
      effs := eff_of insn :: !effs;
      incr n
    in
    (* Folding needs room for at least one instruction after the
       branch; otherwise the branch becomes a plain terminator. *)
    let room = !n + 1 < max_block_insns in
    match ending_of insn with
    | Straight ->
        push None;
        pos := p + 4;
        if !n >= max_block_insns || not (in_page !pos) then stop := true
    | Cond off ->
        let bias = dp.bias.(slot_of p) in
        if bias >= fold_threshold && room && in_page (p + off) then begin
          (* Hot taken: fold, side exit covers fall-through. *)
          push
            (Some
               { sx_hot_delta = off;
                 sx_slot = slot_of p;
                 sx_hot = 0;
                 sx_cold = 0;
                 sx_chain_va = min_int;
                 sx_chain = None });
          incr folds;
          pos := p + off
        end
        else if bias <= -fold_threshold && room && in_page (p + 4) then begin
          (* Hot fall-through: fold, side exit covers taken. *)
          push
            (Some
               { sx_hot_delta = 4;
                 sx_slot = slot_of p;
                 sx_hot = 0;
                 sx_cold = 0;
                 sx_chain_va = min_int;
                 sx_chain = None });
          incr folds;
          pos := p + 4
        end
        else begin
          (* Unfolded conditional terminator: record enough for the
             dispatcher to profile its outcomes and re-form the block
             once a foldable bias builds up. *)
          push None;
          term_slot := slot_of p;
          fold_taken_ok := room && in_page (p + off);
          fold_fall_ok := room && in_page (p + 4);
          stop := true
        end
    | Chain -> push None; stop := true
    | Stop ->
        push None;
        chainable := false;
        stop := true
  done;
  let b =
    { b_pa = pa;
      b_page = page;
      b_dgen = dp.dgen;
      b_code = Array.of_list (List.rev !code);
      b_ipa = Array.of_list (List.rev !ipa);
      b_sx = Array.of_list (List.rev !sxs);
      b_eff = Array.of_list (List.rev !effs);
      b_folds = !folds;
      b_chainable = !chainable;
      b_epoch = t.epoch;
      b_dead = false;
      b_prof = dp.bias;
      b_term_slot = !term_slot;
      b_fold_taken_ok = !fold_taken_ok;
      b_fold_fall_ok = !fold_fall_ok;
      b_succ_va = min_int;
      b_succ = None;
      b_succ2_va = min_int;
      b_succ2 = None }
  in
  t.st_folds <- t.st_folds + !folds;
  if !folds > t.st_depth_max then t.st_depth_max <- !folds;
  dp.blk.(idx0) <- Some b;
  b

(* Side-exit stubs with empty hot/cold windows and no chain memo; the
   array itself is never written once built, so a block without folds
   shares it. *)
let fresh_side_exits b =
  if b.b_folds = 0 then b.b_sx
  else
    Array.map
      (Option.map (fun x ->
           { x with sx_hot = 0; sx_cold = 0; sx_chain_va = min_int;
                    sx_chain = None }))
      b.b_sx

(* A live block of this core from an image template. The decoded code,
   addresses and effect bits are immutable and stay shared; everything
   the dispatcher writes (side-exit windows, chain memos, the bias the
   block profiles into, its liveness) is the core's own. The template
   is the freezing core's own block, which that core may still write,
   so every mutable field is set here, none is copied. *)
let clone_block t dp idx tb =
  let b =
    { tb with
      b_dgen = dp.dgen;
      b_sx = fresh_side_exits tb;
      b_epoch = t.epoch;
      b_dead = false;
      b_prof = dp.bias;
      b_succ_va = min_int;
      b_succ = None;
      b_succ2_va = min_int;
      b_succ2 = None }
  in
  t.st_clones <- t.st_clones + 1;
  dp.blk.(idx) <- Some b;
  b

(* The block starting at physical address [pa], from cache or freshly
   built, plus whether it was served from cache (a clone of an adopted
   template counts as cached).  [dpage_of] has already dropped stale
   blocks if the frame's generation moved, so a cached block here is
   valid by construction; the [b_dgen] check is defensive. *)
let block_at_cached t phys pa =
  let dp = dpage_of t phys (pa / Phys.page_size) in
  let idx = (pa land (Phys.page_size - 1)) lsr 2 in
  let build () =
    t.st_builds <- t.st_builds + 1;
    (build_block t phys pa, false)
  in
  match dp.blk.(idx) with
  | Some b when b.b_dgen = dp.dgen && b.b_epoch = t.epoch && not b.b_dead ->
      (b, true)
  | None -> (
      match dp.tmpl.(idx) with
      | Some tb -> (clone_block t dp idx tb, true)
      | None -> build ())
  | Some _ -> build ()

let block_at t phys pa = fst (block_at_cached t phys pa)

(* Retire one block (bias retraining, never correctness): mark it dead
   so chain memos and the dispatcher refuse it; the next dispatch at
   its slot re-forms it from the live bias. *)
let kill_block b = b.b_dead <- true

(* Called by the dispatcher on the cold direction of a folded branch.
   The hot/cold window decides retraining: while cold exits stay rare
   relative to hot continuations the tree matches the observed bias
   and the window is periodically decayed; once cold catches up with
   hot the bias has flipped, so the block is killed, the branch's
   bias reset to neutral, and the next entry re-forms the tree (the
   block ends at the branch again until a fresh bias builds up). *)
let note_side_exit t b sx =
  t.st_side_exits <- t.st_side_exits + 1;
  sx.sx_cold <- sx.sx_cold + 1;
  if sx.sx_cold >= retrain_min then
    if sx.sx_cold >= sx.sx_hot then begin
      b.b_prof.(sx.sx_slot) <- 0;
      kill_block b;
      t.st_retrains <- t.st_retrains + 1
    end
    else begin
      sx.sx_hot <- sx.sx_hot / 2;
      sx.sx_cold <- 0
    end

(* Called by the dispatcher at [Bend] when the terminator is an
   unfolded conditional branch: bump the saturating bias counter, and
   once it crosses the fold threshold in a direction that formation
   recorded as foldable, kill the block so the next entry re-forms it
   with the branch folded in (growing the trace tree). *)
let note_term_outcome b ~taken =
  let v = b.b_prof.(b.b_term_slot) in
  let v' =
    if taken then if v < bias_sat then v + 1 else v
    else if v > -bias_sat then v - 1
    else v
  in
  b.b_prof.(b.b_term_slot) <- v';
  if
    (v' >= fold_threshold && b.b_fold_taken_ok)
    || (v' <= -fold_threshold && b.b_fold_fall_ok)
  then kill_block b

(* ------------------------------------------------------------------ *)
(* Chaining: each block memoizes up to two successor blocks keyed by
   target VA (fall-through and taken); each side exit memoizes one
   cold-direction target.  A link is only followed if the target block
   is from the current epoch and alive, its frame generation still
   matches, and the dispatcher's live instruction-fetch translation
   resolved the VA to the block's physical address.  Links may cross
   pages: the source side is covered by [chain_lookup]'s source-page
   check (and, for side exits, by the per-instruction generation check
   the block just ran under), so a store or IC IALLU touching *either*
   page severs the link. *)

let target_ok t phys ~pa = function
  | Some sb
    when sb.b_epoch = t.epoch && (not sb.b_dead) && sb.b_pa = pa
         && Phys.page_gen phys sb.b_page = sb.b_dgen ->
      Some sb
  | _ -> None

let chain_lookup t phys b ~va ~pa =
  if
    b.b_dead || b.b_epoch <> t.epoch
    || Phys.page_gen phys b.b_page <> b.b_dgen
  then None
  else if b.b_succ_va = va then target_ok t phys ~pa b.b_succ
  else if b.b_succ2_va = va then target_ok t phys ~pa b.b_succ2
  else None

let chain_store b ~va succ =
  if b.b_succ_va = va then b.b_succ <- Some succ
  else begin
    b.b_succ2_va <- b.b_succ_va;
    b.b_succ2 <- b.b_succ;
    b.b_succ_va <- va;
    b.b_succ <- Some succ
  end

let sx_chain_lookup t phys sx ~va ~pa =
  if sx.sx_chain_va = va then target_ok t phys ~pa sx.sx_chain else None

let sx_chain_store sx ~va succ =
  sx.sx_chain_va <- va;
  sx.sx_chain <- Some succ

(* ------------------------------------------------------------------ *)
(* Translation images *)

(* Freeze this core's caches for snapshot [snap] of [phys]. The pages
   whose decodes are current ([dgen] matches) and whose frame still
   holds the captured bytes move into the image as they are, keeping
   only blocks live in this epoch; nothing is copied. The core bumps
   its epoch, so it never runs (and so never writes) a moved block
   again, and adopts the image, so it gets its pages back as copies. *)
let freeze t phys snap =
  let pages = Hashtbl.create 16 in
  Hashtbl.filter_map_inplace
    (fun ppage dp ->
      let pa = ppage * Phys.page_size in
      if dp.dgen = Phys.page_gen phys pa && Phys.unchanged_since phys snap pa
      then begin
        Array.iteri
          (fun i -> function
            | Some b
              when b.b_dgen = dp.dgen && b.b_epoch = t.epoch && not b.b_dead
              ->
                ()
            | Some _ -> dp.blk.(i) <- None
            | None -> dp.blk.(i) <- dp.tmpl.(i))
          dp.blk;
        Hashtbl.replace pages ppage
          { x_code = dp.code; x_blk = dp.blk; x_bias = dp.bias };
        None
      end
      else Some dp)
    t.dcache;
  t.dlast_page <- -1;
  t.dlast <- no_dpage;
  t.epoch <- t.epoch + 1;
  let img = { x_snap = snap; x_pages = pages } in
  t.adopted <- Some img;
  img

let adopt t img = t.adopted <- Some img

(* ------------------------------------------------------------------ *)
(* Statistics *)

type stats = {
  blk_entries : int;
  blk_hits : int;
  blk_builds : int;
  blk_clones : int;
  blk_insns : int;
  chain_follows : int;
  side_exits : int;
  folds : int;
  depth_max : int;
  retrains : int;
}

let stats t =
  { blk_entries = t.st_entries;
    blk_hits = t.st_hits;
    blk_builds = t.st_builds;
    blk_clones = t.st_clones;
    blk_insns = t.st_insns;
    chain_follows = t.st_chain_follows;
    side_exits = t.st_side_exits;
    folds = t.st_folds;
    depth_max = t.st_depth_max;
    retrains = t.st_retrains }

let reset_stats t =
  t.st_hits <- 0;
  t.st_builds <- 0;
  t.st_clones <- 0;
  t.st_entries <- 0;
  t.st_insns <- 0;
  t.st_chain_follows <- 0;
  t.st_side_exits <- 0;
  t.st_folds <- 0;
  t.st_depth_max <- 0;
  t.st_retrains <- 0

let ratio num den = if den = 0 then nan else float_of_int num /. float_of_int den

let hit_rate s = ratio s.blk_hits s.blk_entries
let avg_block_len s = ratio s.blk_insns s.blk_entries
let chain_ratio s = ratio s.chain_follows s.blk_entries
