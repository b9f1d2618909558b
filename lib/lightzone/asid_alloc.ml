(* Generation-based ASID allocation with recycling.

   The hardware ASID field is finite (14 bits in our TTBR encoding)
   while zone churn is unbounded: a monotonically increasing counter
   either overflows the field or silently aliases a live context's
   TLB tag. This allocator follows the Linux arm64 scheme instead:

   - Freeing an ASID does NOT flush the TLB. The freed ASID goes to a
     "dirty" pool — its stale entries are unreachable (nothing runs
     under a dead ASID) and flushing on every lz_free would make
     create/destroy churn O(TLB) per connection.
   - Allocation hands out clean ASIDs (never used, or dirtied before
     the last rollover flush) in O(1) amortized via a rotor scan.
   - When no clean ASID remains, the generation is bumped and one
     [flush] callback invalidates the whole VM's stage-1 context —
     every dirty ASID becomes clean at the cost of a single flush.
     Live ASIDs survive rollover: their holders keep running and
     simply refill the TLB.

   Invariant: an ASID is handed out only if no TLB entry tagged with
   it can exist — it was either never used, or every use predates the
   most recent rollover flush. *)

type t = {
  bits : int;
  space : int;  (* number of allocatable ASIDs: (1 lsl bits) - lo *)
  lo : int;  (* lowest allocatable ASID (0 is reserved for TTBR1) *)
  mutable live : Bytes.t;  (* '\001' = currently held by a zone *)
  mutable dirty : Bytes.t;  (* '\001' = freed since the last rollover flush *)
  mutable used : Bytes.t;  (* '\001' = handed out at least once, ever *)
  (* The three maps are shared with captured states (and with forks
     built from them), which never write them: the first change after
     a capture, restore or [of_state] copies them. *)
  mutable shared : bool;
  mutable rotor : int;  (* next scan position, in [0, space) *)
  mutable live_count : int;
  mutable generation : int;
  mutable rollovers : int;
  mutable recycled : int;  (* allocations that reused a prior ASID *)
  flush : unit -> unit;
}

let create ?(bits = 14) ~flush () =
  if bits < 2 || bits > 14 then invalid_arg "Asid_alloc.create: bits";
  let space = (1 lsl bits) - 1 in
  {
    bits;
    space;
    lo = 1;
    live = Bytes.make space '\000';
    dirty = Bytes.make space '\000';
    used = Bytes.make space '\000';
    shared = false;
    rotor = 0;
    live_count = 0;
    generation = 0;
    rollovers = 0;
    recycled = 0;
    flush;
  }

let bits t = t.bits
let space t = 1 lsl t.bits
let live_count t = t.live_count
let generation t = t.generation
let rollovers t = t.rollovers
let recycled t = t.recycled

let own t =
  if t.shared then begin
    t.live <- Bytes.copy t.live;
    t.dirty <- Bytes.copy t.dirty;
    t.used <- Bytes.copy t.used;
    t.shared <- false
  end

let rollover t =
  t.generation <- t.generation + 1;
  t.rollovers <- t.rollovers + 1;
  t.flush ();
  Bytes.fill t.dirty 0 t.space '\000'

(* Scan at most [space] slots from the rotor for a clean, free ASID. *)
let scan t =
  let rec go i remaining =
    if remaining = 0 then None
    else if
      Bytes.get t.live i = '\000' && Bytes.get t.dirty i = '\000'
    then Some i
    else go (if i + 1 = t.space then 0 else i + 1) (remaining - 1)
  in
  go t.rotor t.space

let alloc t =
  if t.live_count >= t.space then
    failwith
      (Printf.sprintf "Asid_alloc: all %d ASIDs live (too many zones)"
         t.space);
  own t;
  let slot =
    match scan t with
    | Some i -> i
    | None ->
        (* Every free ASID is dirty: bump the generation, flush the
           VM's TLB context once, and everything dirty becomes
           reusable. *)
        rollover t;
        (match scan t with
        | Some i -> i
        | None -> assert false (* live_count < space ⇒ a slot exists *))
  in
  Bytes.set t.live slot '\001';
  if Bytes.get t.used slot = '\001' then t.recycled <- t.recycled + 1
  else Bytes.set t.used slot '\001';
  t.live_count <- t.live_count + 1;
  t.rotor <- (if slot + 1 = t.space then 0 else slot + 1);
  slot + t.lo

let free t asid =
  let slot = asid - t.lo in
  if slot < 0 || slot >= t.space then invalid_arg "Asid_alloc.free: range";
  if Bytes.get t.live slot = '\000' then
    invalid_arg "Asid_alloc.free: ASID not live";
  own t;
  Bytes.set t.live slot '\000';
  (* Deferred invalidation: the ASID keeps its (unreachable) TLB
     entries until the next rollover flush cleans them wholesale. *)
  Bytes.set t.dirty slot '\001';
  t.live_count <- t.live_count - 1

let is_live t asid =
  let slot = asid - t.lo in
  slot >= 0 && slot < t.space && Bytes.get t.live slot = '\001'

(* ------------------------------------------------------------------ *)
(* Snapshot support *)

type state = {
  st_live : Bytes.t;
  st_dirty : Bytes.t;
  st_used : Bytes.t;
  st_rotor : int;
  st_live_count : int;
  st_generation : int;
  st_rollovers : int;
  st_recycled : int;
}

(* A state's maps are shared with [t], so they are never written. *)
let capture t =
  t.shared <- true;
  {
    st_live = t.live;
    st_dirty = t.dirty;
    st_used = t.used;
    st_rotor = t.rotor;
    st_live_count = t.live_count;
    st_generation = t.generation;
    st_rollovers = t.rollovers;
    st_recycled = t.recycled;
  }

let restore t s =
  if Bytes.length s.st_live <> t.space then
    invalid_arg "Asid_alloc.restore: space";
  t.live <- s.st_live;
  t.dirty <- s.st_dirty;
  t.used <- s.st_used;
  t.shared <- true;
  t.rotor <- s.st_rotor;
  t.live_count <- s.st_live_count;
  t.generation <- s.st_generation;
  t.rollovers <- s.st_rollovers;
  t.recycled <- s.st_recycled

(* A forked machine adopts the captured allocator under its own flush
   callback (its own VMID / TLB). *)
let of_state ~bits ~flush s =
  if (1 lsl bits) - 1 <> Bytes.length s.st_live then
    invalid_arg "Asid_alloc.of_state: bits";
  {
    bits;
    space = (1 lsl bits) - 1;
    lo = 1;
    live = s.st_live;
    dirty = s.st_dirty;
    used = s.st_used;
    shared = true;
    rotor = s.st_rotor;
    live_count = s.st_live_count;
    generation = s.st_generation;
    rollovers = s.st_rollovers;
    recycled = s.st_recycled;
    flush;
  }

let state_bits s =
  (* Recover the bit width from the captured arrays. *)
  let space = Bytes.length s.st_live in
  let rec go b = if (1 lsl b) - 1 >= space then b else go (b + 1) in
  go 2
