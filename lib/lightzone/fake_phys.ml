type mode = Identity | Sequential

(* The assignment tables are a shared base plus a private overlay.
   A base may be shared with captured states and with every table
   built from them, so it is never written: assignments go to the
   overlay. Entries are only ever added, and [assign] looks a frame up
   before adding it, so base and overlay never hold the same key.
   Forking is then O(1) whatever the base's size, and a fork pays
   only for the frames it assigns itself. *)
type t = {
  mode : mode;
  mutable next : int;
  mutable fwd_base : (int, int) Hashtbl.t;  (* real frame -> fake frame *)
  mutable rev_base : (int, int) Hashtbl.t;
  fwd : (int, int) Hashtbl.t;  (* overlay of [fwd_base] *)
  rev : (int, int) Hashtbl.t;
}

let empty () = Hashtbl.create 8

let create mode =
  { mode; next = 0x1000; fwd_base = empty (); rev_base = empty ();
    fwd = Hashtbl.create 64; rev = Hashtbl.create 64 }

let find base overlay k =
  match if Hashtbl.length base = 0 then None else Hashtbl.find_opt base k with
  | Some _ as r -> r
  | None -> Hashtbl.find_opt overlay k

let assign t ~real =
  let real = Lz_arm.Bits.align_down real 4096 in
  match t.mode with
  | Identity -> real
  | Sequential -> (
      match find t.fwd_base t.fwd real with
      | Some fake -> fake
      | None ->
          let fake = t.next in
          t.next <- t.next + 4096;
          Hashtbl.add t.fwd real fake;
          Hashtbl.add t.rev fake real;
          fake)

let real_of_fake t fake =
  match t.mode with
  | Identity -> Some fake
  | Sequential -> find t.rev_base t.rev (Lz_arm.Bits.align_down fake 4096)

let fake_of_real t real =
  match t.mode with
  | Identity -> Some real
  | Sequential -> find t.fwd_base t.fwd (Lz_arm.Bits.align_down real 4096)

let assigned t =
  match t.mode with
  | Identity -> 0
  | Sequential -> Hashtbl.length t.fwd_base + Hashtbl.length t.fwd

(* A state's tables become bases, so they are never written. *)
type state = {
  s_mode : mode;
  s_next : int;
  s_fwd : (int, int) Hashtbl.t;
  s_rev : (int, int) Hashtbl.t;
}

(* Fold the overlay into a new base, which the state and [t] share. *)
let capture t =
  if Hashtbl.length t.fwd > 0 then begin
    let merge base overlay =
      let m = Hashtbl.copy base in
      Hashtbl.iter (Hashtbl.add m) overlay;
      Hashtbl.reset overlay;
      m
    in
    t.fwd_base <- merge t.fwd_base t.fwd;
    t.rev_base <- merge t.rev_base t.rev
  end;
  { s_mode = t.mode; s_next = t.next; s_fwd = t.fwd_base;
    s_rev = t.rev_base }

let of_state s =
  { mode = s.s_mode; next = s.s_next; fwd_base = s.s_fwd; rev_base = s.s_rev;
    fwd = empty (); rev = empty () }

let restore t s =
  t.next <- s.s_next;
  t.fwd_base <- s.s_fwd;
  t.rev_base <- s.s_rev;
  Hashtbl.reset t.fwd;
  Hashtbl.reset t.rev
