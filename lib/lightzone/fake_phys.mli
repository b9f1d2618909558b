(** The physical-address randomization layer (paper Section 5.1.2).

    Stage-1 PTEs of TTBR-mode LightZone processes never contain real
    physical addresses: each real frame is assigned a *fake* physical
    (intermediate physical) address, allocated sequentially (the
    paper's example: the frames behind the first and second page
    faults get fake addresses 0x1000 and 0x2000). Stage-2 then maps
    fake → real. This stops a process that reads its own PTEs from
    learning DRAM layout (the Rowhammer hardening argument).

    PAN-mode processes use the [Identity] mode: fake = real, stage-2
    is an identity overlay. *)

type mode = Identity | Sequential

type t

val create : mode -> t

val assign : t -> real:int -> int
(** Fake address for a real frame (stable: assigning the same frame
    twice returns the same fake address). Frame-aligned. *)

val real_of_fake : t -> int -> int option
val fake_of_real : t -> int -> int option

val assigned : t -> int
(** Number of frames with fake addresses (table memory accounting). *)

(** {1 Snapshot} *)

type state

(** Restore and [of_state] share the captured tables instead of
    copying them, so each is O(1); later assignments go to a private
    overlay. [capture] is O(1) unless frames were assigned since the
    last capture or restore. *)

val capture : t -> state
val restore : t -> state -> unit

val of_state : state -> t
(** Independent tables built straight from a captured state (machine
    forking). *)
