(* Reference-pass results at full size for the default seed: simulated
   insns and cycles and the architectural digest each workload's
   set-up must reproduce exactly. user-compute runs fixed programs, so
   its entry applies to every seed. A full-size run prints its
   reference pass on stderr; copy it here only after a change that is
   meant to alter simulated behaviour. *)

let default_seed = 1

let table : (string * Workloads.reference) list =
  [ ( "user-compute",
      { ops = 3072; insns = 37911; cycles = 90506;
        digest = "d8da96ee0cd9c2d0343e5778dfc385df" } );
    ( "zone-switch",
      { ops = 16384; insns = 754050; cycles = 2830208;
        digest = "e87ece03dba134b055fe55ab0ee8d99e" } );
    ( "tenant-churn",
      { ops = 512; insns = 306618; cycles = 2867514;
        digest = "09b17863f6d187e0d5a762e61ee1b805/gen=0" } );
    ( "fleet-fork",
      { ops = 1; insns = 11792; cycles = 66488;
        digest = "464f79dc6e33c698e22d06b7daa02704" } ) ]
