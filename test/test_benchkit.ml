(* The bench harness: JSON write/read round trips on each bench's
   document shape, the flag parser, and gate verdicts on synthetic
   data. *)

open Benchkit
open Json

let stats m =
  Obj [ ("median", Num m); ("q1", Num m); ("q3", Num m); ("n", Int 5) ]

let host =
  Obj
    [ ("nproc", Int 2); ("ocaml", Str "5.1.1");
      ("loadavg_1m_start", Num 0.19); ("steal_pct", Num 1.69);
      ("noisy", Bool false) ]

let throughput =
  Obj
    [ ("host", host); ("iters", Int 300000);
      ("workloads",
       Obj
         [ ("nginx",
            Obj
              [ ("insns", Int 3000595); ("cycles", Int 7012345);
                ("blocks",
                 Obj
                   [ ("entries", Int 47468); ("side_exits", Int 586);
                     ("avg_block_len", Num 63.2124) ]);
                ("mips", Obj [ ("fast", stats 18.02); ("slow", stats 4.06) ]);
                ("speedup", stats 4.44); ("block_speedup", stats 1.67) ]) ]) ]

let scale =
  let row insns cyc =
    Obj
      [ ("insns", Int insns); ("cycles_per_switch", Num cyc);
        ("rollovers", Int 1) ]
  in
  Obj
    [ ("host", host); ("asid_bits", Int 10);
      ("rows", Obj [ ("32", row 123456 179.88); ("512", row 65432 180.0) ]);
      ("minor_words_per_switch",
       Obj [ ("per_insn", Num 0.0); ("blocks", Num 177.0) ]);
      ("top_bottom_mips", stats 1.05) ]

let fleet =
  Obj
    [ ("host", host); ("instances", Int 64);
      ("counts",
       Obj
         [ ("churned_insns", Obj [ ("1", Int 13819); ("16", Int 221104) ]);
           ("store_slots", Int 760) ]);
      ("fork_us", stats 105.); ("speedup_vs_cold", stats 90.25) ]

let smp =
  Obj
    [ ("host", host); ("insns", Obj [ ("1", Int 2400008); ("4", Int 9646928) ]);
      ("shootdown", Obj [ ("sent", Int 400); ("stall_barriers", Int 800) ]);
      ("mips", Obj [ ("1", stats 18.2) ]); ("speedup_4core", stats 0.96) ]

let fuzz =
  Obj
    [ ("host", host); ("seed", Int 0xF022);
      ("coverage",
       Obj
         [ ("corpus_size", Int 387);
           ("curve", Obj [ ("1", Int 13); ("2000", Int 82) ]);
           ("keys",
            Arr [ Str "blk:chains"; Str "ev:domain_switch"; Str "q\"\\\n" ]) ])
    ]

let trace =
  Obj
    [ ("Carmel Host",
       Obj
         [ ("total_cycles", Int 795800); ("coverage", Num 1.0);
           ("spans",
            Arr [ Obj [ ("name", Str "trap.hvc"); ("count", Int 136) ] ]);
           ("points", Arr []) ]) ]

let file mode doc = Obj [ ("bench", Str "x"); (mode, doc) ]

let test_round_trip () =
  List.iter
    (fun (name, doc) ->
      let doc = file "full" doc in
      Alcotest.(check bool)
        (name ^ " reads back") true
        (of_string (to_string doc) = doc))
    [ ("throughput", throughput); ("scale", scale); ("fleet", fleet);
      ("smp", smp); ("fuzz", fuzz); ("table5 trace", trace) ];
  (* Measured floats carry more digits than the writer keeps: writing
     what was read gives the same text. *)
  let measured =
    Obj [ ("t", Num (1. /. 3.)); ("big", Num 1234567.5); ("nan", Num nan) ]
  in
  let text = to_string measured in
  Alcotest.(check string) "idempotent" text (to_string (of_string text));
  List.iter
    (fun bad ->
      match of_string bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Failure _ -> ())
    [ ""; "{"; "[1,]"; {|{"a" 1}|}; "tru"; "1 2"; {|"open|} ]

let test_flags () =
  let p = parse_args ~name:"scale" in
  Alcotest.(check bool) "none" true (p [] = Ok (false, None));
  Alcotest.(check bool) "smoke, default file" true
    (p [ "--smoke"; "--check" ] = Ok (true, Some "BENCH_scale.json"));
  Alcotest.(check bool) "named file" true
    (p [ "--check"; "base.json"; "--smoke" ] = Ok (true, Some "base.json"));
  Alcotest.(check bool) "no other flag" true
    (p [ "--cases"; "10" ] = Error "--cases")

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let reasons = List.filter_map (function Error e -> Some e | Ok _ -> None)
let passes what vs = Alcotest.(check (list string)) what [] (reasons vs)

let fails_with what needle vs =
  match reasons vs with
  | [ e ] when contains e needle -> ()
  | es ->
      Alcotest.failf "%s: expected one failure naming %S, got [%s]" what
        needle (String.concat "; " es)

(* [doc] with the value at dotted path [p] replaced by [v]. *)
let edit p v doc =
  let rec go keys doc =
    match (keys, doc) with
    | [], _ -> v
    | k :: tl, Obj kv ->
        Obj (List.map (fun (k', x) -> (k', if k = k' then go tl x else x)) kv)
    | _ -> doc
  in
  go (String.split_on_char '.' p) doc

let test_gate () =
  let len = to_float (path "workloads.nginx.blocks.avg_block_len" throughput) in
  let checks =
    [ Same "workloads.nginx.cycles"; Same "workloads.nginx.blocks";
      Ratio "workloads.nginx.block_speedup";
      at_least "nginx avg_block_len" len 10. ]
  in
  let base = Some (Ok throughput) in
  let against doc = verdicts ~baseline:base doc checks in
  passes "clean input" (against throughput);
  fails_with "one more cycle"
    "changed: workloads.nginx.cycles 7012346, baseline 7012345"
    (against (edit "workloads.nginx.cycles" (Int 7012346) throughput));
  (* 1.67 x 0.8 = 1.336: 1.34 is inside the band, 1.33 below it. *)
  passes "ratio inside the band"
    (against (edit "workloads.nginx.block_speedup" (stats 1.34) throughput));
  fails_with "ratio below the band" "more than 20% below"
    (against (edit "workloads.nginx.block_speedup" (stats 1.33) throughput));
  fails_with "bound" "nginx avg_block_len"
    (verdicts ~baseline:None throughput
       [ at_least "nginx avg_block_len" 4. 10. ]);
  passes "without --check only bounds apply"
    (verdicts ~baseline:None
       (edit "workloads.nginx.cycles" (Int 1) throughput)
       checks);
  let words = [ Not_above "minor_words_per_switch.blocks" ] in
  let base = Some (Ok scale) in
  fails_with "allocation rose" "rose"
    (verdicts ~baseline:base
       (edit "minor_words_per_switch.blocks" (Num 178.) scale)
       words);
  passes "allocation fell"
    (verdicts ~baseline:base
       (edit "minor_words_per_switch.blocks" (Num 0.) scale)
       words);
  fails_with "one block stat" "changed: workloads.nginx.blocks.side_exits 587"
    (against (edit "workloads.nginx.blocks.side_exits" (Int 587) throughput));
  fails_with "a key lost and one gained"
    {|coverage.keys lost ["blk:chains"], gained ["x"]|}
    (verdicts ~baseline:(Some (Ok fuzz))
       (edit "coverage.keys"
          (Arr [ Str "x"; Str "ev:domain_switch"; Str "q\"\\\n" ])
          fuzz)
       [ Same "coverage" ]);
  fails_with "quantity absent from the baseline" "missing from the baseline"
    (verdicts ~baseline:(Some (Ok fleet)) scale [ Same "rows" ])

let test_missing_baseline () =
  let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name in
  let absent = tmp "benchkit-absent.json" in
  if Sys.file_exists absent then Sys.remove absent;
  let write path text =
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  let smoke_only = tmp "benchkit-smoke-only.json" in
  write smoke_only (to_string (file "smoke" scale));
  let garbled = tmp "benchkit-garbled.json" in
  write garbled {|{"full": |};
  List.iter
    (fun (what, path, needle) ->
      let baseline = Some (baseline ~mode:"full" path) in
      fails_with what needle
        (verdicts ~baseline scale [ Same "rows"; at_most "x" 0. 1. ]))
    [ ("no file", absent, "not found");
      ("no full section", smoke_only, "no full-mode baseline");
      ("garbled", garbled, "JSON") ];
  Alcotest.(check bool) "same mode found" true
    (baseline ~mode:"smoke" smoke_only = Ok scale);
  List.iter Sys.remove [ smoke_only; garbled ]

let () =
  Alcotest.run "benchkit"
    [ ( "kit",
        [ Alcotest.test_case "json round trip per bench" `Quick
            test_round_trip;
          Alcotest.test_case "flags" `Quick test_flags;
          Alcotest.test_case "gate verdicts" `Quick test_gate;
          Alcotest.test_case "missing baseline fails --check" `Quick
            test_missing_baseline ] ) ]
