(* Coverage-guided differential fuzzing campaign over the gate /
   sanitizer / trap surface. Emits BENCH_fuzz.json: cases/sec, the
   coverage curve, corpus size and the full sorted coverage-key set.

   Flags:
     --smoke        reduced, CI-sized campaign (fixed seed, 2000 cases)
     --cases N      override the case count
     --seed N       override the campaign seed
     --corpus DIR   persist the corpus (default fuzz-corpus/)
     --check FILE   regression gate: read a committed baseline first and
                    exit 1 if this run diverges anywhere or loses any
                    baseline coverage key (coverage regression)

   Everything except the timing fields in the JSON is deterministic
   for a fixed (seed, cases, domains) triple — the CI determinism
   check runs the campaign twice and diffs the key set. *)

module Campaign = Lz_fuzz.Campaign
module Oracle = Lz_fuzz.Oracle

let now () = Unix.gettimeofday ()

let arg_value name default =
  let rec go = function
    | a :: b :: _ when a = name -> b
    | _ :: rest -> go rest
    | [] -> default
  in
  go (Array.to_list Sys.argv)

let arg_flag name = Array.exists (( = ) name) Sys.argv

(* Crude line-oriented reader for the committed baseline: pulls the
   quoted strings out of the "keys" array and the divergence count. *)
let read_baseline file =
  if not (Sys.file_exists file) then None
  else begin
    let ic = open_in file in
    let keys = ref [] in
    let in_keys = ref false in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if String.length line >= 8 && String.sub line 0 8 = {|"keys": |} then
           in_keys := true
         else if !in_keys then
           if line = "]" || line = "]," then in_keys := false
           else
             let line =
               if Filename.check_suffix line "," then
                 String.sub line 0 (String.length line - 1)
               else line
             in
             if String.length line >= 2 && line.[0] = '"' then
               keys := String.sub line 1 (String.length line - 2) :: !keys
       done
     with End_of_file -> ());
    close_in ic;
    Some (List.rev !keys)
  end

let () =
  let smoke = arg_flag "--smoke" in
  let cases =
    int_of_string (arg_value "--cases" (if smoke then "2000" else "6000"))
  in
  let seed = int_of_string (arg_value "--seed" "0xF022") in
  let dir = arg_value "--corpus" "fuzz-corpus" in
  let check = arg_value "--check" "" in
  let domains = 128 in
  let baseline_keys =
    if check = "" then None
    else
      match read_baseline check with
      | Some ks ->
          Printf.printf "fuzz: baseline %s: %d coverage keys\n%!" check
            (List.length ks);
          Some ks
      | None ->
          Printf.printf "fuzz: no baseline at %s (first run?)\n%!" check;
          None
  in
  let cfg =
    {
      Campaign.seed;
      cases;
      domains;
      dir = Some dir;
      log = (fun s -> Printf.printf "fuzz: %s\n%!" s);
    }
  in
  Printf.printf
    "fuzz: campaign seed 0x%X, %d cases, %d domains, corpus %s/\n%!" seed
    cases domains dir;
  let t0 = now () in
  let env = Oracle.create ~domains Lz_cpu.Cost_model.cortex_a55 in
  let warm_seconds = now () -. t0 in
  Printf.printf "fuzz: warm image built in %.2fs\n%!" warm_seconds;
  let t1 = now () in
  let stats = Campaign.run ~env cfg in
  let seconds = now () -. t1 in
  let cases_per_sec = float_of_int cases /. seconds in
  let corpus_size = List.length stats.Campaign.corpus_entries in
  let nkeys = List.length stats.Campaign.keys in
  Printf.printf
    "fuzz: %d cases in %.1fs (%.1f cases/s): %d corpus entries, %d coverage \
     keys, %d divergences\n%!"
    cases seconds cases_per_sec corpus_size nkeys
    (List.length stats.Campaign.failures);
  List.iter
    (fun (k, n) -> Printf.printf "fuzz:   %-12s %5d cases\n%!" k n)
    stats.Campaign.kind_counts;
  List.iter
    (fun (f : Campaign.failure) ->
      Printf.printf "fuzz: DIVERGENCE %s\n  shrunk: %s\n%!" f.Campaign.detail
        (Format.asprintf "%a" Lz_fuzz.Fuzz_case.pp f.Campaign.case))
    stats.Campaign.failures;
  let json =
    Printf.sprintf
      {|{
  "bench": "fuzz",
  "smoke": %b,
  "seed": %d,
  "cases": %d,
  "domains": %d,
  "seconds": %.2f,
  "cases_per_sec": %.1f,
  "corpus_size": %d,
  "divergences": %d,
  "coverage_keys": %d,
  "curve": [
%s
  ],
  "keys": [
%s
  ]
}
|}
      smoke seed cases domains seconds cases_per_sec corpus_size
      (List.length stats.Campaign.failures)
      nkeys
      (String.concat ",\n"
         (List.map
            (fun (i, k) ->
              Printf.sprintf {|    { "cases": %d, "keys": %d }|} i k)
            stats.Campaign.curve))
      (String.concat ",\n"
         (List.map (Printf.sprintf {|    "%s"|}) stats.Campaign.keys))
  in
  let out = open_out "BENCH_fuzz.json" in
  output_string out json;
  close_out out;
  Printf.printf "fuzz: wrote BENCH_fuzz.json\n%!";
  let fail = ref false in
  if stats.Campaign.failures <> [] then begin
    Printf.eprintf "fuzz: FAIL — %d divergence(s) found\n"
      (List.length stats.Campaign.failures);
    fail := true
  end;
  (match baseline_keys with
  | Some ks ->
      let missing =
        List.filter (fun k -> not (List.mem k stats.Campaign.keys)) ks
      in
      if missing <> [] then begin
        Printf.eprintf
          "fuzz: FAIL — coverage regression, %d baseline key(s) missing:\n"
          (List.length missing);
        List.iter (Printf.eprintf "  %s\n") missing;
        fail := true
      end
      else
        Printf.printf "fuzz: coverage gate OK (%d baseline keys all hit)\n%!"
          (List.length ks)
  | None -> ());
  if !fail then exit 1
