(* Coverage-guided differential fuzzing campaign over the gate /
   sanitizer / trap surface, seed 0xF022: 6000 cases, 2000 with
   `--smoke`. The corpus is written under fuzz-corpus/.

   Everything but the timings is deterministic for a fixed (seed,
   cases, domains) triple. Gates: no engine divergence, and the
   coverage key set, the coverage curve and the corpus size equal the
   baseline's, so a lost key fails the run and a gained one asks for
   the baseline to be refreshed. For ad-hoc campaigns with another
   seed or case count, use `lzctl fuzz run`. *)

module Campaign = Lz_fuzz.Campaign
module Json = Benchkit.Json

let () =
  let kit = Benchkit.init "fuzz" in
  let seed = 0xF022 and domains = 128 and dir = "fuzz-corpus" in
  let cases = if kit.smoke then 2000 else 6000 in
  let cfg =
    { Campaign.seed; cases; domains; dir = Some dir;
      log = (fun s -> Benchkit.say kit "%s" s) }
  in
  Benchkit.say kit "campaign seed 0x%X, %d cases, %d domains, corpus %s/" seed
    cases domains dir;
  let env = ref None in
  let warm_s =
    Benchkit.cpu_time (fun () ->
        env :=
          Some (Lz_fuzz.Oracle.create ~domains Lz_cpu.Cost_model.cortex_a55))
  in
  let stats = ref None in
  let seconds =
    Benchkit.cpu_time (fun () -> stats := Some (Campaign.run ?env:!env cfg))
  in
  let stats = Option.get !stats in
  let divergences = List.length stats.Campaign.failures in
  Benchkit.say kit
    "%d cases in %.1fs (%.1f cases/s): %d corpus entries, %d coverage keys, \
     %d divergences"
    cases seconds
    (float_of_int cases /. seconds)
    (List.length stats.Campaign.corpus_entries)
    (List.length stats.Campaign.keys)
    divergences;
  List.iter
    (fun (k, n) -> Benchkit.say kit "  %-12s %5d cases" k n)
    stats.Campaign.kind_counts;
  List.iter
    (fun (f : Campaign.failure) ->
      Benchkit.say kit "DIVERGENCE %s\n  shrunk: %s" f.Campaign.detail
        (Format.asprintf "%a" Lz_fuzz.Fuzz_case.pp f.Campaign.case))
    stats.Campaign.failures;
  Benchkit.finish kit
    [ ("seed", Int seed); ("cases", Int cases); ("domains", Int domains);
      ("warm_image_s", Benchkit.stats [| warm_s |]);
      ("cases_per_s", Benchkit.stats [| float_of_int cases /. seconds |]);
      ("coverage",
       Obj
         [ ("corpus_size", Int (List.length stats.Campaign.corpus_entries));
           ("curve",
            Obj
              (List.map
                 (fun (i, k) -> (string_of_int i, Json.Int k))
                 stats.Campaign.curve));
           ("keys", Arr (List.map (fun k -> Json.Str k) stats.Campaign.keys))
         ]) ]
    [ Benchkit.at_most "engine divergences" (float_of_int divergences) 0.;
      Same "coverage" ]
