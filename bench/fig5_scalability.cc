// Figure 5: scalability of the SXNM phases with data size and duplicate
// density. Four panels:
//   (a) clean data            — no duplicates at all
//   (b) "few duplicates"      — 20% dupProb for movie/title/person, 1 dup
//   (c) "many duplicates"     — 100% dupProb movie/person (up to 2), 20% title
//   (d) key-generation + sliding-window overhead of (b)/(c) vs clean
//
// Phases: KG = key generation, SW = sliding window, TC = transitive
// closure, DD = SW + TC (the paper's "duplicate detection"). Window = 3,
// candidates movie/title/person, exactly as Experiment set 2.
//
// Expected shape (paper): KG linear in size; SW dominates DD and grows
// with dirty-data volume; TC is negligible on clean data but grows
// sharply with "many duplicates"; few-duplicates overhead stays below
// ~20% while many-duplicates costs several times the clean run.
//
// Usage: fig5_scalability [--json <path>] [--scale-movies N]
//                         [--scale-budget BYTES] [--scale-shards S]
//                         [--profile <path.folded>] [--profile-hz N]
//                         [max_movies] [seed]
//
// --json additionally writes the panels machine-readably (per-size phase
// timings and comparison counts); format in docs/BENCHMARKS.md.
//
// --scale-movies N adds the out-of-core point (schema version 8): one
// sharded run over N clean movies with an external-sort memory budget
// (--scale-budget, default 2 GiB; suffixes k/m/g) and --scale-shards
// key-range shards (default 4), preceded by a small shards=1-vs-N
// identity sub-check. The JSON gains an `out_of_core` block with the
// engine's extsort/shard counters and the process's peak RSS
// (util::ReadProcMemory). The opt-in `bench_scale` ctest drives this
// at >= 1M generated-key rows.
//
// --profile attaches the sampling profiler (schema version 9) to every
// panel run and leaves the last (largest) run's folded-stack profile at
// <path.folded>; render with tools/sxnm_flame. --profile-hz overrides
// the 97 Hz default.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_json.h"
#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "sxnm/detector.h"
#include "util/proc_stat.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

struct PanelRow {
  size_t clean_movies = 0;
  size_t instances = 0;  // movie instances after pollution
  double kg = 0, sw = 0, tc = 0;
  // From the observability registry (the engine's own counters, not
  // bench-side bookkeeping):
  size_t comparisons = 0;         // unique merged comparisons
  size_t kernel_comparisons = 0;  // per-pass kernel invocations
  size_t pairs_windowed = 0;      // windowed pairs enumerated
  size_t ed_bailouts = 0;         // bounded edit-distance bailouts
  double dd() const { return sw + tc; }
};

// Set by --profile / --profile-hz; every panel run is profiled and the
// folded file holds the last (largest) run's spans.
std::string g_profile_path;
double g_profile_hz = 97.0;

sxnm::util::Result<PanelRow> RunOne(const sxnm::xml::Document& doc,
                                    size_t clean_movies) {
  auto config = sxnm::datagen::MovieScalabilityConfig(/*window=*/3);
  if (!config.ok()) return config.status();
  config->mutable_observability().metrics = true;
  config->mutable_observability().profile_path = g_profile_path;
  config->mutable_observability().profile_hz = g_profile_hz;
  sxnm::core::Detector detector(std::move(config).value());
  auto result = detector.Run(doc);
  if (!result.ok()) return result.status();
  PanelRow row;
  row.clean_movies = clean_movies;
  row.instances = result->Find("movie")->num_instances;
  row.kg = result->KeyGenerationSeconds();
  row.sw = result->SlidingWindowSeconds();
  row.tc = result->TransitiveClosureSeconds();
  row.comparisons = size_t(result->metrics.CounterOr("sw.unique_comparisons"));
  row.kernel_comparisons = size_t(result->metrics.CounterOr("sw.comparisons"));
  row.pairs_windowed = size_t(result->metrics.CounterOr("sw.pairs_windowed"));
  row.ed_bailouts = size_t(result->metrics.CounterOr("sw.ed_bailouts"));
  return row;
}

void WritePanelJson(sxnm::bench::JsonWriter& json, const char* name,
                    const std::vector<PanelRow>& rows) {
  json.BeginArray(name);
  for (const PanelRow& row : rows) {
    json.BeginObject();
    json.Field("clean_movies", row.clean_movies);
    json.Field("movie_instances", row.instances);
    json.BeginObject("phases");
    json.Field("key_generation_s", row.kg);
    json.Field("sliding_window_s", row.sw);
    json.Field("transitive_closure_s", row.tc);
    json.Field("duplicate_detection_s", row.dd());
    json.EndObject();
    json.Field("comparisons", row.comparisons);
    json.Field("kernel_comparisons", row.kernel_comparisons);
    json.Field("pairs_windowed", row.pairs_windowed);
    json.Field("ed_bailouts", row.ed_bailouts);
    json.EndObject();
  }
  json.EndArray();
}

void PrintPanel(const char* title, const std::vector<PanelRow>& rows) {
  std::printf("%s\n", title);
  sxnm::util::TablePrinter table({"movies(clean)", "movie instances",
                                  "KG(s)", "SW(s)", "TC(s)", "DD(s)"});
  for (const PanelRow& row : rows) {
    table.AddRow({std::to_string(row.clean_movies),
                  std::to_string(row.instances),
                  sxnm::util::FormatDouble(row.kg, 4),
                  sxnm::util::FormatDouble(row.sw, 4),
                  sxnm::util::FormatDouble(row.tc, 4),
                  sxnm::util::FormatDouble(row.dd(), 4)});
  }
  table.Print(std::cout);
}

// Parses `--name N` / `--name=N` out of argv (binary byte suffixes
// k/m/g accepted); returns `fallback` when absent. Mirrors
// bench::ExtractJsonFlag's in-place argv compaction.
uint64_t ExtractSizeFlag(int* argc, char** argv, std::string_view name,
                         uint64_t fallback) {
  uint64_t value = fallback;
  auto parse = [&](std::string_view text) {
    uint64_t multiplier = 1;
    if (!text.empty()) {
      switch (text.back()) {
        case 'k': case 'K': multiplier = uint64_t{1} << 10; break;
        case 'm': case 'M': multiplier = uint64_t{1} << 20; break;
        case 'g': case 'G': multiplier = uint64_t{1} << 30; break;
        default: break;
      }
      if (multiplier != 1) text.remove_suffix(1);
    }
    value = std::strtoull(std::string(text).c_str(), nullptr, 10) * multiplier;
  };
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == name && i + 1 < *argc) {
      parse(argv[++i]);
    } else if (arg.size() > name.size() + 1 && arg.substr(0, name.size()) == name &&
               arg[name.size()] == '=') {
      parse(arg.substr(name.size() + 1));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return value;
}

// Parses `--name VALUE` / `--name=VALUE` out of argv, compacting argv
// like ExtractSizeFlag; returns "" when absent.
std::string ExtractStringFlag(int* argc, char** argv, std::string_view name) {
  std::string value;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == name && i + 1 < *argc) {
      value = argv[++i];
    } else if (arg.size() > name.size() + 1 &&
               arg.substr(0, name.size()) == name &&
               arg[name.size()] == '=') {
      value = std::string(arg.substr(name.size() + 1));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return value;
}

struct OutOfCoreRun {
  PanelRow row;  // timings + detection counters of the sharded run
  uint64_t gk_rows = 0;
  uint64_t spilled_runs = 0;
  uint64_t spill_bytes = 0;
  uint64_t merge_fanin_max = 0;
  uint64_t overlap_rows = 0;
  uint64_t duplicate_pairs = 0;
  uint64_t clusters = 0;
};

sxnm::util::Result<OutOfCoreRun> RunOutOfCore(const sxnm::xml::Document& doc,
                                              size_t clean_movies,
                                              size_t shards,
                                              uint64_t budget_bytes) {
  auto config = sxnm::datagen::MovieScalabilityConfig(/*window=*/3);
  if (!config.ok()) return config.status();
  config->mutable_observability().metrics = true;
  config->set_shards(shards);
  config->set_memory_budget_bytes(budget_bytes);
  sxnm::core::Detector detector(std::move(config).value());
  auto result = detector.Run(doc);
  if (!result.ok()) return result.status();
  OutOfCoreRun run;
  run.row.clean_movies = clean_movies;
  run.row.instances = result->Find("movie")->num_instances;
  run.row.kg = result->KeyGenerationSeconds();
  run.row.sw = result->SlidingWindowSeconds();
  run.row.tc = result->TransitiveClosureSeconds();
  run.row.comparisons =
      size_t(result->metrics.CounterOr("sw.unique_comparisons"));
  run.row.kernel_comparisons =
      size_t(result->metrics.CounterOr("sw.comparisons"));
  run.row.pairs_windowed =
      size_t(result->metrics.CounterOr("sw.pairs_windowed"));
  run.row.ed_bailouts = size_t(result->metrics.CounterOr("sw.ed_bailouts"));
  run.gk_rows = uint64_t(result->metrics.CounterOr("extsort.rows"));
  run.spilled_runs = uint64_t(result->metrics.CounterOr("extsort.spilled_runs"));
  run.spill_bytes = uint64_t(result->metrics.CounterOr("extsort.spill_bytes"));
  run.merge_fanin_max =
      uint64_t(result->metrics.GaugeOr("extsort.merge_fanin_max"));
  run.overlap_rows = uint64_t(result->metrics.CounterOr("shard.overlap_rows"));
  run.duplicate_pairs =
      uint64_t(result->metrics.CounterOr("sw.unique_duplicates"));
  run.clusters = uint64_t(result->metrics.CounterOr("tc.clusters"));
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = sxnm::bench::ExtractJsonFlag(&argc, argv);
  uint64_t scale_movies =
      ExtractSizeFlag(&argc, argv, "--scale-movies", 0);
  uint64_t scale_budget = ExtractSizeFlag(&argc, argv, "--scale-budget",
                                          uint64_t{2} << 30);
  uint64_t scale_shards = ExtractSizeFlag(&argc, argv, "--scale-shards", 4);
  g_profile_path = ExtractStringFlag(&argc, argv, "--profile");
  uint64_t profile_hz = ExtractSizeFlag(&argc, argv, "--profile-hz", 0);
  if (profile_hz > 0) g_profile_hz = double(profile_hz);
  size_t max_movies = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 8000;
  uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 5;

  std::printf("=== Figure 5: scalability of the SXNM phases (window 3) ===\n\n");

  std::vector<size_t> sizes;
  for (size_t n = 500; n <= max_movies; n *= 2) sizes.push_back(n);

  std::vector<PanelRow> clean_rows, few_rows, many_rows;
  for (size_t n : sizes) {
    sxnm::datagen::MovieDataOptions gen;
    gen.num_movies = n;
    gen.seed = seed + n;
    sxnm::xml::Document clean = sxnm::datagen::GenerateCleanMovies(gen);

    auto clean_row = RunOne(clean, n);
    if (!clean_row.ok()) {
      std::cerr << clean_row.status().ToString() << "\n";
      return 1;
    }
    clean_rows.push_back(clean_row.value());

    auto few =
        sxnm::datagen::MakeDirty(clean, sxnm::datagen::FewDuplicatesPreset(seed));
    if (!few.ok()) {
      std::cerr << few.status().ToString() << "\n";
      return 1;
    }
    auto few_row = RunOne(few.value(), n);
    if (!few_row.ok()) {
      std::cerr << few_row.status().ToString() << "\n";
      return 1;
    }
    few_rows.push_back(few_row.value());

    auto many = sxnm::datagen::MakeDirty(
        clean, sxnm::datagen::ManyDuplicatesPreset(seed));
    if (!many.ok()) {
      std::cerr << many.status().ToString() << "\n";
      return 1;
    }
    auto many_row = RunOne(many.value(), n);
    if (!many_row.ok()) {
      std::cerr << many_row.status().ToString() << "\n";
      return 1;
    }
    many_rows.push_back(many_row.value());
  }

  PrintPanel("--- Panel (a): clean data ---", clean_rows);
  PrintPanel("--- Panel (b): few duplicates (20% dupProb) ---", few_rows);
  PrintPanel("--- Panel (c): many duplicates (100% movie/person dupProb) ---",
             many_rows);

  std::printf("--- Panel (d): KG+SW overhead vs clean data ---\n");
  sxnm::util::TablePrinter overhead({"movies(clean)", "few dups overhead",
                                     "many dups overhead"});
  for (size_t i = 0; i < sizes.size(); ++i) {
    double base = clean_rows[i].kg + clean_rows[i].sw;
    double few = few_rows[i].kg + few_rows[i].sw;
    double many = many_rows[i].kg + many_rows[i].sw;
    auto pct = [base](double v) {
      return sxnm::util::FormatDouble(100.0 * (v - base) / base, 1) + "%";
    };
    overhead.AddRow({std::to_string(sizes[i]), pct(few), pct(many)});
  }
  overhead.Print(std::cout);

  // Out-of-core point: a small identity sub-check (shards=1 in-memory
  // vs sharded+spilling must detect identically), then the big sharded
  // run under the memory budget.
  bool have_scale = scale_movies > 0;
  OutOfCoreRun identity_single, identity_sharded, scale_run;
  size_t identity_movies = 0;
  sxnm::util::ProcMemory scale_mem;
  double rss_slack = 1.25;
  if (have_scale) {
    identity_movies = std::min<size_t>(scale_movies, 20000);
    std::printf("\n--- Out-of-core: identity sub-check (%zu movies) ---\n",
                identity_movies);
    sxnm::datagen::MovieDataOptions gen;
    gen.num_movies = identity_movies;
    gen.seed = seed + identity_movies;
    sxnm::xml::Document small = sxnm::datagen::GenerateCleanMovies(gen);
    auto single = RunOutOfCore(small, identity_movies, /*shards=*/1,
                               /*budget_bytes=*/0);
    // A tight budget forces the sub-check through the spill path even
    // at this small size.
    auto sharded = RunOutOfCore(small, identity_movies, scale_shards,
                                /*budget_bytes=*/4 << 20);
    if (!single.ok() || !sharded.ok()) {
      std::cerr << (single.ok() ? sharded.status() : single.status())
                       .ToString()
                << "\n";
      return 1;
    }
    identity_single = single.value();
    identity_sharded = sharded.value();
    bool identical =
        identity_single.duplicate_pairs == identity_sharded.duplicate_pairs &&
        identity_single.row.comparisons == identity_sharded.row.comparisons &&
        identity_single.clusters == identity_sharded.clusters;
    std::printf("shards=1: %llu duplicate pairs, %zu comparisons; "
                "shards=%llu+spill: %llu pairs, %zu comparisons -> %s\n",
                (unsigned long long)identity_single.duplicate_pairs,
                identity_single.row.comparisons,
                (unsigned long long)scale_shards,
                (unsigned long long)identity_sharded.duplicate_pairs,
                identity_sharded.row.comparisons,
                identical ? "identical" : "MISMATCH");
    if (!identical) return 1;

    std::printf("\n--- Out-of-core: %llu movies, %llu shards, budget %llu "
                "bytes ---\n",
                (unsigned long long)scale_movies,
                (unsigned long long)scale_shards,
                (unsigned long long)scale_budget);
    gen.num_movies = scale_movies;
    gen.seed = seed + scale_movies;
    sxnm::xml::Document big = sxnm::datagen::GenerateCleanMovies(gen);
    auto scaled =
        RunOutOfCore(big, scale_movies, scale_shards, scale_budget);
    if (!scaled.ok()) {
      std::cerr << scaled.status().ToString() << "\n";
      return 1;
    }
    scale_run = scaled.value();
    scale_mem = sxnm::util::ReadProcMemory();
    std::printf("gk rows %llu  spilled runs %llu (%llu bytes)  "
                "max merge fan-in %llu\n",
                (unsigned long long)scale_run.gk_rows,
                (unsigned long long)scale_run.spilled_runs,
                (unsigned long long)scale_run.spill_bytes,
                (unsigned long long)scale_run.merge_fanin_max);
    std::printf("KG %.2fs  SW %.2fs  TC %.2fs  peak RSS %.1f MiB "
                "(budget %.1f MiB, slack %.2fx)\n",
                scale_run.row.kg, scale_run.row.sw, scale_run.row.tc,
                scale_mem.peak_rss_bytes / 1048576.0,
                scale_budget / 1048576.0, rss_slack);
    if (scale_mem.sampled &&
        scale_mem.peak_rss_bytes >
            static_cast<size_t>(scale_budget * rss_slack)) {
      std::fprintf(stderr,
                   "peak RSS %zu breaches the budget envelope %llu * %.2f\n",
                   scale_mem.peak_rss_bytes,
                   (unsigned long long)scale_budget, rss_slack);
      return 1;
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << "\n";
      return 1;
    }
    sxnm::bench::JsonWriter json(out);
    json.BeginObject();
    json.Field("bench", "fig5_scalability");
    json.Field("schema_version", size_t{10});
    json.Field("window", size_t{3});
    json.Field("seed", size_t(seed));
    WritePanelJson(json, "clean", clean_rows);
    WritePanelJson(json, "few_duplicates", few_rows);
    WritePanelJson(json, "many_duplicates", many_rows);
    if (have_scale) {
      json.BeginObject("out_of_core");
      json.Field("clean_movies", size_t(scale_movies));
      json.Field("movie_instances", scale_run.row.instances);
      json.Field("gk_rows", size_t(scale_run.gk_rows));
      json.Field("shards", size_t(scale_shards));
      json.Field("memory_budget_bytes", size_t(scale_budget));
      json.Field("peak_rss_bytes", scale_mem.peak_rss_bytes);
      json.Field("rss_sampled", scale_mem.sampled);
      json.Field("rss_slack", rss_slack);
      json.Field("spilled_runs", size_t(scale_run.spilled_runs));
      json.Field("spill_bytes", size_t(scale_run.spill_bytes));
      json.Field("merge_fanin_max", size_t(scale_run.merge_fanin_max));
      json.Field("overlap_rows", size_t(scale_run.overlap_rows));
      json.Field("duplicate_pairs", size_t(scale_run.duplicate_pairs));
      json.BeginObject("phases");
      json.Field("key_generation_s", scale_run.row.kg);
      json.Field("sliding_window_s", scale_run.row.sw);
      json.Field("transitive_closure_s", scale_run.row.tc);
      json.Field("duplicate_detection_s", scale_run.row.dd());
      json.EndObject();
      json.BeginObject("identity");
      json.Field("clean_movies", identity_movies);
      json.Field("shards", size_t(scale_shards));
      json.Field("duplicate_pairs_single",
                 size_t(identity_single.duplicate_pairs));
      json.Field("duplicate_pairs_sharded",
                 size_t(identity_sharded.duplicate_pairs));
      json.Field("comparisons_single", identity_single.row.comparisons);
      json.Field("comparisons_sharded", identity_sharded.row.comparisons);
      json.Field("identical", true);
      json.EndObject();
      json.EndObject();
    }
    json.EndObject();
    std::printf("panel data written to %s\n", json_path.c_str());
  }
  if (!g_profile_path.empty()) {
    std::printf("profile written to %s (last run's spans; render with "
                "tools/sxnm_flame)\n",
                g_profile_path.c_str());
  }
  return 0;
}
