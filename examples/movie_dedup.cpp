// Movie-database deduplication on generated data (the paper's Data set 1
// scenario): generate a clean artificial movie collection, pollute it with
// duplicates, run SXNM with the observability layer on, and report
// recall / precision / f-measure against the known ground truth plus the
// engine's own per-pass DetectionReport, metrics, and gold-joined miss
// diagnosis.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "eval/miss_diagnosis.h"
#include "persist/io.h"
#include "sxnm/detector.h"
#include "util/exit_code.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

constexpr char kUsage[] =
    "Usage: movie_dedup [options] [num_movies] [window]\n"
    "\n"
    "Generates a clean movie collection, pollutes it with duplicates, runs\n"
    "SXNM, and scores the result against the known ground truth.\n"
    "\n"
    "Positional arguments:\n"
    "  num_movies        clean movies to generate (default 2000)\n"
    "  window            sliding-window size (default 10)\n"
    "\n"
    "Options:\n"
    "  --trace=PATH      write a Chrome trace_event JSON of the run\n"
    "                    (open in chrome://tracing or Perfetto)\n"
    "  --report=PATH     write the per-pass DetectionReport as JSON\n"
    "  --explain=PATH    write the decision-provenance log (NDJSON: one\n"
    "                    record per pair classification, cluster lineage);\n"
    "                    inspect with tools/sxnm_explain\n"
    "  --gold-out=PATH   write the gold labels as TSV\n"
    "                    (candidate<TAB>ordinal<TAB>eid<TAB>label), the\n"
    "                    join input for `sxnm_explain misses`\n"
    "  --telemetry=PATH  stream live NDJSON telemetry samples (counter\n"
    "                    rates, progress/ETA, RSS) to PATH while the run\n"
    "                    executes; watch with tools/sxnm_top --follow\n"
    "  --telemetry-interval-ms=N\n"
    "                    telemetry sampling period (default 250)\n"
    "  --profile=PATH    record exact CPU per span and write a folded-stack\n"
    "                    profile (flamegraph.pl format, counts in CPU µs)\n"
    "                    to PATH; render with tools/sxnm_flame\n"
    "  --profile-hz=N    deprecated and ignored (profiles no longer sample)\n"
    "  --help            show this help\n";

struct Options {
  size_t num_movies = 2000;
  size_t window = 10;
  std::string trace_path;
  std::string report_path;
  std::string explain_path;
  std::string gold_out_path;
  std::string telemetry_path;
  std::string telemetry_interval_ms;
  std::string profile_path;
  std::string profile_hz;  // deprecated: warned about and ignored
};

bool FlagValue(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

// Returns false (after printing usage) on a parse error or --help.
bool ParseArgs(int argc, char** argv, Options* opts, int* exit_code) {
  size_t positional = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::fputs(kUsage, stdout);
      *exit_code = 0;
      return false;
    }
    if (FlagValue(arg, "--trace", &opts->trace_path) ||
        FlagValue(arg, "--report", &opts->report_path) ||
        FlagValue(arg, "--explain", &opts->explain_path) ||
        FlagValue(arg, "--gold-out", &opts->gold_out_path) ||
        FlagValue(arg, "--telemetry", &opts->telemetry_path) ||
        FlagValue(arg, "--telemetry-interval-ms",
                  &opts->telemetry_interval_ms) ||
        FlagValue(arg, "--profile", &opts->profile_path) ||
        FlagValue(arg, "--profile-hz", &opts->profile_hz)) {
      continue;
    }
    if (arg[0] == '-' && arg[1] != '\0') {
      std::fprintf(stderr, "unknown option '%s'\n\n%s", arg, kUsage);
      *exit_code = sxnm::util::kExitUsage;
      return false;
    }
    char* end = nullptr;
    size_t value = std::strtoul(arg, &end, 10);
    if (end == arg || *end != '\0') {
      std::fprintf(stderr, "expected a number, got '%s'\n\n%s", arg, kUsage);
      *exit_code = sxnm::util::kExitUsage;
      return false;
    }
    if (positional == 0) {
      opts->num_movies = value;
    } else if (positional == 1) {
      opts->window = value;
    } else {
      std::fprintf(stderr, "too many positional arguments\n\n%s", kUsage);
      *exit_code = sxnm::util::kExitUsage;
      return false;
    }
    ++positional;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  int exit_code = 0;
  if (!ParseArgs(argc, argv, &opts, &exit_code)) return exit_code;

  // Generate clean data (ToXGene substitute), then pollute it (Dirty XML
  // Data Generator substitute).
  sxnm::datagen::MovieDataOptions gen;
  gen.num_movies = opts.num_movies;
  gen.seed = 20060326;  // EDBT 2006
  sxnm::xml::Document clean = sxnm::datagen::GenerateCleanMovies(gen);

  sxnm::datagen::DirtyStats dirty_stats;
  auto dirty = sxnm::datagen::MakeDirty(
      clean, sxnm::datagen::DataSet1DirtyPreset(/*seed=*/99), &dirty_stats);
  if (!dirty.ok()) {
    std::cerr << dirty.status().ToString() << "\n";
    return sxnm::util::ExitCodeForStatus(dirty.status());
  }
  std::printf("clean movies:      %zu\n", opts.num_movies);
  std::printf("duplicates added:  %zu\n", dirty_stats.duplicates_created);
  std::printf("values polluted:   %zu\n\n", dirty_stats.values_polluted);

  // Configure (Tab. 3(a)) with observability on and run.
  auto config = sxnm::datagen::MovieConfig(opts.window);
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return sxnm::util::kExitConfig;
  }
  config->mutable_observability().metrics = true;
  config->mutable_observability().trace_path = opts.trace_path;
  config->mutable_observability().report_path = opts.report_path;
  config->mutable_observability().explain_path = opts.explain_path;
  config->mutable_observability().telemetry_path = opts.telemetry_path;
  if (!opts.telemetry_interval_ms.empty()) {
    double interval =
        sxnm::util::ParseDoubleOr(opts.telemetry_interval_ms, 0.0);
    if (interval <= 0.0) {
      std::fprintf(stderr,
                   "--telemetry-interval-ms: not a positive number\n\n%s",
                   kUsage);
      return sxnm::util::kExitUsage;
    }
    config->mutable_observability().telemetry_interval_ms = interval;
  }
  config->mutable_observability().profile_path = opts.profile_path;
  if (!opts.profile_hz.empty()) {
    std::fprintf(stderr,
                 "warning: --profile-hz is deprecated and ignored: "
                 "profiles record exact per-span CPU time\n");
  }

  auto result = sxnm::core::Detector(config.value()).Run(dirty.value());
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return sxnm::util::ExitCodeForStatus(result.status());
  }
  const sxnm::core::CandidateResult* movie = result->Find("movie");

  auto gold = sxnm::eval::GoldClusterSet(
      dirty.value(), config->Find("movie")->absolute_path.ToString());
  if (!gold.ok()) {
    std::cerr << gold.status().ToString() << "\n";
    return sxnm::util::ExitCodeForStatus(gold.status());
  }
  sxnm::eval::PairMetrics quality =
      sxnm::eval::PairwiseMetrics(gold.value(), movie->clusters);

  std::printf("window size:       %zu\n", opts.window);
  std::printf("movie instances:   %zu\n", movie->num_instances);
  std::printf("comparisons:       %zu  (naive all-pairs: %zu)\n",
              movie->comparisons,
              movie->num_instances * (movie->num_instances - 1) / 2);
  std::printf("quality:           %s\n\n", quality.ToString().c_str());

  sxnm::util::TablePrinter phases({"phase", "seconds"});
  phases.AddRow({"key generation (KG)",
                 sxnm::util::FormatDouble(result->KeyGenerationSeconds(), 4)});
  phases.AddRow({"sliding window (SW)",
                 sxnm::util::FormatDouble(result->SlidingWindowSeconds(), 4)});
  phases.AddRow({"transitive closure (TC)",
                 sxnm::util::FormatDouble(
                     result->TransitiveClosureSeconds(), 4)});
  phases.AddRow({"duplicate detection (SW+TC)",
                 sxnm::util::FormatDouble(
                     result->DuplicateDetectionSeconds(), 4)});
  phases.Print(std::cout);

  // Gold-joined miss diagnosis: why each gold pair was missed, and what
  // each window pass contributed on its own.
  auto diagnosis = sxnm::eval::DiagnoseMisses(config.value(), dirty.value(),
                                              result.value(), "movie");
  if (!diagnosis.ok()) {
    std::cerr << diagnosis.status().ToString() << "\n";
    return sxnm::util::ExitCodeForStatus(diagnosis.status());
  }
  std::printf(
      "\nmiss diagnosis:    %zu missed pair(s): %zu never windowed, "
      "%zu windowed but rejected, %zu shed\n",
      diagnosis->misses.size(),
      diagnosis->CountKind(sxnm::eval::MissKind::kNeverWindowed),
      diagnosis->CountKind(sxnm::eval::MissKind::kWindowedButRejected),
      diagnosis->CountKind(sxnm::eval::MissKind::kShed));
  sxnm::eval::AttachAttribution(diagnosis.value(), result->report);
  std::printf("\nper-pass gold attribution:\n%s",
              result->report.AttributionTable().c_str());

  // The engine's own accounting: one row per (candidate, pass).
  std::printf("\nper-pass detection report:\n%s",
              result->report.ToTable().c_str());

  // The report and the registry describe the same kernel invocations.
  uint64_t counter = result->metrics.CounterOr("sw.comparisons");
  std::printf("\nregistry sw.comparisons:   %llu\n",
              static_cast<unsigned long long>(counter));
  std::printf("report total comparisons:  %llu  (%s)\n",
              static_cast<unsigned long long>(
                  result->report.TotalComparisons()),
              result->report.TotalComparisons() == counter ? "match"
                                                           : "MISMATCH");
  if (result->report.TotalComparisons() != counter) {
    return sxnm::util::kExitRuntime;
  }

  if (!opts.gold_out_path.empty()) {
    auto labels = sxnm::eval::GoldLabels(
        dirty.value(), config->Find("movie")->absolute_path.ToString());
    if (!labels.ok()) {
      std::cerr << labels.status().ToString() << "\n";
      return sxnm::util::ExitCodeForStatus(labels.status());
    }
    std::string tsv;
    for (size_t i = 0; i < labels->size(); ++i) {
      tsv += "movie\t" + std::to_string(i) + "\t" +
             std::to_string(movie->gk.rows[i].eid) + "\t" + (*labels)[i] +
             "\n";
    }
    auto wrote = sxnm::persist::AtomicWriteFile(opts.gold_out_path, tsv);
    if (!wrote.ok()) {
      std::fprintf(stderr, "failed writing gold labels to %s: %s\n",
                   opts.gold_out_path.c_str(), wrote.ToString().c_str());
      return sxnm::util::ExitCodeForStatus(wrote);
    }
    std::printf("gold labels written to %s\n", opts.gold_out_path.c_str());
  }
  if (!opts.trace_path.empty()) {
    std::printf("trace written to %s\n", opts.trace_path.c_str());
  }
  if (!opts.report_path.empty()) {
    std::printf("report written to %s\n", opts.report_path.c_str());
  }
  if (!opts.explain_path.empty()) {
    std::printf("explain log written to %s\n", opts.explain_path.c_str());
  }
  if (!opts.telemetry_path.empty()) {
    std::printf("telemetry written to %s (render with tools/sxnm_top)\n",
                opts.telemetry_path.c_str());
  }
  if (!opts.profile_path.empty()) {
    std::printf(
        "profile written to %s (%.3f s CPU; render with tools/sxnm_flame)\n",
        opts.profile_path.c_str(),
        static_cast<double>(result->profile.cpu_ns) * 1e-9);
  }
  return 0;
}
