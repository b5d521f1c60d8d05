// M3: microbenchmarks for the SXNM pipeline stages — key generation,
// GK sorting, one full detector run, and the transitive closure — on
// generated movie data. These are the building blocks of Fig. 5's curves.
//
// Usage:
//   micro_pipeline [google-benchmark flags]   runs the microbenchmarks
//   micro_pipeline --json <path>              writes the pipeline engine
//       profile (phase timings + comparison counts for the serial legacy
//       kernels, serial fast kernels, and multi-threaded fast kernels)
//       to <path> instead; format in docs/BENCHMARKS.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "obs/trace.h"
#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "persist/io.h"
#include "sxnm/candidate_tree.h"
#include "sxnm/checkpoint.h"
#include "sxnm/detector.h"
#include "sxnm/key_generation.h"
#include "sxnm/transitive_closure.h"
#include "util/fault_injection.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

sxnm::xml::Document DirtyMovies(size_t n) {
  sxnm::datagen::MovieDataOptions options;
  options.num_movies = n;
  options.seed = 7;
  sxnm::xml::Document clean = sxnm::datagen::GenerateCleanMovies(options);
  return sxnm::datagen::MakeDirty(clean,
                                  sxnm::datagen::DataSet1DirtyPreset(1))
      .value();
}

void BM_KeyGeneration(benchmark::State& state) {
  sxnm::xml::Document doc = DirtyMovies(size_t(state.range(0)));
  auto config = sxnm::datagen::MovieConfig(10).value();
  auto forest = sxnm::core::CandidateForest::Build(config, doc).value();
  const auto& instances = forest.candidates()[0];
  for (auto _ : state) {
    auto gk = sxnm::core::GenerateKeys(*instances.config, instances);
    benchmark::DoNotOptimize(gk.rows.size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(instances.NumInstances()));
}
BENCHMARK(BM_KeyGeneration)->Arg(500)->Arg(2000);

void BM_GkSort(benchmark::State& state) {
  sxnm::xml::Document doc = DirtyMovies(2000);
  auto config = sxnm::datagen::MovieConfig(10).value();
  auto forest = sxnm::core::CandidateForest::Build(config, doc).value();
  auto gk = sxnm::core::GenerateKeys(*forest.candidates()[0].config,
                                     forest.candidates()[0]);
  for (auto _ : state) {
    auto order = gk.SortedOrder(0);
    benchmark::DoNotOptimize(order.size());
  }
}
BENCHMARK(BM_GkSort);

void BM_DetectorFullRun(benchmark::State& state) {
  sxnm::xml::Document doc = DirtyMovies(size_t(state.range(0)));
  sxnm::core::Detector detector(sxnm::datagen::MovieConfig(10).value());
  for (auto _ : state) {
    auto result = detector.Run(doc);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_DetectorFullRun)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_TransitiveClosure(benchmark::State& state) {
  // Random pair soup over n instances.
  size_t n = size_t(state.range(0));
  sxnm::util::Rng rng(3);
  std::vector<sxnm::core::OrdinalPair> pairs;
  for (size_t i = 0; i < n / 2; ++i) {
    size_t a = rng.NextBelow(n);
    size_t b = rng.NextBelow(n);
    if (a != b) pairs.push_back(std::minmax(a, b));
  }
  for (auto _ : state) {
    auto clusters = sxnm::core::ComputeTransitiveClosure(n, pairs);
    benchmark::DoNotOptimize(clusters.num_clusters());
  }
}
BENCHMARK(BM_TransitiveClosure)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CandidateForestBuild(benchmark::State& state) {
  sxnm::xml::Document doc = DirtyMovies(size_t(state.range(0)));
  auto config = sxnm::datagen::MovieScalabilityConfig(3).value();
  for (auto _ : state) {
    auto forest = sxnm::core::CandidateForest::Build(config, doc);
    benchmark::DoNotOptimize(forest.ok());
  }
}
BENCHMARK(BM_CandidateForestBuild)->Arg(500)->Arg(2000);

// ---------------------------------------------------------------------------
// --json: pipeline engine profile (docs/BENCHMARKS.md).

struct EngineVariant {
  const char* name;
  size_t num_threads;
  bool fast_paths;
};

struct EngineProfile {
  double kg = 0, sw = 0, tc = 0;
  size_t duplicate_pairs = 0;
  // Engine metrics of the first repeat (counts are run-deterministic;
  // only the timings vary, and those take the best-of-repeats).
  sxnm::obs::MetricsSnapshot metrics;
  // Governance outcome of the first repeat: the bench runs without
  // limits, so this documents that the ungoverned path sheds nothing.
  sxnm::core::DegradationReport degradation;

  size_t comparisons() const {
    return size_t(metrics.CounterOr("sw.unique_comparisons"));
  }
};

// Best-of-`repeats` phase timings of one engine variant over `doc`.
// Comparison counts come from the observability registry rather than
// hand-maintained bench counters.
EngineProfile ProfileVariant(const sxnm::xml::Document& doc,
                             const sxnm::core::Config& base_config,
                             const EngineVariant& variant, int repeats) {
  sxnm::core::Config config = base_config;
  config.set_num_threads(variant.num_threads);
  config.mutable_observability().metrics = true;
  for (auto& cand : config.mutable_candidates()) {
    cand.enable_fast_paths = variant.fast_paths;
  }
  sxnm::core::Detector detector(std::move(config));

  EngineProfile best;
  for (int r = 0; r < repeats; ++r) {
    auto result = detector.Run(doc);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      std::exit(1);
    }
    if (r == 0) {
      best.metrics = result->metrics;
      best.degradation = result->degradation;
      best.duplicate_pairs = result->Find("movie")->duplicate_pairs.size();
      best.kg = result->KeyGenerationSeconds();
      best.sw = result->SlidingWindowSeconds();
      best.tc = result->TransitiveClosureSeconds();
    } else {
      best.kg = std::min(best.kg, result->KeyGenerationSeconds());
      best.sw = std::min(best.sw, result->SlidingWindowSeconds());
      best.tc = std::min(best.tc, result->TransitiveClosureSeconds());
    }
  }
  return best;
}

// One arm of the telemetry overhead A/B: best-of-repeats wall-clock of a
// full detector run, with the periodic sampler either streaming to
// `telemetry_path` or (empty path) off.
struct TelemetryProbe {
  double seconds = 0;
  size_t duplicate_pairs = 0;
  size_t samples = 0;  // sample records in the stream (on-arm only)
};

// Runs the off arm and the on arm strictly interleaved (off, on, off,
// on, ...) and reports each arm's MEDIAN wall clock. Interleaving makes
// both arms sample the same frequency/scheduler drift instead of each
// arm eating a different phase of it, and the median shrugs off the
// occasional descheduled run that best-of-N turns into a coin flip.
std::pair<TelemetryProbe, TelemetryProbe> ProfileTelemetryAb(
    const sxnm::xml::Document& doc, const sxnm::core::Config& base_config,
    const std::string& telemetry_path, double interval_ms, int repeats) {
  auto make_detector = [&](const std::string& path) {
    sxnm::core::Config config = base_config;
    config.mutable_observability().metrics = true;
    config.mutable_observability().telemetry_path = path;
    config.mutable_observability().telemetry_interval_ms = interval_ms;
    return sxnm::core::Detector(std::move(config));
  };
  sxnm::core::Detector off_detector = make_detector("");
  sxnm::core::Detector on_detector = make_detector(telemetry_path);

  TelemetryProbe off;
  TelemetryProbe on;
  std::vector<double> off_times;
  std::vector<double> on_times;
  for (int r = 0; r < repeats; ++r) {
    for (bool with_telemetry : {false, true}) {
      sxnm::core::Detector& detector =
          with_telemetry ? on_detector : off_detector;
      auto start = std::chrono::steady_clock::now();
      auto result = detector.Run(doc);
      double seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (!result.ok()) {
        std::cerr << result.status().ToString() << "\n";
        std::exit(1);
      }
      TelemetryProbe& probe = with_telemetry ? on : off;
      (with_telemetry ? on_times : off_times).push_back(seconds);
      probe.duplicate_pairs = result->Find("movie")->duplicate_pairs.size();
    }
  }
  std::sort(off_times.begin(), off_times.end());
  std::sort(on_times.begin(), on_times.end());
  off.seconds = off_times[off_times.size() / 2];
  on.seconds = on_times[on_times.size() / 2];
  // Each run truncates the stream, so this counts the last repeat's.
  std::ifstream in(telemetry_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\": \"sample\"") != std::string::npos) {
      ++on.samples;
    }
  }
  return {off, on};
}

// One arm pair of the CPU-profiling overhead A/B, interleaved like
// ProfileTelemetryAb (off, on, off, on, ...) with per-arm medians. The
// on arm additionally keeps the last repeat's per-span CPU profile for
// the JSON block's span table.
struct ProfilerProbe {
  double seconds = 0;
  size_t duplicate_pairs = 0;
  sxnm::obs::CpuProfile profile;  // on arm only
};

std::pair<ProfilerProbe, ProfilerProbe> ProfileProfilerAb(
    const sxnm::xml::Document& doc, const sxnm::core::Config& base_config,
    const std::string& folded_path, int repeats) {
  auto make_detector = [&](const std::string& path) {
    sxnm::core::Config config = base_config;
    config.mutable_observability().metrics = true;
    config.mutable_observability().profile_path = path;
    return sxnm::core::Detector(std::move(config));
  };
  sxnm::core::Detector off_detector = make_detector("");
  sxnm::core::Detector on_detector = make_detector(folded_path);

  ProfilerProbe off;
  ProfilerProbe on;
  std::vector<double> off_times;
  std::vector<double> on_times;
  for (int r = 0; r < repeats; ++r) {
    for (bool with_profiler : {false, true}) {
      sxnm::core::Detector& detector =
          with_profiler ? on_detector : off_detector;
      auto start = std::chrono::steady_clock::now();
      auto result = detector.Run(doc);
      double seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      if (!result.ok()) {
        std::cerr << result.status().ToString() << "\n";
        std::exit(1);
      }
      ProfilerProbe& probe = with_profiler ? on : off;
      (with_profiler ? on_times : off_times).push_back(seconds);
      probe.duplicate_pairs = result->Find("movie")->duplicate_pairs.size();
      if (with_profiler) probe.profile = std::move(result->profile);
    }
  }
  std::sort(off_times.begin(), off_times.end());
  std::sort(on_times.begin(), on_times.end());
  off.seconds = off_times[off_times.size() / 2];
  on.seconds = on_times[on_times.size() / 2];
  return {off, on};
}

// Snapshot cost at the post-KG durability point: the GK relation (rows,
// keys, interned OD pool) dominates snapshot size, so this measures the
// worst-case frame payload a checkpoint of a `movies`-sized corpus
// commits and reloads.
struct SnapshotProbe {
  uint64_t bytes = 0;
  uint64_t frames = 0;
  double write_ms = 0;
  double load_ms = 0;
};

SnapshotProbe ProfileSnapshot(size_t movies, const std::string& path) {
  sxnm::xml::Document doc = DirtyMovies(movies);
  auto config = sxnm::datagen::MovieConfig(10).value();
  auto forest = sxnm::core::CandidateForest::Build(config, doc).value();
  std::vector<sxnm::core::GkTable> gk;
  std::vector<char> kg_done;
  for (const auto& cand : forest.candidates()) {
    gk.push_back(sxnm::core::GenerateKeys(*cand.config, cand));
    kg_done.push_back(1);
  }
  sxnm::core::EngineSnapshotView view;
  view.fingerprint.config_fingerprint = sxnm::core::ConfigFingerprint(config);
  view.fingerprint.doc_fingerprint = sxnm::core::DocumentFingerprint(doc);
  view.gk = &gk;
  view.kg_done = &kg_done;

  SnapshotProbe probe;
  probe.write_ms = 1e100;
  probe.load_ms = 1e100;
  constexpr int kProbeRepeats = 5;
  for (int r = 0; r < kProbeRepeats; ++r) {
    sxnm::core::SnapshotWriteStats stats;
    auto start = std::chrono::steady_clock::now();
    auto status = sxnm::core::SaveEngineSnapshot(view, path, &stats);
    std::chrono::duration<double, std::milli> write =
        std::chrono::steady_clock::now() - start;
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      std::exit(1);
    }
    probe.bytes = stats.bytes;
    probe.frames = stats.frames;
    probe.write_ms = std::min(probe.write_ms, write.count());

    start = std::chrono::steady_clock::now();
    auto loaded = sxnm::core::LoadEngineSnapshot(path, view.fingerprint);
    std::chrono::duration<double, std::milli> load =
        std::chrono::steady_clock::now() - start;
    if (!loaded.ok()) {
      std::cerr << loaded.status().ToString() << "\n";
      std::exit(1);
    }
    probe.load_ms = std::min(probe.load_ms, load.count());
  }
  sxnm::persist::RemoveFile(path);
  return probe;
}

// One arm of the checkpoint overhead A/B: best-of-repeats wall-clock of
// a full detector run with every-pass checkpointing on (`ckpt_path`
// non-empty) or off. Phase timers exclude the snapshot commits, so this
// measures the real wall, not the phase sum.
std::pair<double, size_t> ProfileCheckpointArm(
    const sxnm::xml::Document& doc, const sxnm::core::Config& base_config,
    const std::string& ckpt_path, int repeats) {
  sxnm::core::Config config = base_config;
  config.mutable_checkpoint().path = ckpt_path;
  config.mutable_checkpoint().every_pass = !ckpt_path.empty();
  sxnm::core::Detector detector(std::move(config));
  double best = 1e100;
  size_t pairs = 0;
  for (int r = 0; r < repeats; ++r) {
    auto start = std::chrono::steady_clock::now();
    auto result = detector.Run(doc);
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      std::exit(1);
    }
    best = std::min(best, wall.count());
    pairs = result->Find("movie")->duplicate_pairs.size();
  }
  return {best, pairs};
}

int WritePipelineJson(const std::string& path) {
  constexpr size_t kMovies = 2000;
  constexpr int kRepeats = 3;
  sxnm::xml::Document doc = DirtyMovies(kMovies);
  auto movie_config = sxnm::datagen::MovieConfig(10).value();

  // "serial_legacy" is the pre-fast-path engine: one thread, set-based
  // descendant Jaccard, unbounded edit distances, per-pair OD
  // normalization. The other variants isolate, in order: the kernel fast
  // paths, and the thread scaling on top of them.
  const EngineVariant variants[] = {
      {"serial_legacy", 1, false},
      {"serial_fast", 1, true},
      {"threads4_fast", 4, true},
  };

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  sxnm::bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("bench", "micro_pipeline");
  json.Field("schema_version", size_t{11});
  json.BeginObject("dataset");
  json.Field("generator", "movies+DataSet1DirtyPreset");
  json.Field("clean_movies", kMovies);
  json.Field("window", size_t{10});
  json.Field("repeats", size_t{kRepeats});
  json.EndObject();
  json.Field("hardware_threads", sxnm::util::HardwareThreads());

  EngineProfile baseline;
  EngineProfile last;
  json.BeginArray("engines");
  for (const EngineVariant& variant : variants) {
    EngineProfile profile = ProfileVariant(doc, movie_config, variant, kRepeats);
    if (variant.num_threads == 1 && !variant.fast_paths) baseline = profile;
    last = profile;

    json.BeginObject();
    json.Field("name", variant.name);
    json.Field("num_threads", variant.num_threads);
    json.Field("fast_paths", variant.fast_paths);
    json.BeginObject("phases");
    json.Field("key_generation_s", profile.kg);
    json.Field("sliding_window_s", profile.sw);
    json.Field("transitive_closure_s", profile.tc);
    json.Field("duplicate_detection_s", profile.sw + profile.tc);
    json.EndObject();
    json.Field("comparisons", profile.comparisons());
    json.Field("movie_duplicate_pairs", profile.duplicate_pairs);
    if (baseline.sw > 0) {
      json.Field("sliding_window_speedup_vs_serial_legacy",
                 baseline.sw / profile.sw);
    }
    sxnm::bench::WriteMetricsField(json, "metrics", profile.metrics);
    json.BeginObject("degradation");
    json.Field("degraded", profile.degradation.degraded);
    json.Field("reason",
               sxnm::util::StatusCodeName(profile.degradation.reason));
    json.Field("comparison_budget", profile.degradation.comparison_budget);
    json.Field("passes_skipped", profile.degradation.PassesSkipped());
    json.Field("passes_shrunk", profile.degradation.PassesShrunk());
    json.Field("rows_skipped", profile.degradation.RowsSkipped());
    json.Field("pairs_elided", profile.degradation.PairsElided());
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  // Live-telemetry overhead A/B: the sampler only reads the registry, so
  // the detection output must be identical with it on, and the wall-clock
  // cost at the default interval must stay under 2%
  // (tools/check_bench_json.py enforces both). The sampler's cost is
  // per-run fixed (worker spawn/join, stream creation, final sample)
  // plus per-tick, so the probe uses a corpus big enough for a run to
  // span several sampling intervals — on a short run the fixed cost is
  // all you would measure, and no real monitoring target is that short.
  constexpr size_t kTelemetryMovies = 12000;
  sxnm::datagen::MovieDataOptions tlm_options;
  tlm_options.num_movies = kTelemetryMovies;
  tlm_options.seed = 7;
  sxnm::xml::Document tlm_doc =
      sxnm::datagen::MakeDirty(
          sxnm::datagen::GenerateCleanMovies(tlm_options),
          sxnm::datagen::DataSet1DirtyPreset(7))
          .value();
  constexpr double kTelemetryIntervalMs = 250.0;
  std::string tlm_path = path + ".tlm.ndjsonl";
  constexpr int kTelemetryRepeats = 9;
  auto [tlm_off, tlm_on] = ProfileTelemetryAb(
      tlm_doc, movie_config, tlm_path, kTelemetryIntervalMs, kTelemetryRepeats);
  std::remove(tlm_path.c_str());
  json.BeginObject("telemetry");
  json.Field("interval_ms", kTelemetryIntervalMs);
  json.Field("repeats", size_t{kTelemetryRepeats});
  json.Field("clean_movies", kTelemetryMovies);
  json.Field("window", size_t{10});
  json.Field("samples", tlm_on.samples);
  json.Field("telemetry_off_s", tlm_off.seconds);
  json.Field("telemetry_on_s", tlm_on.seconds);
  json.Field("overhead_pct", (tlm_on.seconds - tlm_off.seconds) /
                                 tlm_off.seconds * 100.0);
  json.Field("duplicate_pairs_off", tlm_off.duplicate_pairs);
  json.Field("duplicate_pairs_on", tlm_on.duplicate_pairs);
  json.EndObject();

  // CPU-profiling overhead A/B (schema version 11): a profiled span
  // reads its thread's CPU clock at start and end, so detection must be
  // bit-identical with profiling on and the wall-clock cost must stay
  // under 3% (tools/check_bench_json.py enforces both). Reuses the
  // telemetry corpus.
  constexpr int kProfileRepeats = 9;
  std::string folded_path = path + ".folded";
  auto [prof_off, prof_on] = ProfileProfilerAb(tlm_doc, movie_config,
                                               folded_path, kProfileRepeats);
  std::remove(folded_path.c_str());
  const sxnm::obs::CpuProfile& profile = prof_on.profile;
  uint64_t attributed_ns = 0;  // root span paths' totals
  for (const auto& entry : profile.entries) {
    if (entry.path != "(unattributed)" &&
        entry.path.find(';') == std::string::npos) {
      attributed_ns += entry.total_ns;
    }
  }
  auto micros = [](uint64_t ns) {
    return static_cast<size_t>((ns + 500) / 1000);
  };
  json.BeginObject("profile");
  json.Field("repeats", size_t{kProfileRepeats});
  json.Field("clean_movies", kTelemetryMovies);
  json.Field("window", size_t{10});
  json.Field("cpu_us", micros(profile.cpu_ns));
  json.Field("attributed_us", micros(attributed_ns));
  json.Field("profile_off_s", prof_off.seconds);
  json.Field("profile_on_s", prof_on.seconds);
  json.Field("overhead_pct", (prof_on.seconds - prof_off.seconds) /
                                 prof_off.seconds * 100.0);
  json.Field("duplicate_pairs_off", prof_off.duplicate_pairs);
  json.Field("duplicate_pairs_on", prof_on.duplicate_pairs);
  json.BeginArray("top_spans");
  {
    size_t emitted = 0;
    for (const auto& entry : profile.entries) {
      if (emitted++ == 10) break;
      json.BeginObject();
      json.Field("path", entry.path);
      json.Field("self_us", micros(entry.self_ns));
      json.Field("total_us", micros(entry.total_ns));
      json.EndObject();
    }
  }
  json.EndArray();
  json.EndObject();

  // Checkpoint block (schema version 7): (a) snapshot size and
  // write/load cost at two corpus scales, (b) wall-clock overhead of
  // every-pass checkpointing vs the same run cold — must stay within 5%,
  // check_bench_json.py enforces it — and (c) a fault-injected
  // interrupt + resume proving the persist.* counters and that resumed
  // output equals the cold run.
  SnapshotProbe snap_1k = ProfileSnapshot(1000, path + ".ckpt1k");
  SnapshotProbe snap_10k = ProfileSnapshot(10000, path + ".ckpt10k");
  json.BeginObject("checkpoint");
  json.BeginArray("snapshots");
  for (const auto& [movies, probe] :
       {std::pair<size_t, const SnapshotProbe&>{1000, snap_1k},
        {10000, snap_10k}}) {
    json.BeginObject();
    json.Field("clean_movies", movies);
    json.Field("snapshot_bytes", size_t{probe.bytes});
    json.Field("frames", size_t{probe.frames});
    json.Field("write_ms", probe.write_ms);
    json.Field("load_ms", probe.load_ms);
    json.EndObject();
  }
  json.EndArray();

  // The overhead A/B runs a corpus/window sized like the long jobs
  // checkpointing exists for: a snapshot commit costs a fixed ~tens of
  // ms (encode + checksum + fsync), so on a sub-100ms toy run it reads
  // as a huge percentage while on any run worth checkpointing it
  // vanishes. 12k movies at window 30 keeps the bench honest without
  // minutes of wall-clock.
  constexpr int kCkptRepeats = 5;
  constexpr size_t kCkptWindow = 30;
  auto ckpt_ab_config = sxnm::datagen::MovieConfig(kCkptWindow).value();
  std::string ckpt_path = path + ".ckpt";
  sxnm::persist::RemoveFile(ckpt_path);
  auto [ckpt_off_s, ckpt_off_pairs] =
      ProfileCheckpointArm(tlm_doc, ckpt_ab_config, "", kCkptRepeats);
  auto [ckpt_on_s, ckpt_on_pairs] =
      ProfileCheckpointArm(tlm_doc, ckpt_ab_config, ckpt_path, kCkptRepeats);
  json.BeginObject("overhead");
  json.Field("clean_movies", kTelemetryMovies);
  json.Field("window", kCkptWindow);
  json.Field("repeats", size_t{kCkptRepeats});
  json.Field("checkpoint_off_s", ckpt_off_s);
  json.Field("checkpoint_on_s", ckpt_on_s);
  json.Field("overhead_pct", (ckpt_on_s - ckpt_off_s) / ckpt_off_s * 100.0);
  json.Field("duplicate_pairs_off", ckpt_off_pairs);
  json.Field("duplicate_pairs_on", ckpt_on_pairs);
  json.EndObject();

  // Interrupt the multi-level scalability config entering its final
  // window pass (detector.pass fails after the level-1 commit landed),
  // then rerun: the second run must load the durable level-1 checkpoint
  // and finish with output identical to a cold run.
  auto scal_config = sxnm::datagen::MovieScalabilityConfig(5).value();
  scal_config.mutable_observability().metrics = true;
  auto cold = sxnm::core::Detector(scal_config).Run(doc);
  if (!cold.ok()) {
    std::cerr << cold.status().ToString() << "\n";
    return 1;
  }
  sxnm::core::Config resume_config = scal_config;
  resume_config.mutable_checkpoint().path = ckpt_path;
  resume_config.mutable_checkpoint().every_pass = true;
  sxnm::persist::RemoveFile(ckpt_path);
  sxnm::util::FaultInjector::Instance().Arm("detector.pass", 3);
  auto interrupted = sxnm::core::Detector(resume_config).Run(doc);
  sxnm::util::FaultInjector::Instance().DisarmAll();
  if (interrupted.ok()) {
    std::cerr << "checkpoint resume probe: interrupt arm did not fire\n";
    return 1;
  }
  auto resumed = sxnm::core::Detector(resume_config).Run(doc);
  if (!resumed.ok()) {
    std::cerr << resumed.status().ToString() << "\n";
    return 1;
  }
  sxnm::persist::RemoveFile(ckpt_path + ".tmp");
  json.BeginObject("resume");
  json.Field("clean_movies", kMovies);
  json.Field("duplicate_pairs_cold",
             cold->Find("movie")->duplicate_pairs.size());
  json.Field("duplicate_pairs_resumed",
             resumed->Find("movie")->duplicate_pairs.size());
  json.BeginObject("counters");
  for (const char* name :
       {"persist.resume_loads", "persist.resume_levels_restored",
        "persist.snapshot_writes", "persist.snapshot_bytes_total"}) {
    json.Field(name, size_t(resumed->metrics.CounterOr(name)));
  }
  json.EndObject();
  json.EndObject();
  json.EndObject();
  json.EndObject();

  std::printf("pipeline profile written to %s\n", path.c_str());
  std::printf("checkpoint overhead: off %.4fs -> on %.4fs (%+.2f%%)\n",
              ckpt_off_s, ckpt_on_s,
              (ckpt_on_s - ckpt_off_s) / ckpt_off_s * 100.0);
  std::printf("telemetry overhead: off %.4fs -> on %.4fs (%+.2f%%)\n",
              tlm_off.seconds, tlm_on.seconds,
              (tlm_on.seconds - tlm_off.seconds) / tlm_off.seconds * 100.0);
  std::printf("profiler overhead:  off %.4fs -> on %.4fs (%+.2f%%), "
              "%.4fs CPU profiled\n",
              prof_off.seconds, prof_on.seconds,
              (prof_on.seconds - prof_off.seconds) / prof_off.seconds * 100.0,
              static_cast<double>(prof_on.profile.cpu_ns) * 1e-9);
  std::printf("SW: serial_legacy %.4fs -> threads4_fast %.4fs (%.2fx)\n",
              baseline.sw, last.sw, baseline.sw / last.sw);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = sxnm::bench::ExtractJsonFlag(&argc, argv);
  if (!json_path.empty()) return WritePipelineJson(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
