// Detector-level telemetry contract: enabling the live sampler must not
// perturb detection output for any thread count (the sampler only reads
// the registry), the stream's final sample must equal the end-of-run
// MetricsSnapshot, and config validation gates the new attributes. The
// suite name contains "Telemetry" so the tsan preset exercises the
// sampler thread against the engine's worker pool.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "sxnm/detector.h"
#include "xml/node.h"

namespace sxnm::core {
namespace {

xml::Document DirtyMovies(size_t num_movies, unsigned data_seed,
                          unsigned dirty_seed) {
  datagen::MovieDataOptions gen;
  gen.num_movies = num_movies;
  gen.seed = data_seed;
  xml::Document clean = datagen::GenerateCleanMovies(gen);
  auto dirty =
      datagen::MakeDirty(clean, datagen::DataSet1DirtyPreset(dirty_seed));
  EXPECT_TRUE(dirty.ok());
  return std::move(dirty).value();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(TelemetryDetectorTest, TelemetryDoesNotPerturbDetection) {
  // Determinism across telemetry on/off and every thread count: the
  // sampler is read-only over the registry, so the duplicate pairs,
  // comparison counts, and every engine counter must be bit-identical.
  xml::Document dirty = DirtyMovies(150, 41, 7);
  auto config = datagen::MovieConfig(/*window=*/8);
  ASSERT_TRUE(config.ok());

  Config off_cfg = config.value();
  off_cfg.mutable_observability().metrics = true;
  auto baseline = Detector(off_cfg).Run(dirty);
  ASSERT_TRUE(baseline.ok());

  for (size_t threads : {size_t{1}, size_t{4}}) {
    Config cfg = config.value();
    cfg.set_num_threads(threads);
    cfg.mutable_observability().metrics = true;
    cfg.mutable_observability().telemetry_path =
        ::testing::TempDir() + "/telemetry_perturb_" +
        std::to_string(threads) + ".tlm.ndjsonl";
    // An aggressive interval maximizes sampler/engine overlap.
    cfg.mutable_observability().telemetry_interval_ms = 1.0;
    auto sampled = Detector(cfg).Run(dirty);
    ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
    SCOPED_TRACE("num_threads=" + std::to_string(threads));

    ASSERT_EQ(sampled->candidates.size(), baseline->candidates.size());
    for (size_t i = 0; i < baseline->candidates.size(); ++i) {
      EXPECT_EQ(sampled->candidates[i].duplicate_pairs,
                baseline->candidates[i].duplicate_pairs);
      EXPECT_EQ(sampled->candidates[i].comparisons,
                baseline->candidates[i].comparisons);
      EXPECT_EQ(sampled->candidates[i].clusters.clusters(),
                baseline->candidates[i].clusters.clusters());
    }
    // Every counter the baseline run collected is unchanged; the
    // telemetry run adds no counters beyond the progress family the
    // baseline also has (metrics on registers them either way).
    // Wall-clock timing counters (the `*_us` family) are the one
    // exception: they measure elapsed time, not work done.
    for (const auto& counter : baseline->metrics.counters) {
      if (counter.name.size() > 3 &&
          counter.name.compare(counter.name.size() - 3, 3, "_us") == 0) {
        continue;
      }
      EXPECT_EQ(sampled->metrics.CounterOr(counter.name), counter.value)
          << counter.name;
    }
  }
}

TEST(TelemetryDetectorTest, FinalSampleEqualsEndOfRunSnapshot) {
  xml::Document dirty = DirtyMovies(120, 21, 5);
  auto config = datagen::MovieConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().metrics = true;
  std::string path = ::testing::TempDir() + "/telemetry_final.tlm.ndjsonl";
  cfg.mutable_observability().telemetry_path = path;
  cfg.mutable_observability().telemetry_interval_ms = 1.0;
  auto result = Detector(cfg).Run(dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_GE(lines.size(), 2u);  // header + at least the final sample
  EXPECT_NE(lines[0].find("\"type\": \"header\""), std::string::npos);
  const std::string& final_line = lines.back();
  EXPECT_NE(final_line.find("\"final\": true"), std::string::npos);
  EXPECT_NE(final_line.find("\"phase\": 4"), std::string::npos);
  EXPECT_NE(final_line.find("\"phase_name\": \"done\""), std::string::npos);

  // Stop() takes the final sample after the worker joined and before
  // the detector snapshots the registry into the result: the stream's
  // last line must carry exactly the result's counters.
  for (const char* name :
       {"sw.comparisons", "sw.pairs_windowed", "sw.pairs_done", "kg.rows",
        "kg.rows_done", "tc.pairs", "tc.edges_done"}) {
    uint64_t value = result->metrics.CounterOr(name);
    std::string needle = "\"" + std::string(name) + "\": " +
                         std::to_string(value);
    EXPECT_NE(final_line.find(needle), std::string::npos) << needle;
  }

  // Progress closure at quiescence: done == planned for every phase.
  EXPECT_EQ(result->metrics.CounterOr("kg.rows_done"),
            result->metrics.CounterOr("kg.rows"));
  EXPECT_EQ(result->metrics.CounterOr("sw.pairs_done"),
            result->metrics.CounterOr("sw.pairs_windowed"));
  EXPECT_EQ(result->metrics.CounterOr("tc.edges_done"),
            result->metrics.CounterOr("tc.pairs"));
}

TEST(TelemetryDetectorTest, ProgressGaugesPublishPlannedTotals) {
  xml::Document dirty = DirtyMovies(100, 31, 3);
  auto config = datagen::MovieConfig(/*window=*/8);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().metrics = true;
  auto result = Detector(cfg).Run(dirty);
  ASSERT_TRUE(result.ok());

  // kg.rows_total is set from the forest before key generation; with an
  // ungoverned run every planned row materializes.
  EXPECT_EQ(uint64_t(result->metrics.GaugeOr("kg.rows_total", 0.0)),
            result->metrics.CounterOr("kg.rows"));
  // The pre-governance pair plan bounds the work actually windowed.
  EXPECT_GE(uint64_t(result->metrics.GaugeOr("sw.pairs_planned_total", 0.0)),
            result->metrics.CounterOr("sw.pairs_done"));
  EXPECT_EQ(int(result->metrics.GaugeOr("progress.phase", -1.0)), 4);
}

TEST(TelemetryDetectorTest, TelemetryWithoutMetricsFailsValidation) {
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().telemetry_path = "/tmp/never_written.ndjsonl";
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.mutable_observability().metrics = true;
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.mutable_observability().telemetry_interval_ms = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg.mutable_observability().telemetry_interval_ms = -5.0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(TelemetryDetectorTest, UnwritableTelemetryPathFailsTheRun) {
  xml::Document dirty = DirtyMovies(40, 11, 1);
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().metrics = true;
  cfg.mutable_observability().telemetry_path =
      "/nonexistent-dir-sxnm/run.tlm.ndjsonl";
  auto result = Detector(cfg).Run(dirty);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace sxnm::core
