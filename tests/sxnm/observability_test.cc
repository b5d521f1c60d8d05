// Engine observability: the detector's metrics snapshot, per-pass
// DetectionReport, trace export, and — critically — that none of it
// perturbs detection output for any thread count (the parallel tests'
// names contain "Parallel" so the tsan preset exercises them).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "datagen/dirty_gen.h"
#include "datagen/freedb.h"
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

TEST(ObservabilityTest, MetricsOffLeavesResultUninstrumented) {
  xml::Document dirty = DirtyMovies(100, 11, 3);
  auto config = datagen::MovieConfig(/*window=*/8);
  ASSERT_TRUE(config.ok());
  auto result = Detector(config.value()).Run(dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->metrics.empty());
  EXPECT_TRUE(result->report.empty());
}

TEST(ObservabilityTest, ReportComparisonsEqualRegistryCounter) {
  xml::Document dirty = DirtyMovies(200, 21, 5);
  auto config = datagen::MovieConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().metrics = true;
  auto result = Detector(cfg).Run(dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_FALSE(result->report.empty());
  ASSERT_FALSE(result->metrics.empty());
  // The per-pass report rows and the engine-wide counter describe the
  // same kernel invocations.
  EXPECT_EQ(result->report.TotalComparisons(),
            result->metrics.CounterOr("sw.comparisons"));
  // Unique (merged) comparisons match the result's own accounting.
  EXPECT_EQ(result->metrics.CounterOr("sw.unique_comparisons"),
            result->TotalComparisons());
  EXPECT_EQ(result->metrics.CounterOr("kg.rows"),
            result->Find("movie")->num_instances);
}

TEST(ObservabilityTest, ReportCoversEveryCandidatePass) {
  auto doc = datagen::GenerateDataSet2(80, 17);
  ASSERT_TRUE(doc.ok());
  auto config = datagen::CdConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().metrics = true;
  auto result = Detector(cfg).Run(doc.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // One report row per (candidate, key) pair, in bottom-up order.
  size_t expected_rows = 0;
  for (const CandidateResult& cand : result->candidates) {
    expected_rows += cand.gk.num_keys;
  }
  ASSERT_EQ(result->report.rows.size(), expected_rows);
  size_t row = 0;
  for (const CandidateResult& cand : result->candidates) {
    for (size_t k = 0; k < cand.gk.num_keys; ++k, ++row) {
      EXPECT_EQ(result->report.rows[row].candidate, cand.name);
      EXPECT_EQ(result->report.rows[row].key_index, k);
      EXPECT_EQ(result->report.rows[row].num_instances, cand.num_instances);
    }
  }

  std::string table = result->report.ToTable();
  EXPECT_NE(table.find("candidate"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  std::string json = result->report.ToJson();
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
}

TEST(ObservabilityTest, PassStatsAreInternallyConsistent) {
  xml::Document dirty = DirtyMovies(150, 31, 9);
  auto config = datagen::MovieConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().metrics = true;
  auto result = Detector(cfg).Run(dirty);
  ASSERT_TRUE(result.ok());
  for (const DetectionReport::Row& row : result->report.rows) {
    const PassStats& s = row.stats;
    EXPECT_EQ(s.pairs_windowed, s.comparisons + s.prepass_skips);
    EXPECT_LE(s.hits, s.comparisons);
    EXPECT_LE(s.ed_bailouts, s.comparisons);
    EXPECT_LE(s.desc_invocations, s.comparisons);
    EXPECT_LE(s.desc_short_circuits, s.comparisons);
    EXPECT_GE(s.wall_seconds, 0.0);
  }
}

TEST(ObservabilityTest, MetricsDoNotPerturbParallelDetection) {
  // Determinism across metrics on/off and every thread count: the
  // observability layer must be write-only.
  xml::Document dirty = DirtyMovies(150, 41, 7);
  auto config = datagen::MovieConfig(/*window=*/8);
  ASSERT_TRUE(config.ok());

  auto baseline = Detector(config.value()).Run(dirty);
  ASSERT_TRUE(baseline.ok());

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    Config cfg = config.value();
    cfg.set_num_threads(threads);
    cfg.mutable_observability().metrics = true;
    auto instrumented = Detector(cfg).Run(dirty);
    ASSERT_TRUE(instrumented.ok());
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ASSERT_EQ(instrumented->candidates.size(), baseline->candidates.size());
    for (size_t i = 0; i < baseline->candidates.size(); ++i) {
      EXPECT_EQ(instrumented->candidates[i].duplicate_pairs,
                baseline->candidates[i].duplicate_pairs);
      EXPECT_EQ(instrumented->candidates[i].comparisons,
                baseline->candidates[i].comparisons);
      EXPECT_EQ(instrumented->candidates[i].clusters.clusters(),
                baseline->candidates[i].clusters.clusters());
    }
    // Counters are scheduling-independent too: kernel invocation totals
    // depend only on the pass structure, never on thread interleaving.
    EXPECT_EQ(instrumented->metrics.CounterOr("sw.comparisons"),
              instrumented->report.TotalComparisons());
  }
}

TEST(ObservabilityTest, ParallelRunsProduceIdenticalCounters) {
  xml::Document dirty = DirtyMovies(120, 51, 2);
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config serial_cfg = config.value();
  serial_cfg.mutable_observability().metrics = true;
  auto serial = Detector(serial_cfg).Run(dirty);
  ASSERT_TRUE(serial.ok());

  Config parallel_cfg = serial_cfg;
  parallel_cfg.set_num_threads(4);
  auto parallel = Detector(parallel_cfg).Run(dirty);
  ASSERT_TRUE(parallel.ok());

  // The kernel counters are scheduling-independent: every pass computes
  // its own pairs' verdicts whichever thread runs it, so the totals match
  // the serial run's.
  for (const char* name :
       {"sw.pairs_windowed", "sw.comparisons", "sw.hits", "sw.ed_bailouts",
        "sw.desc_jaccard", "sw.desc_short_circuits", "sw.interned_equal", "text.myers_words", "sw.unique_comparisons",
        "sw.unique_duplicates", "kg.rows", "kg.od_pool_strings",
        "kg.od_pool_bytes", "tc.pairs", "tc.union_ops", "tc.clusters"}) {
    EXPECT_EQ(serial->metrics.CounterOr(name),
              parallel->metrics.CounterOr(name))
        << name;
  }
}

TEST(ObservabilityTest, TraceFileIsWrittenAndLooksLikeChromeTrace) {
  xml::Document dirty = DirtyMovies(60, 61, 1);
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  std::string path = ::testing::TempDir() + "/sxnm_obs_trace.json";
  cfg.mutable_observability().trace_path = path;
  auto result = Detector(cfg).Run(dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string& trace = content.str();
  EXPECT_EQ(trace.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(trace.find("\"detect\""), std::string::npos);
  EXPECT_NE(trace.find("\"key_generation\""), std::string::npos);
  EXPECT_NE(trace.find("movie/pass1"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
}

TEST(ObservabilityTest, ReportFileIsWritten) {
  xml::Document dirty = DirtyMovies(60, 71, 1);
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().metrics = true;
  std::string path = ::testing::TempDir() + "/sxnm_obs_report.json";
  cfg.mutable_observability().report_path = path;
  auto result = Detector(cfg).Run(dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"candidate\": \"movie\""),
            std::string::npos);
}

TEST(ObservabilityTest, ReportPathWithoutMetricsFailsValidation) {
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().report_path = "/tmp/never_written.json";
  auto status = cfg.Validate();
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace sxnm::core
