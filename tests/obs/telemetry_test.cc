// TelemetrySampler: lifecycle, ring bounds, rate derivation, progress /
// ETA math, NDJSON stream shape, and the final-sample-equals-registry
// contract. The detector-level determinism proof lives in
// tests/sxnm/telemetry_detector_test.cc.

#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace sxnm::obs {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(TelemetryTest, RunPhaseNamesCoverTheEnum) {
  EXPECT_STREQ(RunPhaseName(0), "setup");
  EXPECT_STREQ(RunPhaseName(1), "key_generation");
  EXPECT_STREQ(RunPhaseName(2), "sliding_window");
  EXPECT_STREQ(RunPhaseName(3), "transitive_closure");
  EXPECT_STREQ(RunPhaseName(4), "done");
  EXPECT_STREQ(RunPhaseName(-1), "unknown");
  EXPECT_STREQ(RunPhaseName(99), "unknown");
}

TEST(TelemetryTest, StartStopInMemoryTakesFinalSample) {
  MetricsRegistry registry(true);
  registry.counter("sw.comparisons").Add(7);
  TelemetryOptions options;  // no path: ring only
  options.interval_ms = 5.0;
  TelemetrySampler sampler(&registry, options);
  EXPECT_FALSE(sampler.running());
  ASSERT_TRUE(sampler.Start().ok());
  EXPECT_TRUE(sampler.running());
  registry.counter("sw.comparisons").Add(13);
  ASSERT_TRUE(sampler.Stop().ok());
  EXPECT_FALSE(sampler.running());

  std::vector<TelemetrySample> samples = sampler.Samples();
  ASSERT_FALSE(samples.empty());
  const TelemetrySample& last = samples.back();
  EXPECT_TRUE(last.final_sample);
  // The final sample is taken after the worker joined: it must equal
  // the quiesced registry exactly.
  EXPECT_EQ(last.snapshot.CounterOr("sw.comparisons"), 20u);
  // Only the last sample is final, and seq is the sample index.
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].seq, i);
    EXPECT_EQ(samples[i].final_sample, i + 1 == samples.size());
  }
}

TEST(TelemetryTest, DoubleStartFailsAndStopIsIdempotent) {
  MetricsRegistry registry(true);
  TelemetrySampler sampler(&registry, TelemetryOptions{});
  ASSERT_TRUE(sampler.Start().ok());
  EXPECT_EQ(sampler.Start().code(), util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE(sampler.Stop().ok());
  EXPECT_TRUE(sampler.Stop().ok());  // second Stop: no-op
  uint64_t total = sampler.TotalSamples();
  EXPECT_GE(total, 1u);
  ASSERT_TRUE(sampler.Stop().ok());
  EXPECT_EQ(sampler.TotalSamples(), total);  // no extra final sample
}

TEST(TelemetryTest, StopWithoutStartIsNoOp) {
  MetricsRegistry registry(true);
  TelemetrySampler sampler(&registry, TelemetryOptions{});
  EXPECT_TRUE(sampler.Stop().ok());
  EXPECT_EQ(sampler.TotalSamples(), 0u);
}

TEST(TelemetryTest, RingIsBoundedButTotalKeepsCounting) {
  MetricsRegistry registry(true);
  TelemetryOptions options;
  options.interval_ms = 1.0;
  options.ring_capacity = 4;
  TelemetrySampler sampler(&registry, options);
  ASSERT_TRUE(sampler.Start().ok());
  // Let well over ring_capacity ticks elapse.
  while (sampler.TotalSamples() < 12) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(sampler.Stop().ok());

  std::vector<TelemetrySample> samples = sampler.Samples();
  EXPECT_LE(samples.size(), 4u);
  EXPECT_GE(sampler.TotalSamples(), 12u);
  // Eviction keeps the newest: the retained window is contiguous and
  // ends at the final sample.
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].seq, samples[i - 1].seq + 1);
  }
  EXPECT_TRUE(samples.back().final_sample);
  EXPECT_EQ(samples.back().seq, sampler.TotalSamples() - 1);
}

TEST(TelemetryTest, RatesCoverOnlyAdvancingCounters) {
  MetricsRegistry registry(true);
  registry.counter("moving").Add(5);
  registry.counter("frozen").Add(100);
  TelemetryOptions options;
  options.interval_ms = 1.0;
  TelemetrySampler sampler(&registry, options);
  ASSERT_TRUE(sampler.Start().ok());
  while (sampler.TotalSamples() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  registry.counter("moving").Add(50);
  ASSERT_TRUE(sampler.Stop().ok());

  // Which periodic tick observes the Add(50) is timing-dependent, but
  // SOME sample after the first must: either a periodic one or the
  // final sample Stop() takes. "frozen" never advances after the
  // first sample, so it must never appear in a later rate set.
  std::vector<TelemetrySample> samples = sampler.Samples();
  ASSERT_GE(samples.size(), 2u);
  bool saw_moving_after_first = false;
  for (const TelemetrySample& sample : samples) {
    for (const auto& [name, rate] : sample.rates) {
      EXPECT_GT(rate, 0.0) << name << " seq " << sample.seq;
      if (sample.seq == 0) continue;  // first tick measures the preload
      EXPECT_NE(name, "frozen") << "seq " << sample.seq;
      saw_moving_after_first |= name == "moving";
    }
  }
  EXPECT_TRUE(saw_moving_after_first);
}

TEST(TelemetryTest, NdjsonStreamHasHeaderSamplesAndFinalLine) {
  MetricsRegistry registry(true);
  registry.counter("sw.comparisons").Add(42);
  registry.gauge("progress.phase").Set(4.0);
  std::string path = ::testing::TempDir() + "/telemetry_stream.tlm.ndjsonl";
  TelemetryOptions options;
  options.path = path;
  options.interval_ms = 2.0;
  TelemetrySampler sampler(&registry, options);
  ASSERT_TRUE(sampler.Start().ok());
  while (sampler.TotalSamples() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(sampler.Stop().ok());

  std::vector<std::string> lines = ReadLines(path);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"type\": \"header\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"version\": 1"), std::string::npos);
  EXPECT_NE(lines[0].find("\"deterministic\": false"), std::string::npos);
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"type\": \"sample\""), std::string::npos) << i;
    // Every line is exactly one JSON object (no embedded newlines by
    // construction; balanced quotes are sampled via the known fields).
    EXPECT_EQ(lines[i].front(), '{');
    EXPECT_EQ(lines[i].back(), '}');
  }
  EXPECT_NE(lines.back().find("\"final\": true"), std::string::npos);
  EXPECT_NE(lines.back().find("\"sw.comparisons\": 42"), std::string::npos);
  EXPECT_NE(lines.back().find("\"phase_name\": \"done\""), std::string::npos);
}

TEST(TelemetryTest, StartFailsOnUnwritablePath) {
  MetricsRegistry registry(true);
  TelemetryOptions options;
  options.path = "/nonexistent-dir-sxnm/telemetry.ndjsonl";
  TelemetrySampler sampler(&registry, options);
  EXPECT_FALSE(sampler.Start().ok());
  EXPECT_FALSE(sampler.running());
}

TEST(TelemetryTest, DestructorJoinsWithoutFinalSample) {
  MetricsRegistry registry(true);
  {
    TelemetryOptions options;
    options.interval_ms = 1.0;
    TelemetrySampler sampler(&registry, options);
    ASSERT_TRUE(sampler.Start().ok());
    // Leaving scope without Stop() must not hang or crash (early-return
    // paths in the detector rely on this).
  }
  SUCCEED();
}

// --- DeriveProgress -------------------------------------------------------

MetricsSnapshot SnapshotOf(MetricsRegistry& registry) {
  return registry.Snapshot();
}

TEST(TelemetryTest, DeriveProgressUsesPlannedPairs) {
  MetricsRegistry registry(true);
  registry.gauge("progress.phase")
      .Set(double(int(RunPhase::kSlidingWindow)));
  registry.gauge("sw.pairs_planned_total").Set(1000.0);
  registry.counter("sw.pairs_done").Add(250);
  TelemetrySample sample;
  DeriveProgress(SnapshotOf(registry), /*t_ms=*/2000.0, &sample);
  EXPECT_EQ(sample.phase, int(RunPhase::kSlidingWindow));
  EXPECT_DOUBLE_EQ(sample.fraction, 0.25);
  // 250 pairs in 2s -> 125/s; 750 remaining -> 6s.
  EXPECT_NEAR(sample.eta_s, 6.0, 1e-9);
}

TEST(TelemetryTest, DeriveProgressFallsBackToKgRows) {
  MetricsRegistry registry(true);
  registry.gauge("progress.phase")
      .Set(double(int(RunPhase::kKeyGeneration)));
  registry.gauge("kg.rows_total").Set(400.0);
  registry.counter("kg.rows_done").Add(100);
  TelemetrySample sample;
  DeriveProgress(SnapshotOf(registry), /*t_ms=*/1000.0, &sample);
  EXPECT_DOUBLE_EQ(sample.fraction, 0.25);
  EXPECT_GT(sample.eta_s, 0.0);
}

TEST(TelemetryTest, DeriveProgressUnknownWithoutTotals) {
  MetricsRegistry registry(true);
  TelemetrySample sample;
  DeriveProgress(SnapshotOf(registry), /*t_ms=*/100.0, &sample);
  EXPECT_EQ(sample.fraction, -1.0);
  EXPECT_EQ(sample.eta_s, -1.0);
}

TEST(TelemetryTest, DeriveProgressDonePhaseIsComplete) {
  MetricsRegistry registry(true);
  registry.gauge("progress.phase").Set(double(int(RunPhase::kDone)));
  registry.gauge("sw.pairs_planned_total").Set(1000.0);
  registry.counter("sw.pairs_done").Add(400);  // budget-shed run
  TelemetrySample sample;
  DeriveProgress(SnapshotOf(registry), /*t_ms=*/500.0, &sample);
  EXPECT_DOUBLE_EQ(sample.fraction, 1.0);
  EXPECT_DOUBLE_EQ(sample.eta_s, 0.0);
}

TEST(TelemetryTest, SampleWriteJsonIsOneWellFormedLine) {
  MetricsRegistry registry(true);
  registry.counter("sw.comparisons").Add(3);
  registry.gauge("kg.rows_total").Set(0.5);
  TelemetrySample sample;
  sample.seq = 2;
  sample.t_ms = 123.0;
  sample.final_sample = false;
  sample.snapshot = registry.Snapshot();
  sample.phase = int(RunPhase::kSlidingWindow);
  std::ostringstream os;
  sample.WriteJson(os);
  std::string line = os.str();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"seq\": 2"), std::string::npos);
  EXPECT_NE(line.find("\"final\": false"), std::string::npos);
  EXPECT_NE(line.find("\"phase_name\": \"sliding_window\""),
            std::string::npos);
  EXPECT_NE(line.find("\"sw.comparisons\": 3"), std::string::npos);
  EXPECT_NE(line.find("\"kg.rows_total\": 0.5"), std::string::npos);
}

TEST(TelemetryTest, SampleWriteJsonCarriesCpuFields) {
  TelemetrySample sample;
  sample.seq = 0;
  sample.t_ms = 50.0;
  sample.cpu_user_pct = 140.5;  // >100%: two busy threads on one tick
  sample.cpu_sys_pct = 3.25;
  sample.threads = 4;
  sample.cpu_sampled = true;
  std::ostringstream os;
  sample.WriteJson(os);
  std::string line = os.str();
  EXPECT_NE(line.find("\"cpu_user_pct\": 140.5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"cpu_sys_pct\": 3.25"), std::string::npos) << line;
  EXPECT_NE(line.find("\"threads\": 4"), std::string::npos) << line;
  EXPECT_NE(line.find("\"cpu_sampled\": true"), std::string::npos) << line;
}

TEST(TelemetryTest, LiveSamplesCarryCpuAccounting) {
  MetricsRegistry registry(true);
  TelemetryOptions options;  // ring only
  options.interval_ms = 5.0;
  TelemetrySampler sampler(&registry, options);
  ASSERT_TRUE(sampler.Start().ok());
  // Burn a little CPU so the utilization deltas have something to see.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < (uint64_t{1} << 23); ++i) sink = sink + i;
  ASSERT_TRUE(sampler.Stop().ok());

  std::vector<TelemetrySample> samples = sampler.Samples();
  ASSERT_FALSE(samples.empty());
  for (const TelemetrySample& sample : samples) {
    // Utilization can be zero on a coarse clock tick but never negative,
    // and on Linux every sample sees at least this test's own threads.
    EXPECT_GE(sample.cpu_user_pct, 0.0);
    EXPECT_GE(sample.cpu_sys_pct, 0.0);
#if defined(__linux__)
    EXPECT_TRUE(sample.cpu_sampled);
    EXPECT_GE(sample.threads, 1);
#endif
  }
}

}  // namespace
}  // namespace sxnm::obs
