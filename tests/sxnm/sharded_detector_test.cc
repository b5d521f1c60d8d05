// Shard/out-of-core identity: key-range sharded window passes and the
// external-sort order stage must be invisible in every observable
// output. The suite pins shards ∈ {1,2,4} × threads ∈ {1,4} × memory
// budget ∈ {0, tiny} against the unsharded in-memory baseline —
// duplicate pairs, clusters, comparison counts, deterministic counters,
// and the explain byte stream all bit-identical.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "extsort/extsort.h"
#include "persist/io.h"
#include "sxnm/detector.h"
#include "util/fault_injection.h"
#include "util/status.h"
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

std::string SpillDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void ExpectIdenticalResults(const DetectionResult& a,
                            const DetectionResult& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const CandidateResult& ca = a.candidates[i];
    const CandidateResult& cb = b.candidates[i];
    SCOPED_TRACE(ca.name);
    EXPECT_EQ(ca.name, cb.name);
    EXPECT_EQ(ca.num_instances, cb.num_instances);
    EXPECT_EQ(ca.duplicate_pairs, cb.duplicate_pairs);
    EXPECT_EQ(ca.duplicate_eid_pairs, cb.duplicate_eid_pairs);
    EXPECT_EQ(ca.comparisons, cb.comparisons);
    EXPECT_EQ(ca.clusters.clusters(), cb.clusters.clusters());
  }
  EXPECT_EQ(a.TotalComparisons(), b.TotalComparisons());
}

// The deterministic counting counters: totals must not depend on the
// shard count, thread count, or memory budget. (Run-shape families —
// extsort.*, shard.*, persist.*, wall-time — are excluded by contract.)
void ExpectIdenticalCounters(const DetectionResult& a,
                             const DetectionResult& b) {
  for (const char* name :
       {"sw.pairs_windowed", "sw.comparisons", "sw.hits", "sw.prepass_skips",
        "sw.unique_comparisons", "sw.unique_duplicates", "sw.prepass_pairs",
        "kg.rows_done"}) {
    EXPECT_EQ(a.metrics.CounterOr(name, 0), b.metrics.CounterOr(name, 0))
        << name;
  }
}

TEST(ShardedDetectorTest, ShardsThreadsAndBudgetDoNotChangeResults) {
  xml::Document dirty = DirtyMovies(300, 101, 7);
  auto config = datagen::MovieConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());
  Config baseline_config = config.value();
  baseline_config.mutable_observability().metrics = true;

  auto baseline = Detector(baseline_config).Run(dirty);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string dir = SpillDir("sharded_identity");
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (uint64_t budget : {uint64_t{0}, uint64_t{16 * 1024}}) {
        Config c = baseline_config;
        c.set_shards(shards);
        c.set_num_threads(threads);
        c.set_memory_budget_bytes(budget);
        c.set_spill_dir(dir);
        auto sharded = Detector(c).Run(dirty);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads) +
                     " budget=" + std::to_string(budget));
        ExpectIdenticalResults(baseline.value(), sharded.value());
        ExpectIdenticalCounters(baseline.value(), sharded.value());
        if (budget > 0) {
          EXPECT_GT(sharded->metrics.CounterOr("extsort.rows", 0), 0u);
          EXPECT_GT(sharded->metrics.CounterOr("extsort.spilled_runs", 0), 0u)
              << "a 16KiB budget must spill on 300 movies";
        }
        if (shards > 1) {
          EXPECT_EQ(sharded->metrics.GaugeOr("shard.count", 0.0),
                    static_cast<double>(shards));
          EXPECT_GT(sharded->metrics.CounterOr("shard.overlap_rows", 0), 0u);
        } else {
          EXPECT_EQ(sharded->metrics.CounterOr("shard.tasks", 0), 0u)
              << "shards=1 must not publish shard.* telemetry";
        }
      }
    }
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir))
      << "spill files must not outlive their pass";
}

TEST(ShardedDetectorTest, ExplainBytesIdenticalAcrossShardsAndBudget) {
  xml::Document dirty = DirtyMovies(120, 55, 9);
  auto config = datagen::MovieConfig(/*window=*/8);
  ASSERT_TRUE(config.ok());
  std::string dir = SpillDir("sharded_explain");

  Config base = config.value();
  base.mutable_observability().metrics = true;
  base.mutable_observability().explain_path = dir + "/baseline.ndjson";
  auto baseline = Detector(base).Run(dirty);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  auto baseline_bytes =
      persist::ReadFileToString(base.observability().explain_path);
  ASSERT_TRUE(baseline_bytes.ok());

  for (size_t shards : {size_t{2}, size_t{4}}) {
    Config c = config.value();
    c.set_shards(shards);
    c.set_num_threads(4);
    c.set_memory_budget_bytes(8 * 1024);
    c.set_spill_dir(dir);
    c.mutable_observability().metrics = true;
    c.mutable_observability().explain_path =
        dir + "/sharded" + std::to_string(shards) + ".ndjson";
    auto sharded = Detector(c).Run(dirty);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    auto sharded_bytes =
        persist::ReadFileToString(c.observability().explain_path);
    ASSERT_TRUE(sharded_bytes.ok());
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(*baseline_bytes, *sharded_bytes)
        << "explain byte stream must not depend on the shard count";
  }
}

TEST(ShardedDetectorTest, MultiCandidateForestShardsIdentically) {
  // Three candidates across two forest depths (title and person feed
  // movie through descendant similarity): sharding must compose with
  // the bottom-up level scheduling and cluster-set reuse.
  xml::Document dirty = DirtyMovies(200, 41, 6);
  auto config = datagen::MovieScalabilityConfig(/*window=*/5);
  ASSERT_TRUE(config.ok());

  auto baseline = Detector(config.value()).Run(dirty);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->candidates.size(), 3u);

  Config c = config.value();
  c.set_shards(3);
  c.set_num_threads(4);
  c.set_memory_budget_bytes(32 * 1024);
  c.set_spill_dir(SpillDir("sharded_forest"));
  auto sharded = Detector(c).Run(dirty);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectIdenticalResults(baseline.value(), sharded.value());
}

TEST(ShardedDetectorTest, AdaptiveWindowsShardIdentically) {
  xml::Document dirty = DirtyMovies(150, 77, 2);
  auto config = datagen::MovieConfig(/*window=*/4);
  ASSERT_TRUE(config.ok());
  Config adaptive = config.value();
  for (CandidateConfig& cand : adaptive.mutable_candidates()) {
    cand.window_policy = WindowPolicy::kAdaptivePrefix;
    cand.max_window = 20;
    cand.adaptive_prefix_len = 4;
  }

  auto baseline = Detector(adaptive).Run(dirty);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (size_t shards : {size_t{2}, size_t{5}}) {
    Config c = adaptive;
    c.set_shards(shards);
    c.set_num_threads(4);
    c.set_memory_budget_bytes(8 * 1024);
    c.set_spill_dir(SpillDir("sharded_adaptive"));
    auto sharded = Detector(c).Run(dirty);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExpectIdenticalResults(baseline.value(), sharded.value());
  }
}

TEST(ShardedDetectorTest, GovernanceBudgetComposesWithShards) {
  // A comparison budget plans per pass, before sharding: the shrunk
  // boundary pass and the shed tail must be the same set for any shard
  // count, and the degradation report with them.
  xml::Document dirty = DirtyMovies(200, 31, 4);
  auto config = datagen::MovieConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());
  Config governed = config.value();
  governed.mutable_limits().max_comparisons = 5000;

  auto baseline = Detector(governed).Run(dirty);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  Config c = governed;
  c.set_shards(4);
  c.set_num_threads(4);
  auto sharded = Detector(c).Run(dirty);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectIdenticalResults(baseline.value(), sharded.value());
  ASSERT_EQ(baseline->degradation.passes.size(),
            sharded->degradation.passes.size());
  for (size_t i = 0; i < baseline->degradation.passes.size(); ++i) {
    const PassDegradation& pa = baseline->degradation.passes[i];
    const PassDegradation& pb = sharded->degradation.passes[i];
    EXPECT_EQ(pa.candidate, pb.candidate);
    EXPECT_EQ(pa.key_index, pb.key_index);
    EXPECT_EQ(pa.skipped, pb.skipped);
    EXPECT_EQ(pa.window_used, pb.window_used);
    EXPECT_EQ(pa.pairs_elided, pb.pairs_elided);
  }
}

TEST(ShardedDetectorTest, SpillFaultAbortsTheRunCleanly) {
  xml::Document dirty = DirtyMovies(100, 11, 1);
  auto config = datagen::MovieConfig(/*window=*/5);
  ASSERT_TRUE(config.ok());
  Config c = config.value();
  c.set_memory_budget_bytes(1024);
  std::string dir = SpillDir("sharded_spill_fault");
  c.set_spill_dir(dir);
  util::ScopedFault fault(extsort::kSpillFaultSite);
  auto result = Detector(c).Run(dirty);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(std::filesystem::is_empty(dir))
      << "a failed run must not leak spill files";
}

TEST(ShardedDetectorTest, CheckpointResumeAllowsDifferentShardCount) {
  // shards / memory-budget are run-shape knobs excluded from the config
  // fingerprint: a snapshot taken unsharded must resume sharded (and
  // vice versa) with identical output, exactly like num_threads.
  xml::Document dirty = DirtyMovies(150, 23, 8);
  auto config = datagen::MovieScalabilityConfig(/*window=*/5);
  ASSERT_TRUE(config.ok());

  auto baseline = Detector(config.value()).Run(dirty);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string dir = SpillDir("sharded_resume");
  std::string ckpt = dir + "/engine.ckpt";
  {
    // First attempt: checkpoint every level, then die at the second
    // level's window stage (title and person each run one pass at the
    // first level; hit 3 is movie's pass).
    Config c = config.value();
    RunOptions options;
    options.checkpoint_path = ckpt;
    options.checkpoint_every_pass = true;
    util::ScopedFault fault("detector.pass", /*fire_on_hit=*/3);
    auto first = Detector(c).Run(dirty, options);
    ASSERT_FALSE(first.ok());
  }
  ASSERT_TRUE(persist::PathExists(ckpt));
  Config resumed_config = config.value();
  resumed_config.set_shards(4);
  resumed_config.set_memory_budget_bytes(16 * 1024);
  resumed_config.set_spill_dir(dir);
  RunOptions options;
  options.checkpoint_path = ckpt;
  auto resumed = Detector(resumed_config).Run(dirty, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdenticalResults(baseline.value(), resumed.value());
}

}  // namespace
}  // namespace sxnm::core
