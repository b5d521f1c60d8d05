// Decision-provenance explain log: every unique duplicate pair shows up
// with an accepting classification, per-provenance record counts
// reconcile with the engine counters, the NDJSON byte stream is
// identical for any thread count (the "Parallel" names put these under
// the tsan preset), and governed runs log their shed passes.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "obs/explain.h"
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// Value of an integer field on one NDJSON line; requires the key to be
// present (keys like "a" are safe: every occurrence is quoted, so "a":
// cannot match inside "eid_a").
long long ExtractInt(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " in " << line;
  return std::strtoll(line.c_str() + pos + needle.size(), nullptr, 10);
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

Config ExplainConfig(size_t window, const std::string& path) {
  auto config = datagen::MovieConfig(window);
  EXPECT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().metrics = true;
  cfg.mutable_observability().explain_path = path;
  return cfg;
}

TEST(ExplainLogTest, DisabledLogIsInert) {
  obs::ExplainLog log(/*enabled=*/false);
  log.AppendCandidate("movie", 0, 10, 2, 5, "fixed", 0.75);
  log.AppendPair("movie", 0, 1, 2, 11, 12, 1,
                 obs::PairProvenance::kOwned, nullptr, true);
  log.AppendMerge("movie", 1, 2, 1, 2, 1, true);
  EXPECT_TRUE(log.text().empty());
  EXPECT_EQ(log.pair_records(), 0u);
}

TEST(ExplainLogTest, TalliesFollowProvenance) {
  obs::ExplainLog log(/*enabled=*/true);
  log.AppendPair("m", 0, 0, 1, 5, 6, 1, obs::PairProvenance::kOwned,
                 nullptr, true);
  log.AppendPair("m", 1, 0, 1, 5, 6, 2, obs::PairProvenance::kOwned,
                 nullptr, true);
  log.AppendPair("m", -1, 2, 3, 7, 8, 0, obs::PairProvenance::kPrepass,
                 nullptr, true);
  EXPECT_EQ(log.owned_pairs(), 2u);
  EXPECT_EQ(log.prepass_pairs(), 1u);
  EXPECT_EQ(log.pair_records(), 3u);
  // NDJSON: one record per line, every line a closed object.
  std::vector<std::string> lines = Lines(log.text());
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(ExplainLogTest, ExplainPathWithoutMetricsFailsValidation) {
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config cfg = config.value();
  cfg.mutable_observability().explain_path = "/tmp/never_written.ndjson";
  auto status = cfg.Validate();
  EXPECT_FALSE(status.ok());
}

TEST(ExplainLogTest, EveryUniqueDuplicatePairIsClassifiedAccepted) {
  xml::Document dirty = DirtyMovies(200, 81, 3);
  std::string path = ::testing::TempDir() + "/sxnm_explain_pairs.ndjson";
  Config cfg = ExplainConfig(/*window=*/10, path);
  auto result = Detector(cfg).Run(dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::set<OrdinalPair> accepted;
  std::set<OrdinalPair> merged;
  for (const std::string& line : Lines(ReadFile(path))) {
    if (line.rfind("{\"type\":\"pair\"", 0) == 0) {
      if (line.find("\"verdict\":true") != std::string::npos) {
        accepted.insert({static_cast<size_t>(ExtractInt(line, "a")),
                         static_cast<size_t>(ExtractInt(line, "b"))});
      }
    } else if (line.rfind("{\"type\":\"merge\"", 0) == 0) {
      merged.insert({static_cast<size_t>(ExtractInt(line, "a")),
                     static_cast<size_t>(ExtractInt(line, "b"))});
    }
  }
  const CandidateResult* movie = result->Find("movie");
  ASSERT_NE(movie, nullptr);
  ASSERT_FALSE(movie->duplicate_pairs.empty());
  std::set<OrdinalPair> expected(movie->duplicate_pairs.begin(),
                                 movie->duplicate_pairs.end());
  // The deduplicated accepted set and the TC lineage both replay exactly
  // the result's duplicate pairs.
  EXPECT_EQ(accepted, expected);
  EXPECT_EQ(merged, expected);
}

TEST(ExplainLogTest, ProvenanceCountsReconcileWithCounters) {
  xml::Document dirty = DirtyMovies(180, 91, 5);
  std::string path = ::testing::TempDir() + "/sxnm_explain_prov.ndjson";
  Config cfg = ExplainConfig(/*window=*/10, path);
  // Exercise both provenance tags: window passes give owned records, the
  // exact-OD prepass gives prepass records.
  cfg.mutable_candidates()[0].exact_od_prepass = true;
  auto result = Detector(cfg).Run(dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::string text = ReadFile(path);
  size_t pairs = CountOccurrences(text, "\"type\":\"pair\"");
  size_t owned = CountOccurrences(text, "\"provenance\":\"owned\"");
  size_t prepass = CountOccurrences(text, "\"provenance\":\"prepass\"");
  // Every pair record is one of the two tags, each pass classification
  // is one owned record, and each prepass accept one prepass record.
  EXPECT_EQ(owned + prepass, pairs);
  EXPECT_EQ(owned, result->metrics.CounterOr("sw.comparisons"));
  EXPECT_EQ(prepass, result->metrics.CounterOr("sw.prepass_pairs"));
  EXPECT_GT(owned, 0u);
  EXPECT_GT(prepass, 0u);
}

TEST(ExplainLogTest, ParallelExplainLogsAreByteIdentical) {
  xml::Document dirty = DirtyMovies(150, 101, 7);
  std::string baseline;
  for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    std::string path = ::testing::TempDir() + "/sxnm_explain_t" +
                       std::to_string(threads) + ".ndjson";
    Config cfg = ExplainConfig(/*window=*/8, path);
    cfg.set_num_threads(threads);
    auto result = Detector(cfg).Run(dirty);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string text = ReadFile(path);
    ASSERT_FALSE(text.empty());
    if (baseline.empty()) {
      baseline = std::move(text);
    } else {
      SCOPED_TRACE("num_threads=" + std::to_string(threads));
      EXPECT_EQ(text, baseline);
    }
  }
}

TEST(ExplainLogTest, GovernedRunLogsShedPasses) {
  xml::Document dirty = DirtyMovies(150, 111, 9);
  std::string path = ::testing::TempDir() + "/sxnm_explain_shed.ndjson";
  Config cfg = ExplainConfig(/*window=*/10, path);
  cfg.mutable_limits().max_comparisons = 800;
  auto result = Detector(cfg).Run(dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->degraded());

  std::string text = ReadFile(path);
  EXPECT_EQ(CountOccurrences(text, "{\"type\":\"shed\""),
            result->degradation.passes.size());
  EXPECT_GT(result->degradation.passes.size(), 0u);
  EXPECT_NE(text.find("\"provenance\":\"shed\""), std::string::npos);
}

TEST(ExplainLogTest, OwnedRecordsCarryExactScoringDetail) {
  xml::Document dirty = DirtyMovies(80, 121, 1);
  std::string path = ::testing::TempDir() + "/sxnm_explain_detail.ndjson";
  Config cfg = ExplainConfig(/*window=*/6, path);
  auto result = Detector(cfg).Run(dirty);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  bool saw_owned = false;
  for (const std::string& line : Lines(ReadFile(path))) {
    if (line.rfind("{\"type\":\"pair\"", 0) != 0) continue;
    const bool owned =
        line.find("\"provenance\":\"owned\"") != std::string::npos;
    if (owned) {
      saw_owned = true;
      // The full breakdown rides only on owned records.
      EXPECT_NE(line.find("\"components\":"), std::string::npos);
      EXPECT_NE(line.find("\"score\":"), std::string::npos);
      EXPECT_NE(line.find("\"threshold\":"), std::string::npos);
    } else {
      EXPECT_EQ(line.find("\"components\":"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_owned);
}

}  // namespace
}  // namespace sxnm::core
