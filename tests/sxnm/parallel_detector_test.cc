// Parallel engine determinism: the detector must produce bit-identical
// results for every thread count and with the explain log on or off,
// and the bounded kernel's pruning must not change a verdict. These
// tests drive full dirty-generated datasets through Detector::Run at
// several thread counts and diff every observable output. They also
// serve as the TSan workload (the `tsan` CMake preset's test filter
// selects names containing "Parallel").

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "datagen/dirty_gen.h"
#include "datagen/freedb.h"
#include "datagen/movies.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "sxnm/detector.h"
#include "xml/node.h"
#include "xml/parser.h"

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

// Diffs every observable output of two detection results.
void ExpectIdenticalResults(const DetectionResult& a,
                            const DetectionResult& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const CandidateResult& ca = a.candidates[i];
    const CandidateResult& cb = b.candidates[i];
    SCOPED_TRACE(ca.name);
    EXPECT_EQ(ca.name, cb.name) << "candidate order must be bottom-up";
    EXPECT_EQ(ca.num_instances, cb.num_instances);
    EXPECT_EQ(ca.duplicate_pairs, cb.duplicate_pairs);
    EXPECT_EQ(ca.duplicate_eid_pairs, cb.duplicate_eid_pairs);
    EXPECT_EQ(ca.comparisons, cb.comparisons);
    EXPECT_EQ(ca.clusters.clusters(), cb.clusters.clusters());
    EXPECT_EQ(ca.gk.rows.size(), cb.gk.rows.size());
  }
  EXPECT_EQ(a.TotalComparisons(), b.TotalComparisons());
}

TEST(ParallelDetectorTest, ThreadCountDoesNotChangeMovieResults) {
  xml::Document dirty = DirtyMovies(300, 101, 7);
  auto config = datagen::MovieConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());

  auto serial = Detector(config.value()).Run(dirty);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  for (size_t threads : {size_t{2}, size_t{4}, size_t{0}}) {
    Config parallel_config = config.value();
    parallel_config.set_num_threads(threads);
    auto parallel = Detector(parallel_config).Run(dirty);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    ExpectIdenticalResults(serial.value(), parallel.value());
  }
}

TEST(ParallelDetectorTest, BottomUpMultiCandidateIsDeterministic) {
  // Three candidates across two forest depths (title and person feed
  // movie): exercises the level-parallel candidate scheduling, not just
  // concurrent passes of a single candidate.
  xml::Document dirty = DirtyMovies(200, 41, 6);
  auto config = datagen::MovieScalabilityConfig(/*window=*/5);
  ASSERT_TRUE(config.ok());

  auto serial = Detector(config.value()).Run(dirty);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->candidates.size(), 3u);

  Config parallel_config = config.value();
  parallel_config.set_num_threads(4);
  auto parallel = Detector(parallel_config).Run(dirty);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectIdenticalResults(serial.value(), parallel.value());
}

// Raw text of `"field":<value>` on one NDJSON line (numbers and booleans
// verbatim); empty when absent.
std::string Field(const std::string& line, const std::string& field) {
  const std::string tag = "\"" + field + "\":";
  size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  at += tag.size();
  size_t end = line.find_first_of(",}", at);
  return line.substr(at, end - at);
}

// The bounded kernel's pruning must not change a verdict: with the
// explain log on, every window-pass pair record carries the kernel's
// verdict next to the exact scores of the same Decide call, and the two
// must agree — here on a kOdOnly candidate, where the exact combined
// score against the threshold decides. Explain on must not change the
// clusters either.
TEST(ParallelDetectorTest, FastPathsDoNotChangeAcceptedPairs) {
  xml::Document dirty = DirtyMovies(250, 13, 3);
  auto config = datagen::MovieConfig(/*window=*/8);
  ASSERT_TRUE(config.ok());
  ASSERT_EQ(config->candidates()[0].classifier.mode, CombineMode::kOdOnly);

  const std::string path =
      ::testing::TempDir() + "/parallel_fast_paths_explain.ndjson";
  Config explain_config = config.value();
  explain_config.set_num_threads(4);
  explain_config.mutable_observability().metrics = true;
  explain_config.mutable_observability().explain_path = path;

  auto plain = Detector(config.value()).Run(dirty);
  auto explained = Detector(explain_config).Run(dirty);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  ExpectIdenticalResults(plain.value(), explained.value());

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  size_t owned = 0, accepted = 0, bailouts = 0, ties = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (Field(line, "provenance") != "\"owned\"") continue;
    ++owned;
    const bool bailout = line.find("\"bailout\":true") != std::string::npos;
    const std::string verdict = Field(line, "verdict");
    bailouts += bailout ? 1 : 0;
    accepted += verdict == "true" ? 1 : 0;
    // The log prints 9 significant digits, and rounding is monotone: a
    // score that prints unlike the threshold lies on the side its text
    // does. One that prints as the threshold itself is a tie at that
    // precision and could lie on either side; all the log can show is
    // that the kernel decided it on its exact score, not on a bound.
    const std::string score = Field(line, "score");
    const std::string threshold = Field(line, "threshold");
    if (score == threshold) {
      ++ties;
      ASSERT_FALSE(bailout) << line;
      continue;
    }
    const bool implied = std::stod(score) >= std::stod(threshold);
    ASSERT_EQ(verdict, implied ? "true" : "false") << line;
  }
  std::remove(path.c_str());
  EXPECT_EQ(owned, explained->metrics.CounterOr("sw.comparisons"));
  EXPECT_EQ(bailouts, explained->metrics.CounterOr("sw.ed_bailouts"));
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(bailouts, 0u);
  EXPECT_LT(ties, owned / 100) << "ties must stay the exception";
}

TEST(ParallelDetectorTest, DescendantHeavyCdDataIsDeterministic) {
  // DataSet2: discs with track children, descendant similarity in play.
  auto doc = datagen::GenerateDataSet2(150, 77);
  ASSERT_TRUE(doc.ok());
  auto config = datagen::CdConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());

  auto serial = Detector(config.value()).Run(doc.value());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  Config parallel_config = config.value();
  parallel_config.set_num_threads(4);
  auto parallel = Detector(parallel_config).Run(doc.value());
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalResults(serial.value(), parallel.value());
}

TEST(ParallelDetectorTest, RepeatedParallelRunsAgree) {
  // Flushes out scheduling-dependent nondeterminism that a single run
  // might get lucky on.
  xml::Document dirty = DirtyMovies(120, 5, 2);
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config parallel_config = config.value();
  parallel_config.set_num_threads(4);
  Detector detector(parallel_config);

  auto first = detector.Run(dirty);
  ASSERT_TRUE(first.ok());
  for (int repeat = 0; repeat < 3; ++repeat) {
    auto again = detector.Run(dirty);
    ASSERT_TRUE(again.ok());
    ExpectIdenticalResults(first.value(), again.value());
  }
}

// The checked-in gold-labeled corpus (tests/data/repeated_subtree_movies
// .xml, generated by GenerateCleanMovies + RepeatedSubtreePreset — see
// tests/data/README.md), where most duplicates are byte-exact subtree
// copies: results must be identical at 1 and 4 threads, and must
// actually find the duplicates the gold labels record.
TEST(ParallelDetectorTest, RepeatedSubtreeGoldCorpusIdenticalAndAccurate) {
  const std::string path =
      std::string(SXNM_TEST_DATA_DIR) + "/repeated_subtree_movies.xml";
  auto doc = xml::ParseFile(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto config = datagen::MovieConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());

  auto serial = Detector(config.value()).Run(doc.value());
  Config parallel_config = config.value();
  parallel_config.set_num_threads(4);
  auto parallel = Detector(parallel_config).Run(doc.value());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ExpectIdenticalResults(serial.value(), parallel.value());

  auto gold = eval::GoldClusterSet(doc.value(), "movie_database/movies/movie");
  ASSERT_TRUE(gold.ok()) << gold.status().ToString();
  ASSERT_GT(gold->NumDuplicatePairs(), 0u);
  eval::PairMetrics serial_metrics =
      eval::PairwiseMetrics(gold.value(), serial->Find("movie")->clusters);
  eval::PairMetrics parallel_metrics =
      eval::PairwiseMetrics(gold.value(), parallel->Find("movie")->clusters);
  EXPECT_EQ(serial_metrics.f1, parallel_metrics.f1);
  // Loose floors: this guards against pairs silently going missing, not
  // against tuning drift.
  EXPECT_GT(parallel_metrics.recall, 0.7) << parallel_metrics.ToString();
  EXPECT_GT(parallel_metrics.precision, 0.9) << parallel_metrics.ToString();
}

}  // namespace
}  // namespace sxnm::core
