// Pinned detection results over the engine's knob matrix. Every
// candidate's clusters and the explain log's (candidate, pass, pair,
// verdict) records are digested and compared against constants recorded
// from the engine as it stood before its comparison shortcuts (cross-pass
// verdict cache, subtree interning, batched pre-filter) were removed: a
// change to the window phase that alters a single cluster or per-pass
// verdict fails here, for every combination of threads {1,4} × shards
// {1,3} × memory budget {off, 16 KiB}.
//
// The provenance tag of an explain record is deliberately not digested:
// it names which code path decided the pair, not what was decided.

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <tuple>
#include <vector>

#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "sxnm/detector.h"
#include "xml/node.h"

namespace sxnm {
namespace {

// FNV-1a over 64-bit words.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void Add(std::string_view s) {
    Add(s.size());
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
};

uint64_t ClusterDigest(const core::CandidateResult& cand) {
  Digest d;
  d.Add(cand.name);
  d.Add(cand.num_instances);
  for (const std::vector<size_t>& cluster : cand.clusters.clusters()) {
    d.Add(cluster.size());
    for (size_t ordinal : cluster) d.Add(ordinal);
  }
  return d.h;
}

// The value of the first `tag` (`"field":`) at or after `from` in one
// NDJSON line — strings keep their quotes; numbers and booleans are
// returned verbatim — or empty when the tag is absent. Moves `from` past
// the value, so a record's fields are read in their written order
// without rescanning the line.
std::string_view Field(std::string_view line, std::string_view tag,
                       size_t& from) {
  size_t at = line.find(tag, from);
  if (at == std::string_view::npos) return {};
  at += tag.size();
  size_t end = at;
  if (at < line.size() && line[at] == '"') {
    end = line.find('"', at + 1) + 1;
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  from = end;
  return line.substr(at, end - at);
}

long Number(std::string_view text) {
  long value = 0;
  auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  EXPECT_TRUE(error == std::errc() && end == text.data() + text.size())
      << "not an integer: '" << text << "'";
  return value;
}

struct ExplainPairs {
  size_t records = 0;
  uint64_t digest = 0;
};

// Digest of the multiset of pair records, each reduced to (candidate,
// pass, a, b, verdict). The log is read once and scanned in place.
ExplainPairs DigestExplainPairs(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string text;
  in.seekg(0, std::ios::end);
  text.resize(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  std::vector<std::tuple<std::string_view, long, long, long, std::string_view>>
      pairs;
  std::string_view rest = text;
  while (!rest.empty()) {
    size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest.remove_prefix(eol == std::string_view::npos ? rest.size() : eol + 1);
    size_t from = 0;
    if (Field(line, "\"type\":", from) != "\"pair\"") continue;
    std::string_view cand = Field(line, "\"candidate\":", from);
    long pass = Number(Field(line, "\"pass\":", from));
    long a = Number(Field(line, "\"a\":", from));
    long b = Number(Field(line, "\"b\":", from));
    // The verdict closes the record, after the scoring breakdown.
    from = line.rfind("\"verdict\":");
    pairs.emplace_back(cand, pass, a, b, Field(line, "\"verdict\":", from));
  }
  std::sort(pairs.begin(), pairs.end());
  Digest d;
  for (const auto& [cand, pass, a, b, verdict] : pairs) {
    d.Add(cand);
    d.Add(static_cast<uint64_t>(pass));
    d.Add(static_cast<uint64_t>(a));
    d.Add(static_cast<uint64_t>(b));
    d.Add(verdict);
  }
  return {pairs.size(), d.h};
}

struct Pin {
  struct Candidate {
    const char* name;
    size_t duplicate_pairs;
    uint64_t clusters;
  };
  std::vector<Candidate> candidates;
  uint64_t pairs_windowed;
  uint64_t comparisons;
  size_t explain_pairs;
  uint64_t explain_digest;
};

xml::Document Corpus(datagen::DirtyOptions (*preset)(uint64_t),
                     size_t num_movies, unsigned data_seed,
                     unsigned dirty_seed) {
  datagen::MovieDataOptions gen;
  gen.num_movies = num_movies;
  gen.seed = data_seed;
  auto dirty =
      datagen::MakeDirty(datagen::GenerateCleanMovies(gen), preset(dirty_seed));
  EXPECT_TRUE(dirty.ok());
  return std::move(dirty).value();
}

// The repeated-subtree benchmark configuration: title-only OD at a high
// threshold, window 30, three passes.
core::Config RepeatedSubtreeConfig() {
  auto movie = core::CandidateBuilder("movie", "movie_database/movies/movie")
                   .Path(1, "title/text()")
                   .Path(2, "@year")
                   .Path(3, "@length")
                   .Od(1, 1.0)
                   .Key({{1, "K1-K5"}, {2, "D3,D4"}})
                   .Key({{2, "D3,D4"}, {1, "K1,K2"}})
                   .Key({{3, "D1,D2"}, {1, "K1,K2"}})
                   .Window(30)
                   .OdThreshold(0.9)
                   .Mode(core::CombineMode::kOdOnly)
                   .Build();
  EXPECT_TRUE(movie.ok());
  core::Config config;
  EXPECT_TRUE(config.AddCandidate(std::move(movie).value()).ok());
  return config;
}

void ExpectPinnedAcrossMatrix(const std::string& label,
                              const xml::Document& doc,
                              const core::Config& base, const Pin& pin) {
  const std::string dir = ::testing::TempDir() + "/pinned_matrix_" + label;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t shards : {size_t{1}, size_t{3}}) {
      for (uint64_t budget : {uint64_t{0}, uint64_t{16 * 1024}}) {
        SCOPED_TRACE(label + " threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards) +
                     " budget=" + std::to_string(budget));
        core::Config config = base;
        config.set_num_threads(threads);
        config.set_shards(shards);
        config.set_memory_budget_bytes(budget);
        config.set_spill_dir(dir);
        config.mutable_observability().metrics = true;
        config.mutable_observability().explain_path = dir + "/explain.ndjson";
        auto result = core::Detector(config).Run(doc);
        ASSERT_TRUE(result.ok()) << result.status().ToString();

        ASSERT_EQ(result->candidates.size(), pin.candidates.size());
        for (size_t i = 0; i < pin.candidates.size(); ++i) {
          const core::CandidateResult& cand = result->candidates[i];
          SCOPED_TRACE(cand.name);
          EXPECT_EQ(cand.name, pin.candidates[i].name);
          EXPECT_EQ(cand.duplicate_pairs.size(),
                    pin.candidates[i].duplicate_pairs);
          EXPECT_EQ(ClusterDigest(cand), pin.candidates[i].clusters);
        }
        EXPECT_EQ(result->metrics.CounterOr("sw.pairs_windowed"),
                  pin.pairs_windowed);
        EXPECT_EQ(result->metrics.CounterOr("sw.comparisons"),
                  pin.comparisons);
        ExplainPairs explain = DigestExplainPairs(dir + "/explain.ndjson");
        EXPECT_EQ(explain.records, pin.explain_pairs);
        EXPECT_EQ(explain.digest, pin.explain_digest);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(PinnedMatrixTest, DirtyMovies) {
  xml::Document doc = Corpus(datagen::DataSet1DirtyPreset, 400, 101, 7);
  auto config = datagen::MovieConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());
  Pin pin{{{"movie", 130, 0xddebc0982d993c84ull}},
          14661,
          14661,
          14661,
          0x3dca02df09095032ull};
  ExpectPinnedAcrossMatrix("dirty", doc, config.value(), pin);
}

TEST(PinnedMatrixTest, RepeatedSubtree) {
  xml::Document doc = Corpus(datagen::RepeatedSubtreePreset, 150, 31, 13);
  Pin pin{{{"movie", 408, 0x07cb9e6d952385c2ull}},
          36366,
          36366,
          36366,
          0x17386d35fc55fb79ull};
  ExpectPinnedAcrossMatrix("repeated", doc, RepeatedSubtreeConfig(), pin);
}

// Nested candidates with descendant similarity: the classification paths
// that read child cluster sets.
TEST(PinnedMatrixTest, NestedMovies) {
  xml::Document doc = Corpus(datagen::FewDuplicatesPreset, 300, 57, 11);
  auto config = datagen::MovieScalabilityConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());
  Pin pin{{{"person", 541, 0xb6dd90c0d7e48b04ull},
           {"title", 211, 0xd15e3f70b0dfaec9ull},
           {"movie", 29, 0x731c85248ec5f781ull}},
          16965,
          16965,
          16965,
          0xb1eb835aff3d637full};
  ExpectPinnedAcrossMatrix("nested", doc, config.value(), pin);
}

}  // namespace
}  // namespace sxnm
