// Crash-consistent checkpoint/resume: frame codec round-trips, the
// fingerprint refusal matrix, and the central guarantee — a resumed run
// produces clusters, counters, report rows, and explain output
// bit-identical to an uninterrupted run, for any thread count and any
// kernel configuration.

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "persist/io.h"
#include "persist/snapshot.h"
#include "sxnm/checkpoint.h"
#include "sxnm/config_xml.h"
#include "sxnm/detector.h"
#include "util/fault_injection.h"
#include "xml/parser.h"

namespace sxnm::core {
namespace {

using util::StatusCode;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

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

// --- Fingerprints ----------------------------------------------------------

TEST(CheckpointFingerprintTest, ConfigFingerprintIgnoresNonSemanticKnobs) {
  auto config = datagen::MovieConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());
  uint64_t base = ConfigFingerprint(config.value());

  Config threads = config.value();
  threads.set_num_threads(8);
  EXPECT_EQ(ConfigFingerprint(threads), base)
      << "thread count must not block resume";

  Config obs = config.value();
  obs.mutable_observability().metrics = true;
  obs.mutable_observability().trace_path = "/tmp/t.json";
  EXPECT_EQ(ConfigFingerprint(obs), base)
      << "observability shape is carried separately, not in the fingerprint";

  Config ckpt = config.value();
  ckpt.mutable_checkpoint().path = "/tmp/x.ckpt";
  EXPECT_EQ(ConfigFingerprint(ckpt), base);
}

TEST(CheckpointFingerprintTest, ConfigFingerprintSeesSemanticChanges) {
  auto config = datagen::MovieConfig(/*window=*/10);
  ASSERT_TRUE(config.ok());
  uint64_t base = ConfigFingerprint(config.value());

  Config window = config.value();
  window.mutable_candidates()[0].window_size = 11;
  EXPECT_NE(ConfigFingerprint(window), base);

  Config threshold = config.value();
  threshold.mutable_candidates()[0].classifier.od_threshold = 0.9;
  EXPECT_NE(ConfigFingerprint(threshold), base);

  Config budget = config.value();
  budget.mutable_limits().max_comparisons = 1000;
  EXPECT_NE(ConfigFingerprint(budget), base)
      << "the comparison budget shapes the shed set";
}

TEST(CheckpointFingerprintTest, DocumentFingerprintSeesStructureAndText) {
  auto a = xml::Parse("<db><m year='1999'><t>Matrix</t></m></db>");
  auto b = xml::Parse("<db><m year='1999'><t>Matrix</t></m></db>");
  auto text = xml::Parse("<db><m year='1999'><t>Matrxi</t></m></db>");
  auto attr = xml::Parse("<db><m year='1998'><t>Matrix</t></m></db>");
  auto nest = xml::Parse("<db><m year='1999'></m><t>Matrix</t></db>");
  ASSERT_TRUE(a.ok() && b.ok() && text.ok() && attr.ok() && nest.ok());
  uint64_t base = DocumentFingerprint(a.value());
  EXPECT_EQ(DocumentFingerprint(b.value()), base);
  EXPECT_NE(DocumentFingerprint(text.value()), base);
  EXPECT_NE(DocumentFingerprint(attr.value()), base);
  EXPECT_NE(DocumentFingerprint(nest.value()), base);
}

// Magic plus the current format version: what a torn or corrupt snapshot
// written by this build starts with.
std::string CurrentSnapshotHeader() {
  std::string header(persist::kSnapshotMagic, sizeof(persist::kSnapshotMagic));
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>(persist::kSnapshotVersion >> (8 * i)));
  }
  return header;
}

// --- Frame codec round-trips ----------------------------------------------

TEST(CheckpointCodecTest, CursorRoundTrips) {
  CheckpointCursor cursor;
  cursor.levels_completed = 3;
  cursor.budget_spent = 12345;
  cursor.budget_exhausted = true;
  cursor.kg_seconds = 0.5;
  cursor.sw_seconds = 1.25;
  cursor.tc_seconds = 0.0625;

  persist::Encoder enc;
  EncodeCursor(cursor, enc);
  auto decoded = DecodeCursor(enc.bytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->levels_completed, 3u);
  EXPECT_EQ(decoded->budget_spent, 12345u);
  EXPECT_TRUE(decoded->budget_exhausted);
  EXPECT_EQ(decoded->kg_seconds, 0.5);
  EXPECT_EQ(decoded->sw_seconds, 1.25);
  EXPECT_EQ(decoded->tc_seconds, 0.0625);
}

TEST(CheckpointCodecTest, GkTableRoundTripsRowsAndPool) {
  GkTable table;
  table.num_keys = 2;
  table.num_od = 2;
  OdRef matrix = table.od_pool.Intern("matrix");
  OdRef year = table.od_pool.Intern("1999");
  GkRow row;
  row.ordinal = 0;
  row.eid = 42;
  row.keys = {"MTRX1999", "1999MTRX"};
  row.ods = {"Matrix", "1999"};
  row.norm_ods = {matrix, year};
  table.rows.push_back(row);
  GkRow second = row;
  second.ordinal = 1;
  second.eid = 43;
  table.rows.push_back(second);

  persist::Encoder enc;
  EncodeGkTable(table, /*candidate_index=*/5, /*kg_done=*/true, enc);
  auto decoded = DecodeGkTable(enc.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->index, 5u);
  EXPECT_TRUE(decoded->kg_done);
  GkTable& got = decoded->table;
  EXPECT_EQ(got.num_keys, 2u);
  ASSERT_EQ(got.rows.size(), 2u);
  EXPECT_EQ(got.rows[0].keys, row.keys);
  EXPECT_EQ(got.rows[0].ods, row.ods);
  EXPECT_EQ(got.rows[0].eid, 42);
  EXPECT_EQ(got.rows[1].eid, 43);
  // The rebuilt pool resolves the references to the same bytes and keeps
  // interning: re-interning an existing value returns its old id.
  EXPECT_EQ(got.od_pool.View(got.rows[0].norm_ods[0]), "matrix");
  EXPECT_EQ(got.od_pool.View(got.rows[0].norm_ods[1]), "1999");
  EXPECT_EQ(got.od_pool.Intern("matrix").id, matrix.id);
}

TEST(CheckpointCodecTest, GkTableRejectsDanglingOdRefs) {
  GkTable table;
  table.num_keys = 1;
  OdRef ref = table.od_pool.Intern("x");
  GkRow row;
  row.keys = {"k"};
  row.ods = {"x"};
  ref.length = 100;  // past the arena
  row.norm_ods = {ref};
  table.rows.push_back(row);
  persist::Encoder enc;
  EncodeGkTable(table, 0, true, enc);
  auto decoded = DecodeGkTable(enc.bytes());
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointCodecTest, GkTableRejectsRowWithUninternedOds) {
  // Key generation interns every OD value, so a row whose normalized-OD
  // count differs from its OD count cannot come from a real run.
  GkTable table;
  table.num_keys = 1;
  table.num_od = 2;
  OdRef ref = table.od_pool.Intern("x");
  GkRow row;
  row.keys = {"k"};
  row.ods = {"x", "y"};
  row.norm_ods = {ref};
  table.rows.push_back(row);
  for (size_t norm : {size_t{0}, size_t{1}, size_t{3}}) {
    SCOPED_TRACE("norm_ods=" + std::to_string(norm));
    table.rows[0].norm_ods.assign(norm, ref);
    persist::Encoder enc;
    EncodeGkTable(table, 0, true, enc);
    auto decoded = DecodeGkTable(enc.bytes());
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  table.rows[0].norm_ods.assign(2, ref);
  persist::Encoder enc;
  EncodeGkTable(table, 0, true, enc);
  EXPECT_TRUE(DecodeGkTable(enc.bytes()).ok());
}

TEST(CheckpointCodecTest, CandidateResultRoundTripsPairsAndClusters) {
  CandidateResult result;
  result.name = "movie";
  result.num_instances = 6;
  result.comparisons = 15;
  result.duplicate_pairs = {{0, 1}, {1, 2}, {4, 5}};
  result.duplicate_eid_pairs = {{10, 11}, {11, 12}, {14, 15}};
  result.clusters = ClusterSet::FromClusters({{0, 1, 2}, {4, 5}}, 6);

  persist::Encoder enc;
  EncodeCandidateResult(result, /*candidate_index=*/2, enc);
  auto decoded = DecodeCandidateResult(enc.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->index, 2u);
  EXPECT_EQ(decoded->result.name, "movie");
  EXPECT_EQ(decoded->result.num_instances, 6u);
  EXPECT_EQ(decoded->result.comparisons, 15u);
  EXPECT_EQ(decoded->result.duplicate_pairs, result.duplicate_pairs);
  EXPECT_EQ(decoded->result.duplicate_eid_pairs, result.duplicate_eid_pairs);
  EXPECT_EQ(decoded->result.clusters.clusters(), result.clusters.clusters());
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(decoded->result.clusters.cid(i), result.clusters.cid(i));
  }
}

TEST(CheckpointCodecTest, ClusterSetRejectsInvalidPartitions) {
  // Members out of range and ordinals claimed by two clusters must fail
  // in the decoder — ClusterSet::FromClusters trusts its input.
  persist::Encoder out_of_range;
  EncodeClusterSet(ClusterSet::FromClusters({{0, 1}}, 3), out_of_range);
  std::string bytes = out_of_range.bytes();
  // num_instances is the first u64; shrink it below the member values.
  bytes[0] = 1;
  persist::Decoder dec1(bytes);
  auto decoded = DecodeClusterSet(dec1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);

  persist::Encoder duplicated;
  duplicated.PutU64(4);  // num_instances
  duplicated.PutU64(2);  // two clusters...
  duplicated.PutU64(2);
  duplicated.PutU64(0);
  duplicated.PutU64(1);
  duplicated.PutU64(2);
  duplicated.PutU64(1);  // ...both claiming ordinal 1
  duplicated.PutU64(2);
  persist::Decoder dec2(duplicated.bytes());
  auto dup = DecodeClusterSet(dec2);
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointCodecTest, DegradationRoundTrips) {
  DegradationReport report;
  report.degraded = true;
  report.reason = StatusCode::kResourceExhausted;
  report.comparison_budget = 500;
  PassDegradation pass;
  pass.candidate = "movie";
  pass.key_index = 1;
  pass.skipped = false;
  pass.window_used = 4;
  pass.rows = 100;
  pass.pairs_planned = 900;
  pass.pairs_elided = 603;
  report.passes.push_back(pass);

  persist::Encoder enc;
  EncodeDegradation(report, enc);
  auto decoded = DecodeDegradation(enc.bytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->degraded);
  EXPECT_EQ(decoded->reason, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->comparison_budget, 500u);
  ASSERT_EQ(decoded->passes.size(), 1u);
  EXPECT_EQ(decoded->passes[0].candidate, "movie");
  EXPECT_EQ(decoded->passes[0].pairs_elided, 603u);
}

// --- Whole-snapshot save/load ---------------------------------------------

// A genuine snapshot written by the version-1 format (it carries the
// retired verdict-cache frame and the wider cursor and PassStats
// payloads): the version-2 reader refuses it up front as unusable, not
// corrupt, before any frame payload is decoded.
TEST(EngineSnapshotTest, Version1SnapshotIsRefused) {
  const std::string path = std::string(SXNM_TEST_DATA_DIR) +
                           "/../../fuzz/corpus/snapshot/v1_cursor.snap";
  auto bytes = persist::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_EQ(bytes->compare(0, 8, "SXNMSNAP"), 0);
  ASSERT_EQ(static_cast<uint8_t>((*bytes)[8]), 1u) << "fixture is version 1";

  auto reader = persist::SnapshotReader::Parse(*bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);

  auto loaded = LoadEngineSnapshot(path, CheckpointFingerprint{});
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

// Completed-candidate frames must name a candidate of the snapshot's GK
// frames, each at most once; anything else is corruption.
TEST(EngineSnapshotTest, CompletedCandidateIndicesCheckedAtLoad) {
  std::vector<GkTable> gk(2);
  std::vector<char> kg_done(2, 1);
  CandidateResult result;
  result.name = "movie";
  std::string path = TempPath("indices.ckpt");
  using Completed = std::vector<std::pair<uint64_t, const CandidateResult*>>;
  for (const auto& [completed, ok] :
       {std::pair{Completed{{1, &result}}, true},
        std::pair{Completed{{0, &result}, {0, &result}}, false},
        std::pair{Completed{{2, &result}}, false}}) {
    EngineSnapshotView view;
    view.gk = &gk;
    view.kg_done = &kg_done;
    view.completed = completed;
    ASSERT_TRUE(SaveEngineSnapshot(view, path).ok());
    auto loaded = LoadEngineSnapshot(path, CheckpointFingerprint{});
    EXPECT_EQ(loaded.status().code(),
              ok ? StatusCode::kOk : StatusCode::kDataLoss)
        << loaded.status().ToString();
  }
}

TEST(EngineSnapshotTest, LoadRefusalMatrix) {
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  auto doc = xml::Parse("<db><movies/></db>");
  ASSERT_TRUE(doc.ok());
  CheckpointFingerprint fp;
  fp.config_fingerprint = ConfigFingerprint(config.value());
  fp.doc_fingerprint = DocumentFingerprint(doc.value());

  std::string path = TempPath("refusal.ckpt");
  EngineSnapshotView view;
  view.fingerprint = fp;
  ASSERT_TRUE(SaveEngineSnapshot(view, path).ok());

  // Matching fingerprint loads.
  EXPECT_TRUE(LoadEngineSnapshot(path, fp).ok());

  // Different config / document / observability shape: refused, not
  // corrupt — the snapshot is fine, it just belongs to another run.
  CheckpointFingerprint other = fp;
  other.config_fingerprint ^= 1;
  auto wrong_config = LoadEngineSnapshot(path, other);
  ASSERT_FALSE(wrong_config.ok());
  EXPECT_EQ(wrong_config.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(wrong_config.status().message().find("configuration"),
            std::string::npos);

  other = fp;
  other.doc_fingerprint ^= 1;
  auto wrong_doc = LoadEngineSnapshot(path, other);
  ASSERT_FALSE(wrong_doc.ok());
  EXPECT_EQ(wrong_doc.status().code(), StatusCode::kFailedPrecondition);

  other = fp;
  other.metrics_enabled = true;
  auto wrong_obs = LoadEngineSnapshot(path, other);
  ASSERT_FALSE(wrong_obs.ok());
  EXPECT_EQ(wrong_obs.status().code(), StatusCode::kFailedPrecondition);

  // Missing file: kNotFound (fresh start), not an error class.
  auto missing = LoadEngineSnapshot(TempPath("never_written.ckpt"), fp);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Corrupt file: kDataLoss. Magic and version are intact (a bad version
  // word would be refused as kFailedPrecondition instead), but the frame
  // stream behind them is garbage.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::string junk = CurrentSnapshotHeader() + "garbage frames";
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  auto corrupt = LoadEngineSnapshot(path, fp);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);
  persist::RemoveFile(path);
}

// --- Detector resume == uninterrupted -------------------------------------

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
    EXPECT_EQ(ca.gk.rows.size(), cb.gk.rows.size());
  }
  EXPECT_EQ(a.TotalComparisons(), b.TotalComparisons());
  EXPECT_EQ(a.degradation.degraded, b.degradation.degraded);
  EXPECT_EQ(a.degradation.passes.size(), b.degradation.passes.size());
}

// Deterministic (non-wall-clock, non-persist) counters must match
// between a resumed and an uninterrupted run.
void ExpectIdenticalCounters(const obs::MetricsSnapshot& a,
                             const obs::MetricsSnapshot& b) {
  auto deterministic = [](const std::string& name) {
    return name.rfind("persist.", 0) != 0 &&
           name.find("_us") == std::string::npos &&
           name.find("seconds") == std::string::npos;
  };
  std::vector<std::pair<std::string, uint64_t>> ca, cb;
  for (const auto& s : a.counters) {
    if (deterministic(s.name)) ca.emplace_back(s.name, s.value);
  }
  for (const auto& s : b.counters) {
    if (deterministic(s.name)) cb.emplace_back(s.name, s.value);
  }
  EXPECT_EQ(ca, cb);
}

class CheckpointDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Instance().DisarmAll(); }
  void TearDown() override { util::FaultInjector::Instance().DisarmAll(); }
};

// Runs detection with checkpointing, interrupted by an injected failure
// of pass `fail_pass`, then resumes; the resumed result must equal the
// uninterrupted baseline byte for byte.
void RunInterruptResumeCase(Config config, const xml::Document& doc,
                            const std::string& tag) {
  std::string ckpt = TempPath("resume_" + tag + ".ckpt");
  std::string explain_base = TempPath("explain_base_" + tag + ".ndjson");
  std::string explain_resumed = TempPath("explain_res_" + tag + ".ndjson");
  persist::RemoveFile(ckpt);

  config.mutable_observability().metrics = true;
  // Explain stays on across interrupt + resume (the enabled flag is part
  // of the snapshot fingerprint); the file only materializes when a run
  // completes.
  config.mutable_observability().explain_path = explain_resumed;
  config.mutable_checkpoint().path = ckpt;

  // Baseline: uninterrupted, no checkpointing (prove checkpoint writes
  // never perturb the result), explain on for the byte-level diff.
  Config base_config = config;
  base_config.mutable_checkpoint() = CheckpointConfig{};
  base_config.mutable_observability().explain_path = explain_base;
  auto baseline = Detector(base_config).Run(doc);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Interrupted run: a window pass of a later level fails hard. Levels
  // before it committed snapshots.
  {
    util::ScopedFault fault("detector.pass", 3);
    auto interrupted = Detector(config).Run(doc);
    ASSERT_FALSE(interrupted.ok()) << "fault did not fire for " << tag;
  }
  ASSERT_TRUE(persist::PathExists(ckpt))
      << "interrupted run left no snapshot for " << tag;

  // Resume: picks up at the last durable level and finishes.
  auto resumed = Detector(config).Run(doc);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  ExpectIdenticalResults(baseline.value(), resumed.value());
  ExpectIdenticalCounters(baseline->metrics, resumed->metrics);
  ASSERT_EQ(baseline->report.rows.size(), resumed->report.rows.size());
  for (size_t i = 0; i < baseline->report.rows.size(); ++i) {
    EXPECT_EQ(baseline->report.rows[i].candidate,
              resumed->report.rows[i].candidate);
    EXPECT_EQ(baseline->report.rows[i].stats.comparisons,
              resumed->report.rows[i].stats.comparisons);
    EXPECT_EQ(baseline->report.rows[i].stats.hits,
              resumed->report.rows[i].stats.hits);
  }

  // The explain byte stream — the strictest observable — must be
  // byte-identical.
  std::ifstream a(explain_base), b(explain_resumed);
  std::string text_a((std::istreambuf_iterator<char>(a)),
                     std::istreambuf_iterator<char>());
  std::string text_b((std::istreambuf_iterator<char>(b)),
                     std::istreambuf_iterator<char>());
  EXPECT_EQ(text_a, text_b) << "explain streams diverged for " << tag;

  // A completed run has nothing to resume: the snapshot is gone.
  EXPECT_FALSE(persist::PathExists(ckpt))
      << "completed run must remove its checkpoint (" << tag << ")";
  persist::RemoveFile(explain_base);
  persist::RemoveFile(explain_resumed);
}

TEST_F(CheckpointDetectorTest, ResumeMatchesUninterruptedSerial) {
  auto config = datagen::MovieScalabilityConfig(/*window=*/5);
  ASSERT_TRUE(config.ok());
  RunInterruptResumeCase(config.value(), DirtyMovies(120, 41, 6), "serial");
}

TEST_F(CheckpointDetectorTest, ResumeMatchesUninterruptedParallel) {
  auto config = datagen::MovieScalabilityConfig(/*window=*/5);
  ASSERT_TRUE(config.ok());
  Config parallel = config.value();
  parallel.set_num_threads(4);
  RunInterruptResumeCase(parallel, DirtyMovies(120, 41, 6), "parallel");
}

TEST_F(CheckpointDetectorTest, ResumeAcrossThreadCountsIsIdentical) {
  // Interrupt under 4 threads, resume serially: the snapshot must be
  // thread-count neutral in both directions.
  auto config = datagen::MovieScalabilityConfig(/*window=*/5);
  ASSERT_TRUE(config.ok());
  xml::Document doc = DirtyMovies(120, 17, 3);
  std::string ckpt = TempPath("cross_threads.ckpt");
  persist::RemoveFile(ckpt);

  auto baseline = Detector(config.value()).Run(doc);
  ASSERT_TRUE(baseline.ok());

  Config interrupted_config = config.value();
  interrupted_config.set_num_threads(4);
  interrupted_config.mutable_checkpoint().path = ckpt;
  {
    util::ScopedFault fault("detector.pass", 3);
    auto interrupted = Detector(interrupted_config).Run(doc);
    ASSERT_FALSE(interrupted.ok());
  }
  ASSERT_TRUE(persist::PathExists(ckpt));

  Config resume_config = config.value();  // back to serial
  resume_config.mutable_checkpoint().path = ckpt;
  auto resumed = Detector(resume_config).Run(doc);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdenticalResults(baseline.value(), resumed.value());
}

TEST_F(CheckpointDetectorTest, RunOptionsPathOverridesConfig) {
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  xml::Document doc = DirtyMovies(40, 5, 5);
  std::string ckpt = TempPath("via_options.ckpt");
  persist::RemoveFile(ckpt);

  RunOptions options;
  options.checkpoint_path = ckpt;
  {
    util::ScopedFault fault("detector.pass", 2);
    auto interrupted = Detector(config.value()).Run(doc, options);
    ASSERT_FALSE(interrupted.ok());
  }
  EXPECT_TRUE(persist::PathExists(ckpt));
  auto resumed = Detector(config.value()).Run(doc, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_FALSE(persist::PathExists(ckpt));
}

TEST_F(CheckpointDetectorTest, CorruptSnapshotFailsRunWithDataLoss) {
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  xml::Document doc = DirtyMovies(40, 5, 5);
  std::string ckpt = TempPath("corrupt_run.ckpt");
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    std::string torn = CurrentSnapshotHeader() + " torn tail";
    out.write(torn.data(), static_cast<std::streamsize>(torn.size()));
  }
  Config run_config = config.value();
  run_config.mutable_checkpoint().path = ckpt;
  auto result = Detector(run_config).Run(doc);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss)
      << result.status().ToString();
  persist::RemoveFile(ckpt);
}

TEST_F(CheckpointDetectorTest, MismatchedDocumentRefusesResume) {
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config run_config = config.value();
  std::string ckpt = TempPath("mismatch_doc.ckpt");
  persist::RemoveFile(ckpt);
  run_config.mutable_checkpoint().path = ckpt;

  xml::Document doc = DirtyMovies(40, 5, 5);
  {
    util::ScopedFault fault("detector.pass", 2);
    auto interrupted = Detector(run_config).Run(doc);
    ASSERT_FALSE(interrupted.ok());
  }
  ASSERT_TRUE(persist::PathExists(ckpt));

  xml::Document other = DirtyMovies(40, 6, 5);  // different data seed
  auto refused = Detector(run_config).Run(other);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  persist::RemoveFile(ckpt);
}

TEST_F(CheckpointDetectorTest, SnapshotWriteFailureFailsTheRun) {
  // A checkpointed run that cannot make its state durable must say so —
  // carrying on silently would break the crash contract the user asked
  // for.
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  Config run_config = config.value();
  std::string ckpt = TempPath("write_fail.ckpt");
  persist::RemoveFile(ckpt);
  run_config.mutable_checkpoint().path = ckpt;
  xml::Document doc = DirtyMovies(40, 5, 5);

  util::ScopedFault fault("persist.write");
  auto result = Detector(run_config).Run(doc);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  persist::RemoveFile(ckpt);
  persist::RemoveFile(ckpt + ".tmp");
}

TEST_F(CheckpointDetectorTest, CompletedRunRemovesSnapshotAndPerturbsNothing) {
  auto config = datagen::MovieConfig(/*window=*/6);
  ASSERT_TRUE(config.ok());
  xml::Document doc = DirtyMovies(60, 8, 2);
  auto plain = Detector(config.value()).Run(doc);
  ASSERT_TRUE(plain.ok());

  Config ckpt_config = config.value();
  std::string ckpt = TempPath("complete_clean.ckpt");
  persist::RemoveFile(ckpt);
  ckpt_config.mutable_checkpoint().path = ckpt;
  auto checkpointed = Detector(ckpt_config).Run(doc);
  ASSERT_TRUE(checkpointed.ok());
  EXPECT_FALSE(persist::PathExists(ckpt));
  ExpectIdenticalResults(plain.value(), checkpointed.value());
}

TEST_F(CheckpointDetectorTest, ConfigXmlCheckpointRoundTrips) {
  auto parsed = ConfigFromXmlString(R"xml(
<sxnm-config>
  <checkpoint path="run.ckpt" every-pass="false"/>
  <candidate name="movie" path="db/movies/movie" window="4">
    <paths><path id="1" rel="title/text()"/></paths>
    <od><entry pid="1"/></od>
    <keys><key><part pid="1" pattern="K1-K5"/></key></keys>
  </candidate>
</sxnm-config>
)xml");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->checkpoint().path, "run.ckpt");
  EXPECT_FALSE(parsed->checkpoint().every_pass);

  std::string serialized = ConfigToXmlString(parsed.value());
  auto round = ConfigFromXmlString(serialized);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->checkpoint().path, "run.ckpt");
  EXPECT_FALSE(round->checkpoint().every_pass);
}

}  // namespace
}  // namespace sxnm::core
