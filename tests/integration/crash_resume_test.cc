// Crash matrix: fork a child that runs a checkpointed detection and is
// SIGKILLed at a precise point — before the first snapshot is durable,
// between passes, mid snapshot-write (after write, after fsync, before
// rename), and after the final pass during artifact export — then resume
// in the parent and prove the result is identical to an uninterrupted
// run. The kill is a real SIGKILL raised inside the instrumented step
// (FaultAction::kKill): no destructors, no atexit, no flushing — exactly
// what OOM kills and node preemptions do.

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "extsort/extsort.h"
#include "persist/io.h"
#include "sxnm/detector.h"
#include "util/fault_injection.h"
#include "xml/node.h"

namespace sxnm::core {
namespace {

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

void ExpectIdenticalResults(const DetectionResult& a,
                            const DetectionResult& b) {
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (size_t i = 0; i < a.candidates.size(); ++i) {
    const CandidateResult& ca = a.candidates[i];
    const CandidateResult& cb = b.candidates[i];
    SCOPED_TRACE(ca.name);
    EXPECT_EQ(ca.name, cb.name);
    EXPECT_EQ(ca.duplicate_pairs, cb.duplicate_pairs);
    EXPECT_EQ(ca.duplicate_eid_pairs, cb.duplicate_eid_pairs);
    EXPECT_EQ(ca.comparisons, cb.comparisons);
    EXPECT_EQ(ca.clusters.clusters(), cb.clusters.clusters());
  }
  EXPECT_EQ(a.TotalComparisons(), b.TotalComparisons());
}

/// One cell of the crash matrix: where the child dies.
struct KillPoint {
  const char* name;
  const char* site;     // fault site that raises SIGKILL
  uint64_t hit;         // 1-based hit of that site
  bool needs_report;    // arm an artifact export after the last checkpoint
};

// Sites hit in a two-level run with every-pass checkpointing (the final
// level is never committed — a successful run would delete it moments
// later):
//   persist.write  1        -> post-KG snapshot       (not yet durable)
//   detector.pass  1..2     -> level-1 window passes
//   persist.write  2        -> level-1 snapshot
//   detector.pass  3        -> level-2 (movie) pass
//   persist.write  3        -> DetectionReport export (with needs_report)
const KillPoint kKillPoints[] = {
    // Killed inside the very first snapshot write: nothing durable yet,
    // resume must behave as a fresh run.
    {"before_first_checkpoint", "persist.write", 1, false},
    // Killed at the start of a level-2 pass: level 1 is durable.
    {"between_passes", "detector.pass", 3, false},
    // Killed mid-commit of the level-1 snapshot, after the payload
    // write / after fsync: the tmp file is torn or complete but never
    // renamed; the destination still holds the post-KG snapshot.
    {"during_snapshot_write", "persist.fsync", 2, false},
    {"during_snapshot_rename", "persist.rename", 2, false},
    // Killed after the final pass, while exporting the report: level 1
    // is durable; resume replays it, re-runs the final level, and still
    // exports the report.
    {"after_final_pass", "persist.write", 3, true},
};

class CrashResumeTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Instance().DisarmAll(); }
  void TearDown() override { util::FaultInjector::Instance().DisarmAll(); }
};

void RunCrashMatrixCell(const KillPoint& kill, size_t num_threads) {
  std::string tag =
      std::string(kill.name) + "_t" + std::to_string(num_threads);
  SCOPED_TRACE(tag);

  auto config_or = datagen::MovieScalabilityConfig(/*window=*/5);
  ASSERT_TRUE(config_or.ok());
  Config config = config_or.value();
  config.set_num_threads(num_threads);
  xml::Document doc = DirtyMovies(80, 31, 4);

  auto baseline = Detector(config).Run(doc);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string ckpt = TempPath("crash_" + tag + ".ckpt");
  std::string report = TempPath("crash_" + tag + ".report.json");
  persist::RemoveFile(ckpt);
  persist::RemoveFile(ckpt + ".tmp");
  persist::RemoveFile(report);

  Config run_config = config;
  run_config.mutable_checkpoint().path = ckpt;
  if (kill.needs_report) {
    run_config.mutable_observability().metrics = true;
    run_config.mutable_observability().report_path = report;
  }

  pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // In the child: arm the kill and run. SIGKILL fires inside the
    // instrumented step; if the run somehow finishes, exit with a
    // marker the parent will flag.
    util::FaultInjector::Instance().Arm(kill.site, kill.hit,
                                        util::FaultAction::kKill);
    auto result = Detector(run_config).Run(doc);
    (void)result;
    ::_exit(42);
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited instead of dying (status " << wstatus << ")";
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Whatever instant the child died at, the checkpoint path holds either
  // nothing or one complete, verifiable snapshot — and the resumed run
  // equals the uninterrupted baseline.
  auto resumed = Detector(run_config).Run(doc);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdenticalResults(baseline.value(), resumed.value());
  EXPECT_FALSE(persist::PathExists(ckpt))
      << "completed resume must remove the snapshot";
  if (kill.needs_report) {
    EXPECT_TRUE(persist::PathExists(report))
        << "resume must still export the report";
  }
  persist::RemoveFile(ckpt + ".tmp");
  persist::RemoveFile(report);
}

TEST_F(CrashResumeTest, KillMatrixSerial) {
  for (const KillPoint& kill : kKillPoints) {
    RunCrashMatrixCell(kill, /*num_threads=*/1);
  }
}

TEST_F(CrashResumeTest, KillMatrixParallel) {
  for (const KillPoint& kill : kKillPoints) {
    RunCrashMatrixCell(kill, /*num_threads=*/4);
  }
}

TEST_F(CrashResumeTest, KillDuringExternalSortSpillResumesIdentically) {
  // An out-of-core run (memory budget + shards) SIGKILLed inside a
  // spill-file write: the checkpoint path still holds nothing or one
  // complete snapshot, and the resumed run — which re-sorts its levels
  // from scratch, ignoring the dead incarnation's orphaned .run files —
  // equals the uninterrupted baseline.
  auto config_or = datagen::MovieScalabilityConfig(/*window=*/5);
  ASSERT_TRUE(config_or.ok());
  Config config = config_or.value();
  config.set_num_threads(4);
  config.set_shards(2);
  config.set_memory_budget_bytes(64 * 1024);  // small enough to spill
  std::string spill_dir = TempPath("crash_spill_dir");
  std::filesystem::remove_all(spill_dir);
  std::filesystem::create_directories(spill_dir);
  config.set_spill_dir(spill_dir);
  xml::Document doc = DirtyMovies(80, 31, 4);

  auto baseline = Detector(config).Run(doc);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::string ckpt = TempPath("crash_spill.ckpt");
  persist::RemoveFile(ckpt);
  persist::RemoveFile(ckpt + ".tmp");
  Config run_config = config;
  run_config.mutable_checkpoint().path = ckpt;

  pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    util::FaultInjector::Instance().Arm(extsort::kSpillFaultSite, 1,
                                        util::FaultAction::kKill);
    auto result = Detector(run_config).Run(doc);
    (void)result;
    ::_exit(42);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited instead of dying in the spill (status " << wstatus
      << ") — the budget must be small enough to force spilling";
  EXPECT_EQ(WTERMSIG(wstatus), SIGKILL);

  auto resumed = Detector(run_config).Run(doc);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdenticalResults(baseline.value(), resumed.value());
  EXPECT_FALSE(persist::PathExists(ckpt))
      << "completed resume must remove the snapshot";
  persist::RemoveFile(ckpt + ".tmp");
  std::filesystem::remove_all(spill_dir);  // orphaned .run files expected
}

TEST_F(CrashResumeTest, RepeatedCrashesMakeForwardProgress) {
  // Kill during every level's snapshot commit in turn, resuming after
  // each death: the run must ratchet forward and finally complete.
  auto config_or = datagen::MovieScalabilityConfig(/*window=*/5);
  ASSERT_TRUE(config_or.ok());
  Config config = config_or.value();
  xml::Document doc = DirtyMovies(80, 31, 4);

  auto baseline = Detector(config).Run(doc);
  ASSERT_TRUE(baseline.ok());

  std::string ckpt = TempPath("crash_ratchet.ckpt");
  persist::RemoveFile(ckpt);
  Config run_config = config;
  run_config.mutable_checkpoint().path = ckpt;

  // Each incarnation dies after its first snapshot commit lands, so
  // every crash still moves the durable frontier one level forward.
  // Incarnation 1 dies renaming the level-1 snapshot (post-KG commit is
  // durable); incarnation 2 — which, resumed, skips the post-KG write —
  // dies entering the final pass (level-1 commit is durable).
  const struct {
    const char* site;
    uint64_t hit;
  } kCrashes[] = {{"persist.rename", 2}, {"detector.pass", 3}};
  for (const auto& crash : kCrashes) {
    pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      util::FaultInjector::Instance().Arm(crash.site, crash.hit,
                                          util::FaultAction::kKill);
      auto result = Detector(run_config).Run(doc);
      (void)result;
      ::_exit(42);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
  }

  auto resumed = Detector(run_config).Run(doc);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectIdenticalResults(baseline.value(), resumed.value());
  EXPECT_FALSE(persist::PathExists(ckpt));
  persist::RemoveFile(ckpt + ".tmp");
}

}  // namespace
}  // namespace sxnm::core
