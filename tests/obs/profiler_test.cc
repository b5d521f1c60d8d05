// sxnm_obs CPU profiling: exact per-span CPU attribution by obs::Tracer
// (busy, sleeping, nested, deep and multi-threaded spans), folded/JSON
// export, agreement of the profile's total with the process's CPU
// accounting, the profiling-on ≡ profiling-off detection identity, and
// crash consistency of the .folded artifact (fork + SIGKILL mid-run
// must leave it absent or well-formed).

#include "obs/trace.h"

#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/dirty_gen.h"
#include "datagen/movies.h"
#include "sxnm/detector.h"
#include "util/parallel.h"
#include "util/proc_stat.h"

#ifdef __linux__
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace sxnm::obs {
namespace {

constexpr uint64_t kMs = 1000000;  // nanoseconds

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Spins until the calling thread has burned `ns` of CPU; returns the
// thread CPU actually burned (>= ns).
uint64_t BurnThreadCpu(uint64_t ns) {
  const uint64_t start = ThreadCpuNs();
  volatile uint64_t sink = 0;
  uint64_t now = start;
  while (now - start < ns) {
    for (int i = 0; i < 10000; ++i) sink = sink + uint64_t(i) * 31;
    now = ThreadCpuNs();
  }
  return now - start;
}

// Path → entry, for lookups by exact path.
std::map<std::string, CpuProfile::Entry> ByPath(const CpuProfile& profile) {
  std::map<std::string, CpuProfile::Entry> out;
  for (const CpuProfile::Entry& entry : profile.entries) {
    out[entry.path] = entry;
  }
  return out;
}

// --- span attribution -----------------------------------------------------

TEST(ProfilerTest, UnprofiledTracerReturnsDisabledProfile) {
  for (bool enabled : {false, true}) {
    Tracer tracer(enabled, /*profile_cpu=*/false);
    { Tracer::Span span = tracer.StartSpan("unprofiled"); }
    CpuProfile profile = tracer.CpuProfile();
    EXPECT_FALSE(profile.enabled);
    EXPECT_EQ(profile.cpu_ns, 0u);
    EXPECT_TRUE(profile.entries.empty());
  }
}

TEST(ProfilerTest, BusySpanIsChargedItsThreadCpu) {
  Tracer tracer(/*enabled=*/false, /*profile_cpu=*/true);
  uint64_t burned = 0;
  {
    Tracer::Span span = tracer.StartSpan("burn");
    burned = BurnThreadCpu(50 * kMs);
  }
  auto entries = ByPath(tracer.CpuProfile());
  ASSERT_EQ(entries.count("burn"), 1u);
  const CpuProfile::Entry& burn = entries["burn"];
  // The span covers the loop plus two clock reads of bookkeeping.
  EXPECT_GE(burn.total_ns, burned);
  EXPECT_LE(burn.total_ns, burned + 1 * kMs);
  EXPECT_EQ(burn.self_ns, burn.total_ns);
}

TEST(ProfilerTest, SleepingSpanIsChargedNoCpu) {
  Tracer tracer(/*enabled=*/false, /*profile_cpu=*/true);
  {
    Tracer::Span span = tracer.StartSpan("sleep");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  auto entries = ByPath(tracer.CpuProfile());
  ASSERT_EQ(entries.count("sleep"), 1u);
  EXPECT_LT(entries["sleep"].total_ns, 5 * kMs);
}

TEST(ProfilerTest, NestedSpansSelfPlusChildrenEqualsTotal) {
  Tracer tracer(/*enabled=*/false, /*profile_cpu=*/true);
  {
    Tracer::Span outer = tracer.StartSpan("outer");
    BurnThreadCpu(2 * kMs);
    for (int repeat = 0; repeat < 3; ++repeat) {
      Tracer::Span a = tracer.StartSpan("a");
      BurnThreadCpu(1 * kMs);
      Tracer::Span leaf = tracer.StartSpan("leaf");
      BurnThreadCpu(1 * kMs);
    }
    Tracer::Span b = tracer.StartSpan("b");
    BurnThreadCpu(1 * kMs);
  }
  CpuProfile profile = tracer.CpuProfile();
  auto entries = ByPath(profile);
  for (const char* path : {"outer", "outer;a", "outer;a;leaf", "outer;b"}) {
    ASSERT_EQ(entries.count(path), 1u) << path;
  }
  const auto& outer = entries["outer"];
  const auto& a = entries["outer;a"];
  const auto& leaf = entries["outer;a;leaf"];
  const auto& b = entries["outer;b"];
  EXPECT_EQ(outer.self_ns + a.total_ns + b.total_ns, outer.total_ns);
  EXPECT_EQ(a.self_ns + leaf.total_ns, a.total_ns);
  EXPECT_EQ(leaf.self_ns, leaf.total_ns);
  EXPECT_EQ(b.self_ns, b.total_ns);
  // Three "a" spans aggregate into one path.
  EXPECT_GE(a.self_ns, 3 * kMs);
  EXPECT_GE(leaf.total_ns, 3 * kMs);
  // Only the root counts toward the attributed total.
  EXPECT_EQ(entries["(unattributed)"].total_ns + outer.total_ns,
            profile.cpu_ns);
}

TEST(ProfilerTest, DeepNestingIsNotTruncated) {
  Tracer tracer(/*enabled=*/false, /*profile_cpu=*/true);
  constexpr int kDepth = 40;
  std::vector<Tracer::Span> spans;
  std::string deepest;
  for (int d = 0; d < kDepth; ++d) {
    spans.push_back(tracer.StartSpan("d" + std::to_string(d)));
    deepest += (d == 0 ? "" : ";") + ("d" + std::to_string(d));
  }
  while (!spans.empty()) spans.pop_back();  // innermost ends first
  auto entries = ByPath(tracer.CpuProfile());
  EXPECT_EQ(entries.count(deepest), 1u);
  EXPECT_EQ(entries.size(), size_t{kDepth} + 1);  // + "(unattributed)"
}

TEST(ProfilerTest, CpuOutsideSpansIsUnattributed) {
  Tracer tracer(/*enabled=*/false, /*profile_cpu=*/true);
  uint64_t outside = BurnThreadCpu(20 * kMs);
  { Tracer::Span span = tracer.StartSpan("inside"); }
  CpuProfile profile = tracer.CpuProfile();
  auto entries = ByPath(profile);
  EXPECT_GE(entries["(unattributed)"].self_ns, outside);
  EXPECT_EQ(entries["(unattributed)"].total_ns + entries["inside"].total_ns,
            profile.cpu_ns);
}

// Spans on pool workers are roots of their own thread's path — never
// nested under the submitting thread's open span — and each is charged
// exactly its own thread's CPU. The pool starts after the tracer, so
// threads that appear mid-run are covered too.
TEST(ProfilerParallelTest, WorkerSpansAreChargedPerThread) {
  constexpr int kTasks = 4;
  Tracer tracer(/*enabled=*/true, /*profile_cpu=*/true);
  std::vector<uint64_t> burned(kTasks, 0);
  {
    Tracer::Span main_span = tracer.StartSpan("main");
    util::ThreadPool pool(kTasks);
    std::atomic<int> arrived{0};
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&, t] {
        // A barrier so that the four tasks run on four distinct workers.
        arrived.fetch_add(1);
        while (arrived.load() < kTasks) std::this_thread::yield();
        Tracer::Span span = tracer.StartSpan("task_" + std::to_string(t));
        burned[t] = BurnThreadCpu((10 + 5 * t) * kMs);
      });
    }
    pool.Wait();
  }
  CpuProfile profile = tracer.CpuProfile();
  auto entries = ByPath(profile);
  uint64_t roots = entries["main"].total_ns;
  for (int t = 0; t < kTasks; ++t) {
    std::string path = "task_" + std::to_string(t);
    ASSERT_EQ(entries.count(path), 1u) << path;
    EXPECT_EQ(entries.count("main;" + path), 0u) << path;
    EXPECT_GE(entries[path].total_ns, burned[t]) << path;
    EXPECT_LE(entries[path].total_ns, burned[t] + 1 * kMs) << path;
    roots += entries[path].total_ns;
  }
  EXPECT_EQ(roots + entries["(unattributed)"].total_ns, profile.cpu_ns);
  // Four distinct trace tracks: one shard per worker.
  std::vector<uint64_t> tids;
  for (const Tracer::Event& event : tracer.Events()) {
    if (event.name.rfind("task_", 0) == 0) tids.push_back(event.tid);
  }
  std::sort(tids.begin(), tids.end());
  EXPECT_EQ(std::unique(tids.begin(), tids.end()) - tids.begin(), kTasks);
}

// --- export ---------------------------------------------------------------

CpuProfile SampleProfile() {
  CpuProfile profile;
  profile.enabled = true;
  profile.cpu_ns = 10 * kMs;
  profile.entries = {
      {"detect;sw_classify", 6 * kMs, 7 * kMs},
      {"detect", 3 * kMs, 10 * kMs - 400},
      {"(unattributed)", 400, 400},  // rounds to 0 µs
  };
  return profile;
}

TEST(CpuProfileTest, WriteFoldedEmitsOneSanitizedLinePerSelfPath) {
  std::ostringstream os;
  SampleProfile().WriteFolded(os);
  std::string folded = os.str();
  std::istringstream in(folded);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    // The count parses; the path carries no whitespace.
    EXPECT_GT(std::stoul(line.substr(space + 1)), 0u) << line;
    EXPECT_EQ(line.substr(0, space).find(' '), std::string::npos) << line;
  }
  // Counts are self CPU in µs; a path under 1 µs has no line.
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(folded.find("detect;sw_classify 6000\n"), std::string::npos);
  EXPECT_NE(folded.find("detect 3000\n"), std::string::npos);
}

TEST(CpuProfileTest, BuildSanitizesFrameNames) {
  // End-to-end: a span name with folded-format metacharacters must come
  // back sanitized from the tracer's aggregation.
  Tracer tracer(/*enabled=*/false, /*profile_cpu=*/true);
  {
    Tracer::Span outer = tracer.StartSpan("bad name;with\tmeta");
    Tracer::Span empty = tracer.StartSpan("");
  }
  auto entries = ByPath(tracer.CpuProfile());
  EXPECT_EQ(entries.count("bad_name_with_meta"), 1u);
  EXPECT_EQ(entries.count("bad_name_with_meta;_"), 1u);
  for (const auto& [path, entry] : entries) {
    EXPECT_EQ(path.find_first_of(" \t\n"), std::string::npos) << path;
  }
}

TEST(CpuProfileTest, TopSelfSkipsZeroSelfEntries) {
  CpuProfile profile = SampleProfile();
  ASSERT_NE(profile.TopSelf(), nullptr);
  EXPECT_EQ(profile.TopSelf()->path, "detect;sw_classify");
  profile.entries.clear();
  EXPECT_EQ(profile.TopSelf(), nullptr);
  profile.entries = {{"idle", 0, 0}};
  EXPECT_EQ(profile.TopSelf(), nullptr);
}

TEST(CpuProfileTest, WriteJsonEmitsReportBlock) {
  std::ostringstream os;
  SampleProfile().WriteJson(os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"cpu_us\": 10000"), std::string::npos);
  EXPECT_NE(json.find("\"self_us\": 6000"), std::string::npos);
  EXPECT_NE(json.find("\"total_us\": 10000"), std::string::npos);
  std::ostringstream off;
  CpuProfile().WriteJson(off);
  EXPECT_EQ(off.str(), "{\"enabled\": false}");
}

// --- detector integration -------------------------------------------------

xml::Document ProfiledCorpus(size_t movies) {
  datagen::MovieDataOptions gen;
  gen.num_movies = movies;
  gen.seed = 20060326;
  xml::Document clean = datagen::GenerateCleanMovies(gen);
  return datagen::MakeDirty(clean, datagen::DataSet1DirtyPreset(99))
      .value();
}

// Profiling must be a pure observer: identical duplicate pairs and
// identical engine counters with it on and off, at 1 and 4 threads.
TEST(ProfilerDetectorTest, ProfilingOnEqualsOffAcrossThreadCounts) {
  xml::Document doc = ProfiledCorpus(300);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    core::Config base = datagen::MovieConfig(10).value();
    base.set_num_threads(threads);
    base.mutable_observability().metrics = true;

    core::Config off_config = base;
    auto off = core::Detector(off_config).Run(doc);
    ASSERT_TRUE(off.ok());

    core::Config on_config = base;
    std::string folded = ::testing::TempDir() + "/identity_" +
                         std::to_string(threads) + ".folded";
    on_config.mutable_observability().profile_path = folded;
    auto on = core::Detector(on_config).Run(doc);
    ASSERT_TRUE(on.ok());

    EXPECT_FALSE(off->profile.enabled);
    EXPECT_TRUE(on->profile.enabled);
    const auto* off_movie = off->Find("movie");
    const auto* on_movie = on->Find("movie");
    ASSERT_NE(off_movie, nullptr);
    ASSERT_NE(on_movie, nullptr);
    EXPECT_EQ(off_movie->duplicate_pairs, on_movie->duplicate_pairs)
        << "threads=" << threads;
    for (const char* counter :
         {"sw.comparisons", "sw.unique_comparisons", "sw.pairs_windowed",
          "sw.hits", "tc.clusters"}) {
      EXPECT_EQ(off->metrics.CounterOr(counter),
                on->metrics.CounterOr(counter))
          << counter << " threads=" << threads;
    }
    // The committed artifact is well-formed folded text.
    std::ifstream in(folded);
    ASSERT_TRUE(in.good());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      auto space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      EXPECT_NO_THROW((void)std::stoul(line.substr(space + 1))) << line;
    }
    std::remove(folded.c_str());
  }
}

// The profile accounts for the whole process's CPU over the run: root
// span totals plus "(unattributed)" must match getrusage's delta across
// Detector::Run to within 2%, at 1 and 4 threads. The only CPU in that
// window the profile cannot see is Run freeing its state after the
// final fold, plus the reading's own /proc read: 40–90 µs on a 4-vCPU
// x86-64 VM, which is ~2% of this ~4 ms run by itself, so the bound
// carries a fixed 0.1 ms allowance for it.
TEST(ProfilerDetectorTest, TotalCpuMatchesProcessCpuAcrossThreadCounts) {
  xml::Document doc = ProfiledCorpus(300);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    core::Config config = datagen::MovieConfig(10).value();
    config.set_num_threads(threads);
    std::string folded = ::testing::TempDir() + "/total_cpu_" +
                         std::to_string(threads) + ".folded";
    config.mutable_observability().profile_path = folded;
    core::Detector detector(config);
    // The first read pays one-time /proc setup that would otherwise
    // land inside the measured window.
    (void)util::ReadProcCpu();
    util::ProcCpu before = util::ReadProcCpu();
    auto result = detector.Run(doc);
    util::ProcCpu after = util::ReadProcCpu();
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(before.sampled && after.sampled);
    const double rusage_s = (after.user_seconds - before.user_seconds) +
                            (after.sys_seconds - before.sys_seconds);
    const CpuProfile& profile = result->profile;
    uint64_t roots_ns = 0;
    for (const CpuProfile::Entry& entry : profile.entries) {
      if (entry.path.find(';') == std::string::npos) {
        roots_ns += entry.total_ns;
      }
    }
    EXPECT_EQ(roots_ns, profile.cpu_ns) << "threads=" << threads;
    const double profile_s = static_cast<double>(profile.cpu_ns) * 1e-9;
    EXPECT_NEAR(profile_s, rusage_s, 0.02 * rusage_s + 1e-4)
        << "threads=" << threads;
    std::remove(folded.c_str());
  }
}

TEST(ProfilerDetectorTest, ReportCarriesProfileBlockWhenProfiled) {
  xml::Document doc = ProfiledCorpus(200);
  core::Config config = datagen::MovieConfig(10).value();
  config.mutable_observability().metrics = true;
  std::string folded = ::testing::TempDir() + "/report_block.folded";
  config.mutable_observability().profile_path = folded;
  auto result = core::Detector(config).Run(doc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->report.profile.enabled);
  std::string json = result->report.ToJson();
  EXPECT_NE(json.find("\"profile\": "), std::string::npos);
  EXPECT_NE(json.find("\"cpu_us\": "), std::string::npos);
  std::remove(folded.c_str());
}

TEST(ProfilerDetectorTest, UnprofiledReportOmitsProfileBlock) {
  xml::Document doc = ProfiledCorpus(100);
  core::Config config = datagen::MovieConfig(10).value();
  config.mutable_observability().metrics = true;
  auto result = core::Detector(config).Run(doc);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->report.profile.enabled);
  EXPECT_EQ(result->report.ToJson().find("\"profile\": "),
            std::string::npos);
}

// --- crash consistency ----------------------------------------------------

#ifdef __linux__
// SIGKILL mid-profiled-run: the .folded artifact is committed atomically
// at run end (tmp + fsync + rename), so after the kill it must be
// either absent or complete well-formed folded text — never torn.
TEST(ProfilerCrashTest, SigkillMidRunLeavesFoldedAbsentOrWellFormed) {
  std::string folded =
      ::testing::TempDir() + "/crash_profile_" +
      std::to_string(static_cast<long>(getpid())) + ".folded";
  std::remove(folded.c_str());

  pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child: a profiled run large enough to outlive the parent's kill
    // delay. _exit on every path — gtest must not double-report.
    xml::Document doc = ProfiledCorpus(4000);
    core::Config config = datagen::MovieConfig(10).value();
    config.mutable_observability().metrics = true;
    config.mutable_observability().profile_path = folded;
    auto result = core::Detector(config).Run(doc);
    _exit(result.ok() ? 0 : 1);
  }

  // Let the child reach the profiled run, then kill it hard. Whether it
  // dies mid-run or after committing is timing-dependent — both ends of
  // the race are valid; the artifact invariant must hold in either.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  kill(child, SIGKILL);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);

  std::ifstream in(folded);
  if (in.good()) {
    // The invariant is that no line is ever torn.
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      auto space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos)
          << "torn folded line: " << line;
      for (char c : line.substr(space + 1)) {
        ASSERT_TRUE(c >= '0' && c <= '9')
            << "torn folded count: " << line;
      }
    }
  }
  std::remove(folded.c_str());
}
#endif

}  // namespace
}  // namespace sxnm::obs
