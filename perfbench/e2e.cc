// sxnm_e2e — end-to-end SXNM benchmark program (see README.md here).
//
//   sxnm_e2e --workload <dirty_movies|repeated_subtree|nested_movies>
//            (--seed N | --held-out) --seconds S --trace 0|1 --artifacts DIR
//            [--movies N] [--setups N] [--git-commit SHA]
//            [--source-digest HEX]
//
// Generates the workload's corpus from the seed, serializes it to XML
// bytes, and then times the path sxnm_cli takes over those bytes —
// xml::Parse → core::Detector::Run → core::Deduplicate (kRichest) →
// xml::WriteDocument — at num_threads 1 and 4, closed loop, one client.
// Every iteration's clusters and output hash are checked against the
// first one (and against pinned values on the pinned seeds).
//
// --trace 0 reports the end-to-end metrics; --trace 1 interleaves
// untraced and traced iterations, times each layer from the outside with
// obs::Tracer spans plus standalone calls of the layer functions, and
// reports the per-layer ledger. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; DIR receives a report
// JSON with host metadata and per-candidate quality, and (trace 1) a
// Chrome trace_event file.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/movies.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "obs/trace.h"
#include "sxnm/candidate_tree.h"
#include "sxnm/dedup_writer.h"
#include "sxnm/detector.h"
#include "sxnm/key_generation.h"
#include "sxnm/transitive_closure.h"
#include "util/simd.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace core = sxnm::core;
namespace xml = sxnm::xml;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Seed used while the benchmark was written, and a second seed kept out
// of development so a later claim can be re-checked on unseen data. Both
// have pinned results below.
constexpr uint64_t kDefaultSeed = 7;
constexpr uint64_t kHeldOutSeed = 1009;

constexpr size_t kThreadCounts[] = {1, 4};

// --------------------------------------------------------------------------
// Workloads.

// micro_pipeline's repeated-subtree configuration: title-only OD at a high
// threshold, window 30.
sxnm::util::Result<core::Config> RepeatedSubtreeConfig() {
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
  if (!movie.ok()) return movie.status();
  core::Config config;
  if (auto status = config.AddCandidate(std::move(movie).value());
      !status.ok()) {
    return status;
  }
  return config;
}

sxnm::util::Result<core::Config> DirtyMoviesConfig() {
  return sxnm::datagen::MovieConfig(10);
}

sxnm::util::Result<core::Config> NestedMoviesConfig() {
  return sxnm::datagen::MovieScalabilityConfig(10);
}

struct Workload {
  std::string_view name;
  size_t movies;  // clean movies before duplication
  sxnm::datagen::DirtyOptions (*preset)(uint64_t seed);
  sxnm::util::Result<core::Config> (*config)();
};

constexpr Workload kWorkloads[] = {
    {"dirty_movies", 20000, sxnm::datagen::DataSet1DirtyPreset,
     DirtyMoviesConfig},
    {"repeated_subtree", 8000, sxnm::datagen::RepeatedSubtreePreset,
     RepeatedSubtreeConfig},
    {"nested_movies", 20000, sxnm::datagen::FewDuplicatesPreset,
     NestedMoviesConfig},
};

// --------------------------------------------------------------------------
// Pinned results: per-candidate counts and the output hash of the first
// accepted run on the pinned seeds at the workload's full size.

struct PinnedCandidate {
  std::string_view name;
  size_t instances;
  size_t duplicate_pairs;
  size_t clusters;  // clusters with two or more members
};

struct Pinned {
  std::string_view workload;
  uint64_t seed;
  uint64_t xml_hash;
  size_t elements_removed;
  std::vector<PinnedCandidate> candidates;
};

const std::vector<Pinned>& PinnedResults() {
  static const std::vector<Pinned> pinned = {
      {"dirty_movies", kDefaultSeed, 0x380aa17300abecbdull, 7293,
       {{"movie", 28044, 7574, 6411}}},
      {"dirty_movies", kHeldOutSeed, 0x9cc22b25700baf06ull, 7303,
       {{"movie", 28124, 7595, 6448}}},
      {"repeated_subtree", kDefaultSeed, 0xf7d27230c732a438ull, 14469,
       {{"movie", 24032, 23227, 7713}}},
      {"repeated_subtree", kHeldOutSeed, 0x7842fc2be61c7df0ull, 14289,
       {{"movie", 23907, 22840, 7664}}},
      {"nested_movies", kDefaultSeed, 0xc977058b60ca91c3ull, 48026,
       {{"person", 57368, 205654, 5764},
        {"title", 43136, 7463, 6506},
        {"movie", 24027, 382, 382}}},
      {"nested_movies", kHeldOutSeed, 0x4c8155f98495add5ull, 48127,
       {{"person", 57655, 206109, 5836},
        {"title", 43340, 7238, 6415},
        {"movie", 24063, 354, 354}}},
  };
  return pinned;
}

// --------------------------------------------------------------------------
// Corpus set-up.

struct Corpus {
  std::string bytes;
  core::Config config;
};

sxnm::util::Result<Corpus> MakeCorpus(const Workload& workload, size_t movies,
                                      uint64_t seed) {
  sxnm::datagen::MovieDataOptions options;
  options.num_movies = movies;
  options.seed = seed;
  auto dirty = sxnm::datagen::MakeDirty(
      sxnm::datagen::GenerateCleanMovies(options), workload.preset(seed));
  if (!dirty.ok()) return dirty.status();
  auto config = workload.config();
  if (!config.ok()) return config.status();
  return Corpus{xml::WriteDocument(dirty.value()), std::move(config).value()};
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 14695981039346656037ull) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t MixWord(uint64_t hash, uint64_t word) {
  return Fnv1a(std::string_view(reinterpret_cast<const char*>(&word),
                                sizeof(word)),
               hash);
}

// --------------------------------------------------------------------------
// One pipeline iteration: bytes → parse → detect → dedup → write.

struct CandidateSummary {
  std::string name;
  size_t instances = 0;
  size_t duplicate_pairs = 0;
  size_t clusters = 0;
};

struct Iteration {
  bool ok = false;
  std::string error;
  double wall = 0, parse = 0, detect = 0, dedup = 0, write = 0;
  double kg = 0, sw = 0, tc = 0;  // the detector's phase timer
  size_t elements = 0;            // elements of the parsed input
  size_t elements_removed = 0;
  size_t output_bytes = 0;
  uint64_t clusters_hash = 0;
  uint64_t xml_hash = 0;
  std::vector<CandidateSummary> candidates;
  sxnm::obs::MetricsSnapshot metrics;  // traced iterations only

  // Same clusters and the same de-duplicated bytes.
  bool SameResult(const Iteration& other) const {
    return clusters_hash == other.clusters_hash && xml_hash == other.xml_hash &&
           elements_removed == other.elements_removed;
  }
};

// What a caller may keep of an iteration for the checks and standalone
// layer calls that run outside the timed region.
struct Kept {
  xml::Document doc;
  core::DetectionResult result;
  std::string xml;
};

void Summarize(const core::DetectionResult& result, Iteration* it) {
  uint64_t hash = 14695981039346656037ull;
  for (const auto& cand : result.candidates) {
    CandidateSummary summary;
    summary.name = cand.name;
    summary.instances = cand.num_instances;
    summary.duplicate_pairs = cand.duplicate_pairs.size();
    hash = Fnv1a(cand.name, hash);
    hash = MixWord(hash, cand.num_instances);
    for (const auto& cluster : cand.clusters.clusters()) {
      if (cluster.size() > 1) ++summary.clusters;
      hash = MixWord(hash, cluster.size());
      for (size_t member : cluster) hash = MixWord(hash, member);
    }
    for (const auto& [a, b] : cand.duplicate_pairs) {
      hash = MixWord(MixWord(hash, a), b);
    }
    it->candidates.push_back(std::move(summary));
  }
  it->clusters_hash = hash;
}

// A span when tracing, an inert one otherwise.
sxnm::obs::Tracer::Span StartSpan(sxnm::obs::Tracer* tracer,
                                  const char* name) {
  return tracer != nullptr ? tracer->StartSpan(name)
                           : sxnm::obs::Tracer::Span();
}

// Duration of the most recent span named `name`, in seconds.
double LastSpanSeconds(const std::vector<sxnm::obs::Tracer::Event>& events,
                       std::string_view name) {
  for (auto it = events.rbegin(); it != events.rend(); ++it) {
    if (it->name == name) return it->dur_us / 1e6;
  }
  return 0.0;
}

Iteration RunPipeline(const Corpus& corpus, const core::Detector& detector,
                      size_t threads, sxnm::obs::Tracer* tracer, Kept* keep) {
  Iteration it;
  const xml::ParseOptions parse_options =
      corpus.config.limits().ToParseOptions();
  core::DedupStats stats;

  const Clock::time_point start = Clock::now();
  auto pipeline_span = StartSpan(tracer, "pipeline");

  auto span = StartSpan(tracer, "xml/parser");
  auto doc = xml::Parse(corpus.bytes, parse_options);
  span.End();
  const Clock::time_point parsed = Clock::now();
  if (!doc.ok()) {
    it.error = "parse: " + doc.status().ToString();
    return it;
  }

  span = StartSpan(tracer, "sxnm/detector");
  auto result = detector.Run(doc.value());
  span.End();
  const Clock::time_point detected = Clock::now();
  if (!result.ok()) {
    it.error = "detect: " + result.status().ToString();
    return it;
  }

  span = StartSpan(tracer, "sxnm/dedup_writer");
  auto deduped = core::Deduplicate(doc.value(), result.value(),
                                   core::RepresentativeStrategy::kRichest,
                                   &stats);
  span.End();
  const Clock::time_point deduplicated = Clock::now();
  if (!deduped.ok()) {
    it.error = "dedup: " + deduped.status().ToString();
    return it;
  }

  span = StartSpan(tracer, "xml/writer");
  std::string out = xml::WriteDocument(deduped.value());
  span.End();
  const Clock::time_point written = Clock::now();
  pipeline_span.EndWithArgs("{\"threads\": " + std::to_string(threads) + "}");
  const Clock::time_point end = Clock::now();

  using Seconds = std::chrono::duration<double>;
  it.wall = Seconds(end - start).count();
  if (tracer != nullptr) {
    // Layer times as the spans recorded them; the ledger closure then
    // measures what the spans miss of the wall time.
    const auto events = tracer->Events();
    it.parse = LastSpanSeconds(events, "xml/parser");
    it.detect = LastSpanSeconds(events, "sxnm/detector");
    it.dedup = LastSpanSeconds(events, "sxnm/dedup_writer");
    it.write = LastSpanSeconds(events, "xml/writer");
  } else {
    it.parse = Seconds(parsed - start).count();
    it.detect = Seconds(detected - parsed).count();
    it.dedup = Seconds(deduplicated - detected).count();
    it.write = Seconds(written - deduplicated).count();
  }
  it.kg = result->KeyGenerationSeconds();
  it.sw = result->SlidingWindowSeconds();
  it.tc = result->TransitiveClosureSeconds();
  if (result->degraded()) {
    it.error = "detect: degraded run: " + result->degradation.ToString();
    return it;
  }
  it.elements = doc->element_count();
  it.elements_removed = stats.elements_removed;
  it.output_bytes = out.size();
  it.xml_hash = Fnv1a(out);
  Summarize(result.value(), &it);
  it.metrics = result->metrics;
  it.ok = true;
  if (keep != nullptr) {
    keep->doc = std::move(doc).value();
    keep->result = std::move(result).value();
    keep->xml = std::move(out);
  }
  return it;
}

// --------------------------------------------------------------------------
// Correctness and quality checks (outside the timed region).

// The output must parse back strictly, and hold exactly one instance per
// cluster of the candidate processed last (a root of the candidate
// forest, so no removal elsewhere can touch its instances).
std::string CheckOutput(const Corpus& corpus, const Kept& kept) {
  auto out_doc =
      xml::Parse(kept.xml, corpus.config.limits().ToParseOptions());
  if (!out_doc.ok()) {
    return "output does not parse: " + out_doc.status().ToString();
  }
  if (kept.result.candidates.empty()) return "no candidate results";
  const core::CandidateResult& root = kept.result.candidates.back();
  const core::CandidateConfig* cand = corpus.config.Find(root.name);
  if (cand == nullptr) return "no configured candidate " + root.name;
  auto labels = sxnm::eval::GoldLabels(out_doc.value(), cand->absolute_path_str);
  if (!labels.ok()) return "output: " + labels.status().ToString();
  if (labels->size() != root.clusters.num_clusters()) {
    return "output keeps " + std::to_string(labels->size()) + " " + root.name +
           " instances for " + std::to_string(root.clusters.num_clusters()) +
           " clusters";
  }
  return "";
}

struct Quality {
  std::vector<std::pair<std::string, sxnm::eval::PairMetrics>> candidates;
  // Mean of the candidates' F-measures: pooling their pairs instead would
  // let the candidate with the most pairs decide the figure alone.
  double f_measure = 0.0;
};

sxnm::util::Result<Quality> MeasureQuality(const Corpus& corpus,
                                           const Kept& kept) {
  Quality quality;
  for (const auto& cand : kept.result.candidates) {
    const core::CandidateConfig* config = corpus.config.Find(cand.name);
    if (config == nullptr) {
      return sxnm::util::Status::Internal("no configured candidate " +
                                          cand.name);
    }
    auto gold = sxnm::eval::GoldClusterSet(kept.doc, config->absolute_path_str);
    if (!gold.ok()) return gold.status();
    if (gold->num_instances() != cand.clusters.num_instances()) {
      return sxnm::util::Status::Internal("gold/detected size mismatch for " +
                                          cand.name);
    }
    auto m = sxnm::eval::PairwiseMetrics(gold.value(), cand.clusters);
    quality.f_measure += m.f1 / double(kept.result.candidates.size());
    quality.candidates.emplace_back(cand.name, m);
  }
  return quality;
}

// Compares the reference iteration with the pinned result, if the run is
// on a pinned seed at full size. Empty string when it matches or nothing
// is pinned.
std::string CheckPinned(const Workload& workload, uint64_t seed, size_t movies,
                        const Iteration& ref, bool* pinned_run) {
  *pinned_run = false;
  if (movies != workload.movies) return "";
  for (const Pinned& pin : PinnedResults()) {
    if (pin.workload != workload.name || pin.seed != seed) continue;
    *pinned_run = true;
    std::ostringstream diff;
    if (pin.xml_hash != ref.xml_hash) diff << " xml_hash";
    if (pin.elements_removed != ref.elements_removed) {
      diff << " elements_removed";
    }
    if (pin.candidates.size() != ref.candidates.size()) {
      diff << " candidate_count";
    } else {
      for (size_t i = 0; i < pin.candidates.size(); ++i) {
        const auto& p = pin.candidates[i];
        const auto& r = ref.candidates[i];
        if (p.name != r.name || p.instances != r.instances ||
            p.duplicate_pairs != r.duplicate_pairs || p.clusters != r.clusters) {
          diff << " " << r.name;
        }
      }
    }
    return diff.str().empty() ? "" : "pinned mismatch:" + diff.str();
  }
  return "";
}

// --------------------------------------------------------------------------
// Peak resident memory of one iteration: reset the high-water mark via
// /proc/self/clear_refs, run, read VmHWM.

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<size_t>(CPU_COUNT(&set));
}

// --------------------------------------------------------------------------
// Host-speed probe. The shared host's speed drifts by ±20 % over minutes,
// and the drift is common to everything that runs at the same moment. It
// comes mostly from other tenants' use of memory bandwidth: of a pointer
// chase, a compute loop, an allocation-heavy tree build and a streaming
// copy, only the copy slowed in step with the pipeline (log-log slope
// ≈1.1; the others 0.7 or 1.5). So the probe copies a buffer far larger
// than the caches back and forth — work that shares no code with the
// engine — after every pipeline iteration, and end-to-end times are
// scaled by how much slower than kProbeReferenceSeconds it ran in the
// same run.

// The probe's fastest-quarter time on the 4-vCPU x86-64 host the bounds
// were set on, in a quiet period.
constexpr double kProbeReferenceSeconds = 0.030;

class HostProbe {
 public:
  HostProbe() : a_(kBytes, 'a'), b_(kBytes, 'b') {}

  double Seconds() {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kRoundTrips; ++i) {
      std::memcpy(b_.data(), a_.data(), kBytes);
      std::memcpy(a_.data(), b_.data(), kBytes);
    }
    const double seconds = SecondsSince(start);
    sink_ = a_[kBytes / 2];
    return seconds;
  }

 private:
  static constexpr size_t kBytes = size_t{64} << 20;
  static constexpr int kRoundTrips = 2;

  std::vector<char> a_, b_;
  volatile char sink_ = 0;
};

// --------------------------------------------------------------------------
// Statistics and output.

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// Mean of the fastest quarter of the values (at least one). On a shared
// host the slow iterations are those another tenant slowed down, for
// stretches of 10–30 s, so the fast end of a run's samples moves far less
// from run to run than its median does.
double FastestQuarterMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = std::max<size_t>(1, values.size() / 4);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += values[i];
  return sum / double(n);
}

// The iteration whose wall time is the (lower) median, so every layer
// reported for it comes from one run and the ledger adds up.
const Iteration& MedianIteration(const std::vector<Iteration>& its) {
  std::vector<const Iteration*> sorted;
  for (const auto& it : its) sorted.push_back(&it);
  std::sort(sorted.begin(), sorted.end(),
            [](const Iteration* a, const Iteration* b) { return a->wall < b->wall; });
  return *sorted[(sorted.size() - 1) / 2];
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// --------------------------------------------------------------------------
// Main loop.

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string artifacts = ".";
  size_t movies = 0;  // 0 = the workload's size
  int setups = 3;
  std::string git_commit = "unavailable";
  std::string source_digest = "unavailable";
};

int Usage() {
  std::fprintf(stderr,
               "usage: sxnm_e2e --workload NAME (--seed N | --held-out) "
               "--seconds S --trace 0|1 --artifacts DIR [--movies N] "
               "[--setups N] "
               "[--git-commit SHA] [--source-digest HEX]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (flag == "--held-out") {
      args->seed = kHeldOutSeed;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--artifacts") {
      args->artifacts = value;
    } else if (flag == "--movies") {
      args->movies = std::strtoull(value, &end, 10);
    } else if (flag == "--setups") {
      args->setups = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--git-commit") {
      args->git_commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds > 0 && args->setups >= 1;
}

class Bench {
 public:
  Bench(const Args& args, const Workload& workload)
      : args_(args),
        workload_(workload),
        movies_(args.movies > 0 ? args.movies : workload.movies) {}

  int Main();

 private:
  bool SetUp();
  void RunEndToEnd();
  void RunTraced();
  // Runs one iteration and checks it against the reference.
  Iteration Attempt(const core::Detector& detector, size_t threads,
                    sxnm::obs::Tracer* tracer, Kept* keep);
  void Fail(const std::string& why);
  void WriteReport(const std::string& path) const;

  core::Config ConfigFor(size_t threads, bool metrics) const {
    core::Config config = corpus_.config;
    config.set_num_threads(threads);
    config.mutable_observability().metrics = metrics;
    return config;
  }

  const Args& args_;
  const Workload& workload_;
  const size_t movies_;
  Corpus corpus_;
  std::vector<double> setup_seconds_;

  std::optional<Iteration> reference_;
  bool reference_ok_ = false;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
  bool pinned_run_ = false;
  std::optional<Quality> quality_;
  std::vector<Metric> metrics_;
  std::map<size_t, std::vector<double>> walls_;  // threads → e2e seconds
  std::vector<double> probes_;                   // host-probe seconds
  std::string trace_path_;
};

void Bench::Fail(const std::string& why) {
  if (failures_.size() < 20) failures_.push_back(why);
  std::fprintf(stderr, "sxnm_e2e: %s\n", why.c_str());
}

Iteration Bench::Attempt(const core::Detector& detector, size_t threads,
                         sxnm::obs::Tracer* tracer, Kept* keep) {
  Kept local;
  bool first = !reference_.has_value();
  Iteration it = RunPipeline(corpus_, detector, threads, tracer,
                             first && keep == nullptr ? &local : keep);
  ++attempted_;
  if (!it.ok) {
    ++failed_;
    Fail(it.error);
    return it;
  }
  if (first) {
    // The first successful iteration is the reference: check its output,
    // its pinned values and its quality once.
    const Kept& kept = keep != nullptr ? *keep : local;
    std::string why = CheckOutput(corpus_, kept);
    if (why.empty()) {
      why = CheckPinned(workload_, args_.seed, movies_, it, &pinned_run_);
    }
    auto quality = MeasureQuality(corpus_, kept);
    if (quality.ok()) {
      quality_ = std::move(quality).value();
    } else if (why.empty()) {
      why = "quality: " + quality.status().ToString();
    }
    reference_ = it;
    reference_ok_ = why.empty();
    if (!reference_ok_) {
      ++failed_;
      Fail(why);
    }
    return it;
  }
  if (!reference_ok_) {
    // A wrong reference makes every iteration that matches it wrong too.
    ++failed_;
    it.ok = false;
  } else if (!it.SameResult(*reference_)) {
    ++failed_;
    it.ok = false;
    Fail("iteration at " + std::to_string(threads) +
         " thread(s) differs from the reference (clusters or output)");
  }
  return it;
}

bool Bench::SetUp() {
  uint64_t bytes_hash = 0;
  for (int i = 0; i < args_.setups; ++i) {
    corpus_ = Corpus{};
    Clock::time_point start = Clock::now();
    auto corpus = MakeCorpus(workload_, movies_, args_.seed);
    if (!corpus.ok()) {
      Fail("setup: " + corpus.status().ToString());
      return false;
    }
    corpus_ = std::move(corpus).value();
    setup_seconds_.push_back(SecondsSince(start));
    uint64_t hash = Fnv1a(corpus_.bytes);
    if (i > 0 && hash != bytes_hash) {
      Fail("setup: the same seed generated different corpora");
      return false;
    }
    bytes_hash = hash;
  }
  // Hand freed generator memory back so the peak-RSS probe starts clean.
  malloc_trim(0);
  return true;
}

void Bench::RunEndToEnd() {
  std::map<size_t, core::Detector> detectors;
  for (size_t t : kThreadCounts) {
    detectors.emplace(t, core::Detector(ConfigFor(t, false)));
  }

  // Peak-memory probe: the first iteration, at 4 threads.
  bool rss_reset = ResetPeakRss();
  Attempt(detectors.at(4), 4, nullptr, nullptr);
  double peak_rss_mb = rss_reset ? PeakRssMb() : 0.0;
  if (!rss_reset) Fail("cannot reset the peak-RSS mark (/proc/self/clear_refs)");
  Attempt(detectors.at(1), 1, nullptr, nullptr);  // warm-up at 1 thread

  // Built after the peak-RSS probe, so its buffers do not count there.
  HostProbe probe;
  Clock::time_point start = Clock::now();
  for (size_t round = 0; round < 3 || SecondsSince(start) < args_.seconds;
       ++round) {
    for (size_t i = 0; i < 2; ++i) {
      size_t t = kThreadCounts[(round + i) % 2];  // alternate which goes first
      Iteration it = Attempt(detectors.at(t), t, nullptr, nullptr);
      if (it.ok) walls_[t].push_back(it.wall);
      probes_.push_back(probe.Seconds());
    }
  }

  const double slowdown = FastestQuarterMean(probes_) / kProbeReferenceSeconds;
  double ok_frac = double(attempted_ - failed_) / double(attempted_);
  metrics_ = {
      {"e2e_s.t1", FastestQuarterMean(walls_[1]) / slowdown, "s"},
      {"e2e_s.t4", FastestQuarterMean(walls_[4]) / slowdown, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Median(setup_seconds_), "s"},
      {"f_measure", quality_ ? quality_->f_measure : 0.0, "ratio"},
      {"ok_frac", ok_frac, "ratio"},
  };
}

void Bench::RunTraced() {
  std::map<std::pair<size_t, bool>, core::Detector> detectors;
  for (size_t t : kThreadCounts) {
    for (bool traced : {false, true}) {
      detectors.emplace(std::make_pair(t, traced),
                        core::Detector(ConfigFor(t, traced)));
    }
  }
  sxnm::obs::Tracer tracer;

  struct Layers {
    std::vector<Iteration> traced;
    std::vector<double> forest, generate, sort;
    size_t forest_instances = 0;
    size_t sorted_rows = 0;
  };
  std::map<size_t, Layers> layers;

  Attempt(detectors.at({4, false}), 4, nullptr, nullptr);  // reference

  Clock::time_point start = Clock::now();
  for (size_t round = 0; round < 3 || SecondsSince(start) < args_.seconds;
       ++round) {
    for (size_t i = 0; i < 2; ++i) {
      size_t t = kThreadCounts[(round + i) % 2];
      Layers& layer = layers[t];
      Iteration plain = Attempt(detectors.at({t, false}), t, nullptr, nullptr);
      if (plain.ok) walls_[t].push_back(plain.wall);

      Kept kept;
      Iteration traced = Attempt(detectors.at({t, true}), t, &tracer, &kept);
      if (!traced.ok) continue;
      layer.traced.push_back(traced);

      // Standalone layer calls over the parsed document, outside the
      // timed pipeline.
      Clock::time_point t0 = Clock::now();
      auto span = tracer.StartSpan("sxnm/candidate_tree");
      auto forest = core::CandidateForest::Build(corpus_.config, kept.doc);
      span.End();
      layer.forest.push_back(SecondsSince(t0));
      if (!forest.ok()) {
        Fail("forest: " + forest.status().ToString());
        continue;
      }
      layer.forest_instances = forest->TotalInstances();

      t0 = Clock::now();
      span = tracer.StartSpan("sxnm/key_generation");
      std::vector<core::GkTable> tables;
      for (const auto& cand : forest->candidates()) {
        tables.push_back(core::GenerateKeys(*cand.config, cand));
      }
      span.End();
      layer.generate.push_back(SecondsSince(t0));

      t0 = Clock::now();
      span = tracer.StartSpan("sort");
      size_t rows = 0;
      for (const auto& table : tables) {
        for (size_t k = 0; k < table.num_keys; ++k) {
          rows += table.SortedOrder(k).size();
        }
      }
      span.End();
      layer.sort.push_back(SecondsSince(t0));
      layer.sorted_rows = rows;

      span = tracer.StartSpan("sxnm/transitive_closure");
      for (const auto& cand : kept.result.candidates) {
        core::ComputeTransitiveClosure(cand.num_instances, cand.duplicate_pairs);
      }
      span.End();
    }
  }

  auto suffixed = [](const char* name, size_t t) {
    return std::string(name) + ".t" + std::to_string(t);
  };
  for (size_t t : kThreadCounts) {
    Layers& layer = layers[t];
    if (layer.traced.empty()) {
      Fail("no successful traced iteration at " + std::to_string(t) +
           " thread(s)");
      continue;
    }
    const Iteration& it = MedianIteration(layer.traced);
    double mb = double(corpus_.bytes.size()) / 1e6;
    double closure = std::fabs(it.parse + it.detect + it.dedup + it.write -
                               it.wall) / it.wall * 100.0;
    double traced_median = 0;
    {
      std::vector<double> traced_walls;
      for (const auto& x : layer.traced) traced_walls.push_back(x.wall);
      traced_median = Median(traced_walls);
    }
    double plain_median = Median(walls_[t]);
    const uint64_t rows = it.metrics.CounterOr("kg.rows");
    const uint64_t windowed = it.metrics.CounterOr("sw.pairs_windowed");
    metrics_.insert(
        metrics_.end(),
        {
            {suffixed("e2e_median_s", t), plain_median, "s"},
            {suffixed("parse.s", t), it.parse, "s"},
            {suffixed("parse.mb_per_s", t), mb / it.parse, "MB/s"},
            {suffixed("forest.s", t), Median(layer.forest), "s"},
            {suffixed("kg.s", t), it.kg, "s"},
            {suffixed("kg.generate_s", t), Median(layer.generate), "s"},
            {suffixed("kg.ns_per_row", t), rows ? it.kg * 1e9 / double(rows) : 0,
             "ns"},
            {suffixed("sort.s", t), Median(layer.sort), "s"},
            {suffixed("sort.ns_per_row", t),
             layer.sorted_rows ? Median(layer.sort) * 1e9 /
                                     double(layer.sorted_rows)
                               : 0,
             "ns"},
            {suffixed("sw.s", t), it.sw, "s"},
            {suffixed("sw.ns_per_pair", t),
             windowed ? it.sw * 1e9 / double(windowed) : 0, "ns"},
            {suffixed("tc.s", t), it.tc, "s"},
            {suffixed("detect.s", t), it.detect, "s"},
            {suffixed("detect.other_s", t), it.detect - it.kg - it.sw - it.tc,
             "s"},
            {suffixed("dedup.s", t), it.dedup, "s"},
            {suffixed("write.s", t), it.write, "s"},
            {suffixed("write.mb_per_s", t),
             double(it.output_bytes) / 1e6 / it.write, "MB/s"},
            {suffixed("ledger.closure_pct", t), closure, "%"},
            {suffixed("trace.overhead_pct", t),
             plain_median > 0
                 ? (traced_median - plain_median) / plain_median * 100.0
                 : 0,
             "%"},
        });
  }

  // Counts come from the 1-thread traced run.
  if (!layers[1].traced.empty()) {
    const Iteration& it = MedianIteration(layers[1].traced);
    const auto& m = it.metrics;
    auto count = [&](const char* name) { return double(m.CounterOr(name)); };
    double comparisons = count("sw.comparisons");
    double unique = count("sw.unique_comparisons");
    auto per_comparison = [&](const char* name) {
      return comparisons > 0 ? count(name) / comparisons : 0.0;
    };
    size_t duplicate_pairs = 0;
    for (const auto& c : it.candidates) duplicate_pairs += c.duplicate_pairs;
    metrics_.insert(
        metrics_.end(),
        {
            {"parse.elements", double(it.elements), "count"},
            {"forest.instances", double(layers[1].forest_instances), "count"},
            {"kg.rows", count("kg.rows"), "count"},
            {"kg.od_pool_strings", count("kg.od_pool_strings"), "count"},
            {"kg.subtree_pool_nodes", count("kg.subtree_pool_nodes"), "count"},
            {"sw.pairs_windowed", count("sw.pairs_windowed"), "count"},
            {"sw.comparisons", comparisons, "count"},
            {"sw.unique_comparisons", unique, "count"},
            {"sw.prepass_skips", count("sw.prepass_skips"), "count"},
            {"sw.ed_bailouts", count("sw.ed_bailouts"), "count"},
            {"text.myers_words", count("text.myers_words"), "count"},
            {"sw.batch_reject_ratio", per_comparison("sw.batch_rejects"),
             "ratio"},
            {"sw.verdict_cache_hit_ratio",
             per_comparison("sw.verdict_cache_hits"), "ratio"},
            {"sw.dag_equal_ratio", per_comparison("sw.dag_equal"), "ratio"},
            {"sw.accept_ratio",
             unique > 0 ? double(duplicate_pairs) / unique : 0.0, "ratio"},
            {"tc.pairs", count("tc.pairs"), "count"},
            {"tc.union_ops", count("tc.union_ops"), "count"},
            {"tc.clusters", count("tc.clusters"), "count"},
            {"dedup.elements_removed", double(it.elements_removed), "count"},
        });
  }

  trace_path_ = args_.artifacts + "/" + std::string(workload_.name) + "-seed" +
                std::to_string(args_.seed) + ".trace.json";
  if (auto status = tracer.WriteChromeTraceFile(trace_path_); !status.ok()) {
    Fail("trace: " + status.ToString());
    trace_path_.clear();
  }
}

void Bench::WriteReport(const std::string& path) const {
  std::ofstream out(path);
  out << "{\n  \"workload\": " << JsonString(workload_.name)
      << ",\n  \"trace\": " << (args_.trace ? 1 : 0)
      << ",\n  \"seeds\": {\"seed\": " << args_.seed
      << ", \"default_seed\": " << kDefaultSeed
      << ", \"held_out_seed\": " << kHeldOutSeed
      << ", \"pinned\": " << (pinned_run_ ? "true" : "false") << "}"
      << ",\n  \"corpus\": {\"clean_movies\": " << movies_
      << ", \"bytes\": " << corpus_.bytes.size() << "}"
      << ",\n  \"host\": {\"hardware_threads\": "
      << std::thread::hardware_concurrency()
      << ", \"affinity_cpus\": " << AffinityCpus()
      << ", \"build_type\": " << JsonString(SXNM_E2E_BUILD_TYPE)
      << ", \"simd_backend\": "
      << JsonString(sxnm::util::simd::BackendName())
      << ", \"git_commit\": " << JsonString(args_.git_commit)
      << ", \"source_digest\": " << JsonString(args_.source_digest) << "}"
      << ",\n  \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ",\n  \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i ? ", " : "") << JsonString(failures_[i]);
  }
  out << "]";
  if (reference_) {
    out << ",\n  \"reference\": {\"xml_hash\": \"" << std::hex
        << reference_->xml_hash << std::dec
        << "\", \"elements_removed\": " << reference_->elements_removed
        << ", \"candidates\": [";
    for (size_t i = 0; i < reference_->candidates.size(); ++i) {
      const auto& c = reference_->candidates[i];
      out << (i ? ", " : "") << "{\"name\": " << JsonString(c.name)
          << ", \"instances\": " << c.instances
          << ", \"duplicate_pairs\": " << c.duplicate_pairs
          << ", \"clusters\": " << c.clusters << "}";
    }
    out << "]}";
  }
  if (quality_) {
    auto write_pm = [&](const sxnm::eval::PairMetrics& m) {
      out << "{\"precision\": " << JsonNumber(m.precision)
          << ", \"recall\": " << JsonNumber(m.recall)
          << ", \"f_measure\": " << JsonNumber(m.f1)
          << ", \"gold_pairs\": " << m.gold_pairs
          << ", \"detected_pairs\": " << m.detected_pairs
          << ", \"true_positives\": " << m.true_positives << "}";
    };
    out << ",\n  \"quality\": {\"f_measure\": "
        << JsonNumber(quality_->f_measure) << ", \"candidates\": {";
    for (size_t i = 0; i < quality_->candidates.size(); ++i) {
      out << (i ? ", " : "") << JsonString(quality_->candidates[i].first)
          << ": ";
      write_pm(quality_->candidates[i].second);
    }
    out << "}}";
  }
  out << ",\n  \"samples_s\": {";
  bool first = true;
  for (const auto& [t, walls] : walls_) {
    out << (first ? "" : ", ") << "\"t" << t << "\": [";
    for (size_t i = 0; i < walls.size(); ++i) {
      out << (i ? ", " : "") << JsonNumber(walls[i]);
    }
    out << "]";
    first = false;
  }
  out << "},\n  \"probe_s\": [";
  for (size_t i = 0; i < probes_.size(); ++i) {
    out << (i ? ", " : "") << JsonNumber(probes_[i]);
  }
  out << "]";
  if (!trace_path_.empty()) {
    out << ",\n  \"chrome_trace\": " << JsonString(trace_path_);
  }
  out << ",\n  \"metrics\": " << MetricsJson(metrics_) << "\n}\n";
}

int Bench::Main() {
  if (SetUp()) {
    if (args_.trace) {
      RunTraced();
    } else {
      RunEndToEnd();
    }
  }
  if (attempted_ == 0) {
    // Set-up failed: count it as one failed attempt.
    attempted_ = 1;
    failed_ = 1;
  }
  std::string report = args_.artifacts + "/" + std::string(workload_.name) +
                       "-seed" + std::to_string(args_.seed) + "-trace" +
                       (args_.trace ? "1" : "0") + ".report.json";
  WriteReport(report);

  std::printf("workload %s seed %llu: %zu clean movies, %.1f MB of XML\n",
              std::string(workload_.name).c_str(),
              static_cast<unsigned long long>(args_.seed), movies_,
              double(corpus_.bytes.size()) / 1e6);
  if (quality_) {
    for (const auto& [name, m] : quality_->candidates) {
      std::printf("  %-8s precision %.4f recall %.4f f-measure %.4f\n",
                  name.c_str(), m.precision, m.recall, m.f1);
    }
  }
  for (const auto& [t, walls] : walls_) {
    std::printf("  t%zu: %zu timed iterations\n", t, walls.size());
  }
  std::printf("report: %s\n", report.c_str());
  const bool correct = failed_ == 0 && failures_.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted_, failed_,
              MetricsJson(metrics_).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  for (const Workload& workload : kWorkloads) {
    if (workload.name == args.workload) return Bench(args, workload).Main();
  }
  std::fprintf(stderr, "sxnm_e2e: unknown workload '%s'\n",
               args.workload.c_str());
  return Usage();
}
