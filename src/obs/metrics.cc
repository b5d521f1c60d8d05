#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>

namespace sxnm::obs {

namespace {

// Relaxed double accumulation via CAS (atomic<double>::fetch_add is
// C++20 but not yet universal across the toolchains this builds on).
void AtomicAddDouble(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void WriteJsonName(std::ostream& os, std::string_view name) {
  os << '"';
  for (char c : name) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void WriteJsonDouble(std::ostream& os, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  os << buf;
}

}  // namespace

size_t ThisThreadShard() {
  static std::atomic<size_t> next_shard{0};
  thread_local const size_t shard =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return shard;
}

// --- Counter ---------------------------------------------------------------

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Shard& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// --- Histogram -------------------------------------------------------------

Histogram::Histogram(std::string name, std::vector<double> bounds,
                     bool enabled)
    : name_(std::move(name)), enabled_(enabled), bounds_(std::move(bounds)) {
  assert(!bounds_.empty());
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (Shard& shard : shards_) {
    shard.counts = std::vector<std::atomic<uint64_t>>(bounds_.size() + 1);
  }
}

void Histogram::Observe(double value) {
  if (!enabled_) return;
  // Bucket i holds value <= bounds[i]; past the last bound -> overflow.
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  Shard& shard = shards_[ThisThreadShard()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(shard.sum, value);
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    for (const auto& count : shard.counts) {
      total += count.load(std::memory_order_relaxed);
    }
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1, 0);
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] += shard.counts[i].load(std::memory_order_relaxed);
    }
  }
  return counts;
}

double Histogram::Quantile(double q) const {
  return BucketQuantile(bounds_, BucketCounts(), q);
}

double BucketQuantile(const std::vector<double>& bounds,
                      const std::vector<uint64_t>& counts, double q) {
  q = std::clamp(q, 0.0, 1.0);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;

  // The observation with (0-based) rank `target` answers the quantile;
  // interpolate its position inside the bucket's value range.
  double target = q * static_cast<double>(total - 1);
  uint64_t below = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    double first = static_cast<double>(below);
    double last = static_cast<double>(below + counts[i] - 1);
    if (target <= last) {
      if (i >= bounds.size()) return bounds.back();  // overflow bucket
      double lo = i == 0 ? 0.0 : bounds[i - 1];
      double hi = bounds[i];
      // Clamped: a target rank that falls in the gap between two
      // occupied buckets belongs to this bucket's lower edge, not an
      // extrapolation below it (which would break monotonicity in q).
      double frac =
          counts[i] == 1
              ? 1.0
              : std::clamp((target - first) / (last - first), 0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    below += counts[i];
  }
  return bounds.back();
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (auto& count : shard.counts) {
      count.store(0, std::memory_order_relaxed);
    }
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

std::vector<double> DefaultTimeBounds() {
  return {64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 0.25, 1.0, 4.0};
}

std::vector<double> DefaultSizeBounds() {
  return {2, 3, 4, 6, 8, 12, 16, 32, 64, 128};
}

std::vector<double> DefaultSimilarityBounds() {
  return {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
}

// --- MetricsSnapshot -------------------------------------------------------

uint64_t MetricsSnapshot::CounterOr(std::string_view name,
                                    uint64_t fallback) const {
  for (const CounterSample& c : counters) {
    if (c.name == name) return c.value;
  }
  return fallback;
}

double MetricsSnapshot::GaugeOr(std::string_view name, double fallback) const {
  for (const GaugeSample& g : gauges) {
    if (g.name == name) return g.value;
  }
  return fallback;
}

const MetricsSnapshot::HistogramSample* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSample& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

void MetricsSnapshot::WriteJson(std::ostream& os) const {
  os << "{";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n  ";
  };
  for (const CounterSample& c : counters) {
    sep();
    WriteJsonName(os, c.name);
    os << ": " << c.value;
  }
  for (const GaugeSample& g : gauges) {
    sep();
    WriteJsonName(os, g.name);
    os << ": ";
    WriteJsonDouble(os, g.value);
  }
  for (const HistogramSample& h : histograms) {
    sep();
    WriteJsonName(os, h.name);
    os << ": {\"count\": " << h.total_count << ", \"sum\": ";
    WriteJsonDouble(os, h.sum);
    os << ", \"buckets\": [";
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"le\": ";
      if (i < h.bounds.size()) {
        WriteJsonDouble(os, h.bounds[i]);
      } else {
        os << "\"+inf\"";
      }
      os << ", \"count\": " << h.counts[i] << "}";
    }
    os << "]}";
  }
  os << "\n}";
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; the registry's dotted
// paths map onto that by replacing everything else with '_'.
std::string PrometheusName(std::string_view name) {
  std::string out = "sxnm_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::mutex& HelpMutex() {
  static std::mutex mu;
  return mu;
}

// Dotted name -> HELP text. Seeded with the engine's own metrics;
// SetPrometheusHelp adds or overrides entries under HelpMutex().
std::map<std::string, std::string, std::less<>>& HelpRegistry() {
  static auto* registry = new std::map<std::string, std::string, std::less<>>{
      {"engine.num_candidates", "Duplicate candidate definitions in the run"},
      {"engine.num_threads", "Worker threads configured for the run"},
      {"kg.keys_emitted", "Object keys emitted during key generation"},
      {"kg.rows", "Generated key rows (candidate instances x keys)"},
      {"kg.rows_done", "Key rows fully generated so far (live progress)"},
      {"kg.rows_total", "Key rows the run plans to generate"},
      {"progress.phase",
       "Current engine phase: 0 setup, 1 key generation, 2 sliding window, "
       "3 transitive closure, 4 done"},
      {"robust.degraded", "Runs degraded by budget or deadline"},
      {"robust.pairs_elided", "Window pairs shed by governance"},
      {"sw.comparisons", "Pair similarity evaluations"},
      {"sw.hits", "Pair classifications above the duplicate threshold"},
      {"sw.pairs_done",
       "Window pairs processed across all passes so far (live progress)"},
      {"sw.pairs_planned_total",
       "Window pairs the run plans to enumerate across all passes"},
      {"sw.pairs_windowed", "Window pairs enumerated by the pass machinery"},
      {"sw.prepass_skips", "Pairs resolved by the exact-OD prepass"},
      {"tc.clusters", "Duplicate clusters after transitive closure"},
      {"tc.edges_done",
       "Accepted pair edges folded into the closure so far (live progress)"},
      {"tc.pairs", "Accepted pairs fed to transitive closure"},
      {"tc.union_ops", "Union-find merges performed"},
  };
  return *registry;
}

// HELP text is emitted raw except for the two escapes the exposition
// format requires.
void WritePrometheusHelpText(std::ostream& os, std::string_view help) {
  for (char c : help) {
    if (c == '\\') {
      os << "\\\\";
    } else if (c == '\n') {
      os << "\\n";
    } else {
      os << c;
    }
  }
}

// Label values escape backslash, double-quote, and newline (exposition
// format 0.0.4). Bucket bounds are numeric today, but the helper keeps
// any future label emission correct by construction.
void WritePrometheusLabelValue(std::ostream& os, std::string_view value) {
  for (char c : value) {
    if (c == '\\') {
      os << "\\\\";
    } else if (c == '"') {
      os << "\\\"";
    } else if (c == '\n') {
      os << "\\n";
    } else {
      os << c;
    }
  }
}

// Sample values use Prometheus spellings for the specials ("+Inf",
// "-Inf", "NaN"), which %g alone would render as inf/nan.
void WritePrometheusDouble(std::ostream& os, double value) {
  if (std::isnan(value)) {
    os << "NaN";
  } else if (std::isinf(value)) {
    os << (value > 0 ? "+Inf" : "-Inf");
  } else {
    WriteJsonDouble(os, value);
  }
}

}  // namespace

void SetPrometheusHelp(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(HelpMutex());
  HelpRegistry()[std::string(name)] = std::string(help);
}

std::string PrometheusHelp(std::string_view name) {
  std::lock_guard<std::mutex> lock(HelpMutex());
  const auto& registry = HelpRegistry();
  auto it = registry.find(name);
  return it == registry.end() ? std::string() : it->second;
}

void MetricsSnapshot::ToPrometheusText(std::ostream& os) const {
  // Distinct dotted names can collide after sanitization ("sw.pairs_done"
  // vs "sw.pairs.done" both become sxnm_sw_pairs_done). Suffix later
  // arrivals so every emitted family is unique and each # TYPE header
  // appears exactly once; iteration order (counters, gauges, histograms,
  // each sorted by name) makes the suffix assignment deterministic.
  std::map<std::string, int> family_uses;
  auto family = [&family_uses](const std::string& raw) {
    std::string base = PrometheusName(raw);
    int uses = ++family_uses[base];
    if (uses > 1) base += "_" + std::to_string(uses);
    return base;
  };
  auto headers = [&os](const std::string& raw, const std::string& fam,
                       const char* type) {
    std::string help = PrometheusHelp(raw);
    if (!help.empty()) {
      os << "# HELP " << fam << " ";
      WritePrometheusHelpText(os, help);
      os << "\n";
    }
    os << "# TYPE " << fam << " " << type << "\n";
  };

  for (const CounterSample& c : counters) {
    std::string name = family(c.name);
    headers(c.name, name, "counter");
    os << name << " " << c.value << "\n";
  }
  for (const GaugeSample& g : gauges) {
    std::string name = family(g.name);
    headers(g.name, name, "gauge");
    os << name << " ";
    WritePrometheusDouble(os, g.value);
    os << "\n";
  }
  for (const HistogramSample& h : histograms) {
    std::string name = family(h.name);
    headers(h.name, name, "histogram");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      os << name << "_bucket{le=\"";
      if (i < h.bounds.size()) {
        std::ostringstream bound;
        WritePrometheusDouble(bound, h.bounds[i]);
        WritePrometheusLabelValue(os, bound.str());
      } else {
        os << "+Inf";
      }
      os << "\"} " << cumulative << "\n";
    }
    os << name << "_sum ";
    WritePrometheusDouble(os, h.sum);
    os << "\n";
    os << name << "_count " << h.total_count << "\n";
  }
}

// --- MetricsRegistry -------------------------------------------------------

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_by_name_.find(name);
  if (it != counter_by_name_.end()) return *it->second;
  Counter& created = counters_.emplace_back(std::string(name), enabled_);
  counter_by_name_.emplace(created.name(), &created);
  return created;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_by_name_.find(name);
  if (it != gauge_by_name_.end()) return *it->second;
  Gauge& created = gauges_.emplace_back(std::string(name), enabled_);
  gauge_by_name_.emplace(created.name(), &created);
  return created;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histogram_by_name_.find(name);
  if (it != histogram_by_name_.end()) return *it->second;
  Histogram& created =
      histograms_.emplace_back(std::string(name), std::move(bounds), enabled_);
  histogram_by_name_.emplace(created.name(), &created);
  return created;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counter_by_name_.size());
  for (const auto& [name, counter] : counter_by_name_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.gauges.reserve(gauge_by_name_.size());
  for (const auto& [name, gauge] : gauge_by_name_) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  snapshot.histograms.reserve(histogram_by_name_.size());
  for (const auto& [name, histogram] : histogram_by_name_) {
    MetricsSnapshot::HistogramSample sample;
    sample.name = name;
    sample.bounds = histogram->bounds();
    sample.counts = histogram->BucketCounts();
    sample.sum = histogram->Sum();
    for (uint64_t c : sample.counts) sample.total_count += c;
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

void MetricsRegistry::MergeFrom(const MetricsSnapshot& snapshot) {
  if (!enabled_) return;
  for (const auto& sample : snapshot.counters) {
    counter(sample.name).Add(sample.value);
  }
  for (const auto& sample : snapshot.gauges) {
    gauge(sample.name).Set(sample.value);
  }
  for (const auto& sample : snapshot.histograms) {
    Histogram& hist = histogram(sample.name, sample.bounds);
    if (hist.bounds().size() + 1 != sample.counts.size()) continue;
    // All restored weight lands on shard 0; reads only ever sum shards.
    Histogram::Shard& shard = hist.shards_[0];
    for (size_t i = 0; i < sample.counts.size(); ++i) {
      shard.counts[i].fetch_add(sample.counts[i], std::memory_order_relaxed);
    }
    AtomicAddDouble(shard.sum, sample.sum);
  }
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Counter& counter : counters_) counter.Reset();
  for (Gauge& gauge : gauges_) gauge.Reset();
  for (Histogram& histogram : histograms_) histogram.Reset();
}

}  // namespace sxnm::obs
