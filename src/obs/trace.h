// Span tracer for the detection pipeline: RAII spans opened anywhere in
// the engine (document run → depth level → candidate → window pass) are
// buffered per thread shard and exported as Chrome `trace_event` JSON —
// the file loads directly in chrome://tracing and Perfetto, with one
// track per worker shard, so pool utilization and per-pass costs are
// visible at a glance.
//
// Spans record steady-clock microseconds relative to the tracer's
// construction. With CPU profiling on, each span also reads its
// thread's CPU clock (CLOCK_THREAD_CPUTIME_ID) at start and end and
// charges the exact difference to its span path: the names of the
// spans open on that thread, root first. CpuProfile() folds those
// per-path totals into self/total CPU — no sampling, so no sampling
// error. A tracer with tracing and profiling both off hands out inert
// spans whose construction and destruction cost one branch.

#ifndef SXNM_OBS_TRACE_H_
#define SXNM_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"  // kNumShards / ThisThreadShard
#include "util/status.h"

namespace sxnm::obs {

/// Exact CPU time per span path, produced by Tracer::CpuProfile. A
/// default-constructed profile has enabled == false.
struct CpuProfile {
  struct Entry {
    /// Semicolon-joined span path, root first (frame names sanitized so
    /// they contain no ';' or whitespace). Process CPU spent outside
    /// every span — on any thread — appears as "(unattributed)".
    std::string path;
    /// CPU in spans with exactly this path, minus the CPU of their
    /// direct child spans.
    uint64_t self_ns = 0;
    /// CPU in spans with exactly this path, children included.
    uint64_t total_ns = 0;
  };

  bool enabled = false;
  /// Process CPU (all threads) over the tracer's lifetime: the root
  /// paths' totals plus "(unattributed)".
  uint64_t cpu_ns = 0;
  /// Entries sorted by self_ns descending, then path ascending.
  std::vector<Entry> entries;

  /// First entry with self CPU, or nullptr (entries are top-first).
  const Entry* TopSelf() const;

  /// flamegraph.pl-compatible folded stacks: one "a;b;c N" line per
  /// path, N = self CPU in whole microseconds (paths under 1 µs are
  /// omitted).
  void WriteFolded(std::ostream& os) const;

  /// WriteFolded through an atomic tmp+fsync+rename commit: a crash
  /// leaves the previous file (or none), never a torn profile.
  util::Status WriteFoldedFile(const std::string& path) const;

  /// The DetectionReport "profile" block (a JSON object, no trailing
  /// newline): total CPU plus per-path self/total CPU in microseconds.
  void WriteJson(std::ostream& os) const;
};

class Tracer {
 public:
  /// One complete ("ph":"X") trace event.
  struct Event {
    std::string name;
    std::string args_json;  // pre-rendered JSON object ("{...}") or empty
    uint64_t tid = 0;       // thread shard the span ran on
    double ts_us = 0.0;     // start, microseconds since tracer epoch
    double dur_us = 0.0;
  };

  /// RAII span: records one Event covering its lifetime. Inert when
  /// default-constructed or handed out by a disabled tracer. A profiled
  /// span must End on the thread that started it; spans on one thread
  /// nest, so the span opened last ends first.
  class Span {
   public:
    Span() = default;
    ~Span() { End(); }

    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span now (idempotent; the destructor calls it too).
    void End();

    /// Ends the span and attaches a pre-rendered JSON object as the
    /// event's "args" (e.g. R"({"pairs": 12})").
    void EndWithArgs(std::string args_json);

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::string name, bool record)
        : tracer_(tracer),
          name_(std::move(name)),
          start_(std::chrono::steady_clock::now()),
          record_(record) {}

    Tracer* tracer_ = nullptr;  // nullptr = inert / already ended
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    bool record_ = false;  // emit a Chrome trace event on End
    // CPU profiling: this span's path (empty = not profiled), the length
    // of the thread's path before this span joined it, and the thread
    // CPU clock at start.
    std::string path_;
    size_t parent_len_ = 0;
    uint64_t cpu_start_ns_ = 0;
  };

  /// `enabled` buffers Chrome trace events; `profile_cpu` additionally
  /// charges each span's thread CPU to its span path (see CpuProfile).
  /// With both off, StartSpan hands out inert spans whose whole
  /// lifecycle costs one branch.
  explicit Tracer(bool enabled = true, bool profile_cpu = false);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread. Thread-safe.
  Span StartSpan(std::string name);

  /// Records a fully specified event (tests and callers that measure
  /// time themselves). Thread-safe; ignored when disabled.
  void Record(Event event);

  /// All recorded events, sorted by (ts_us, tid, name).
  std::vector<Event> Events() const;

  /// Writes the Chrome trace_event JSON ({"traceEvents": [...]}).
  void WriteChromeTrace(std::ostream& os) const;

  /// WriteChromeTrace to a file; fails when the path is unwritable.
  util::Status WriteChromeTraceFile(const std::string& path) const;

  /// Folds the CPU of every ended span into per-path self/total CPU;
  /// process CPU since construction not covered by a root span becomes
  /// "(unattributed)". Disabled unless profile_cpu. Thread-safe; spans
  /// still open contribute nothing.
  obs::CpuProfile CpuProfile() const;

  /// Drops the recorded trace events (the CPU totals stay).
  void Clear();

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Event> events;
    std::unordered_map<std::string, uint64_t> cpu_ns;  // span path → CPU
  };

  void AddCpu(std::string path, uint64_t ns);

  bool enabled_;
  bool profile_cpu_;
  std::chrono::steady_clock::time_point epoch_;
  const uint64_t process_cpu_epoch_ns_;  // process CPU clock at construction
  mutable std::array<Buffer, kNumShards> buffers_;
};

}  // namespace sxnm::obs

#endif  // SXNM_OBS_TRACE_H_
