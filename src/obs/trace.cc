#include "obs/trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>

#include "persist/io.h"

namespace sxnm::obs {

namespace {

constexpr char kUnattributed[] = "(unattributed)";

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

// The calling thread's open profiled span path ("a;b;c"). Only its
// own thread reads or writes it.
std::string& ThreadSpanPath() {
  thread_local std::string path;
  return path;
}

// Appends `name` as one folded-stack frame: the separator ';' and
// whitespace become '_', and an empty name becomes "_".
void AppendFrame(const std::string& name, std::string* path) {
  if (name.empty()) {
    *path += '_';
    return;
  }
  for (char c : name) {
    bool meta = c == ';' || c == ' ' || c == '\t' || c == '\n' || c == '\r';
    *path += meta ? '_' : c;
  }
}

uint64_t Micros(uint64_t ns) { return (ns + 500) / 1000; }

void WriteJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        os << c;
    }
  }
  os << '"';
}

void WriteMicros(std::ostream& os, double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  os << buf;
}

}  // namespace

Tracer::Span& Tracer::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    start_ = other.start_;
    record_ = other.record_;
    path_ = std::move(other.path_);
    parent_len_ = other.parent_len_;
    cpu_start_ns_ = other.cpu_start_ns_;
    other.tracer_ = nullptr;
    other.path_.clear();
  }
  return *this;
}

void Tracer::Span::End() { EndWithArgs(std::string()); }

void Tracer::Span::EndWithArgs(std::string args_json) {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;

  if (!path_.empty()) {
    uint64_t cpu_ns = ThreadCpuNs() - cpu_start_ns_;
    // Pop this span's frame. Never grow the path: a parent that ended
    // out of order already cut it shorter.
    std::string& thread_path = ThreadSpanPath();
    thread_path.resize(std::min(thread_path.size(), parent_len_));
    tracer->AddCpu(std::move(path_), cpu_ns);
    path_.clear();
  }
  if (!record_) return;

  auto now = std::chrono::steady_clock::now();
  Event event;
  event.name = std::move(name_);
  event.args_json = std::move(args_json);
  event.tid = ThisThreadShard();
  event.ts_us =
      std::chrono::duration<double, std::micro>(start_ - tracer->epoch_)
          .count();
  event.dur_us = std::chrono::duration<double, std::micro>(now - start_).count();
  tracer->Record(std::move(event));
}

Tracer::Tracer(bool enabled, bool profile_cpu)
    : enabled_(enabled),
      profile_cpu_(profile_cpu),
      epoch_(std::chrono::steady_clock::now()),
      process_cpu_epoch_ns_(profile_cpu ? ProcessCpuNs() : 0) {}

Tracer::Span Tracer::StartSpan(std::string name) {
  if (!enabled_ && !profile_cpu_) return Span();
  Span span(this, std::move(name), enabled_);
  if (profile_cpu_) {
    std::string& thread_path = ThreadSpanPath();
    span.parent_len_ = thread_path.size();
    if (!thread_path.empty()) thread_path += ';';
    AppendFrame(span.name_, &thread_path);
    span.path_ = thread_path;
    span.cpu_start_ns_ = ThreadCpuNs();
  }
  return span;
}

void Tracer::AddCpu(std::string path, uint64_t ns) {
  Buffer& buffer = buffers_[ThisThreadShard()];
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.cpu_ns[std::move(path)] += ns;
}

void Tracer::Record(Event event) {
  if (!enabled_) return;
  Buffer& buffer = buffers_[ThisThreadShard()];
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(std::move(event));
}

std::vector<Tracer::Event> Tracer::Events() const {
  std::vector<Event> all;
  for (Buffer& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer.mu);
    all.insert(all.end(), buffer.events.begin(), buffer.events.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return std::tie(a.ts_us, a.tid, a.name) < std::tie(b.ts_us, b.tid, b.name);
  });
  return all;
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  os << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Event& event : Events()) {
    if (!first) os << ",\n";
    first = false;
    os << "  {\"name\": ";
    WriteJsonString(os, event.name);
    os << ", \"cat\": \"sxnm\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << event.tid << ", \"ts\": ";
    WriteMicros(os, event.ts_us);
    os << ", \"dur\": ";
    WriteMicros(os, event.dur_us);
    if (!event.args_json.empty()) {
      os << ", \"args\": " << event.args_json;
    }
    os << "}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

util::Status Tracer::WriteChromeTraceFile(const std::string& path) const {
  // Atomic commit: a crash mid-export leaves the previous trace (or no
  // file), never JSON that chrome://tracing rejects as truncated.
  std::ostringstream os;
  WriteChromeTrace(os);
  return persist::AtomicWriteFile(path, os.str());
}

obs::CpuProfile Tracer::CpuProfile() const {
  obs::CpuProfile profile;
  if (!profile_cpu_) return profile;
  profile.enabled = true;
  const uint64_t process_ns = ProcessCpuNs() - process_cpu_epoch_ns_;
  std::map<std::string, uint64_t> total_ns;
  for (Buffer& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer.mu);
    for (const auto& [path, ns] : buffer.cpu_ns) total_ns[path] += ns;
  }
  // A child span runs inside its parent on the parent's thread, so a
  // path's total covers its direct children's totals exactly.
  std::map<std::string, uint64_t> children_ns;
  uint64_t root_ns = 0;
  for (const auto& [path, ns] : total_ns) {
    size_t cut = path.rfind(';');
    if (cut == std::string::npos) {
      root_ns += ns;
    } else {
      children_ns[path.substr(0, cut)] += ns;
    }
  }
  for (const auto& [path, ns] : total_ns) {
    auto it = children_ns.find(path);
    uint64_t children = it == children_ns.end() ? 0 : it->second;
    profile.entries.push_back({path, ns - std::min(ns, children), ns});
  }
  profile.cpu_ns = std::max(process_ns, root_ns);
  const uint64_t unattributed = profile.cpu_ns - root_ns;
  profile.entries.push_back({kUnattributed, unattributed, unattributed});
  std::sort(profile.entries.begin(), profile.entries.end(),
            [](const obs::CpuProfile::Entry& a,
               const obs::CpuProfile::Entry& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.path < b.path;
            });
  return profile;
}

void Tracer::Clear() {
  for (Buffer& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer.mu);
    buffer.events.clear();
  }
}

// ---------------------------------------------------------------------------
// CpuProfile
// ---------------------------------------------------------------------------

const CpuProfile::Entry* CpuProfile::TopSelf() const {
  // Entries are sorted self-descending, so the first with self CPU (if
  // any) leads the vector.
  if (entries.empty() || entries.front().self_ns == 0) return nullptr;
  return &entries.front();
}

void CpuProfile::WriteFolded(std::ostream& os) const {
  // One line per path with self CPU. Sorted by path for a stable diff.
  std::vector<const Entry*> leaves;
  for (const Entry& e : entries) {
    if (Micros(e.self_ns) > 0) leaves.push_back(&e);
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const Entry* a, const Entry* b) { return a->path < b->path; });
  for (const Entry* e : leaves) {
    os << e->path << ' ' << Micros(e->self_ns) << '\n';
  }
}

util::Status CpuProfile::WriteFoldedFile(const std::string& path) const {
  std::ostringstream os;
  WriteFolded(os);
  return persist::AtomicWriteFile(path, os.str());
}

void CpuProfile::WriteJson(std::ostream& os) const {
  os << "{\"enabled\": " << (enabled ? "true" : "false");
  if (!enabled) {
    os << "}";
    return;
  }
  os << ", \"cpu_us\": " << Micros(cpu_ns) << ", \"spans\": [";
  bool first = true;
  for (const Entry& e : entries) {
    if (!first) os << ", ";
    first = false;
    os << "{\"path\": ";
    WriteJsonString(os, e.path);
    os << ", \"self_us\": " << Micros(e.self_ns)
       << ", \"total_us\": " << Micros(e.total_ns) << "}";
  }
  os << "]}";
}

}  // namespace sxnm::obs
