#include "sxnm/config.h"

#include <cmath>
#include <cstdint>
#include <set>

#include "util/string_util.h"

namespace sxnm::core {

using util::Result;
using util::Status;

const char* CombineModeName(CombineMode mode) {
  switch (mode) {
    case CombineMode::kOdOnly:
      return "od_only";
    case CombineMode::kAverage:
      return "average";
    case CombineMode::kWeighted:
      return "weighted";
    case CombineMode::kDescBoost:
      return "desc_boost";
    case CombineMode::kDescGate:
      return "desc_gate";
  }
  return "unknown";
}

util::Result<CombineMode> ParseCombineMode(std::string_view name) {
  std::string n = util::ToLower(util::Trim(name));
  if (n == "od_only") return CombineMode::kOdOnly;
  if (n == "average" || n.empty()) return CombineMode::kAverage;
  if (n == "weighted") return CombineMode::kWeighted;
  if (n == "desc_boost") return CombineMode::kDescBoost;
  if (n == "desc_gate") return CombineMode::kDescGate;
  return Status::InvalidArgument("unknown combine mode '" +
                                 std::string(name) + "'");
}

const char* WindowPolicyName(WindowPolicy policy) {
  switch (policy) {
    case WindowPolicy::kFixed:
      return "fixed";
    case WindowPolicy::kAdaptivePrefix:
      return "adaptive_prefix";
  }
  return "unknown";
}

util::Result<WindowPolicy> ParseWindowPolicy(std::string_view name) {
  std::string n = util::ToLower(util::Trim(name));
  if (n == "fixed" || n.empty()) return WindowPolicy::kFixed;
  if (n == "adaptive_prefix") return WindowPolicy::kAdaptivePrefix;
  return Status::InvalidArgument("unknown window policy '" +
                                 std::string(name) + "'");
}

const PathEntry* CandidateConfig::FindPath(int pid) const {
  for (const PathEntry& entry : paths) {
    if (entry.id == pid) return &entry;
  }
  return nullptr;
}

util::Status Config::AddCandidate(CandidateConfig candidate) {
  if (Find(candidate.name) != nullptr) {
    return Status::InvalidArgument("duplicate candidate name '" +
                                   candidate.name + "'");
  }
  candidates_.push_back(std::move(candidate));
  return Status::Ok();
}

const CandidateConfig* Config::Find(std::string_view name) const {
  for (const CandidateConfig& c : candidates_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

CandidateConfig* Config::Find(std::string_view name) {
  return const_cast<CandidateConfig*>(
      static_cast<const Config*>(this)->Find(name));
}

namespace {

Status ValidateCandidate(const CandidateConfig& c) {
  auto fail = [&c](const std::string& what) {
    return Status::InvalidArgument("candidate '" + c.name + "': " + what);
  };

  if (c.name.empty()) return Status::InvalidArgument("candidate without name");
  if (c.paths.empty()) return fail("no paths defined");

  std::set<int> path_ids;
  for (const PathEntry& p : c.paths) {
    if (!path_ids.insert(p.id).second) {
      return fail("duplicate path id " + std::to_string(p.id));
    }
  }

  if (c.od.empty()) return fail("empty object description");
  for (const OdEntry& od : c.od) {
    if (path_ids.count(od.pid) == 0) {
      return fail("OD entry references unknown path id " +
                  std::to_string(od.pid));
    }
    if (od.relevance <= 0.0) {
      return fail("OD relevance must be positive (pid " +
                  std::to_string(od.pid) + ")");
    }
    if (!od.similarity) {
      return fail("OD entry pid " + std::to_string(od.pid) +
                  " has no resolved similarity function");
    }
  }

  if (c.keys.empty()) return fail("no key defined");
  for (size_t k = 0; k < c.keys.size(); ++k) {
    if (c.keys[k].parts.empty()) {
      return fail("key " + std::to_string(k + 1) + " has no parts");
    }
    for (const KeyPartRef& part : c.keys[k].parts) {
      if (path_ids.count(part.pid) == 0) {
        return fail("key " + std::to_string(k + 1) +
                    " references unknown path id " + std::to_string(part.pid));
      }
    }
  }

  if (c.window_size < 2) return fail("window size must be >= 2");
  if (c.window_policy == WindowPolicy::kAdaptivePrefix) {
    if (c.max_window < c.window_size) {
      return fail("max_window must be >= window size");
    }
    if (c.adaptive_prefix_len < 1) {
      return fail("adaptive_prefix_len must be >= 1");
    }
  }

  if (!c.theory.empty()) {
    std::vector<int> od_pids;
    od_pids.reserve(c.od.size());
    for (const OdEntry& od : c.od) od_pids.push_back(od.pid);
    if (auto status = c.theory.Validate(od_pids); !status.ok()) {
      return fail("equational theory: " + status.message());
    }
  }
  const ClassifierConfig& cls = c.classifier;
  if (cls.od_threshold < 0.0 || cls.od_threshold > 1.0) {
    return fail("od_threshold out of [0,1]");
  }
  if (cls.desc_threshold < 0.0 || cls.desc_threshold > 1.0) {
    return fail("desc_threshold out of [0,1]");
  }
  if (cls.od_weight < 0.0 || cls.od_weight > 1.0) {
    return fail("od_weight out of [0,1]");
  }
  return Status::Ok();
}

}  // namespace

xml::ParseOptions RunLimits::ToParseOptions() const {
  xml::ParseOptions options;
  options.max_depth = max_depth;
  options.max_input_bytes = max_input_bytes;
  options.max_nodes = max_nodes;
  options.max_attr_count = max_attr_count;
  return options;
}

size_t RunLimits::ResolveComparisonBudget() const {
  size_t budget = max_comparisons;
  if (deadline_seconds > 0.0 && comparisons_per_second > 0.0) {
    double derived = deadline_seconds * comparisons_per_second;
    // Saturate instead of overflowing for absurd rate × deadline products.
    size_t derived_budget =
        derived >= 9e18 ? SIZE_MAX : static_cast<size_t>(derived);
    if (budget == 0 || derived_budget < budget) budget = derived_budget;
  }
  return budget;
}

util::Status RunLimits::Validate() const {
  if (deadline_seconds < 0.0) {
    return Status::InvalidArgument("limits: deadline_seconds must be >= 0");
  }
  if (comparisons_per_second < 0.0) {
    return Status::InvalidArgument(
        "limits: comparisons_per_second must be >= 0");
  }
  return Status::Ok();
}

util::Status Config::Validate() const {
  if (candidates_.empty()) {
    return Status::InvalidArgument("configuration has no candidates");
  }
  SXNM_RETURN_IF_ERROR(limits_.Validate());
  if (shards_ == 0) {
    return Status::InvalidArgument("shards must be >= 1 (1 = unsharded)");
  }
  if (!observability_.report_path.empty() && !observability_.metrics) {
    return Status::InvalidArgument(
        "observability: report path set but metrics are off (the report "
        "is built from the metrics collection)");
  }
  if (!observability_.explain_path.empty() && !observability_.metrics) {
    return Status::InvalidArgument(
        "observability: explain path set but metrics are off (explain "
        "records are emitted alongside the metrics collection)");
  }
  if (!observability_.telemetry_path.empty() && !observability_.metrics) {
    return Status::InvalidArgument(
        "observability: telemetry path set but metrics are off (the "
        "sampler streams the metrics registry)");
  }
  if (!(observability_.telemetry_interval_ms > 0.0) ||
      !std::isfinite(observability_.telemetry_interval_ms)) {
    return Status::InvalidArgument(
        "observability: telemetry-interval-ms must be a positive number");
  }
  std::set<std::string> abs_paths;
  for (const CandidateConfig& c : candidates_) {
    SXNM_RETURN_IF_ERROR(ValidateCandidate(c));
    if (!abs_paths.insert(c.absolute_path.ToString()).second) {
      return Status::InvalidArgument(
          "two candidates share the absolute path '" +
          c.absolute_path.ToString() + "'");
    }
  }
  return Status::Ok();
}

CandidateBuilder::CandidateBuilder(std::string name,
                                   std::string absolute_path) {
  candidate_.name = std::move(name);
  candidate_.absolute_path_str = absolute_path;
  auto parsed = xml::XPath::Parse(absolute_path);
  if (parsed.ok()) {
    if (parsed->SelectsValue()) {
      first_error_ = Status::InvalidArgument(
          "candidate path must select elements: " + absolute_path);
    } else {
      candidate_.absolute_path = std::move(parsed).value();
    }
  } else {
    first_error_ = parsed.status();
  }
}

CandidateBuilder& CandidateBuilder::Path(int id, std::string rel_path) {
  auto parsed = xml::XPath::Parse(rel_path);
  if (!parsed.ok()) {
    if (first_error_.ok()) first_error_ = parsed.status();
    return *this;
  }
  PathEntry entry;
  entry.id = id;
  entry.rel_path = std::move(rel_path);
  entry.path = std::move(parsed).value();
  candidate_.paths.push_back(std::move(entry));
  return *this;
}

CandidateBuilder& CandidateBuilder::Od(int pid, double relevance,
                                       std::string similarity) {
  OdEntry entry;
  entry.pid = pid;
  entry.relevance = relevance;
  entry.similarity_name = similarity;
  auto fn = text::GetSimilarity(similarity);
  if (!fn.ok()) {
    if (first_error_.ok()) first_error_ = fn.status();
    return *this;
  }
  entry.similarity = std::move(fn).value();
  candidate_.od.push_back(std::move(entry));
  return *this;
}

CandidateBuilder& CandidateBuilder::Key(
    std::vector<std::pair<int, std::string>> parts) {
  KeyDef key;
  int order = 1;
  for (auto& [pid, pattern_str] : parts) {
    auto pattern = KeyPattern::Parse(pattern_str);
    if (!pattern.ok()) {
      if (first_error_.ok()) first_error_ = pattern.status();
      return *this;
    }
    KeyPartRef part;
    part.pid = pid;
    part.order = order++;
    part.pattern = std::move(pattern).value();
    key.parts.push_back(std::move(part));
  }
  candidate_.keys.push_back(std::move(key));
  return *this;
}

CandidateBuilder& CandidateBuilder::Window(size_t window_size) {
  candidate_.window_size = window_size;
  return *this;
}

CandidateBuilder& CandidateBuilder::AdaptiveWindow(size_t prefix_len,
                                                   size_t max_window) {
  candidate_.window_policy = WindowPolicy::kAdaptivePrefix;
  candidate_.adaptive_prefix_len = prefix_len;
  candidate_.max_window = max_window;
  return *this;
}

CandidateBuilder& CandidateBuilder::OdThreshold(double threshold) {
  candidate_.classifier.od_threshold = threshold;
  return *this;
}

CandidateBuilder& CandidateBuilder::DescThreshold(double threshold) {
  candidate_.classifier.desc_threshold = threshold;
  return *this;
}

CandidateBuilder& CandidateBuilder::OdWeight(double weight) {
  candidate_.classifier.od_weight = weight;
  return *this;
}

CandidateBuilder& CandidateBuilder::Mode(CombineMode mode) {
  candidate_.classifier.mode = mode;
  return *this;
}

CandidateBuilder& CandidateBuilder::UseDescendants(bool use) {
  candidate_.use_descendants = use;
  return *this;
}

CandidateBuilder& CandidateBuilder::ExactOdPrepass(bool enable) {
  candidate_.exact_od_prepass = enable;
  return *this;
}

CandidateBuilder& CandidateBuilder::TheoryRule(
    std::vector<std::pair<int, double>> conditions) {
  Rule rule;
  for (const auto& [pid, min_similarity] : conditions) {
    rule.conditions.push_back({pid, min_similarity});
  }
  candidate_.theory.AddRule(std::move(rule));
  return *this;
}

util::Result<CandidateConfig> CandidateBuilder::Build() {
  if (!first_error_.ok()) return first_error_;
  return std::move(candidate_);
}

}  // namespace sxnm::core
