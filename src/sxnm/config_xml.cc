#include "sxnm/config_xml.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iterator>

#include "util/fault_injection.h"
#include "util/string_util.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace sxnm::core {

namespace {

using util::Result;
using util::Status;
using xml::Element;

Result<int> RequiredIntAttr(const Element& e, std::string_view name) {
  const std::string* value = e.FindAttribute(name);
  if (value == nullptr) {
    return Status::ParseError("<" + e.name() + "> missing attribute '" +
                              std::string(name) + "'");
  }
  int parsed = util::ParseNonNegativeInt(util::TrimView(*value));
  if (parsed < 0) {
    return Status::ParseError("<" + e.name() + "> attribute '" +
                              std::string(name) + "' is not a number: " +
                              *value);
  }
  return parsed;
}

Result<std::string> RequiredAttr(const Element& e, std::string_view name) {
  const std::string* value = e.FindAttribute(name);
  if (value == nullptr) {
    return Status::ParseError("<" + e.name() + "> missing attribute '" +
                              std::string(name) + "'");
  }
  return *value;
}

Result<bool> BoolAttrOr(const Element& e, std::string_view name,
                        bool fallback) {
  const std::string* value = e.FindAttribute(name);
  if (value == nullptr) return fallback;
  std::string v = util::ToLower(util::Trim(*value));
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  return Status::ParseError("<" + e.name() + "> attribute '" +
                            std::string(name) + "' is not a boolean: " +
                            *value);
}

// Parses a non-negative size attribute (supports the full size_t range:
// byte limits exceed int). Returns `fallback` when absent.
Result<size_t> SizeAttrOr(const Element& e, std::string_view name,
                          size_t fallback) {
  const std::string* value = e.FindAttribute(name);
  if (value == nullptr) return fallback;
  std::string trimmed(util::TrimView(*value));
  if (trimmed.empty() ||
      trimmed.find_first_not_of("0123456789") != std::string::npos) {
    return Status::ParseError("<" + e.name() + "> attribute '" +
                              std::string(name) +
                              "' is not a non-negative number: " + *value);
  }
  errno = 0;
  unsigned long long parsed = std::strtoull(trimmed.c_str(), nullptr, 10);
  if (errno != 0) {
    return Status::ParseError("<" + e.name() + "> attribute '" +
                              std::string(name) + "' is out of range: " +
                              *value);
  }
  return static_cast<size_t>(parsed);
}

// <limits max-depth=".." max-input-bytes=".." max-nodes=".." max-attrs=".."
//         max-comparisons=".." recover="false"/>
Status ParseLimits(const Element& elem, RunLimits& limits) {
  auto max_depth = SizeAttrOr(elem, "max-depth", limits.max_depth);
  if (!max_depth.ok()) return max_depth.status();
  limits.max_depth = max_depth.value();
  auto max_bytes = SizeAttrOr(elem, "max-input-bytes", limits.max_input_bytes);
  if (!max_bytes.ok()) return max_bytes.status();
  limits.max_input_bytes = max_bytes.value();
  auto max_nodes = SizeAttrOr(elem, "max-nodes", limits.max_nodes);
  if (!max_nodes.ok()) return max_nodes.status();
  limits.max_nodes = max_nodes.value();
  auto max_attrs = SizeAttrOr(elem, "max-attrs", limits.max_attr_count);
  if (!max_attrs.ok()) return max_attrs.status();
  limits.max_attr_count = max_attrs.value();
  auto max_cmp = SizeAttrOr(elem, "max-comparisons", limits.max_comparisons);
  if (!max_cmp.ok()) return max_cmp.status();
  limits.max_comparisons = max_cmp.value();
  auto recover = BoolAttrOr(elem, "recover", limits.recover_parse);
  if (!recover.ok()) return recover.status();
  limits.recover_parse = recover.value();
  return Status::Ok();
}

// <deadline seconds="1.5" comparisons-per-second="1000000"/>
Status ParseDeadline(const Element& elem, RunLimits& limits) {
  if (const std::string* seconds = elem.FindAttribute("seconds")) {
    double parsed = util::ParseDoubleOr(*seconds, -1.0);
    if (parsed < 0.0) {
      return Status::ParseError(
          "<deadline> attribute 'seconds' is not a non-negative number: " +
          *seconds);
    }
    limits.deadline_seconds = parsed;
  }
  if (const std::string* rate = elem.FindAttribute("comparisons-per-second")) {
    double parsed = util::ParseDoubleOr(*rate, -1.0);
    if (parsed < 0.0) {
      return Status::ParseError(
          "<deadline> attribute 'comparisons-per-second' is not a "
          "non-negative number: " +
          *rate);
    }
    limits.comparisons_per_second = parsed;
  }
  return Status::Ok();
}

// <checkpoint path="run.ckpt" every-pass="true"/>
Status ParseCheckpoint(const Element& elem, CheckpointConfig& checkpoint) {
  checkpoint.path = elem.AttributeOr("path", "");
  if (checkpoint.path.empty()) {
    return Status::ParseError(
        "<checkpoint> requires a non-empty 'path' attribute");
  }
  auto every_pass = BoolAttrOr(elem, "every-pass", checkpoint.every_pass);
  if (!every_pass.ok()) return every_pass.status();
  checkpoint.every_pass = every_pass.value();
  return Status::Ok();
}

// <observability metrics="on" trace="trace.json" report="report.json"
//                 explain="explain.ndjson" telemetry="run.tlm.ndjsonl"
//                 telemetry-interval-ms="250" profile="run.folded"/>
//
// `profile-hz` once set the rate of the removed sampling profiler. Old
// configs that carry it still load: the value must still be a positive
// number, but it is ignored and `*profile_rate_seen` is set.
Result<ObservabilityConfig> ParseObservability(const Element& elem,
                                               bool* profile_rate_seen) {
  ObservabilityConfig obs;
  auto metrics = BoolAttrOr(elem, "metrics", false);
  if (!metrics.ok()) return metrics.status();
  obs.metrics = metrics.value();
  obs.trace_path = elem.AttributeOr("trace", "");
  obs.report_path = elem.AttributeOr("report", "");
  obs.explain_path = elem.AttributeOr("explain", "");
  obs.telemetry_path = elem.AttributeOr("telemetry", "");
  if (const std::string* interval =
          elem.FindAttribute("telemetry-interval-ms")) {
    double parsed = util::ParseDoubleOr(*interval, -1.0);
    if (parsed <= 0.0) {
      return Status::ParseError(
          "<observability> attribute 'telemetry-interval-ms' is not a "
          "positive number: " +
          *interval);
    }
    obs.telemetry_interval_ms = parsed;
  }
  obs.profile_path = elem.AttributeOr("profile", "");
  if (const std::string* hz = elem.FindAttribute("profile-hz")) {
    double parsed = util::ParseDoubleOr(*hz, -1.0);
    if (parsed <= 0.0) {
      return Status::ParseError(
          "<observability> attribute 'profile-hz' is not a positive "
          "number: " +
          *hz);
    }
    *profile_rate_seen = true;
  }
  return obs;
}

// Candidate attributes that once switched removed comparison shortcuts
// (subtree interning, the batched pre-filter). Old configs that carry
// them still load: the value must still be a boolean, but it is ignored.
constexpr std::string_view kDeprecatedCandidateAttrs[] = {"dag",
                                                          "batch-scoring"};

// `deprecated_seen[i]` is set when the candidate carries
// kDeprecatedCandidateAttrs[i].
Result<CandidateConfig> ParseCandidate(const Element& elem,
                                       bool* deprecated_seen) {
  auto name = RequiredAttr(elem, "name");
  if (!name.ok()) return name.status();
  auto path = RequiredAttr(elem, "path");
  if (!path.ok()) return path.status();

  CandidateBuilder builder(name.value(), path.value());

  if (const std::string* window = elem.FindAttribute("window")) {
    int w = util::ParseNonNegativeInt(util::TrimView(*window));
    if (w < 2) {
      return Status::ParseError("candidate '" + name.value() +
                                "': bad window '" + *window + "'");
    }
    builder.Window(static_cast<size_t>(w));
  }
  auto use_desc = BoolAttrOr(elem, "use-descendants", true);
  if (!use_desc.ok()) return use_desc.status();
  builder.UseDescendants(use_desc.value());
  auto prepass = BoolAttrOr(elem, "exact-od-prepass", false);
  if (!prepass.ok()) return prepass.status();
  builder.ExactOdPrepass(prepass.value());
  auto fast_paths = BoolAttrOr(elem, "fast-paths", true);
  if (!fast_paths.ok()) return fast_paths.status();
  builder.FastPaths(fast_paths.value());
  for (size_t i = 0; i < std::size(kDeprecatedCandidateAttrs); ++i) {
    if (elem.FindAttribute(kDeprecatedCandidateAttrs[i]) == nullptr) continue;
    auto ignored = BoolAttrOr(elem, kDeprecatedCandidateAttrs[i], false);
    if (!ignored.ok()) return ignored.status();
    deprecated_seen[i] = true;
  }

  auto policy = ParseWindowPolicy(elem.AttributeOr("window-policy", "fixed"));
  if (!policy.ok()) return policy.status();
  if (policy.value() == WindowPolicy::kAdaptivePrefix) {
    int prefix = util::ParseNonNegativeInt(
        util::TrimView(elem.AttributeOr("adaptive-prefix", "4")));
    int max_window = util::ParseNonNegativeInt(
        util::TrimView(elem.AttributeOr("max-window", "100")));
    if (prefix < 1 || max_window < 2) {
      return Status::ParseError("candidate '" + name.value() +
                                "': bad adaptive window attributes");
    }
    builder.AdaptiveWindow(static_cast<size_t>(prefix),
                           static_cast<size_t>(max_window));
  }

  // <paths>
  const Element* paths = elem.FirstChildElement("paths");
  if (paths != nullptr) {
    for (const Element* p : paths->ChildElements("path")) {
      auto id = RequiredIntAttr(*p, "id");
      if (!id.ok()) return id.status();
      auto rel = RequiredAttr(*p, "rel");
      if (!rel.ok()) return rel.status();
      builder.Path(id.value(), rel.value());
    }
  }

  // <od>
  const Element* od = elem.FirstChildElement("od");
  if (od != nullptr) {
    for (const Element* entry : od->ChildElements("entry")) {
      auto pid = RequiredIntAttr(*entry, "pid");
      if (!pid.ok()) return pid.status();
      double relevance = util::ParseDoubleOr(
          entry->AttributeOr("relevance", "1"), -1.0);
      if (relevance <= 0.0) {
        return Status::ParseError("candidate '" + name.value() +
                                  "': bad OD relevance");
      }
      builder.Od(pid.value(), relevance,
                 entry->AttributeOr("similarity", "edit"));
    }
  }

  // <keys>
  const Element* keys = elem.FirstChildElement("keys");
  if (keys != nullptr) {
    for (const Element* key : keys->ChildElements("key")) {
      // Collect parts with explicit order, then sort.
      struct RawPart {
        int pid;
        int order;
        std::string pattern;
      };
      std::vector<RawPart> raw;
      int implicit_order = 1;
      for (const Element* part : key->ChildElements("part")) {
        auto pid = RequiredIntAttr(*part, "pid");
        if (!pid.ok()) return pid.status();
        auto pattern = RequiredAttr(*part, "pattern");
        if (!pattern.ok()) return pattern.status();
        int order = implicit_order++;
        if (part->HasAttribute("order")) {
          auto parsed = RequiredIntAttr(*part, "order");
          if (!parsed.ok()) return parsed.status();
          order = parsed.value();
        }
        raw.push_back({pid.value(), order, pattern.value()});
      }
      std::stable_sort(raw.begin(), raw.end(),
                       [](const RawPart& a, const RawPart& b) {
                         return a.order < b.order;
                       });
      std::vector<std::pair<int, std::string>> parts;
      parts.reserve(raw.size());
      for (auto& r : raw) parts.emplace_back(r.pid, std::move(r.pattern));
      builder.Key(std::move(parts));
    }
  }

  // <rules> (equational theory)
  const Element* rules = elem.FirstChildElement("rules");
  if (rules != nullptr) {
    for (const Element* rule : rules->ChildElements("rule")) {
      std::vector<std::pair<int, double>> conditions;
      for (const Element* cond : rule->ChildElements("cond")) {
        double min_sim =
            util::ParseDoubleOr(cond->AttributeOr("min", ""), -1.0);
        if (min_sim < 0.0 || min_sim > 1.0) {
          return Status::ParseError("candidate '" + name.value() +
                                    "': rule condition needs min in [0,1]");
        }
        if (cond->HasAttribute("pid")) {
          auto pid = RequiredIntAttr(*cond, "pid");
          if (!pid.ok()) return pid.status();
          conditions.emplace_back(pid.value(), min_sim);
        } else if (cond->AttributeOr("on", "") == "descendants") {
          conditions.emplace_back(RuleCondition::kDescendants, min_sim);
        } else {
          return Status::ParseError(
              "candidate '" + name.value() +
              "': rule condition needs pid=... or on=\"descendants\"");
        }
      }
      builder.TheoryRule(std::move(conditions));
    }
  }

  // <classifier>
  const Element* classifier = elem.FirstChildElement("classifier");
  if (classifier != nullptr) {
    auto mode = ParseCombineMode(classifier->AttributeOr("mode", "average"));
    if (!mode.ok()) return mode.status();
    builder.Mode(mode.value());
    builder.OdThreshold(util::ParseDoubleOr(
        classifier->AttributeOr("od-threshold", "0.75"), 0.75));
    builder.DescThreshold(util::ParseDoubleOr(
        classifier->AttributeOr("desc-threshold", "0.5"), 0.5));
    builder.OdWeight(util::ParseDoubleOr(
        classifier->AttributeOr("od-weight", "0.5"), 0.5));
  }

  return builder.Build();
}

// Byte size with an optional binary-multiple suffix: "268435456",
// "64K", "256M", "4G" (case-insensitive). Used by the memory-budget
// attribute, whose values routinely exceed 32 bits.
util::Result<uint64_t> ParseByteSize(std::string_view text) {
  uint64_t multiplier = 1;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k': case 'K': multiplier = uint64_t{1} << 10; break;
      case 'm': case 'M': multiplier = uint64_t{1} << 20; break;
      case 'g': case 'G': multiplier = uint64_t{1} << 30; break;
      default: break;
    }
    if (multiplier != 1) text.remove_suffix(1);
  }
  if (text.empty()) {
    return Status::ParseError("bad memory-budget: missing number");
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::ParseError("bad memory-budget digit '" +
                                std::string(1, c) + "'");
    }
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::ParseError("memory-budget overflows 64 bits");
    }
    value = value * 10 + digit;
  }
  if (multiplier != 1 && value > UINT64_MAX / multiplier) {
    return Status::ParseError("memory-budget overflows 64 bits");
  }
  return value * multiplier;
}

}  // namespace

util::Result<Config> ConfigFromXml(const xml::Document& doc,
                                   std::vector<std::string>* warnings) {
  if (util::FaultInjector::Instance().ShouldFail("config.load")) {
    return Status::Internal("injected fault: configuration load failed");
  }
  if (doc.root() == nullptr) {
    return Status::ParseError("empty configuration document");
  }
  if (doc.root()->name() != "sxnm-config") {
    return Status::ParseError("expected root element <sxnm-config>, found <" +
                              doc.root()->name() + ">");
  }
  Config config;
  if (const std::string* threads = doc.root()->FindAttribute("num-threads")) {
    int n = util::ParseNonNegativeInt(util::TrimView(*threads));
    if (n < 0) {
      return Status::ParseError("bad num-threads '" + *threads +
                                "' (0 = all hardware threads)");
    }
    config.set_num_threads(static_cast<size_t>(n));
  }
  if (const std::string* shards = doc.root()->FindAttribute("shards")) {
    int n = util::ParseNonNegativeInt(util::TrimView(*shards));
    if (n < 1) {
      return Status::ParseError("bad shards '" + *shards +
                                "' (must be a positive integer)");
    }
    config.set_shards(static_cast<size_t>(n));
  }
  if (const std::string* budget = doc.root()->FindAttribute("memory-budget")) {
    auto bytes = ParseByteSize(util::TrimView(*budget));
    if (!bytes.ok()) return bytes.status();
    config.set_memory_budget_bytes(*bytes);
  }
  if (const std::string* dir = doc.root()->FindAttribute("spill-dir")) {
    config.set_spill_dir(std::string(util::TrimView(*dir)));
  }
  bool profile_rate_seen = false;
  if (const Element* obs = doc.root()->FirstChildElement("observability")) {
    auto parsed = ParseObservability(*obs, &profile_rate_seen);
    if (!parsed.ok()) return parsed.status();
    config.mutable_observability() = std::move(parsed).value();
  }
  if (const Element* limits = doc.root()->FirstChildElement("limits")) {
    SXNM_RETURN_IF_ERROR(ParseLimits(*limits, config.mutable_limits()));
  }
  if (const Element* deadline = doc.root()->FirstChildElement("deadline")) {
    SXNM_RETURN_IF_ERROR(ParseDeadline(*deadline, config.mutable_limits()));
  }
  if (const Element* ckpt = doc.root()->FirstChildElement("checkpoint")) {
    SXNM_RETURN_IF_ERROR(ParseCheckpoint(*ckpt, config.mutable_checkpoint()));
  }
  bool deprecated_seen[std::size(kDeprecatedCandidateAttrs)] = {};
  for (const Element* elem : doc.root()->ChildElements("candidate")) {
    auto candidate = ParseCandidate(*elem, deprecated_seen);
    if (!candidate.ok()) return candidate.status();
    SXNM_RETURN_IF_ERROR(config.AddCandidate(std::move(candidate).value()));
  }
  SXNM_RETURN_IF_ERROR(config.Validate());
  if (profile_rate_seen && warnings != nullptr) {
    warnings->push_back(
        "observability attribute 'profile-hz' is deprecated and ignored: "
        "profiles now record exact per-span CPU time instead of sampling");
  }
  for (size_t i = 0; i < std::size(kDeprecatedCandidateAttrs); ++i) {
    if (deprecated_seen[i] && warnings != nullptr) {
      warnings->push_back("candidate attribute '" +
                          std::string(kDeprecatedCandidateAttrs[i]) +
                          "' is deprecated and ignored: the comparison "
                          "shortcut it switched was removed");
    }
  }
  return config;
}

util::Result<Config> ConfigFromXmlString(std::string_view text,
                                         std::vector<std::string>* warnings) {
  auto doc = xml::Parse(text);
  if (!doc.ok()) return doc.status();
  return ConfigFromXml(doc.value(), warnings);
}

util::Result<Config> ConfigFromXmlFile(const std::string& path,
                                       std::vector<std::string>* warnings) {
  auto doc = xml::ParseFile(path);
  if (!doc.ok()) return doc.status();
  return ConfigFromXml(doc.value(), warnings);
}

xml::Document ConfigToXml(const Config& config) {
  auto root = std::make_unique<Element>("sxnm-config");
  if (config.num_threads() != 1) {
    root->SetAttribute("num-threads", std::to_string(config.num_threads()));
  }
  if (config.shards() != 1) {
    root->SetAttribute("shards", std::to_string(config.shards()));
  }
  if (config.memory_budget_bytes() != 0) {
    // Serialized as plain bytes: round-trips every value exactly,
    // including ones that did not arrive with a K/M/G suffix.
    root->SetAttribute("memory-budget",
                       std::to_string(config.memory_budget_bytes()));
  }
  if (!config.spill_dir().empty()) {
    root->SetAttribute("spill-dir", config.spill_dir());
  }
  const ObservabilityConfig& obs = config.observability();
  const ObservabilityConfig obs_defaults;
  if (obs.metrics || !obs.trace_path.empty() || !obs.report_path.empty() ||
      !obs.explain_path.empty() || !obs.telemetry_path.empty() ||
      obs.telemetry_interval_ms != obs_defaults.telemetry_interval_ms ||
      !obs.profile_path.empty()) {
    Element* e = root->AddElement("observability");
    e->SetAttribute("metrics", obs.metrics ? "on" : "off");
    if (!obs.trace_path.empty()) e->SetAttribute("trace", obs.trace_path);
    if (!obs.report_path.empty()) e->SetAttribute("report", obs.report_path);
    if (!obs.explain_path.empty()) {
      e->SetAttribute("explain", obs.explain_path);
    }
    if (!obs.telemetry_path.empty()) {
      e->SetAttribute("telemetry", obs.telemetry_path);
    }
    if (obs.telemetry_interval_ms != obs_defaults.telemetry_interval_ms) {
      e->SetAttribute("telemetry-interval-ms",
                      util::FormatDouble(obs.telemetry_interval_ms, 6));
    }
    if (!obs.profile_path.empty()) {
      e->SetAttribute("profile", obs.profile_path);
    }
  }
  const RunLimits& limits = config.limits();
  const RunLimits defaults;
  if (limits.max_depth != defaults.max_depth ||
      limits.max_input_bytes != defaults.max_input_bytes ||
      limits.max_nodes != defaults.max_nodes ||
      limits.max_attr_count != defaults.max_attr_count ||
      limits.max_comparisons != defaults.max_comparisons ||
      limits.recover_parse != defaults.recover_parse) {
    Element* e = root->AddElement("limits");
    e->SetAttribute("max-depth", std::to_string(limits.max_depth));
    e->SetAttribute("max-input-bytes",
                    std::to_string(limits.max_input_bytes));
    e->SetAttribute("max-nodes", std::to_string(limits.max_nodes));
    e->SetAttribute("max-attrs", std::to_string(limits.max_attr_count));
    if (limits.max_comparisons != 0) {
      e->SetAttribute("max-comparisons",
                      std::to_string(limits.max_comparisons));
    }
    e->SetAttribute("recover", limits.recover_parse ? "true" : "false");
  }
  if (limits.deadline_seconds > 0.0 ||
      limits.comparisons_per_second != defaults.comparisons_per_second) {
    Element* e = root->AddElement("deadline");
    e->SetAttribute("seconds",
                    util::FormatDouble(limits.deadline_seconds, 6));
    e->SetAttribute("comparisons-per-second",
                    util::FormatDouble(limits.comparisons_per_second, 6));
  }
  if (config.checkpoint().enabled()) {
    Element* e = root->AddElement("checkpoint");
    e->SetAttribute("path", config.checkpoint().path);
    e->SetAttribute("every-pass",
                    config.checkpoint().every_pass ? "true" : "false");
  }
  for (const CandidateConfig& c : config.candidates()) {
    Element* cand = root->AddElement("candidate");
    cand->SetAttribute("name", c.name);
    cand->SetAttribute("path", c.absolute_path.ToString());
    cand->SetAttribute("window", std::to_string(c.window_size));
    cand->SetAttribute("use-descendants",
                       c.use_descendants ? "true" : "false");
    cand->SetAttribute("exact-od-prepass",
                       c.exact_od_prepass ? "true" : "false");
    cand->SetAttribute("fast-paths", c.enable_fast_paths ? "true" : "false");
    cand->SetAttribute("window-policy", WindowPolicyName(c.window_policy));
    if (c.window_policy == WindowPolicy::kAdaptivePrefix) {
      cand->SetAttribute("adaptive-prefix",
                         std::to_string(c.adaptive_prefix_len));
      cand->SetAttribute("max-window", std::to_string(c.max_window));
    }

    Element* paths = cand->AddElement("paths");
    for (const PathEntry& p : c.paths) {
      Element* path = paths->AddElement("path");
      path->SetAttribute("id", std::to_string(p.id));
      path->SetAttribute("rel", p.path.ToString());
    }

    Element* od = cand->AddElement("od");
    for (const OdEntry& entry : c.od) {
      Element* e = od->AddElement("entry");
      e->SetAttribute("pid", std::to_string(entry.pid));
      e->SetAttribute("relevance", util::FormatDouble(entry.relevance, 4));
      e->SetAttribute("similarity", entry.similarity_name);
    }

    Element* keys = cand->AddElement("keys");
    for (const KeyDef& key : c.keys) {
      Element* k = keys->AddElement("key");
      for (const KeyPartRef& part : key.parts) {
        Element* p = k->AddElement("part");
        p->SetAttribute("pid", std::to_string(part.pid));
        p->SetAttribute("order", std::to_string(part.order));
        p->SetAttribute("pattern", part.pattern.ToString());
      }
    }

    if (!c.theory.empty()) {
      Element* rules = cand->AddElement("rules");
      for (const Rule& rule : c.theory.rules()) {
        Element* r = rules->AddElement("rule");
        for (const RuleCondition& cond : rule.conditions) {
          Element* e = r->AddElement("cond");
          if (cond.pid == RuleCondition::kDescendants) {
            e->SetAttribute("on", "descendants");
          } else {
            e->SetAttribute("pid", std::to_string(cond.pid));
          }
          e->SetAttribute("min",
                          util::FormatDouble(cond.min_similarity, 4));
        }
      }
    }

    Element* classifier = cand->AddElement("classifier");
    classifier->SetAttribute("mode", CombineModeName(c.classifier.mode));
    classifier->SetAttribute(
        "od-threshold", util::FormatDouble(c.classifier.od_threshold, 4));
    classifier->SetAttribute(
        "desc-threshold", util::FormatDouble(c.classifier.desc_threshold, 4));
    classifier->SetAttribute("od-weight",
                             util::FormatDouble(c.classifier.od_weight, 4));
  }

  xml::Document doc;
  doc.SetRoot(std::move(root));
  return doc;
}

std::string ConfigToXmlString(const Config& config) {
  return xml::WriteDocument(ConfigToXml(config));
}

}  // namespace sxnm::core
