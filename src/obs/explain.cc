#include "obs/explain.h"

#include <cstdio>

#include "persist/io.h"

namespace sxnm::obs {

namespace {

void AppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Same %.9g rendering the metrics JSON uses, so scores round-trip the
// identical way across every export surface.
void AppendDouble(std::string& out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  out += buf;
}

void AppendSizeList(std::string& out, const std::vector<size_t>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
}

}  // namespace

std::string_view PairProvenanceName(PairProvenance provenance) {
  switch (provenance) {
    case PairProvenance::kOwned:
      return "owned";
    case PairProvenance::kPrepass:
      return "prepass";
  }
  return "unknown";
}

void ExplainLog::AppendCandidate(std::string_view candidate, size_t depth,
                                 size_t num_instances, size_t num_keys,
                                 size_t window, std::string_view window_policy,
                                 double threshold) {
  if (!enabled_) return;
  text_ += "{\"type\":\"candidate\",\"candidate\":";
  AppendEscaped(text_, candidate);
  text_ += ",\"depth\":" + std::to_string(depth);
  text_ += ",\"instances\":" + std::to_string(num_instances);
  text_ += ",\"keys\":" + std::to_string(num_keys);
  text_ += ",\"window\":" + std::to_string(window);
  text_ += ",\"window_policy\":";
  AppendEscaped(text_, window_policy);
  text_ += ",\"threshold\":";
  AppendDouble(text_, threshold);
  text_ += "}\n";
}

void ExplainLog::AppendInstance(std::string_view candidate, size_t ordinal,
                                size_t eid,
                                const std::vector<std::string>& keys,
                                const std::vector<size_t>& ranks) {
  if (!enabled_) return;
  text_ += "{\"type\":\"instance\",\"candidate\":";
  AppendEscaped(text_, candidate);
  text_ += ",\"ordinal\":" + std::to_string(ordinal);
  text_ += ",\"eid\":" + std::to_string(eid);
  text_ += ",\"keys\":[";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) text_ += ',';
    AppendEscaped(text_, keys[i]);
  }
  text_ += "],\"ranks\":";
  AppendSizeList(text_, ranks);
  text_ += "}\n";
}

void ExplainLog::AppendPair(std::string_view candidate, int pass, size_t a,
                            size_t b, size_t eid_a, size_t eid_b,
                            size_t window_distance, PairProvenance provenance,
                            const PairExplain* detail, bool verdict) {
  if (!enabled_) return;
  switch (provenance) {
    case PairProvenance::kOwned:
      ++owned_pairs_;
      break;
    case PairProvenance::kPrepass:
      ++prepass_pairs_;
      break;
  }
  text_ += "{\"type\":\"pair\",\"candidate\":";
  AppendEscaped(text_, candidate);
  text_ += ",\"pass\":" + std::to_string(pass);
  text_ += ",\"a\":" + std::to_string(a);
  text_ += ",\"b\":" + std::to_string(b);
  text_ += ",\"eid_a\":" + std::to_string(eid_a);
  text_ += ",\"eid_b\":" + std::to_string(eid_b);
  text_ += ",\"window_distance\":" + std::to_string(window_distance);
  text_ += ",\"provenance\":";
  AppendEscaped(text_, PairProvenanceName(provenance));
  if (detail != nullptr) {
    text_ += ",\"components\":[";
    for (size_t i = 0; i < detail->components.size(); ++i) {
      const ExplainOdComponent& c = detail->components[i];
      if (i > 0) text_ += ',';
      text_ += "{\"index\":" + std::to_string(c.index);
      text_ += ",\"weight\":";
      AppendDouble(text_, c.weight);
      text_ += ",\"value_a\":";
      AppendEscaped(text_, c.value_a);
      text_ += ",\"value_b\":";
      AppendEscaped(text_, c.value_b);
      text_ += ",\"ref_a\":" + std::to_string(c.ref_a);
      text_ += ",\"ref_b\":" + std::to_string(c.ref_b);
      text_ += ",\"comparable\":";
      text_ += c.comparable ? "true" : "false";
      text_ += ",\"interned_equal\":";
      text_ += c.interned_equal ? "true" : "false";
      text_ += ",\"bailout\":";
      text_ += c.bailout ? "true" : "false";
      text_ += ",\"edit_distance\":" + std::to_string(c.edit_distance);
      text_ += ",\"sim\":";
      AppendDouble(text_, c.sim);
      text_ += '}';
    }
    text_ += "],\"descendants\":[";
    for (size_t i = 0; i < detail->descendants.size(); ++i) {
      const ExplainDescSlot& d = detail->descendants[i];
      if (i > 0) text_ += ',';
      text_ += "{\"child\":" + std::to_string(d.child);
      text_ += ",\"size_a\":" + std::to_string(d.size_a);
      text_ += ",\"size_b\":" + std::to_string(d.size_b);
      text_ += ",\"intersection\":" + std::to_string(d.intersection);
      text_ += ",\"union\":" + std::to_string(d.union_size);
      text_ += ",\"jaccard\":";
      AppendDouble(text_, d.jaccard);
      text_ += '}';
    }
    text_ += "],\"theory_equal\":";
    text_ += detail->theory_equal ? "true" : "false";
    text_ += ",\"od_valid\":";
    text_ += detail->od_valid ? "true" : "false";
    text_ += ",\"od_sim\":";
    AppendDouble(text_, detail->od_sim);
    text_ += ",\"desc_valid\":";
    text_ += detail->desc_valid ? "true" : "false";
    text_ += ",\"desc_sim\":";
    AppendDouble(text_, detail->desc_sim);
    text_ += ",\"score\":";
    AppendDouble(text_, detail->score);
    text_ += ",\"threshold\":";
    AppendDouble(text_, detail->threshold);
  }
  text_ += ",\"verdict\":";
  text_ += verdict ? "true" : "false";
  text_ += "}\n";
}

void ExplainLog::AppendLog(const ExplainLog& other) {
  if (!enabled_) return;
  text_ += other.text_;
  owned_pairs_ += other.owned_pairs_;
  prepass_pairs_ += other.prepass_pairs_;
}

void ExplainLog::AppendShed(std::string_view candidate, int pass, bool skipped,
                            size_t window_configured, size_t window_used,
                            size_t rows, size_t pairs_planned,
                            size_t pairs_elided) {
  if (!enabled_) return;
  text_ += "{\"type\":\"shed\",\"candidate\":";
  AppendEscaped(text_, candidate);
  text_ += ",\"pass\":" + std::to_string(pass);
  text_ += ",\"provenance\":\"shed\"";
  text_ += ",\"skipped\":";
  text_ += skipped ? "true" : "false";
  text_ += ",\"window_configured\":" + std::to_string(window_configured);
  text_ += ",\"window_used\":" + std::to_string(window_used);
  text_ += ",\"rows\":" + std::to_string(rows);
  text_ += ",\"pairs_planned\":" + std::to_string(pairs_planned);
  text_ += ",\"pairs_elided\":" + std::to_string(pairs_elided);
  text_ += "}\n";
}

void ExplainLog::AppendMerge(std::string_view candidate, size_t a, size_t b,
                             size_t root_a, size_t root_b, size_t root,
                             bool merged) {
  if (!enabled_) return;
  text_ += "{\"type\":\"merge\",\"candidate\":";
  AppendEscaped(text_, candidate);
  text_ += ",\"a\":" + std::to_string(a);
  text_ += ",\"b\":" + std::to_string(b);
  text_ += ",\"root_a\":" + std::to_string(root_a);
  text_ += ",\"root_b\":" + std::to_string(root_b);
  text_ += ",\"root\":" + std::to_string(root);
  text_ += ",\"merged\":";
  text_ += merged ? "true" : "false";
  text_ += "}\n";
}

void ExplainLog::AppendCluster(std::string_view candidate, size_t cluster,
                               const std::vector<size_t>& members) {
  if (!enabled_) return;
  text_ += "{\"type\":\"cluster\",\"candidate\":";
  AppendEscaped(text_, candidate);
  text_ += ",\"cluster\":" + std::to_string(cluster);
  text_ += ",\"members\":";
  AppendSizeList(text_, members);
  text_ += "}\n";
}

void ExplainLog::Restore(std::string text, uint64_t owned_pairs,
                         uint64_t prepass_pairs) {
  if (!enabled_) return;
  text_ = std::move(text);
  owned_pairs_ = owned_pairs;
  prepass_pairs_ = prepass_pairs;
}

util::Status ExplainLog::WriteFile(const std::string& path) const {
  // End-of-run artifact: committed atomically so a crash mid-export never
  // leaves a half-written NDJSON file that diff-based tooling would trust.
  // (A future live streaming mode would append instead — see persist/io.h.)
  return persist::AtomicWriteFile(path, text_);
}

}  // namespace sxnm::obs
