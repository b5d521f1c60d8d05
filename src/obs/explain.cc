#include "obs/explain.h"

#include <charconv>
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
// identical way across every export surface. std::to_chars with a
// precision is specified as printf's %.*g in the "C" locale.
void AppendDouble(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, 9)
                      .ptr);
}

// Decimal rendering (as std::to_string), appended without a temporary.
template <typename Int>
void AppendInt(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// Appends `key` (a literal such as `,"pass":`) followed by `value`.
template <typename Int>
void AppendField(std::string& out, std::string_view key, Int value) {
  out += key;
  AppendInt(out, value);
}

void AppendSizeList(std::string& out, const std::vector<size_t>& values) {
  out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    AppendInt(out, values[i]);
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
  AppendField(text_, ",\"depth\":", depth);
  AppendField(text_, ",\"instances\":", num_instances);
  AppendField(text_, ",\"keys\":", num_keys);
  AppendField(text_, ",\"window\":", window);
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
  AppendField(text_, ",\"ordinal\":", ordinal);
  AppendField(text_, ",\"eid\":", eid);
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
  AppendField(text_, ",\"pass\":", pass);
  AppendField(text_, ",\"a\":", a);
  AppendField(text_, ",\"b\":", b);
  AppendField(text_, ",\"eid_a\":", eid_a);
  AppendField(text_, ",\"eid_b\":", eid_b);
  AppendField(text_, ",\"window_distance\":", window_distance);
  text_ += ",\"provenance\":";
  AppendEscaped(text_, PairProvenanceName(provenance));
  if (detail != nullptr) {
    text_ += ",\"components\":[";
    for (size_t i = 0; i < detail->components.size(); ++i) {
      const ExplainOdComponent& c = detail->components[i];
      if (i > 0) text_ += ',';
      AppendField(text_, "{\"index\":", c.index);
      text_ += ",\"weight\":";
      AppendDouble(text_, c.weight);
      text_ += ",\"value_a\":";
      AppendEscaped(text_, c.value_a);
      text_ += ",\"value_b\":";
      AppendEscaped(text_, c.value_b);
      AppendField(text_, ",\"ref_a\":", c.ref_a);
      AppendField(text_, ",\"ref_b\":", c.ref_b);
      text_ += ",\"comparable\":";
      text_ += c.comparable ? "true" : "false";
      text_ += ",\"interned_equal\":";
      text_ += c.interned_equal ? "true" : "false";
      text_ += ",\"bailout\":";
      text_ += c.bailout ? "true" : "false";
      AppendField(text_, ",\"edit_distance\":", c.edit_distance);
      text_ += ",\"sim\":";
      AppendDouble(text_, c.sim);
      text_ += '}';
    }
    text_ += "],\"descendants\":[";
    for (size_t i = 0; i < detail->descendants.size(); ++i) {
      const ExplainDescSlot& d = detail->descendants[i];
      if (i > 0) text_ += ',';
      AppendField(text_, "{\"child\":", d.child);
      AppendField(text_, ",\"size_a\":", d.size_a);
      AppendField(text_, ",\"size_b\":", d.size_b);
      AppendField(text_, ",\"intersection\":", d.intersection);
      AppendField(text_, ",\"union\":", d.union_size);
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
  AppendField(text_, ",\"pass\":", pass);
  text_ += ",\"provenance\":\"shed\"";
  text_ += ",\"skipped\":";
  text_ += skipped ? "true" : "false";
  AppendField(text_, ",\"window_configured\":", window_configured);
  AppendField(text_, ",\"window_used\":", window_used);
  AppendField(text_, ",\"rows\":", rows);
  AppendField(text_, ",\"pairs_planned\":", pairs_planned);
  AppendField(text_, ",\"pairs_elided\":", pairs_elided);
  text_ += "}\n";
}

void ExplainLog::AppendMerge(std::string_view candidate, size_t a, size_t b,
                             size_t root_a, size_t root_b, size_t root,
                             bool merged) {
  if (!enabled_) return;
  text_ += "{\"type\":\"merge\",\"candidate\":";
  AppendEscaped(text_, candidate);
  AppendField(text_, ",\"a\":", a);
  AppendField(text_, ",\"b\":", b);
  AppendField(text_, ",\"root_a\":", root_a);
  AppendField(text_, ",\"root_b\":", root_b);
  AppendField(text_, ",\"root\":", root);
  text_ += ",\"merged\":";
  text_ += merged ? "true" : "false";
  text_ += "}\n";
}

void ExplainLog::AppendCluster(std::string_view candidate, size_t cluster,
                               const std::vector<size_t>& members) {
  if (!enabled_) return;
  text_ += "{\"type\":\"cluster\",\"candidate\":";
  AppendEscaped(text_, candidate);
  AppendField(text_, ",\"cluster\":", cluster);
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
