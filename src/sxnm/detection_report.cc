#include "sxnm/detection_report.h"

#include <algorithm>
#include <sstream>

#include "obs/metrics.h"
#include "persist/io.h"
#include "util/table_printer.h"

namespace sxnm::core {

double PassStats::SimMedian() const {
  if (sim_buckets.empty()) return 0.0;
  std::vector<double> bounds = obs::DefaultSimilarityBounds();
  if (sim_buckets.size() != bounds.size() + 1) return 0.0;
  return obs::BucketQuantile(bounds, sim_buckets, 0.5);
}

void PassStats::Accumulate(const PassStats& other) {
  pairs_windowed += other.pairs_windowed;
  prepass_skips += other.prepass_skips;
  comparisons += other.comparisons;
  hits += other.hits;
  ed_bailouts += other.ed_bailouts;
  desc_invocations += other.desc_invocations;
  desc_short_circuits += other.desc_short_circuits;
  interned_equal += other.interned_equal;
  myers_words += other.myers_words;
  wall_seconds += other.wall_seconds;
  if (!other.sim_buckets.empty()) {
    if (sim_buckets.size() < other.sim_buckets.size()) {
      sim_buckets.resize(other.sim_buckets.size(), 0);
    }
    for (size_t i = 0; i < other.sim_buckets.size(); ++i) {
      sim_buckets[i] += other.sim_buckets[i];
    }
  }
}

size_t DegradationReport::PassesSkipped() const {
  size_t count = 0;
  for (const PassDegradation& p : passes) count += p.skipped ? 1 : 0;
  return count;
}

size_t DegradationReport::PassesShrunk() const {
  size_t count = 0;
  for (const PassDegradation& p : passes) count += p.skipped ? 0 : 1;
  return count;
}

size_t DegradationReport::RowsSkipped() const {
  size_t count = 0;
  for (const PassDegradation& p : passes) {
    if (p.skipped) count += p.rows;
  }
  return count;
}

size_t DegradationReport::PairsElided() const {
  size_t count = 0;
  for (const PassDegradation& p : passes) count += p.pairs_elided;
  return count;
}

std::string DegradationReport::ToString() const {
  if (!degraded) return "run complete: no degradation\n";
  std::string out = "DEGRADED (";
  out += util::StatusCodeName(reason);
  out += "): ";
  out += std::to_string(PassesShrunk());
  out += " pass(es) shrunk, ";
  out += std::to_string(PassesSkipped());
  out += " skipped, ";
  out += std::to_string(PairsElided());
  out += " pair(s) elided";
  if (comparison_budget != 0) {
    out += ", budget " + std::to_string(comparison_budget);
  }
  out += "\n";
  for (const PassDegradation& p : passes) {
    out += "  " + p.candidate + " pass " + std::to_string(p.key_index + 1);
    if (p.skipped) {
      out += ": skipped (" + std::to_string(p.rows) + " rows, " +
             std::to_string(p.pairs_elided) + " pairs elided)\n";
    } else {
      out += ": window shrunk to " + std::to_string(p.window_used) + " (" +
             std::to_string(p.pairs_elided) + " pairs elided)\n";
    }
  }
  return out;
}

size_t DetectionReport::TotalComparisons() const {
  size_t total = 0;
  for (const Row& row : rows) total += row.stats.comparisons;
  return total;
}

size_t DetectionReport::TotalHits() const {
  size_t total = 0;
  for (const Row& row : rows) total += row.stats.hits;
  return total;
}

PassStats DetectionReport::Totals() const {
  PassStats totals;
  for (const Row& row : rows) totals.Accumulate(row.stats);
  return totals;
}

namespace {

std::string Ms(double seconds) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(3);
  os << seconds * 1e3;
  return os.str();
}

std::string Fixed2(double value) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << value;
  return os.str();
}

std::vector<std::string> StatsCells(const PassStats& s) {
  return {std::to_string(s.pairs_windowed),
          std::to_string(s.prepass_skips),
          std::to_string(s.comparisons),
          std::to_string(s.hits),
          std::to_string(s.ed_bailouts),
          std::to_string(s.desc_invocations),
          std::to_string(s.desc_short_circuits),
          std::to_string(s.interned_equal),
          std::to_string(s.myers_words),
          Fixed2(s.SimMedian()),
          Ms(s.wall_seconds)};
}

void WriteStatsJson(std::ostream& os, const PassStats& s) {
  os << "{\"pairs_windowed\": " << s.pairs_windowed
     << ", \"prepass_skips\": " << s.prepass_skips
     << ", \"comparisons\": " << s.comparisons << ", \"hits\": " << s.hits
     << ", \"ed_bailouts\": " << s.ed_bailouts
     << ", \"desc_invocations\": " << s.desc_invocations
     << ", \"desc_short_circuits\": " << s.desc_short_circuits
     << ", \"interned_equal\": " << s.interned_equal
     << ", \"myers_words\": " << s.myers_words
     << ", \"wall_seconds\": " << s.wall_seconds << ", \"sim_buckets\": [";
  for (size_t i = 0; i < s.sim_buckets.size(); ++i) {
    os << (i > 0 ? ", " : "") << s.sim_buckets[i];
  }
  os << "]}";
}

// JSON string escaping for candidate names (config-controlled, but a
// report must not emit malformed JSON for any name).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

void DegradationReport::WriteJson(std::ostream& os) const {
  os << "{\"degraded\": " << (degraded ? "true" : "false") << ", \"reason\": \""
     << util::StatusCodeName(reason)
     << "\", \"comparison_budget\": " << comparison_budget
     << ", \"passes_skipped\": " << PassesSkipped()
     << ", \"passes_shrunk\": " << PassesShrunk()
     << ", \"rows_skipped\": " << RowsSkipped()
     << ", \"pairs_elided\": " << PairsElided() << ", \"passes\": [";
  bool first = true;
  for (const PassDegradation& p : passes) {
    os << (first ? "" : ", ");
    first = false;
    os << "{\"candidate\": \"" << JsonEscape(p.candidate)
       << "\", \"pass\": " << p.key_index + 1
       << ", \"skipped\": " << (p.skipped ? "true" : "false")
       << ", \"window_used\": " << p.window_used << ", \"rows\": " << p.rows
       << ", \"pairs_planned\": " << p.pairs_planned
       << ", \"pairs_elided\": " << p.pairs_elided << "}";
  }
  os << "]}";
}

std::string DetectionReport::ToTable() const {
  util::TablePrinter table({"candidate", "pass", "instances", "windowed",
                            "prepass_skips", "comparisons", "hits",
                            "ed_bailouts", "desc_jaccard", "desc_shortcut",
                            "interned_eq", "myers_words",
                            "sim_p50", "wall_ms"});
  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.candidate,
                                      std::to_string(row.key_index + 1),
                                      std::to_string(row.num_instances)};
    for (std::string& cell : StatsCells(row.stats)) {
      cells.push_back(std::move(cell));
    }
    table.AddRow(std::move(cells));
  }
  PassStats totals = Totals();
  std::vector<std::string> cells = {"TOTAL", "", ""};
  for (std::string& cell : StatsCells(totals)) cells.push_back(std::move(cell));
  table.AddRow(std::move(cells));
  std::string out = table.ToString();
  if (degradation.degraded) out += degradation.ToString();
  return out;
}

std::string DetectionReport::AttributionTable() const {
  if (attribution.empty()) return "";
  util::TablePrinter table({"candidate", "pass", "gold_pairs",
                            "gold_windowed", "accepted", "accepted_gold",
                            "precision", "recall"});
  for (const PassAttribution& row : attribution) {
    table.AddRow({row.candidate, std::to_string(row.key_index + 1),
                  std::to_string(row.gold_pairs),
                  std::to_string(row.gold_windowed),
                  std::to_string(row.accepted),
                  std::to_string(row.accepted_gold), Fixed2(row.precision),
                  Fixed2(row.recall)});
  }
  return table.ToString();
}

void DetectionReport::WriteJson(std::ostream& os) const {
  os << "{\n  \"rows\": [";
  bool first = true;
  for (const Row& row : rows) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "    {\"candidate\": \"" << JsonEscape(row.candidate)
       << "\", \"pass\": " << row.key_index + 1
       << ", \"num_instances\": " << row.num_instances << ", \"stats\": ";
    WriteStatsJson(os, row.stats);
    os << "}";
  }
  os << "\n  ],\n  \"totals\": ";
  WriteStatsJson(os, Totals());
  os << ",\n  \"degradation\": ";
  degradation.WriteJson(os);
  if (!attribution.empty()) {
    os << ",\n  \"attribution\": [";
    bool first_attr = true;
    for (const PassAttribution& row : attribution) {
      os << (first_attr ? "\n" : ",\n");
      first_attr = false;
      os << "    {\"candidate\": \"" << JsonEscape(row.candidate)
         << "\", \"pass\": " << row.key_index + 1
         << ", \"gold_pairs\": " << row.gold_pairs
         << ", \"gold_windowed\": " << row.gold_windowed
         << ", \"accepted\": " << row.accepted
         << ", \"accepted_gold\": " << row.accepted_gold
         << ", \"precision\": " << row.precision
         << ", \"recall\": " << row.recall << "}";
    }
    os << "\n  ]";
  }
  if (profile.enabled) {
    os << ",\n  \"profile\": ";
    profile.WriteJson(os);
  }
  os << "\n}\n";
}

std::string DetectionReport::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

util::Status DetectionReport::WriteJsonFile(const std::string& path) const {
  // Atomic commit: a crash mid-export leaves the previous report (or no
  // file), never a torn JSON document.
  return persist::AtomicWriteFile(path, ToJson());
}

}  // namespace sxnm::core
