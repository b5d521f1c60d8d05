// sxnm_cli — end-to-end command-line deduplicator.
//
//   sxnm_cli <config.xml> <data.xml> [-o out.xml] [--fuse|--first|--richest]
//            [--report [--gold]] [--advise] [--metrics-out metrics.prom]
//            [--telemetry run.tlm.ndjsonl] [--telemetry-interval-ms N]
//            [--profile run.folded]
//            [--shards N] [--memory-budget BYTES] [--spill-dir DIR]
//
// Loads an SXNM configuration (see examples/config_tool for the format),
// runs detection over the data file, prints a per-candidate report
// (instances, comparisons, clusters, phase timings) and optionally writes
// the de-duplicated document.
//
// --shards / --memory-budget / --spill-dir override the config's
// out-of-core attributes (docs/CONFIG.md): N key-range shards per
// sliding-window pass and an external-sort memory budget (binary
// suffixes k/m/g accepted) under which generated-key rows spill to DIR.
// Detection output is bit-identical for every shard count and budget.
//
// --profile-hz N is accepted for old scripts, warned about and ignored:
// profiles record exact per-span CPU time, with no sampling rate.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/report.h"
#include "persist/io.h"
#include "eval/window_advisor.h"
#include "sxnm/config_xml.h"
#include "sxnm/dedup_writer.h"
#include "sxnm/detector.h"
#include "util/exit_code.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <config.xml> <data.xml> [-o out.xml] "
               "[--fuse|--first|--richest]\n"
               "       [--report [--gold]] [--advise] "
               "[--metrics-out metrics.prom]\n"
               "       [--telemetry run.tlm.ndjsonl] "
               "[--telemetry-interval-ms N]\n"
               "       [--profile run.folded]\n"
               "       [--shards N] [--memory-budget BYTES] "
               "[--spill-dir DIR]\n",
               argv0);
  return 2;
}

// "268435456", "64K", "256M", "4G" (binary multiples, case-insensitive)
// -> bytes; -1 on malformed input. Mirrors the config's memory-budget
// attribute grammar.
long long ParseByteSizeArg(std::string_view text) {
  unsigned long long multiplier = 1;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k': case 'K': multiplier = 1ull << 10; break;
      case 'm': case 'M': multiplier = 1ull << 20; break;
      case 'g': case 'G': multiplier = 1ull << 30; break;
      default: break;
    }
    if (multiplier != 1) text.remove_suffix(1);
  }
  if (text.empty()) return -1;
  unsigned long long value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + static_cast<unsigned long long>(c - '0');
  }
  return static_cast<long long>(value * multiplier);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  std::string config_path = argv[1];
  std::string data_path = argv[2];
  std::string out_path;
  auto strategy = sxnm::core::RepresentativeStrategy::kRichest;
  bool report = false;
  bool with_gold = false;
  bool advise = false;
  std::string metrics_out_path;
  std::string telemetry_path;
  double telemetry_interval_ms = 0.0;  // 0 = keep the config's value
  std::string profile_path;
  long long shards = 0;                // 0 = keep the config's value
  long long memory_budget = -1;        // -1 = keep the config's value
  std::string spill_dir;

  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fuse") == 0) {
      strategy = sxnm::core::RepresentativeStrategy::kFuse;
    } else if (std::strcmp(argv[i], "--first") == 0) {
      strategy = sxnm::core::RepresentativeStrategy::kFirst;
    } else if (std::strcmp(argv[i], "--richest") == 0) {
      strategy = sxnm::core::RepresentativeStrategy::kRichest;
    } else if (std::strcmp(argv[i], "--report") == 0) {
      report = true;
    } else if (std::strcmp(argv[i], "--gold") == 0) {
      with_gold = true;
    } else if (std::strcmp(argv[i], "--advise") == 0) {
      advise = true;
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else if (std::strcmp(argv[i], "--telemetry-interval-ms") == 0 &&
               i + 1 < argc) {
      telemetry_interval_ms = sxnm::util::ParseDoubleOr(argv[++i], 0.0);
      if (telemetry_interval_ms <= 0.0) {
        std::fprintf(stderr, "--telemetry-interval-ms: not a positive number\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (std::strcmp(argv[i], "--profile-hz") == 0 && i + 1 < argc) {
      ++i;
      std::fprintf(stderr,
                   "warning: --profile-hz is deprecated and ignored: "
                   "profiles record exact per-span CPU time\n");
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = sxnm::util::ParseNonNegativeInt(argv[++i]);
      if (shards < 1) {
        std::fprintf(stderr, "--shards: not a positive integer\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--memory-budget") == 0 && i + 1 < argc) {
      memory_budget = ParseByteSizeArg(argv[++i]);
      if (memory_budget < 0) {
        std::fprintf(stderr,
                     "--memory-budget: not a byte size (try 256M, 4G)\n");
        return Usage(argv[0]);
      }
    } else if (std::strcmp(argv[i], "--spill-dir") == 0 && i + 1 < argc) {
      spill_dir = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }

  std::vector<std::string> config_warnings;
  auto config = sxnm::core::ConfigFromXmlFile(config_path, &config_warnings);
  if (!config.ok()) {
    std::cerr << "config error: " << config.status().ToString() << "\n";
    return sxnm::util::kExitConfig;
  }
  for (const std::string& warning : config_warnings) {
    std::cerr << "config warning: " << warning << "\n";
  }
  sxnm::core::Config loaded_config = std::move(config).value();
  // Prometheus export and live telemetry both need the metrics registry
  // regardless of what the config's <observability> says.
  if (!metrics_out_path.empty()) {
    loaded_config.mutable_observability().metrics = true;
  }
  if (!telemetry_path.empty()) {
    loaded_config.mutable_observability().metrics = true;
    loaded_config.mutable_observability().telemetry_path = telemetry_path;
  }
  if (telemetry_interval_ms > 0.0) {
    loaded_config.mutable_observability().telemetry_interval_ms =
        telemetry_interval_ms;
  }
  if (!profile_path.empty()) {
    loaded_config.mutable_observability().profile_path = profile_path;
  }
  if (shards > 0) {
    loaded_config.set_shards(static_cast<size_t>(shards));
  }
  if (memory_budget >= 0) {
    loaded_config.set_memory_budget_bytes(
        static_cast<uint64_t>(memory_budget));
  }
  if (!spill_dir.empty()) {
    loaded_config.set_spill_dir(spill_dir);
  }

  // Ingest under the configured <limits>: hard caps always apply; with
  // recover="true" malformed subtrees are skipped and reported with their
  // line/column instead of failing the whole file.
  const sxnm::core::RunLimits& limits = loaded_config.limits();
  sxnm::xml::ParseOptions parse_options = limits.ToParseOptions();
  sxnm::xml::Document data_doc;
  if (limits.recover_parse) {
    auto recovered = sxnm::xml::ParseFileRecovering(data_path, parse_options);
    if (!recovered.ok()) {
      std::cerr << "data error: " << recovered.status().ToString() << "\n";
      return sxnm::util::ExitCodeForStatus(recovered.status());
    }
    for (const auto& diag : recovered->diagnostics) {
      std::fprintf(stderr, "%s: %s\n", data_path.c_str(),
                   diag.ToString().c_str());
    }
    if (!recovered->clean()) {
      std::fprintf(stderr, "recovered parse: skipped %zu problem(s)\n",
                   recovered->diagnostics.size());
    }
    data_doc = std::move(recovered->doc);
  } else {
    auto doc = sxnm::xml::ParseFile(data_path, parse_options);
    if (!doc.ok()) {
      std::cerr << "data error: " << doc.status().ToString() << "\n";
      return sxnm::util::ExitCodeForStatus(doc.status());
    }
    data_doc = std::move(doc).value();
  }

  sxnm::core::Detector detector(loaded_config);
  auto result = detector.Run(data_doc);
  if (!result.ok()) {
    std::cerr << "detection error: " << result.status().ToString() << "\n";
    return sxnm::util::ExitCodeForStatus(result.status());
  }
  if (result->degraded()) {
    std::fprintf(stderr, "%s", result->degradation.ToString().c_str());
  }

  sxnm::util::TablePrinter report_table({"candidate", "instances",
                                         "comparisons", "duplicate pairs",
                                         "clusters(>1)"});
  for (const auto& cand : result->candidates) {
    report_table.AddRow({cand.name, std::to_string(cand.num_instances),
                   std::to_string(cand.comparisons),
                   std::to_string(cand.duplicate_pairs.size()),
                   std::to_string(cand.clusters.NonTrivialClusters().size())});
  }
  report_table.Print(std::cout);
  std::printf("phases: KG=%.3fs SW=%.3fs TC=%.3fs (DD=%.3fs)\n",
              result->KeyGenerationSeconds(),
              result->SlidingWindowSeconds(),
              result->TransitiveClosureSeconds(),
              result->DuplicateDetectionSeconds());

  if (advise) {
    // Sampling-based window advice per candidate (outlook, Sec. 5).
    std::printf("\nwindow advice (95%% coverage of sampled similar-pair "
                "rank distances):\n");
    for (const auto& cand : loaded_config.candidates()) {
      auto advice = sxnm::eval::AdviseWindow(loaded_config, data_doc,
                                             cand.name);
      if (!advice.ok()) {
        std::printf("  %-12s <error: %s>\n", cand.name.c_str(),
                    advice.status().ToString().c_str());
        continue;
      }
      if (advice->similar_pairs == 0) {
        std::printf("  %-12s no similar pairs in sample (keep window %zu)\n",
                    cand.name.c_str(), cand.window_size);
      } else {
        std::printf("  %-12s configured=%zu advised=%zu (max observed "
                    "distance %zu over %zu pairs)\n",
                    cand.name.c_str(), cand.window_size,
                    advice->recommended_window, advice->max_distance,
                    advice->similar_pairs);
      }
    }
  }

  if (report) {
    sxnm::eval::ReportOptions report_options;
    report_options.with_gold = with_gold;
    auto rendered = sxnm::eval::RenderReport(loaded_config, data_doc,
                                             result.value(), report_options);
    if (!rendered.ok()) {
      std::cerr << "report error: " << rendered.status().ToString() << "\n";
      return sxnm::util::ExitCodeForStatus(rendered.status());
    }
    std::printf("\n%s", rendered->c_str());
  }

  if (!metrics_out_path.empty()) {
    std::ostringstream metrics_text;
    result->metrics.ToPrometheusText(metrics_text);
    auto wrote =
        sxnm::persist::AtomicWriteFile(metrics_out_path, metrics_text.str());
    if (!wrote.ok()) {
      std::cerr << "cannot write " << metrics_out_path << ": "
                << wrote.ToString() << "\n";
      return sxnm::util::ExitCodeForStatus(wrote);
    }
    std::printf("wrote %s (Prometheus text exposition)\n",
                metrics_out_path.c_str());
  }
  if (!telemetry_path.empty()) {
    std::printf("wrote %s (telemetry time series; render with tools/sxnm_top)\n",
                telemetry_path.c_str());
  }
  if (!profile_path.empty()) {
    std::printf("wrote %s (%.3f s CPU; render with tools/sxnm_flame)\n",
                profile_path.c_str(),
                static_cast<double>(result->profile.cpu_ns) * 1e-9);
  }

  if (!out_path.empty()) {
    sxnm::core::DedupStats stats;
    auto deduped =
        sxnm::core::Deduplicate(data_doc, result.value(), strategy, &stats);
    if (!deduped.ok()) {
      std::cerr << "dedup error: " << deduped.status().ToString() << "\n";
      return sxnm::util::ExitCodeForStatus(deduped.status());
    }
    if (!sxnm::xml::WriteDocumentToFile(deduped.value(), out_path)) {
      std::cerr << "cannot write " << out_path << "\n";
      return sxnm::util::kExitRuntime;
    }
    std::printf("wrote %s: removed %zu elements across %zu clusters",
                out_path.c_str(), stats.elements_removed,
                stats.clusters_collapsed);
    if (strategy == sxnm::core::RepresentativeStrategy::kFuse) {
      std::printf(" (fused %zu attributes, %zu children)",
                  stats.attributes_fused, stats.children_fused);
    }
    std::printf("\n");
  }
  return 0;
}
