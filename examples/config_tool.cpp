// Configuration tool: validates an SXNM XML configuration file and prints
// a human-readable summary (candidates, paths, keys with sample key
// values, thresholds). With no argument, prints the built-in Data set 1
// configuration as a ready-to-edit template.
//
// Usage: config_tool [config.xml]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "datagen/movies.h"
#include "sxnm/config_xml.h"
#include "sxnm/key_pattern.h"
#include "util/exit_code.h"

namespace {

void PrintSummary(const sxnm::core::Config& config) {
  for (const auto& cand : config.candidates()) {
    std::printf("candidate '%s'\n", cand.name.c_str());
    std::printf("  path:    %s\n", cand.absolute_path.ToString().c_str());
    std::printf("  window:  %zu   use-descendants: %s\n", cand.window_size,
                cand.use_descendants ? "true" : "false");
    std::printf("  classifier: mode=%s od-threshold=%.2f "
                "desc-threshold=%.2f\n",
                sxnm::core::CombineModeName(cand.classifier.mode),
                cand.classifier.od_threshold, cand.classifier.desc_threshold);
    for (const auto& path : cand.paths) {
      std::printf("  PATH %d -> %s\n", path.id, path.path.ToString().c_str());
    }
    for (const auto& od : cand.od) {
      std::printf("  OD pid=%d relevance=%.2f phi=%s\n", od.pid, od.relevance,
                  od.similarity_name.c_str());
    }
    for (size_t k = 0; k < cand.keys.size(); ++k) {
      std::printf("  KEY %zu:", k + 1);
      for (const auto& part : cand.keys[k].parts) {
        std::printf(" [pid=%d %s]", part.pid,
                    part.pattern.ToString().c_str());
      }
      std::printf("\n");
    }
    // Demonstrate the pattern engine on the paper's running example.
    if (!cand.keys.empty()) {
      std::printf("  sample: pattern '%s' on \"Mask of Zorro\" -> \"%s\"\n",
                  cand.keys[0].parts[0].pattern.ToString().c_str(),
                  cand.keys[0].parts[0].pattern.Apply("Mask of Zorro").c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    auto config = sxnm::datagen::MovieConfig(/*window=*/10);
    if (!config.ok()) {
      std::cerr << config.status().ToString() << "\n";
      return sxnm::util::kExitConfig;
    }
    std::printf("No config given; showing the built-in Data set 1 "
                "configuration.\n\n");
    PrintSummary(config.value());
    std::printf("XML form (feed this back via: config_tool <file>):\n\n%s",
                sxnm::core::ConfigToXmlString(config.value()).c_str());
    return 0;
  }

  std::vector<std::string> warnings;
  auto config = sxnm::core::ConfigFromXmlFile(argv[1], &warnings);
  if (!config.ok()) {
    std::cerr << "INVALID: " << config.status().ToString() << "\n";
    return sxnm::util::kExitConfig;
  }
  for (const std::string& warning : warnings) {
    std::cerr << "WARNING: " << warning << "\n";
  }
  std::printf("OK: %s parses and validates.\n\n", argv[1]);
  PrintSummary(config.value());
  return 0;
}
