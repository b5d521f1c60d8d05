// Checkpoint snapshot inspector: validates and dumps the SXNM snapshot
// container (persist/snapshot.h). Parsing alone verifies the magic,
// version, every frame checksum, and the end-frame commit marker, so a
// plain invocation doubles as an integrity check for CI and operators:
//
//   sxnm_snapshot RUN.ckpt            header, frame table, cursor,
//                                     fingerprint
//   sxnm_snapshot --quiet RUN.ckpt    no output; exit code only
//
// Exit codes follow the engine's status mapping (util/exit_code.h):
// 0 valid, 8 corrupt (kDataLoss), 7 version mismatch, 2 usage errors.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "persist/io.h"
#include "persist/snapshot.h"
#include "sxnm/checkpoint.h"
#include "util/exit_code.h"

namespace {

using sxnm::persist::Frame;
using sxnm::persist::FrameType;
using sxnm::persist::SnapshotReader;

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kFingerprint: return "fingerprint";
    case FrameType::kCursor: return "cursor";
    case FrameType::kGkTable: return "gk_table";
    case FrameType::kCandidateResult: return "candidate_result";
    case FrameType::kDegradation: return "degradation";
    case FrameType::kReportRows: return "report_rows";
    case FrameType::kMetrics: return "metrics";
    case FrameType::kExplain: return "explain";
    case FrameType::kEndFrame: return "end";
  }
  return "unknown";
}

int Inspect(const std::string& path, bool quiet) {
  auto bytes = sxnm::persist::ReadFileToString(path);
  if (!bytes.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 bytes.status().ToString().c_str());
    return sxnm::util::ExitCodeForStatus(bytes.status());
  }

  auto reader = SnapshotReader::Parse(*bytes);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 reader.status().ToString().c_str());
    return sxnm::util::ExitCodeForStatus(reader.status());
  }
  if (quiet) return sxnm::util::kExitOk;

  std::printf("%s: valid snapshot, version %u, %zu byte(s), %zu frame(s)\n",
              path.c_str(), reader->version(), bytes->size(),
              reader->frames().size());
  std::printf("  %-18s %12s\n", "frame", "payload");
  for (const Frame& frame : reader->frames()) {
    std::printf("  %-18s %12zu\n", FrameTypeName(frame.type),
                frame.payload.size());
  }

  // The frame checksums already verified above; decode the two identity
  // frames so operators can eyeball what run this snapshot belongs to.
  if (const Frame* fp = reader->Find(FrameType::kFingerprint)) {
    auto decoded = sxnm::core::DecodeFingerprint(fp->payload);
    if (!decoded.ok()) {
      std::fprintf(stderr, "%s: fingerprint frame: %s\n", path.c_str(),
                   decoded.status().ToString().c_str());
      return sxnm::util::ExitCodeForStatus(decoded.status());
    }
    std::printf("fingerprint:\n");
    std::printf("  config   %016" PRIx64 "\n", decoded->config_fingerprint);
    std::printf("  document %016" PRIx64 "\n", decoded->doc_fingerprint);
    std::printf("  metrics  %s\n", decoded->metrics_enabled ? "on" : "off");
    std::printf("  explain  %s\n", decoded->explain_enabled ? "on" : "off");
  }
  if (const Frame* cur = reader->Find(FrameType::kCursor)) {
    auto decoded = sxnm::core::DecodeCursor(cur->payload);
    if (!decoded.ok()) {
      std::fprintf(stderr, "%s: cursor frame: %s\n", path.c_str(),
                   decoded.status().ToString().c_str());
      return sxnm::util::ExitCodeForStatus(decoded.status());
    }
    std::printf("cursor:\n");
    std::printf("  levels_completed  %" PRIu64 "\n",
                decoded->levels_completed);
    std::printf("  budget_spent      %" PRIu64 "%s\n", decoded->budget_spent,
                decoded->budget_exhausted ? " (exhausted)" : "");
    std::printf("  phase seconds     kg=%.6f sw=%.6f tc=%.6f\n",
                decoded->kg_seconds, decoded->sw_seconds,
                decoded->tc_seconds);
  }
  return sxnm::util::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  bool quiet = false;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quiet") == 0 ||
        std::strcmp(argv[i], "-q") == 0) {
      quiet = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return sxnm::util::kExitUsage;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: sxnm_snapshot [--quiet] <snapshot>\n");
      return sxnm::util::kExitUsage;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: sxnm_snapshot [--quiet] <snapshot>\n");
    return sxnm::util::kExitUsage;
  }
  return Inspect(path, quiet);
}
