// Fuzz target for the snapshot container and every checkpoint frame
// decoder: arbitrary bytes must parse to a structured status — never a
// crash, never an out-of-bounds read, never a multi-gigabyte allocation
// from a corrupt length prefix. Any snapshot that does parse must
// round-trip: re-serializing its frames yields the same frame sequence.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "persist/snapshot.h"
#include "sxnm/checkpoint.h"

namespace persist = sxnm::persist;
namespace core = sxnm::core;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view input(reinterpret_cast<const char*>(data), size);

  // Layer 1: the container. Magic, version, frame lengths, checksums,
  // end-frame commit marker.
  auto reader = persist::SnapshotReader::Parse(input);

  // Layer 2: frame payloads. Decoders are bounds-checked; feed every
  // decoder both the frames the container accepted and the raw input
  // (a frame payload extracted from a hostile file is hostile too).
  auto decode_all = [](std::string_view payload) {
    (void)core::DecodeFingerprint(payload);
    (void)core::DecodeCursor(payload);
    (void)core::DecodeGkTable(payload);
    (void)core::DecodeCandidateResult(payload);
    (void)core::DecodeDegradation(payload);
    (void)core::DecodeReportRows(payload);
    (void)core::DecodeMetricsSnapshot(payload);
  };
  decode_all(input);
  if (!reader.ok()) return 0;
  for (const persist::Frame& frame : reader->frames()) {
    decode_all(frame.payload);
  }

  // Round trip: a parsed snapshot re-serializes to a parseable snapshot
  // with the same frames.
  persist::SnapshotWriter writer;
  for (const persist::Frame& frame : reader->frames()) {
    writer.AddFrame(frame.type, frame.payload);
  }
  std::string bytes = writer.Serialize();
  auto again = persist::SnapshotReader::Parse(bytes);
  if (!again.ok()) __builtin_trap();
  if (again->frames().size() != reader->frames().size()) __builtin_trap();
  for (size_t i = 0; i < again->frames().size(); ++i) {
    if (again->frames()[i].type != reader->frames()[i].type ||
        again->frames()[i].payload != reader->frames()[i].payload) {
      __builtin_trap();
    }
  }
  return 0;
}
