// The snapshot container format: a versioned sequence of typed,
// length-prefixed, individually checksummed binary frames.
//
//   file   := header frame* end-frame
//   header := magic "SXNMSNAP" (8 bytes) | u32 version
//   frame  := u32 type | u64 payload_len | payload | u32 crc32c
//   crc    := CRC-32C over (type | payload_len | payload)
//
// The end frame (type kEndFrame) carries the total frame count
// (including itself) as its payload, so a file that merely *looks*
// complete — right magic, every frame intact — but lost its tail to a
// torn write is still rejected: without a verifiable end frame the
// snapshot never existed. Combined with the atomic commit protocol in
// io.h this gives crash consistency: the committed path always decodes
// or cleanly fails with kDataLoss, never half-parses.
//
// Payload contents are encoded with Encoder/Decoder: fixed-width
// little-endian integers and length-prefixed strings, every read
// bounds-checked. Decoder never throws and never reads out of bounds —
// arbitrary bytes (fuzz_snapshot) decode to a Status, not UB.

#ifndef SXNM_PERSIST_SNAPSHOT_H_
#define SXNM_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace sxnm::persist {

/// Format identity. Version bumps whenever frame payload encodings
/// change incompatibly; readers refuse other versions (kDataLoss would
/// lie — an old snapshot is not corrupt, just unusable — so version
/// mismatch reports kFailedPrecondition).
inline constexpr char kSnapshotMagic[8] = {'S', 'X', 'N', 'M',
                                           'S', 'N', 'A', 'P'};
/// Version 2 dropped the comparison-shortcut state: three PassStats
/// counters, the cursor's verdict-cache occupancy pair, the GK rows'
/// subtree ids, three explain tallies, and the verdict-cache frame.
inline constexpr uint32_t kSnapshotVersion = 2;

/// Frame types. Values are part of the on-disk format — append only;
/// a retired value stays reserved and is never reassigned.
enum class FrameType : uint32_t {
  kFingerprint = 1,     // config/corpus identity + engine flags
  kCursor = 2,          // pass cursor + governor state + timers
  kGkTable = 3,         // one candidate's GK relation (+ OdPool)
  kCandidateResult = 4, // one completed candidate's pairs + clusters
  kDegradation = 5,     // shed-pass entries accumulated so far
  kReportRows = 6,      // per-pass report rows accumulated so far
  kMetrics = 7,         // metrics registry snapshot
  kExplain = 8,         // explain-log byte stream + tallies
  // 9: reserved (version 1's verdict-cache frame)
  kEndFrame = 0xE0F0,   // commit marker: payload = total frame count
};

/// Little-endian binary builder for frame payloads.
class Encoder {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v);
  /// Length-prefixed (u64) byte string.
  void PutString(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string TakeBytes() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over one frame payload. Every getter fails with
/// kDataLoss instead of reading past the end.
class Decoder {
 public:
  explicit Decoder(std::string_view bytes) : bytes_(bytes) {}

  util::Result<uint8_t> GetU8();
  util::Result<bool> GetBool();
  util::Result<uint32_t> GetU32();
  util::Result<uint64_t> GetU64();
  util::Result<int64_t> GetI64();
  util::Result<double> GetDouble();
  util::Result<std::string_view> GetString();

  /// Like GetU64 but additionally rejects values above `max` — the guard
  /// every collection-count read uses so corrupt lengths cannot drive
  /// multi-gigabyte allocations before the next bounds check fails.
  util::Result<uint64_t> GetCount(uint64_t max);

  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  util::Status Need(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
};

/// One decoded frame: a view into the reader's buffer.
struct Frame {
  FrameType type = FrameType::kEndFrame;
  std::string_view payload;
};

/// Accumulates frames and serializes the container. Writing is a pure
/// in-memory transform; durability comes from committing the bytes via
/// AtomicWriteFile (WriteFile below).
class SnapshotWriter {
 public:
  /// Appends one frame; the payload is copied.
  void AddFrame(FrameType type, std::string_view payload);
  void AddFrame(FrameType type, Encoder&& payload) {
    AddFrame(type, payload.TakeBytes());
  }

  size_t num_frames() const { return frames_.size(); }

  /// Serializes header + frames + end frame.
  std::string Serialize() const;

  /// Serialize + atomic commit to `path`.
  util::Status WriteFile(const std::string& path) const;

 private:
  struct Pending {
    FrameType type;
    std::string payload;
  };
  std::vector<Pending> frames_;
};

/// Parses and verifies a serialized snapshot. All structural damage —
/// bad magic, truncated frame, checksum mismatch, missing or wrong end
/// frame, trailing garbage — surfaces as kDataLoss; an unsupported
/// version as kFailedPrecondition. The returned reader views into
/// `bytes`, which must outlive it.
class SnapshotReader {
 public:
  static util::Result<SnapshotReader> Parse(std::string_view bytes);

  uint32_t version() const { return version_; }
  const std::vector<Frame>& frames() const { return frames_; }

  /// First frame of `type`; nullptr when absent.
  const Frame* Find(FrameType type) const;

  /// All frames of `type`, in file order.
  std::vector<const Frame*> FindAll(FrameType type) const;

 private:
  SnapshotReader() = default;

  uint32_t version_ = 0;
  std::vector<Frame> frames_;
};

}  // namespace sxnm::persist

#endif  // SXNM_PERSIST_SNAPSHOT_H_
