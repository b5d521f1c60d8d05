#include "sxnm/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "persist/io.h"
#include "sxnm/config_xml.h"

namespace sxnm::core {

using persist::Decoder;
using persist::Encoder;
using persist::Frame;
using persist::FrameType;
using persist::SnapshotReader;
using persist::SnapshotWriter;
using util::Result;
using util::Status;

namespace {

// FNV-1a 64: simple, stable, order-sensitive — all the fingerprints
// need. Collisions only weaken the refusal check, never correctness of
// a legitimate resume.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a-style mix, widened to 8-byte lanes: the document fingerprint
// hashes every byte of text in the corpus, and the byte-serial loop was
// the single largest cost of enabling checkpointing on a large run. The
// lane variant is NOT byte-FNV (each lane is xor-folded in one multiply)
// but keeps the same avalanche quality for the only job this hash has —
// refusing a resume against different input. Changing this mixing
// changes fingerprints, which is a snapshot format change; it is covered
// by kSnapshotVersion.
uint64_t Fnv1a(std::string_view data, uint64_t h) {
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    h = (h ^ chunk) * kFnvPrime;
    p += 8;
    n -= 8;
  }
  uint64_t tail = 0;
  for (size_t i = 0; i < n; ++i) {
    tail |= uint64_t(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  // Fold the length in so "ab" + "c" never collides with "a" + "bc"
  // across tag boundaries.
  h = (h ^ tail) * kFnvPrime;
  h = (h ^ (uint64_t(data.size()) + 1)) * kFnvPrime;
  return h;
}

uint64_t Fnv1aByte(char c, uint64_t h) {
  h ^= static_cast<unsigned char>(c);
  return h * kFnvPrime;
}

Status Corrupt(const std::string& what) {
  return Status::DataLoss("corrupt snapshot: " + what);
}

// SXNM_RETURN_IF_ERROR for Result-returning getters: assigns on success.
#define ASSIGN_OR_RETURN(lhs, expr)            \
  do {                                         \
    auto assign_or_return_tmp__ = (expr);      \
    if (!assign_or_return_tmp__.ok()) {        \
      return assign_or_return_tmp__.status();  \
    }                                          \
    lhs = std::move(*assign_or_return_tmp__);  \
  } while (false)

void EncodeStringList(const std::vector<std::string>& strings, Encoder& enc) {
  enc.PutU64(strings.size());
  for (const std::string& s : strings) enc.PutString(s);
}

Result<std::vector<std::string>> DecodeStringList(Decoder& dec) {
  uint64_t count;
  // Every entry costs at least its 8-byte length prefix.
  ASSIGN_OR_RETURN(count, dec.GetCount(dec.remaining() / 8));
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view s;
    ASSIGN_OR_RETURN(s, dec.GetString());
    out.emplace_back(s);
  }
  return out;
}

void EncodePassStats(const PassStats& stats, Encoder& enc) {
  enc.PutU64(stats.pairs_windowed);
  enc.PutU64(stats.prepass_skips);
  enc.PutU64(stats.comparisons);
  enc.PutU64(stats.hits);
  enc.PutU64(stats.ed_bailouts);
  enc.PutU64(stats.desc_invocations);
  enc.PutU64(stats.desc_short_circuits);
  enc.PutU64(stats.interned_equal);
  enc.PutU64(stats.myers_words);
  enc.PutDouble(stats.wall_seconds);
  enc.PutU64(stats.sim_buckets.size());
  for (uint64_t b : stats.sim_buckets) enc.PutU64(b);
}

Result<PassStats> DecodePassStats(Decoder& dec) {
  PassStats stats;
  ASSIGN_OR_RETURN(stats.pairs_windowed, dec.GetU64());
  ASSIGN_OR_RETURN(stats.prepass_skips, dec.GetU64());
  ASSIGN_OR_RETURN(stats.comparisons, dec.GetU64());
  ASSIGN_OR_RETURN(stats.hits, dec.GetU64());
  ASSIGN_OR_RETURN(stats.ed_bailouts, dec.GetU64());
  ASSIGN_OR_RETURN(stats.desc_invocations, dec.GetU64());
  ASSIGN_OR_RETURN(stats.desc_short_circuits, dec.GetU64());
  ASSIGN_OR_RETURN(stats.interned_equal, dec.GetU64());
  ASSIGN_OR_RETURN(stats.myers_words, dec.GetU64());
  ASSIGN_OR_RETURN(stats.wall_seconds, dec.GetDouble());
  uint64_t buckets;
  ASSIGN_OR_RETURN(buckets, dec.GetCount(dec.remaining() / 8));
  stats.sim_buckets.reserve(static_cast<size_t>(buckets));
  for (uint64_t i = 0; i < buckets; ++i) {
    uint64_t b;
    ASSIGN_OR_RETURN(b, dec.GetU64());
    stats.sim_buckets.push_back(b);
  }
  return stats;
}

}  // namespace

uint64_t ConfigFingerprint(const Config& config) {
  // Fingerprint the semantic configuration only: thread count,
  // observability paths, the checkpoint settings themselves, and the
  // out-of-core knobs (shards / memory-budget / spill-dir) never change
  // detection output, so they must not block a resume.
  Config stripped;
  for (const CandidateConfig& c : config.candidates()) {
    (void)stripped.AddCandidate(c);
  }
  stripped.mutable_limits() = config.limits();
  return Fnv1a(ConfigToXmlString(stripped), kFnvOffset);
}

uint64_t DocumentFingerprint(const xml::Document& doc) {
  uint64_t h = kFnvOffset;
  if (doc.root() == nullptr) return h;
  // Iterative pre-order walk (documents may be as deep as the parser's
  // max_depth allows). Every structural feature feeds the hash with a
  // kind tag, so reordered or re-nested content cannot collide by
  // concatenation.
  std::vector<const xml::Node*> stack;
  stack.push_back(doc.root());
  while (!stack.empty()) {
    const xml::Node* node = stack.back();
    stack.pop_back();
    if (node == nullptr) {  // close marker: this element's children are done
      h = Fnv1aByte('<', h);
      continue;
    }
    if (const xml::Element* elem = node->AsElement()) {
      h = Fnv1aByte('E', h);
      h = Fnv1a(elem->name(), h);
      for (const xml::Attribute& attr : elem->attributes()) {
        h = Fnv1aByte('A', h);
        h = Fnv1a(attr.name, h);
        h = Fnv1aByte('=', h);
        h = Fnv1a(attr.value, h);
      }
      h = Fnv1aByte('>', h);
      stack.push_back(nullptr);  // pops after all children: re-nesting moves it
      const auto& children = elem->children();
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        stack.push_back(it->get());
      }
    } else if (node->kind() == xml::NodeKind::kComment) {
      h = Fnv1aByte('#', h);
    } else {  // text / CDATA
      h = Fnv1aByte('T', h);
      h = Fnv1a(static_cast<const xml::TextNode*>(node)->text(), h);
    }
  }
  return h;
}

// --- Fingerprint frame -----------------------------------------------------

void EncodeFingerprint(const CheckpointFingerprint& fp, Encoder& enc) {
  enc.PutU64(fp.config_fingerprint);
  enc.PutU64(fp.doc_fingerprint);
  enc.PutBool(fp.metrics_enabled);
  enc.PutBool(fp.explain_enabled);
}

Result<CheckpointFingerprint> DecodeFingerprint(std::string_view payload) {
  Decoder dec(payload);
  CheckpointFingerprint fp;
  ASSIGN_OR_RETURN(fp.config_fingerprint, dec.GetU64());
  ASSIGN_OR_RETURN(fp.doc_fingerprint, dec.GetU64());
  ASSIGN_OR_RETURN(fp.metrics_enabled, dec.GetBool());
  ASSIGN_OR_RETURN(fp.explain_enabled, dec.GetBool());
  return fp;
}

// --- Cursor frame ----------------------------------------------------------

void EncodeCursor(const CheckpointCursor& cursor, Encoder& enc) {
  enc.PutU64(cursor.levels_completed);
  enc.PutU64(cursor.budget_spent);
  enc.PutBool(cursor.budget_exhausted);
  enc.PutDouble(cursor.kg_seconds);
  enc.PutDouble(cursor.sw_seconds);
  enc.PutDouble(cursor.tc_seconds);
}

Result<CheckpointCursor> DecodeCursor(std::string_view payload) {
  Decoder dec(payload);
  CheckpointCursor cursor;
  ASSIGN_OR_RETURN(cursor.levels_completed, dec.GetU64());
  ASSIGN_OR_RETURN(cursor.budget_spent, dec.GetU64());
  ASSIGN_OR_RETURN(cursor.budget_exhausted, dec.GetBool());
  ASSIGN_OR_RETURN(cursor.kg_seconds, dec.GetDouble());
  ASSIGN_OR_RETURN(cursor.sw_seconds, dec.GetDouble());
  ASSIGN_OR_RETURN(cursor.tc_seconds, dec.GetDouble());
  return cursor;
}

// --- GK table frame --------------------------------------------------------

void EncodeGkTable(const GkTable& table, uint64_t candidate_index,
                   bool kg_done, Encoder& enc) {
  enc.PutU64(candidate_index);
  enc.PutBool(kg_done);
  enc.PutU64(table.num_keys);
  enc.PutU64(table.num_od);
  enc.PutString(table.od_pool.arena());
  enc.PutU64(table.od_pool.offsets().size());
  for (uint32_t off : table.od_pool.offsets()) enc.PutU32(off);
  enc.PutU64(table.rows.size());
  for (const GkRow& row : table.rows) {
    enc.PutU64(row.ordinal);
    enc.PutI64(row.eid);
    EncodeStringList(row.keys, enc);
    EncodeStringList(row.ods, enc);
    enc.PutU64(row.norm_ods.size());
    for (const OdRef& ref : row.norm_ods) {
      enc.PutU32(ref.id);
      enc.PutU32(ref.length);
    }
  }
}

Result<EngineSnapshot::GkState> DecodeGkTable(std::string_view payload) {
  Decoder dec(payload);
  EngineSnapshot::GkState state;
  ASSIGN_OR_RETURN(state.index, dec.GetU64());
  ASSIGN_OR_RETURN(state.kg_done, dec.GetBool());
  GkTable& table = state.table;
  ASSIGN_OR_RETURN(table.num_keys, dec.GetU64());
  ASSIGN_OR_RETURN(table.num_od, dec.GetU64());
  std::string_view arena;
  ASSIGN_OR_RETURN(arena, dec.GetString());
  uint64_t num_offsets;
  ASSIGN_OR_RETURN(num_offsets, dec.GetCount(dec.remaining() / 4));
  std::vector<uint32_t> offsets;
  offsets.reserve(static_cast<size_t>(num_offsets));
  uint32_t prev = 0;
  for (uint64_t i = 0; i < num_offsets; ++i) {
    uint32_t off;
    ASSIGN_OR_RETURN(off, dec.GetU32());
    if (off > arena.size() || (i > 0 && off < prev)) {
      return Corrupt("od-pool offset out of order or past arena end");
    }
    prev = off;
    offsets.push_back(off);
  }
  table.od_pool = OdPool::FromParts(std::string(arena), std::move(offsets));

  uint64_t num_rows;
  ASSIGN_OR_RETURN(num_rows, dec.GetCount(dec.remaining()));
  table.rows.reserve(static_cast<size_t>(num_rows));
  for (uint64_t i = 0; i < num_rows; ++i) {
    GkRow row;
    ASSIGN_OR_RETURN(row.ordinal, dec.GetU64());
    ASSIGN_OR_RETURN(row.eid, dec.GetI64());
    ASSIGN_OR_RETURN(row.keys, DecodeStringList(dec));
    ASSIGN_OR_RETURN(row.ods, DecodeStringList(dec));
    uint64_t num_norm;
    ASSIGN_OR_RETURN(num_norm, dec.GetCount(dec.remaining() / 8));
    // Key generation interns every OD value, and the detector relies on
    // it (the exact-OD pre-pass groups rows by pool IDs).
    if (num_norm != row.ods.size()) {
      return Corrupt("normalized-OD count differs from the OD count");
    }
    row.norm_ods.reserve(static_cast<size_t>(num_norm));
    for (uint64_t j = 0; j < num_norm; ++j) {
      OdRef ref;
      ASSIGN_OR_RETURN(ref.id, dec.GetU32());
      ASSIGN_OR_RETURN(ref.length, dec.GetU32());
      if (ref.id >= table.od_pool.size() ||
          static_cast<size_t>(table.od_pool.offsets()[ref.id]) + ref.length >
              table.od_pool.arena().size()) {
        return Corrupt("normalized-OD reference outside its pool");
      }
      row.norm_ods.push_back(ref);
    }
    table.rows.push_back(std::move(row));
  }
  return state;
}

// --- Spill rows (external sort) --------------------------------------------

namespace {

void EncodeSpillRow(const GkRow& row, const OdPool& pool, Encoder& enc) {
  enc.PutU64(row.ordinal);
  enc.PutI64(row.eid);
  EncodeStringList(row.keys, enc);
  EncodeStringList(row.ods, enc);
  enc.PutU64(row.norm_ods.size());
  for (const OdRef& ref : row.norm_ods) enc.PutString(pool.View(ref));
}

Result<GkRow> DecodeSpillRow(std::string_view payload, OdPool* pool) {
  Decoder dec(payload);
  GkRow row;
  ASSIGN_OR_RETURN(row.ordinal, dec.GetU64());
  ASSIGN_OR_RETURN(row.eid, dec.GetI64());
  ASSIGN_OR_RETURN(row.keys, DecodeStringList(dec));
  ASSIGN_OR_RETURN(row.ods, DecodeStringList(dec));
  uint64_t num_norm;
  ASSIGN_OR_RETURN(num_norm, dec.GetCount(dec.remaining() / 8));
  row.norm_ods.reserve(static_cast<size_t>(num_norm));
  for (uint64_t i = 0; i < num_norm; ++i) {
    std::string_view value;
    ASSIGN_OR_RETURN(value, dec.GetString());
    row.norm_ods.push_back(pool->Intern(value));
  }
  if (!dec.AtEnd()) return Corrupt("trailing bytes after spill row");
  return row;
}

}  // namespace

Result<std::vector<size_t>> ExternalSortedOrder(
    const GkTable& table, size_t key_index,
    const extsort::ExtSortOptions& options, obs::Tracer& tracer,
    extsort::ExtSortStats* stats) {
  extsort::ExternalSorter sorter(options);
  {
    obs::Tracer::Span spill_span = tracer.StartSpan("extsort/spill");
    for (const GkRow& row : table.rows) {
      Encoder enc;
      EncodeSpillRow(row, table.od_pool, enc);
      SXNM_RETURN_IF_ERROR(sorter.Add(row.keys[key_index], enc.bytes()));
    }
  }
  obs::Tracer::Span merge_span = tracer.StartSpan("extsort/merge");
  auto stream = sorter.Finish();
  if (!stream.ok()) return stream.status();
  std::vector<size_t> order;
  order.reserve(table.rows.size());
  OdPool scratch_pool;  // bounded by the pass's distinct OD values
  extsort::SortedRecord record;
  while (true) {
    auto more = (*stream)->Next(&record);
    if (!more.ok()) return more.status();
    if (!*more) break;
    auto row = DecodeSpillRow(record.payload, &scratch_pool);
    if (!row.ok()) return row.status();
    order.push_back(static_cast<size_t>(row->ordinal));
  }
  if (order.size() != table.rows.size()) {
    return Status::DataLoss("external sort '" + options.name + "' returned " +
                            std::to_string(order.size()) + " of " +
                            std::to_string(table.rows.size()) + " rows");
  }
  *stats = sorter.stats();
  return order;
}

// --- Cluster set -----------------------------------------------------------

void EncodeClusterSet(const ClusterSet& clusters, Encoder& enc) {
  enc.PutU64(clusters.num_instances());
  enc.PutU64(clusters.clusters().size());
  for (const std::vector<size_t>& members : clusters.clusters()) {
    enc.PutU64(members.size());
    for (size_t m : members) enc.PutU64(m);
  }
}

Result<ClusterSet> DecodeClusterSet(Decoder& dec) {
  uint64_t num_instances;
  ASSIGN_OR_RETURN(num_instances, dec.GetU64());
  uint64_t num_clusters;
  ASSIGN_OR_RETURN(num_clusters, dec.GetCount(dec.remaining() / 8));
  // FromClusters hard-requires a valid partition; corrupt bytes must
  // fail here, not inside it.
  std::vector<char> seen(static_cast<size_t>(num_instances), 0);
  std::vector<std::vector<size_t>> clusters;
  clusters.reserve(static_cast<size_t>(num_clusters));
  for (uint64_t i = 0; i < num_clusters; ++i) {
    uint64_t size;
    ASSIGN_OR_RETURN(size, dec.GetCount(dec.remaining() / 8));
    std::vector<size_t> members;
    members.reserve(static_cast<size_t>(size));
    for (uint64_t j = 0; j < size; ++j) {
      uint64_t m;
      ASSIGN_OR_RETURN(m, dec.GetU64());
      if (m >= num_instances || seen[static_cast<size_t>(m)]) {
        return Corrupt("cluster member out of range or duplicated");
      }
      seen[static_cast<size_t>(m)] = 1;
      members.push_back(static_cast<size_t>(m));
    }
    clusters.push_back(std::move(members));
  }
  return ClusterSet::FromClusters(std::move(clusters),
                                  static_cast<size_t>(num_instances));
}

// --- Candidate result frame ------------------------------------------------

void EncodeCandidateResult(const CandidateResult& result,
                           uint64_t candidate_index, Encoder& enc) {
  enc.PutU64(candidate_index);
  enc.PutString(result.name);
  enc.PutU64(result.num_instances);
  enc.PutU64(result.comparisons);
  enc.PutU64(result.duplicate_pairs.size());
  for (const auto& [a, b] : result.duplicate_pairs) {
    enc.PutU64(a);
    enc.PutU64(b);
  }
  enc.PutU64(result.duplicate_eid_pairs.size());
  for (const auto& [a, b] : result.duplicate_eid_pairs) {
    enc.PutI64(a);
    enc.PutI64(b);
  }
  EncodeClusterSet(result.clusters, enc);
  // The GK relation travels in its own kGkTable frame.
}

Result<EngineSnapshot::CompletedCandidate> DecodeCandidateResult(
    std::string_view payload) {
  Decoder dec(payload);
  EngineSnapshot::CompletedCandidate out;
  ASSIGN_OR_RETURN(out.index, dec.GetU64());
  std::string_view name;
  ASSIGN_OR_RETURN(name, dec.GetString());
  out.result.name = std::string(name);
  ASSIGN_OR_RETURN(out.result.num_instances, dec.GetU64());
  ASSIGN_OR_RETURN(out.result.comparisons, dec.GetU64());
  uint64_t num_pairs;
  ASSIGN_OR_RETURN(num_pairs, dec.GetCount(dec.remaining() / 16));
  out.result.duplicate_pairs.reserve(static_cast<size_t>(num_pairs));
  for (uint64_t i = 0; i < num_pairs; ++i) {
    uint64_t a, b;
    ASSIGN_OR_RETURN(a, dec.GetU64());
    ASSIGN_OR_RETURN(b, dec.GetU64());
    out.result.duplicate_pairs.emplace_back(static_cast<size_t>(a),
                                            static_cast<size_t>(b));
  }
  uint64_t num_eid_pairs;
  ASSIGN_OR_RETURN(num_eid_pairs, dec.GetCount(dec.remaining() / 16));
  out.result.duplicate_eid_pairs.reserve(static_cast<size_t>(num_eid_pairs));
  for (uint64_t i = 0; i < num_eid_pairs; ++i) {
    int64_t a, b;
    ASSIGN_OR_RETURN(a, dec.GetI64());
    ASSIGN_OR_RETURN(b, dec.GetI64());
    out.result.duplicate_eid_pairs.emplace_back(a, b);
  }
  ASSIGN_OR_RETURN(out.result.clusters, DecodeClusterSet(dec));
  return out;
}

// --- Degradation frame -----------------------------------------------------

void EncodeDegradation(const DegradationReport& degradation, Encoder& enc) {
  enc.PutBool(degradation.degraded);
  enc.PutU32(static_cast<uint32_t>(degradation.reason));
  enc.PutU64(degradation.comparison_budget);
  enc.PutU64(degradation.passes.size());
  for (const PassDegradation& pass : degradation.passes) {
    enc.PutString(pass.candidate);
    enc.PutU64(pass.key_index);
    enc.PutBool(pass.skipped);
    enc.PutU64(pass.window_used);
    enc.PutU64(pass.rows);
    enc.PutU64(pass.pairs_planned);
    enc.PutU64(pass.pairs_elided);
  }
}

Result<DegradationReport> DecodeDegradation(std::string_view payload) {
  Decoder dec(payload);
  DegradationReport degradation;
  ASSIGN_OR_RETURN(degradation.degraded, dec.GetBool());
  uint32_t reason;
  ASSIGN_OR_RETURN(reason, dec.GetU32());
  if (reason > static_cast<uint32_t>(util::StatusCode::kDataLoss)) {
    return Corrupt("degradation reason out of range");
  }
  degradation.reason = static_cast<util::StatusCode>(reason);
  ASSIGN_OR_RETURN(degradation.comparison_budget, dec.GetU64());
  uint64_t num_passes;
  ASSIGN_OR_RETURN(num_passes, dec.GetCount(dec.remaining() / 8));
  degradation.passes.reserve(static_cast<size_t>(num_passes));
  for (uint64_t i = 0; i < num_passes; ++i) {
    PassDegradation pass;
    std::string_view candidate;
    ASSIGN_OR_RETURN(candidate, dec.GetString());
    pass.candidate = std::string(candidate);
    ASSIGN_OR_RETURN(pass.key_index, dec.GetU64());
    ASSIGN_OR_RETURN(pass.skipped, dec.GetBool());
    ASSIGN_OR_RETURN(pass.window_used, dec.GetU64());
    ASSIGN_OR_RETURN(pass.rows, dec.GetU64());
    ASSIGN_OR_RETURN(pass.pairs_planned, dec.GetU64());
    ASSIGN_OR_RETURN(pass.pairs_elided, dec.GetU64());
    degradation.passes.push_back(std::move(pass));
  }
  return degradation;
}

// --- Report rows frame -----------------------------------------------------

void EncodeReportRows(const std::vector<DetectionReport::Row>& rows,
                      Encoder& enc) {
  enc.PutU64(rows.size());
  for (const DetectionReport::Row& row : rows) {
    enc.PutString(row.candidate);
    enc.PutU64(row.key_index);
    enc.PutU64(row.num_instances);
    EncodePassStats(row.stats, enc);
  }
}

Result<std::vector<DetectionReport::Row>> DecodeReportRows(
    std::string_view payload) {
  Decoder dec(payload);
  uint64_t num_rows;
  ASSIGN_OR_RETURN(num_rows, dec.GetCount(dec.remaining() / 8));
  std::vector<DetectionReport::Row> rows;
  rows.reserve(static_cast<size_t>(num_rows));
  for (uint64_t i = 0; i < num_rows; ++i) {
    DetectionReport::Row row;
    std::string_view candidate;
    ASSIGN_OR_RETURN(candidate, dec.GetString());
    row.candidate = std::string(candidate);
    ASSIGN_OR_RETURN(row.key_index, dec.GetU64());
    ASSIGN_OR_RETURN(row.num_instances, dec.GetU64());
    ASSIGN_OR_RETURN(row.stats, DecodePassStats(dec));
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- Metrics frame ---------------------------------------------------------

void EncodeMetricsSnapshot(const obs::MetricsSnapshot& snapshot,
                           Encoder& enc) {
  enc.PutU64(snapshot.counters.size());
  for (const auto& sample : snapshot.counters) {
    enc.PutString(sample.name);
    enc.PutU64(sample.value);
  }
  enc.PutU64(snapshot.gauges.size());
  for (const auto& sample : snapshot.gauges) {
    enc.PutString(sample.name);
    enc.PutDouble(sample.value);
  }
  enc.PutU64(snapshot.histograms.size());
  for (const auto& sample : snapshot.histograms) {
    enc.PutString(sample.name);
    enc.PutU64(sample.bounds.size());
    for (double b : sample.bounds) enc.PutDouble(b);
    enc.PutU64(sample.counts.size());
    for (uint64_t c : sample.counts) enc.PutU64(c);
    enc.PutDouble(sample.sum);
    enc.PutU64(sample.total_count);
  }
}

Result<obs::MetricsSnapshot> DecodeMetricsSnapshot(std::string_view payload) {
  Decoder dec(payload);
  obs::MetricsSnapshot snapshot;
  uint64_t num_counters;
  ASSIGN_OR_RETURN(num_counters, dec.GetCount(dec.remaining() / 16));
  snapshot.counters.reserve(static_cast<size_t>(num_counters));
  for (uint64_t i = 0; i < num_counters; ++i) {
    obs::MetricsSnapshot::CounterSample sample;
    std::string_view name;
    ASSIGN_OR_RETURN(name, dec.GetString());
    sample.name = std::string(name);
    ASSIGN_OR_RETURN(sample.value, dec.GetU64());
    snapshot.counters.push_back(std::move(sample));
  }
  uint64_t num_gauges;
  ASSIGN_OR_RETURN(num_gauges, dec.GetCount(dec.remaining() / 16));
  snapshot.gauges.reserve(static_cast<size_t>(num_gauges));
  for (uint64_t i = 0; i < num_gauges; ++i) {
    obs::MetricsSnapshot::GaugeSample sample;
    std::string_view name;
    ASSIGN_OR_RETURN(name, dec.GetString());
    sample.name = std::string(name);
    ASSIGN_OR_RETURN(sample.value, dec.GetDouble());
    snapshot.gauges.push_back(std::move(sample));
  }
  uint64_t num_histograms;
  ASSIGN_OR_RETURN(num_histograms, dec.GetCount(dec.remaining() / 8));
  snapshot.histograms.reserve(static_cast<size_t>(num_histograms));
  for (uint64_t i = 0; i < num_histograms; ++i) {
    obs::MetricsSnapshot::HistogramSample sample;
    std::string_view name;
    ASSIGN_OR_RETURN(name, dec.GetString());
    sample.name = std::string(name);
    uint64_t num_bounds;
    ASSIGN_OR_RETURN(num_bounds, dec.GetCount(dec.remaining() / 8));
    sample.bounds.reserve(static_cast<size_t>(num_bounds));
    for (uint64_t j = 0; j < num_bounds; ++j) {
      double b;
      ASSIGN_OR_RETURN(b, dec.GetDouble());
      sample.bounds.push_back(b);
    }
    uint64_t num_counts;
    ASSIGN_OR_RETURN(num_counts, dec.GetCount(dec.remaining() / 8));
    sample.counts.reserve(static_cast<size_t>(num_counts));
    for (uint64_t j = 0; j < num_counts; ++j) {
      uint64_t c;
      ASSIGN_OR_RETURN(c, dec.GetU64());
      sample.counts.push_back(c);
    }
    ASSIGN_OR_RETURN(sample.sum, dec.GetDouble());
    ASSIGN_OR_RETURN(sample.total_count, dec.GetU64());
    snapshot.histograms.push_back(std::move(sample));
  }
  return snapshot;
}

// --- Whole-snapshot save / load --------------------------------------------

Status SaveEngineSnapshot(const EngineSnapshotView& view,
                          const std::string& path, SnapshotWriteStats* stats) {
  SnapshotWriter writer;
  {
    Encoder enc;
    EncodeFingerprint(view.fingerprint, enc);
    writer.AddFrame(FrameType::kFingerprint, std::move(enc));
  }
  {
    Encoder enc;
    EncodeCursor(view.cursor, enc);
    writer.AddFrame(FrameType::kCursor, std::move(enc));
  }
  if (view.gk != nullptr) {
    for (size_t t = 0; t < view.gk->size(); ++t) {
      Encoder enc;
      bool kg_done =
          view.kg_done != nullptr && t < view.kg_done->size()
              ? (*view.kg_done)[t] != 0
              : true;
      EncodeGkTable((*view.gk)[t], t, kg_done, enc);
      writer.AddFrame(FrameType::kGkTable, std::move(enc));
    }
  }
  for (const auto& [index, result] : view.completed) {
    Encoder enc;
    EncodeCandidateResult(*result, index, enc);
    writer.AddFrame(FrameType::kCandidateResult, std::move(enc));
  }
  if (view.degradation != nullptr) {
    Encoder enc;
    EncodeDegradation(*view.degradation, enc);
    writer.AddFrame(FrameType::kDegradation, std::move(enc));
  }
  if (view.report_rows != nullptr) {
    Encoder enc;
    EncodeReportRows(*view.report_rows, enc);
    writer.AddFrame(FrameType::kReportRows, std::move(enc));
  }
  if (view.metrics != nullptr) {
    Encoder enc;
    EncodeMetricsSnapshot(*view.metrics, enc);
    writer.AddFrame(FrameType::kMetrics, std::move(enc));
  }
  if (view.explain_text != nullptr) {
    Encoder enc;
    enc.PutString(*view.explain_text);
    for (uint64_t tally : view.explain_tallies) enc.PutU64(tally);
    writer.AddFrame(FrameType::kExplain, std::move(enc));
  }
  std::string bytes = writer.Serialize();
  if (stats != nullptr) {
    stats->bytes = bytes.size();
    stats->frames = writer.num_frames() + 1;  // + end frame
  }
  return persist::AtomicWriteFile(path, bytes);
}

Status CommitEngineSnapshot(
    EngineSnapshotView view, const std::string& path,
    const std::vector<DetectionReport::Row>& report_rows,
    obs::MetricsRegistry& metrics, const obs::ExplainLog& explain) {
  obs::MetricsSnapshot metrics_snapshot;
  if (metrics.enabled()) {
    view.report_rows = &report_rows;
    metrics_snapshot = metrics.Snapshot();
    view.metrics = &metrics_snapshot;
  }
  if (explain.enabled()) {
    view.explain_text = &explain.text();
    view.explain_tallies[0] = explain.owned_pairs();
    view.explain_tallies[1] = explain.prepass_pairs();
  }
  SnapshotWriteStats stats;
  SXNM_RETURN_IF_ERROR(SaveEngineSnapshot(view, path, &stats));
  if (metrics.enabled()) {
    // Counted after the commit (and so absent from the frame just
    // written): persist.* counters describe *this* run's IO, differ
    // between resumed and uninterrupted runs by design, and are excluded
    // from determinism digests like the wall-time counters.
    metrics.counter("persist.snapshot_writes").Add(1);
    metrics.counter("persist.snapshot_bytes_total").Add(stats.bytes);
  }
  return Status::Ok();
}

Result<EngineSnapshot> LoadEngineSnapshot(
    const std::string& path, const CheckpointFingerprint& expected) {
  auto bytes = persist::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();  // kNotFound or kDataLoss
  auto reader = SnapshotReader::Parse(*bytes);
  if (!reader.ok()) return reader.status();

  EngineSnapshot snapshot;
  const Frame* fp_frame = reader->Find(FrameType::kFingerprint);
  if (fp_frame == nullptr) return Corrupt("missing fingerprint frame");
  ASSIGN_OR_RETURN(snapshot.fingerprint, DecodeFingerprint(fp_frame->payload));
  const CheckpointFingerprint& fp = snapshot.fingerprint;
  if (fp.config_fingerprint != expected.config_fingerprint) {
    return Status::FailedPrecondition(
        "checkpoint '" + path +
        "' was taken under a different configuration; delete it to start "
        "fresh");
  }
  if (fp.doc_fingerprint != expected.doc_fingerprint) {
    return Status::FailedPrecondition(
        "checkpoint '" + path +
        "' was taken over a different input document; delete it to start "
        "fresh");
  }
  if (fp.metrics_enabled != expected.metrics_enabled ||
      fp.explain_enabled != expected.explain_enabled) {
    return Status::FailedPrecondition(
        "checkpoint '" + path +
        "' was taken with a different observability shape "
        "(metrics/explain); delete it to start fresh");
  }

  const Frame* cursor_frame = reader->Find(FrameType::kCursor);
  if (cursor_frame == nullptr) return Corrupt("missing cursor frame");
  ASSIGN_OR_RETURN(snapshot.cursor, DecodeCursor(cursor_frame->payload));

  for (const Frame* frame : reader->FindAll(FrameType::kGkTable)) {
    EngineSnapshot::GkState state;
    ASSIGN_OR_RETURN(state, DecodeGkTable(frame->payload));
    snapshot.gk.push_back(std::move(state));
  }
  for (const Frame* frame : reader->FindAll(FrameType::kCandidateResult)) {
    EngineSnapshot::CompletedCandidate completed;
    ASSIGN_OR_RETURN(completed, DecodeCandidateResult(frame->payload));
    snapshot.completed.push_back(std::move(completed));
  }
  // The GK frames cover candidates 0..n-1 once each; every completed
  // candidate is one of them, once.
  std::vector<char> has_gk(snapshot.gk.size(), 0);
  for (const EngineSnapshot::GkState& state : snapshot.gk) {
    if (state.index >= has_gk.size() || has_gk[state.index]++ != 0) {
      return Corrupt("GK frame candidate index invalid or duplicated");
    }
  }
  std::vector<char> has_result(snapshot.gk.size(), 0);
  for (const EngineSnapshot::CompletedCandidate& completed :
       snapshot.completed) {
    if (completed.index >= has_result.size() ||
        has_result[completed.index]++ != 0) {
      return Corrupt("completed-candidate index invalid or duplicated");
    }
  }
  if (const Frame* frame = reader->Find(FrameType::kDegradation)) {
    ASSIGN_OR_RETURN(snapshot.degradation, DecodeDegradation(frame->payload));
  }
  if (const Frame* frame = reader->Find(FrameType::kReportRows)) {
    ASSIGN_OR_RETURN(snapshot.report_rows, DecodeReportRows(frame->payload));
  }
  if (const Frame* frame = reader->Find(FrameType::kMetrics)) {
    ASSIGN_OR_RETURN(snapshot.metrics, DecodeMetricsSnapshot(frame->payload));
  }
  if (const Frame* frame = reader->Find(FrameType::kExplain)) {
    Decoder dec(frame->payload);
    std::string_view text;
    ASSIGN_OR_RETURN(text, dec.GetString());
    snapshot.explain_text = std::string(text);
    for (uint64_t& tally : snapshot.explain_tallies) {
      ASSIGN_OR_RETURN(tally, dec.GetU64());
    }
  }
  return snapshot;
}

#undef ASSIGN_OR_RETURN

}  // namespace sxnm::core
