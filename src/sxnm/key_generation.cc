#include "sxnm/key_generation.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "obs/metrics.h"
#include "util/fault_injection.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sxnm::core {

std::vector<size_t> GkTable::SortedOrder(size_t key_index) const {
  assert(key_index < num_keys || (num_keys == 0 && key_index == 0));
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return rows[a].keys[key_index] < rows[b].keys[key_index];
  });
  return order;
}

namespace {

// The shared row loop behind both entry points. `checked` enables the
// per-row governance hooks (fault site, cancellation poll) that the plain
// GenerateKeys skips entirely.
util::Result<KeyGenResult> GenerateKeysImpl(
    const CandidateConfig& candidate,
    const std::vector<const xml::Element*>& elements,
    const std::vector<xml::ElementId>& eids, bool checked,
    const util::CancellationToken& token, obs::MetricsRegistry* metrics) {
  assert(elements.size() == eids.size());
  GkTable table;
  table.num_keys = candidate.keys.size();
  table.num_od = candidate.od.size();
  table.rows.reserve(elements.size());

  // OD-normalization time is banked across rows with a paused stopwatch;
  // the clock reads happen only when metrics are actually collected.
  const bool measure = metrics != nullptr && metrics->enabled();
  util::Stopwatch norm_watch;
  norm_watch.Pause();

  // Live progress: batched adds to kg.rows_done let the telemetry
  // sampler watch key generation advance mid-candidate. Flushed at the
  // same completion point as kg.rows, so the two agree whenever a
  // candidate finishes; a cancelled candidate keeps its partial batches
  // (rows_done measures work performed, not rows kept).
  obs::Counter* rows_done =
      measure ? &metrics->counter("kg.rows_done") : nullptr;
  uint32_t rows_done_pending = 0;
  constexpr uint32_t kRowsDoneBatch = 256;

  for (size_t i = 0; i < elements.size(); ++i) {
    if (checked) {
      if (util::FaultInjector::Instance().ShouldFail("kg.row")) {
        return util::Status::Internal(
            "injected fault: key generation failed on row " +
            std::to_string(i) + " of candidate '" + candidate.name + "'");
      }
      if (token.cancelled()) {
        KeyGenResult out;
        out.cancelled = true;
        return out;
      }
    }
    const xml::Element& element = *elements[i];
    GkRow row;
    row.ordinal = i;
    row.eid = eids[i];

    // Each path referenced by a key or the OD is evaluated at most once.
    std::map<int, std::string> value_cache;
    auto value_of = [&](int pid) -> const std::string& {
      auto it = value_cache.find(pid);
      if (it == value_cache.end()) {
        const PathEntry* path = candidate.FindPath(pid);
        std::string value =
            path != nullptr ? path->path.SelectFirstValue(element) : "";
        it = value_cache.emplace(pid, std::move(value)).first;
      }
      return it->second;
    };

    row.keys.reserve(candidate.keys.size());
    for (const KeyDef& key : candidate.keys) {
      // Parts are applied in `order` sequence.
      std::vector<const KeyPartRef*> parts;
      parts.reserve(key.parts.size());
      for (const KeyPartRef& part : key.parts) parts.push_back(&part);
      std::stable_sort(parts.begin(), parts.end(),
                       [](const KeyPartRef* a, const KeyPartRef* b) {
                         return a->order < b->order;
                       });
      std::string generated;
      for (const KeyPartRef* part : parts) {
        generated += part->pattern.Apply(value_of(part->pid));
      }
      row.keys.push_back(std::move(generated));
    }

    row.ods.reserve(candidate.od.size());
    row.norm_ods.reserve(candidate.od.size());
    if (measure) norm_watch.Resume();
    for (const OdEntry& od : candidate.od) {
      row.ods.push_back(value_of(od.pid));
      row.norm_ods.push_back(table.od_pool.Intern(
          util::ToLower(util::NormalizeWhitespace(row.ods.back()))));
    }
    if (measure) norm_watch.Pause();

    table.rows.push_back(std::move(row));
    if (rows_done != nullptr && ++rows_done_pending >= kRowsDoneBatch) {
      rows_done->Add(rows_done_pending);
      rows_done_pending = 0;
    }
  }

  if (measure) {
    rows_done->Add(rows_done_pending);
    metrics->counter("kg.rows").Add(table.rows.size());
    metrics->counter("kg.keys_emitted")
        .Add(table.rows.size() * table.num_keys);
    metrics->counter("kg.od_values").Add(table.rows.size() * table.num_od);
    metrics->counter("kg.od_normalize_us")
        .Add(static_cast<uint64_t>(norm_watch.ElapsedSeconds() * 1e6));
    metrics->counter("kg.od_pool_strings").Add(table.od_pool.size());
    metrics->counter("kg.od_pool_bytes").Add(table.od_pool.arena_bytes());
  }
  KeyGenResult out;
  out.table = std::move(table);
  return out;
}

}  // namespace

GkTable GenerateKeys(const CandidateConfig& candidate,
                     const std::vector<const xml::Element*>& elements,
                     const std::vector<xml::ElementId>& eids,
                     obs::MetricsRegistry* metrics) {
  auto result = GenerateKeysImpl(candidate, elements, eids, /*checked=*/false,
                                 util::CancellationToken(), metrics);
  // Unchecked generation has no failure or cancellation path.
  return std::move(result.value().table);
}

GkTable GenerateKeys(const CandidateConfig& candidate,
                     const CandidateInstances& instances,
                     obs::MetricsRegistry* metrics) {
  return GenerateKeys(candidate, instances.elements, instances.eids, metrics);
}

util::Result<KeyGenResult> GenerateKeysChecked(
    const CandidateConfig& candidate, const CandidateInstances& instances,
    const util::CancellationToken& token, obs::MetricsRegistry* metrics) {
  return GenerateKeysImpl(candidate, instances.elements, instances.eids,
                          /*checked=*/true, token, metrics);
}

}  // namespace sxnm::core
