#include "sxnm/key_generation.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/parallel.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sxnm::core {

std::vector<size_t> GkTable::SortedOrder(size_t key_index) const {
  assert(key_index < num_keys || (num_keys == 0 && key_index == 0));
  // Sorts (8-byte big-endian key prefix, length, row) entries, so most
  // comparisons decide on the prefix without loading the key. Bytes
  // compare unsigned, as std::string's operator< does. On a prefix tie
  // the length, capped at 9, decides when either key fits the prefix
  // (the shorter one is then a prefix of the other); only two longer keys
  // compare their remaining bytes. The row index breaks exact ties, so
  // this total order is the stable_sort order.
  constexpr int kLengthShift = 56;  // rows stay far below 2^56
  constexpr uint64_t kRowMask = (uint64_t{1} << kLengthShift) - 1;
  struct Entry {
    uint64_t prefix;
    uint64_t length_row;  // capped length << kLengthShift | row
  };
  std::vector<Entry> entries(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const std::string& key = rows[i].keys[key_index];
    unsigned char bytes[8] = {};
    std::memcpy(bytes, key.data(), std::min<size_t>(key.size(), 8));
    uint64_t prefix = 0;
    for (unsigned char b : bytes) prefix = (prefix << 8) | b;
    const uint64_t length = std::min<size_t>(key.size(), 9);
    entries[i] = {prefix, length << kLengthShift | i};
  }
  std::sort(entries.begin(), entries.end(),
            [&](const Entry& a, const Entry& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              if ((a.length_row >> kLengthShift) == 9 &&
                  (b.length_row >> kLengthShift) == 9) {
                std::string_view key_a =
                    rows[a.length_row & kRowMask].keys[key_index];
                std::string_view key_b =
                    rows[b.length_row & kRowMask].keys[key_index];
                int c = key_a.substr(8).compare(key_b.substr(8));
                if (c != 0) return c < 0;
              }
              return a.length_row < b.length_row;
            });
  std::vector<size_t> order(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    order[i] = entries[i].length_row & kRowMask;
  }
  return order;
}

namespace {

// Rows per key-generation task. A constant, so chunk boundaries, and with
// them the chunk-local OdPools, are the same at any thread count.
constexpr size_t kChunkRows = 1024;

// One candidate compiled for key generation: every path a key part or an
// OD entry references gets a dense value slot, evaluated once per row.
struct KgPlan {
  struct Part {
    size_t slot;
    const KeyPattern* pattern;
  };
  std::vector<const xml::XPath*> slots;  // nullptr: undefined path id
  std::vector<std::vector<Part>> keys;   // each key's parts, by `order`
  std::vector<size_t> od_slots;          // one per OdEntry
};

KgPlan CompilePlan(const CandidateConfig& candidate) {
  KgPlan plan;
  std::vector<int> slot_pids;
  auto slot_of = [&](int pid) {
    auto it = std::find(slot_pids.begin(), slot_pids.end(), pid);
    if (it != slot_pids.end()) {
      return static_cast<size_t>(it - slot_pids.begin());
    }
    const PathEntry* path = candidate.FindPath(pid);
    slot_pids.push_back(pid);
    plan.slots.push_back(path != nullptr ? &path->path : nullptr);
    return plan.slots.size() - 1;
  };
  for (const KeyDef& key : candidate.keys) {
    std::vector<const KeyPartRef*> parts;
    for (const KeyPartRef& part : key.parts) parts.push_back(&part);
    std::stable_sort(parts.begin(), parts.end(),
                     [](const KeyPartRef* a, const KeyPartRef* b) {
                       return a->order < b->order;
                     });
    std::vector<KgPlan::Part>& compiled = plan.keys.emplace_back();
    for (const KeyPartRef* part : parts) {
      compiled.push_back({slot_of(part->pid), &part->pattern});
    }
  }
  for (const OdEntry& od : candidate.od) {
    plan.od_slots.push_back(slot_of(od.pid));
  }
  return plan;
}

// One candidate's key generation: its input, plan and output table.
struct Job {
  const CandidateConfig* candidate;
  const std::vector<const xml::Element*>* elements;
  const std::vector<xml::ElementId>* eids;
  KgPlan plan;
  GkTable table;  // rows pre-sized; each chunk fills its own slice
};

// One task: rows [begin, end) of one job.
struct Chunk {
  size_t job = 0;
  size_t begin = 0;
  size_t end = 0;
  // The values of the chunk-local OdPool the rows' norm_ods refer to,
  // without its lookup index: ID i starts at offsets[i] in arena.
  std::string arena;
  std::vector<uint32_t> offsets;
  bool done = false;  // every row generated, not cut by cancellation
};

// Generates the rows of `chunk` into their slice of `job.table`, interning
// normalized OD values into a chunk-local pool, whose values the chunk
// keeps for the merge. Polls `token` between rows.
void GenerateChunk(Job& job, Chunk& chunk,
                   const util::CancellationToken& token,
                   obs::MetricsRegistry* metrics) {
  const KgPlan& plan = job.plan;
  // OD-normalization time is banked across rows with a paused stopwatch;
  // the clock reads happen only when metrics are actually collected.
  const bool measure = metrics != nullptr && metrics->enabled();
  util::Stopwatch norm_watch;
  norm_watch.Pause();

  OdPool pool;
  std::vector<std::string> values(plan.slots.size());
  std::string norm;
  size_t i = chunk.begin;
  for (; i < chunk.end; ++i) {
    if (token.cancelled()) break;
    const xml::Element& element = *(*job.elements)[i];
    for (size_t s = 0; s < plan.slots.size(); ++s) {
      if (plan.slots[s] != nullptr) {
        plan.slots[s]->FirstValueInto(element, &values[s]);
      }
    }
    GkRow& row = job.table.rows[i];
    row.ordinal = i;
    row.eid = (*job.eids)[i];
    row.keys.resize(plan.keys.size());
    for (size_t k = 0; k < plan.keys.size(); ++k) {
      for (const KgPlan::Part& part : plan.keys[k]) {
        part.pattern->AppendTo(values[part.slot], &row.keys[k]);
      }
    }
    row.ods.resize(plan.od_slots.size());
    row.norm_ods.resize(plan.od_slots.size());
    if (measure) norm_watch.Resume();
    for (size_t j = 0; j < plan.od_slots.size(); ++j) {
      row.ods[j] = values[plan.od_slots[j]];
      norm = row.ods[j];
      util::NormalizeWhitespaceInPlace(&norm);
      for (char& c : norm) c = util::AsciiToLower(c);
      row.norm_ods[j] = pool.Intern(norm);
    }
    if (measure) norm_watch.Pause();
  }
  chunk.done = i == chunk.end;
  chunk.arena = pool.arena();
  chunk.offsets = pool.offsets();
  if (measure) {
    // Live progress for the telemetry sampler; a cut chunk keeps the rows
    // it did (kg.rows_done measures work performed, not rows kept).
    metrics->counter("kg.rows_done").Add(i - chunk.begin);
    metrics->counter("kg.od_normalize_us")
        .Add(static_cast<uint64_t>(norm_watch.ElapsedSeconds() * 1e6));
  }
}

// Re-interns the chunk-local pools of `chunks` (one job's, in row order)
// into `table.od_pool` and remaps the rows' norm_ods. Rows are visited in
// order and a chunk's local ids first occur in id order, so every value
// gets the id a single row-ordered pass would have given it. With
// `checked`, the "kg.row" fault site is checked once per row here, in row
// order, so the Nth hit is row N-1 at any thread count.
util::Status MergeChunks(const CandidateConfig& candidate, GkTable& table,
                         std::vector<Chunk>::iterator first,
                         std::vector<Chunk>::iterator last, bool checked) {
  constexpr uint32_t kUnmapped = UINT32_MAX;
  std::vector<uint32_t> remap;
  for (auto chunk = first; chunk != last; ++chunk) {
    remap.assign(chunk->offsets.size(), kUnmapped);
    for (size_t i = chunk->begin; i < chunk->end; ++i) {
      if (checked && util::FaultInjector::Instance().ShouldFail("kg.row")) {
        return util::Status::Internal(
            "injected fault: key generation failed on row " +
            std::to_string(i) + " of candidate '" + candidate.name + "'");
      }
      for (OdRef& ref : table.rows[i].norm_ods) {
        uint32_t& id = remap[ref.id];
        if (id == kUnmapped) {
          id = table.od_pool
                   .Intern(std::string_view(chunk->arena)
                               .substr(chunk->offsets[ref.id], ref.length))
                   .id;
        }
        ref.id = id;
      }
    }
    chunk->arena = std::string();
    chunk->offsets = std::vector<uint32_t>();
  }
  return util::Status::Ok();
}

// The one key-generation routine: compiles each job, runs all of their
// chunks in one cancellable parallel loop, then merges job by job.
util::Result<std::vector<KeyGenResult>> Generate(
    std::vector<Job> jobs, size_t num_threads, bool checked,
    const util::CancellationToken& token, obs::MetricsRegistry* metrics,
    obs::Tracer* tracer) {
  std::vector<Chunk> chunks;
  for (size_t j = 0; j < jobs.size(); ++j) {
    Job& job = jobs[j];
    assert(job.elements->size() == job.eids->size());
    job.plan = CompilePlan(*job.candidate);
    job.table.num_keys = job.candidate->keys.size();
    job.table.num_od = job.candidate->od.size();
    const size_t n = job.elements->size();
    job.table.rows.resize(n);
    // Every job has at least one chunk, so a job with no rows is still
    // shed when cancellation stops the loop before reaching it.
    size_t begin = 0;
    do {
      Chunk& chunk = chunks.emplace_back();
      chunk.job = j;
      chunk.begin = begin;
      chunk.end = std::min(n, begin + kChunkRows);
      begin = chunk.end;
    } while (begin < n);
  }

  auto start_span = [tracer](const char* name) {
    return tracer != nullptr ? tracer->StartSpan(name) : obs::Tracer::Span();
  };
  util::ParallelForCancellable(chunks.size(), num_threads, token,
                               [&](size_t c) {
                                 obs::Tracer::Span span =
                                     start_span("kg/generate");
                                 GenerateChunk(jobs[chunks[c].job], chunks[c],
                                               token, metrics);
                               });

  const bool measure = metrics != nullptr && metrics->enabled();
  std::vector<KeyGenResult> out(jobs.size());
  auto first = chunks.begin();
  for (size_t j = 0; j < jobs.size(); ++j) {
    auto last = std::find_if(first, chunks.end(),
                             [j](const Chunk& c) { return c.job != j; });
    // All-or-nothing: a partial GK relation would make windowing depend
    // on where the cut landed.
    if (!std::all_of(first, last, [](const Chunk& c) { return c.done; })) {
      out[j].cancelled = true;
      first = last;
      continue;
    }
    obs::Tracer::Span span = start_span("kg/merge");
    GkTable& table = jobs[j].table;
    SXNM_RETURN_IF_ERROR(
        MergeChunks(*jobs[j].candidate, table, first, last, checked));
    first = last;
    if (measure) {
      metrics->counter("kg.rows").Add(table.rows.size());
      metrics->counter("kg.keys_emitted")
          .Add(table.rows.size() * table.num_keys);
      metrics->counter("kg.od_values").Add(table.rows.size() * table.num_od);
      metrics->counter("kg.od_pool_strings").Add(table.od_pool.size());
      metrics->counter("kg.od_pool_bytes").Add(table.od_pool.arena_bytes());
    }
    out[j].table = std::move(table);
  }
  return out;
}

}  // namespace

GkTable GenerateKeys(const CandidateConfig& candidate,
                     const std::vector<const xml::Element*>& elements,
                     const std::vector<xml::ElementId>& eids,
                     obs::MetricsRegistry* metrics) {
  std::vector<Job> jobs(1);
  jobs[0].candidate = &candidate;
  jobs[0].elements = &elements;
  jobs[0].eids = &eids;
  auto result = Generate(std::move(jobs), /*num_threads=*/1,
                         /*checked=*/false, util::CancellationToken(), metrics,
                         /*tracer=*/nullptr);
  // Unchecked generation has no failure or cancellation path.
  return std::move(result.value()[0].table);
}

GkTable GenerateKeys(const CandidateConfig& candidate,
                     const CandidateInstances& instances,
                     obs::MetricsRegistry* metrics) {
  return GenerateKeys(candidate, instances.elements, instances.eids, metrics);
}

util::Result<std::vector<KeyGenResult>> GenerateKeysChecked(
    const std::vector<CandidateInstances>& candidates, size_t num_threads,
    const util::CancellationToken& token, obs::MetricsRegistry* metrics,
    obs::Tracer* tracer) {
  std::vector<Job> jobs(candidates.size());
  for (size_t t = 0; t < candidates.size(); ++t) {
    jobs[t].candidate = candidates[t].config;
    jobs[t].elements = &candidates[t].elements;
    jobs[t].eids = &candidates[t].eids;
  }
  return Generate(std::move(jobs), num_threads, /*checked=*/true, token,
                  metrics, tracer);
}

}  // namespace sxnm::core
