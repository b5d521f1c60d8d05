// M1: microbenchmarks for the similarity functions (google-benchmark).
// The sliding window's cost is dominated by φ^OD evaluations, so their
// per-call cost drives the SW curves of Fig. 5.
//
// Usage:
//   micro_similarity [google-benchmark flags]   runs the microbenchmarks
//   micro_similarity --json <path>              writes the edit-distance
//       kernel comparison (classic row-DP vs Myers bit-parallel, ns/op at
//       several string lengths) to <path>; format in docs/BENCHMARKS.md.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "text/edit_distance.h"
#include "text/jaro_winkler.h"
#include "text/myers.h"
#include "text/qgram.h"
#include "text/soundex.h"
#include "util/rng.h"

namespace {

std::string MakeString(size_t length, uint64_t seed) {
  sxnm::util::Rng rng(seed);
  static constexpr char kAlpha[] = "abcdefghijklmnopqrstuvwxyz ";
  std::string s;
  s.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    s.push_back(kAlpha[rng.NextBelow(sizeof(kAlpha) - 1)]);
  }
  return s;
}

void BM_Levenshtein(benchmark::State& state) {
  std::string a = MakeString(size_t(state.range(0)), 1);
  std::string b = MakeString(size_t(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sxnm::text::LevenshteinDistance(a, b));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_Levenshtein)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_MyersDistance(benchmark::State& state) {
  std::string a = MakeString(size_t(state.range(0)), 1);
  std::string b = MakeString(size_t(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sxnm::text::MyersDistance(a, b));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MyersDistance)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_MyersBounded(benchmark::State& state) {
  std::string a = MakeString(size_t(state.range(0)), 1);
  std::string b = MakeString(size_t(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sxnm::text::MyersBoundedDistance(a, b, 3));
  }
}
BENCHMARK(BM_MyersBounded)->Arg(16)->Arg(64)->Arg(128);

void BM_BoundedLevenshtein(benchmark::State& state) {
  std::string a = MakeString(size_t(state.range(0)), 1);
  std::string b = MakeString(size_t(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sxnm::text::BoundedLevenshteinDistance(a, b, 3));
  }
}
BENCHMARK(BM_BoundedLevenshtein)->Arg(16)->Arg(64)->Arg(128);

void BM_NormalizedEdit(benchmark::State& state) {
  std::string a = MakeString(size_t(state.range(0)), 3);
  std::string b = MakeString(size_t(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sxnm::text::NormalizedEditSimilarity(a, b));
  }
}
BENCHMARK(BM_NormalizedEdit)->Arg(16)->Arg(64);

void BM_Osa(benchmark::State& state) {
  std::string a = MakeString(size_t(state.range(0)), 5);
  std::string b = MakeString(size_t(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sxnm::text::OsaDistance(a, b));
  }
}
BENCHMARK(BM_Osa)->Arg(16)->Arg(64);

void BM_JaroWinkler(benchmark::State& state) {
  std::string a = MakeString(size_t(state.range(0)), 7);
  std::string b = MakeString(size_t(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sxnm::text::JaroWinklerSimilarity(a, b));
  }
}
BENCHMARK(BM_JaroWinkler)->Arg(16)->Arg(64);

void BM_QGram(benchmark::State& state) {
  std::string a = MakeString(size_t(state.range(0)), 9);
  std::string b = MakeString(size_t(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sxnm::text::QGramSimilarity(a, b, 3));
  }
}
BENCHMARK(BM_QGram)->Arg(16)->Arg(64);

void BM_Soundex(benchmark::State& state) {
  std::string a = MakeString(16, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sxnm::text::Soundex(a));
  }
}
BENCHMARK(BM_Soundex);

// ---------------------------------------------------------------------------
// --json: edit-distance kernel comparison (docs/BENCHMARKS.md).

// Best-of-`repeats` ns/op of `fn(a, b)` over `iters` calls. A handful of
// alternating inputs keeps the branch predictor honest without letting
// the working set leave L1.
template <typename Fn>
double KernelNsPerOp(const std::vector<std::pair<std::string, std::string>>&
                         inputs,
                     int iters, int repeats, Fn fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      const auto& [a, b] = inputs[size_t(i) % inputs.size()];
      benchmark::DoNotOptimize(fn(a, b));
    }
    auto elapsed = std::chrono::duration<double, std::nano>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    double ns = elapsed / iters;
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

int WriteKernelJson(const std::string& path) {
  constexpr size_t kLengths[] = {8, 16, 24, 32, 48, 64, 96, 128, 192, 256};
  constexpr int kRepeats = 5;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  sxnm::bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("bench", "micro_similarity");
  json.Field("schema_version", size_t{11});
  json.Field("repeats", size_t{kRepeats});
  json.BeginArray("kernels");
  for (size_t length : kLengths) {
    // Several random same-length pairs; random text over a 27-letter
    // alphabet keeps distances large (the kernels' worst case).
    std::vector<std::pair<std::string, std::string>> inputs;
    for (uint64_t seed = 0; seed < 8; ++seed) {
      inputs.emplace_back(MakeString(length, 2 * seed + 1),
                          MakeString(length, 2 * seed + 2));
    }
    bool match = true;
    for (const auto& [a, b] : inputs) {
      match = match &&
              sxnm::text::MyersDistance(a, b) ==
                  sxnm::text::LevenshteinDistance(a, b);
    }
    // Aim for roughly comparable wall time per length: the DP is
    // quadratic, so scale iterations down with the square of the length.
    int iters = int(std::max<size_t>(2000, 40000000 / (length * length)));
    double classic_ns =
        KernelNsPerOp(inputs, iters, kRepeats, [](const auto& a,
                                                  const auto& b) {
          return sxnm::text::LevenshteinDistance(a, b);
        });
    double myers_ns =
        KernelNsPerOp(inputs, iters, kRepeats, [](const auto& a,
                                                  const auto& b) {
          return sxnm::text::MyersDistance(a, b);
        });
    json.BeginObject();
    json.Field("length", length);
    json.Field("classic_dp_ns", classic_ns);
    json.Field("myers_ns", myers_ns);
    json.Field("speedup", classic_ns / myers_ns);
    json.Field("distances_match", match);
    json.EndObject();
    std::printf("len %3zu: classic %9.1f ns  myers %8.1f ns  (%5.2fx)%s\n",
                length, classic_ns, myers_ns, classic_ns / myers_ns,
                match ? "" : "  DISTANCE MISMATCH");
  }
  json.EndArray();

  json.EndObject();
  std::printf("kernel profile written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = sxnm::bench::ExtractJsonFlag(&argc, argv);
  if (!json_path.empty()) return WriteKernelJson(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
