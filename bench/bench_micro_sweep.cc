// Microbenchmarks for the in-memory plane-sweep rectangle join (the PBSM
// partition-merge kernel): the §3.1 forward sweep, sort included, across
// input sizes and selectivities.
//
// `bench_micro_sweep --compare-kernels` skips google-benchmark and instead
// runs the scalar-vs-SIMD filter-kernel comparison: for each workload it
// verifies both kernels emit the identical pair set (exit 1 on mismatch)
// and times the pure §3.1 forward-sweep scan (inputs pre-sorted so the sort
// does not dilute kernel speedup), emitting one KERNEL_COMPARE_JSON line.
// The checked-in baseline lives at bench/results/simd_sweep_baseline.json
// and the CI perf-smoke job replays this mode on every push.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/plane_sweep_join.h"
#include "core/sweep_kernel.h"

namespace pbsm {
namespace {

std::vector<KeyPointer> RandomRects(size_t n, double size, uint64_t seed) {
  Rng rng(seed);
  std::vector<KeyPointer> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.UniformDouble(0, 1000);
    const double y = rng.UniformDouble(0, 1000);
    out.push_back(KeyPointer{
        Rect(x, y, x + rng.NextDouble() * size, y + rng.NextDouble() * size),
        i});
  }
  return out;
}

void BM_ForwardSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const double size = static_cast<double>(state.range(1));
  const auto r0 = RandomRects(n, size, 1);
  const auto s0 = RandomRects(n, size, 2);
  uint64_t pairs = 0;
  for (auto _ : state) {
    auto r = r0;
    auto s = s0;
    pairs = PlaneSweepJoinBatch(&r, &s, [](const OidPair*, size_t) {});
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_ForwardSweep)
    ->Args({1000, 2})
    ->Args({10000, 2})
    ->Args({100000, 2})
    ->Args({10000, 20});

// ---------------------------------------------------------------------------
// --compare-kernels mode.
// ---------------------------------------------------------------------------

struct CompareCase {
  const char* label;
  size_t n;
  double rect_size;  // Larger rectangles = longer scan windows = more lanes.
};

/// Best-of-k wall time for one forward sweep under `simd`, counting pairs
/// through a no-op batch sink so emission overhead cannot mask kernel cost.
/// Inputs are pre-sorted and passed kSortedByXlo: both kernels then time the
/// scan itself rather than the shared std::sort.
double TimeSweepMs(std::vector<KeyPointer>* r, std::vector<KeyPointer>* s,
                   SimdMode simd, uint64_t* pairs_out) {
  constexpr int kReps = 5;
  double best_ms = 1e300;
  uint64_t pairs = 0;
  for (int rep = 0; rep <= kReps; ++rep) {  // Rep 0 is warmup.
    uint64_t count = 0;
    const auto t0 = std::chrono::steady_clock::now();
    PlaneSweepJoinBatch(
        r, s, [&count](const OidPair*, size_t k) { count += k; }, simd,
        InputOrder::kSortedByXlo);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep > 0 && ms < best_ms) best_ms = ms;
    pairs = count;
  }
  *pairs_out = pairs;
  return best_ms;
}

int RunCompareKernels() {
  const CompareCase cases[] = {
      {"sparse-10k", 10000, 2},
      {"sparse-100k", 100000, 2},
      {"mid-10k", 10000, 20},
      {"dense-4k", 4000, 80},
  };
  const bool have_avx2 = Avx2Supported();
  std::printf("Filter-kernel comparison (forward sweep, pre-sorted inputs)\n");
  std::printf("  avx2_compiled_in=%d avx2_supported=%d\n",
              Avx2CompiledIn() ? 1 : 0, have_avx2 ? 1 : 0);

  bool all_match = true;
  double best_speedup = 0.0;
  std::string cases_json = "[";
  for (const CompareCase& c : cases) {
    auto r = RandomRects(c.n, c.rect_size, 1);
    auto s = RandomRects(c.n, c.rect_size, 2);
    auto by_xlo = [](const KeyPointer& a, const KeyPointer& b) {
      return a.mbr.xlo < b.mbr.xlo;
    };
    std::sort(r.begin(), r.end(), by_xlo);
    std::sort(s.begin(), s.end(), by_xlo);

    // Correctness first: the two kernels must emit the identical pair SET.
    std::vector<OidPair> scalar_pairs, simd_pairs;
    PlaneSweepJoinBatch(&r, &s, VectorBatchSink{&scalar_pairs},
                        SimdMode::kScalar, InputOrder::kSortedByXlo);
    PlaneSweepJoinBatch(&r, &s, VectorBatchSink{&simd_pairs},
                        SimdMode::kAvx2, InputOrder::kSortedByXlo);
    auto by_pair = [](const OidPair& a, const OidPair& b) {
      return a.r != b.r ? a.r < b.r : a.s < b.s;
    };
    std::sort(scalar_pairs.begin(), scalar_pairs.end(), by_pair);
    std::sort(simd_pairs.begin(), simd_pairs.end(), by_pair);
    const bool match =
        scalar_pairs.size() == simd_pairs.size() &&
        std::equal(scalar_pairs.begin(), scalar_pairs.end(),
                   simd_pairs.begin(),
                   [](const OidPair& a, const OidPair& b) {
                     return a.r == b.r && a.s == b.s;
                   });
    all_match = all_match && match;

    uint64_t scalar_count = 0, simd_count = 0;
    const double scalar_ms = TimeSweepMs(&r, &s, SimdMode::kScalar,
                                         &scalar_count);
    const double simd_ms = TimeSweepMs(&r, &s, SimdMode::kAvx2, &simd_count);
    const double speedup = simd_ms > 0 ? scalar_ms / simd_ms : 0.0;
    if (have_avx2 && speedup > best_speedup) best_speedup = speedup;
    std::printf(
        "  %-12s n=%-7zu pairs=%-9llu scalar=%8.3fms simd=%8.3fms "
        "speedup=%5.2fx %s\n",
        c.label, c.n, static_cast<unsigned long long>(scalar_count),
        scalar_ms, simd_ms, speedup, match ? "MATCH" : "MISMATCH");

    char row[320];
    std::snprintf(row, sizeof(row),
                  "%s{\"label\":\"%s\",\"n\":%zu,\"rect_size\":%.1f,"
                  "\"pairs_scalar\":%llu,\"pairs_simd\":%llu,\"match\":%s,"
                  "\"scalar_ms\":%.3f,\"simd_ms\":%.3f,\"speedup\":%.3f}",
                  cases_json.size() > 1 ? "," : "", c.label, c.n, c.rect_size,
                  static_cast<unsigned long long>(scalar_pairs.size()),
                  static_cast<unsigned long long>(simd_pairs.size()),
                  match ? "true" : "false", scalar_ms, simd_ms, speedup);
    cases_json += row;
  }
  cases_json += "]";

  std::printf("  best_speedup=%.2fx %s\n", best_speedup,
              all_match ? "(all pair sets match)" : "(PAIR SET MISMATCH)");
  std::printf(
      "KERNEL_COMPARE_JSON {\"schema\":\"pbsm.kernel_compare.v1\","
      "\"host\":%s,\"all_match\":%s,\"best_speedup\":%.3f,\"cases\":%s}\n",
      bench::HostInfoJson().c_str(), all_match ? "true" : "false",
      best_speedup, cases_json.c_str());
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace pbsm

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare-kernels") == 0) {
      return pbsm::RunCompareKernels();
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
