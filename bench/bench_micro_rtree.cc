// Microbenchmarks for the R*-tree: insertion, window queries, bulk load.
//
// `bench_micro_rtree --compare-layouts` skips google-benchmark and instead
// compares the in-memory node layouts end to end through WindowQuery: for
// each workload it builds one tree per layout (AoS page scans, quantized
// uint16 ribbons), verifies every layout x kernel
// combination returns the identical hit set on every probe (exit 1 on
// mismatch), and times a fixed probe batch best-of-N. One
// RTREE_COMPARE_JSON line is emitted; the checked-in baseline lives at
// bench/results/simd_rtree_baseline.json and the CI perf-smoke job replays
// this mode, gating best_speedup (scalar AoS vs the AVX2 ribbon variant)
// on AVX2 hosts.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/sweep_kernel.h"
#include "rtree/rstar_tree.h"

namespace pbsm {
namespace {

std::vector<RTreeEntry> RandomEntries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<RTreeEntry> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.UniformDouble(0, 1000);
    const double y = rng.UniformDouble(0, 1000);
    out.push_back(RTreeEntry{
        Rect(x, y, x + rng.NextDouble() * 2, y + rng.NextDouble() * 2), i});
  }
  return out;
}

void BM_RTreeInsert(benchmark::State& state) {
  bench::Workspace ws(4096 * kPageSize);
  auto tree = RStarTree::Create(ws.pool(), "t.rtree");
  PBSM_CHECK(tree.ok());
  Rng rng(1);
  for (auto _ : state) {
    const double x = rng.UniformDouble(0, 1000);
    const double y = rng.UniformDouble(0, 1000);
    PBSM_CHECK(tree->Insert(Rect(x, y, x + 1, y + 1), 1).ok());
  }
}
BENCHMARK(BM_RTreeInsert);

void BM_RTreeBulkLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto entries = RandomEntries(n, 2);
  int run = 0;
  for (auto _ : state) {
    state.PauseTiming();
    bench::Workspace ws(4096 * kPageSize);
    state.ResumeTiming();
    auto tree = RStarTree::BulkLoad(
        ws.pool(), "bl" + std::to_string(run++) + ".rtree", entries, 0.75);
    PBSM_CHECK(tree.ok());
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(10000)->Arg(50000);

void BM_RTreeWindowQuery(benchmark::State& state) {
  bench::Workspace ws(4096 * kPageSize);
  const auto entries = RandomEntries(50000, 3);
  auto tree = RStarTree::BulkLoad(ws.pool(), "q.rtree", entries, 0.75);
  PBSM_CHECK(tree.ok());
  Rng rng(4);
  std::vector<uint64_t> hits;
  for (auto _ : state) {
    hits.clear();
    const double x = rng.UniformDouble(0, 990);
    const double y = rng.UniformDouble(0, 990);
    PBSM_CHECK(tree->WindowQuery(Rect(x, y, x + 10, y + 10), &hits).ok());
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeWindowQuery);

void BM_RTreePointProbe(benchmark::State& state) {
  // The INL inner loop: a probe with a tiny window.
  bench::Workspace ws(4096 * kPageSize);
  const auto entries = RandomEntries(50000, 5);
  auto tree = RStarTree::BulkLoad(ws.pool(), "p.rtree", entries, 0.75);
  PBSM_CHECK(tree.ok());
  Rng rng(6);
  std::vector<uint64_t> hits;
  for (auto _ : state) {
    hits.clear();
    const double x = rng.UniformDouble(0, 999);
    const double y = rng.UniformDouble(0, 999);
    PBSM_CHECK(
        tree->WindowQuery(Rect(x, y, x + 0.5, y + 0.5), &hits).ok());
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreePointProbe);

// ---------------------------------------------------------------------------
// --compare-layouts mode.
// ---------------------------------------------------------------------------

struct LayoutCase {
  const char* label;
  size_t n;            ///< Indexed entries.
  double window;       ///< Probe window side length (0.5 = INL point probe).
  size_t probes;
};

struct LayoutVariant {
  const char* label;   ///< JSON key prefix, e.g. "q16_avx2".
  NodeLayout layout;
  SimdMode simd;
};

/// Best-of-k wall time for the full probe batch against one tree under one
/// kernel. The warm-up rep also faults every touched page into the pool, so
/// the AoS timing measures page *parsing*, not disk I/O — the quantity the
/// ribbons eliminate.
double TimeProbesMs(const RStarTree& tree, const std::vector<Rect>& windows,
                    SimdMode simd, uint64_t* hits_out) {
  constexpr int kReps = 5;
  double best_ms = 1e300;
  uint64_t total = 0;
  std::vector<uint64_t> hits;
  for (int rep = 0; rep <= kReps; ++rep) {  // Rep 0 is warmup.
    uint64_t count = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const Rect& w : windows) {
      hits.clear();
      PBSM_CHECK(tree.WindowQuery(w, &hits, simd).ok());
      count += hits.size();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep > 0 && ms < best_ms) best_ms = ms;
    total = count;
  }
  *hits_out = total;
  return best_ms;
}

int RunCompareLayouts() {
  const LayoutCase cases[] = {
      {"probe-50k", 50000, 0.5, 4000},
      {"window-50k", 50000, 10.0, 2000},
      {"probe-200k", 200000, 0.5, 4000},
  };
  const LayoutVariant variants[] = {
      {"aos_scalar", NodeLayout::kAos, SimdMode::kScalar},
      {"q16_scalar", NodeLayout::kSoaQuantized, SimdMode::kScalar},
      {"q16_avx2", NodeLayout::kSoaQuantized, SimdMode::kAvx2},
  };
  const bool have_avx2 = Avx2Supported();
  std::printf("Node-layout comparison (WindowQuery, warm buffer pool)\n");
  std::printf("  avx2_compiled_in=%d avx2_supported=%d\n",
              Avx2CompiledIn() ? 1 : 0, have_avx2 ? 1 : 0);

  bool all_match = true;
  double best_speedup = 0.0;
  std::string cases_json = "[";
  for (const LayoutCase& c : cases) {
    bench::Workspace ws(8192 * kPageSize);
    const auto entries = RandomEntries(c.n, 11);
    std::vector<RStarTree> trees;  // One per layout, same page images.
    for (const NodeLayout layout :
         {NodeLayout::kAos, NodeLayout::kSoaQuantized}) {
      auto tree = RStarTree::BulkLoad(
          ws.pool(),
          std::string(c.label) + "_" + std::string(NodeLayoutName(layout)) +
              ".rtree",
          entries, 0.75, layout);
      PBSM_CHECK(tree.ok()) << tree.status().ToString();
      PBSM_CHECK(tree->layout() == layout);
      trees.push_back(std::move(*tree));
    }
    auto tree_for = [&trees](NodeLayout layout) -> const RStarTree& {
      for (const RStarTree& t : trees) {
        if (t.layout() == layout) return t;
      }
      PBSM_CHECK(false);
      return trees[0];
    };

    std::vector<Rect> windows;
    Rng rng(13);
    for (size_t i = 0; i < c.probes; ++i) {
      const double x = rng.UniformDouble(0, 1000 - c.window);
      const double y = rng.UniformDouble(0, 1000 - c.window);
      windows.emplace_back(x, y, x + c.window, y + c.window);
    }

    // Correctness first: every variant must return the identical hit set
    // on every probe (sorted, since traversal order differs per layout).
    bool match = true;
    std::vector<uint64_t> want, got;
    for (const Rect& w : windows) {
      want.clear();
      PBSM_CHECK(tree_for(NodeLayout::kAos)
                     .WindowQuery(w, &want, SimdMode::kScalar)
                     .ok());
      std::sort(want.begin(), want.end());
      for (const LayoutVariant& v : variants) {
        got.clear();
        PBSM_CHECK(tree_for(v.layout).WindowQuery(w, &got, v.simd).ok());
        std::sort(got.begin(), got.end());
        match = match && got == want;
      }
    }
    all_match = all_match && match;

    double ms[sizeof(variants) / sizeof(variants[0])];
    uint64_t hits = 0;
    std::string variants_json;
    for (size_t vi = 0; vi < sizeof(variants) / sizeof(variants[0]); ++vi) {
      const LayoutVariant& v = variants[vi];
      ms[vi] = TimeProbesMs(tree_for(v.layout), windows, v.simd, &hits);
      char field[96];
      std::snprintf(field, sizeof(field), "%s\"%s_ms\":%.3f",
                    vi > 0 ? "," : "", v.label, ms[vi]);
      variants_json += field;
    }
    // The headline ratio: scalar AoS page scans vs the vector ribbon.
    const double speedup = ms[2] > 0 ? ms[0] / ms[2] : 0.0;
    if (have_avx2 && speedup > best_speedup) best_speedup = speedup;
    std::printf(
        "  %-12s n=%-7zu probes=%-5zu hits=%-8llu aos=%8.2fms "
        "q16=%8.2fms/%8.2fms speedup=%5.2fx %s\n",
        c.label, c.n, c.probes, static_cast<unsigned long long>(hits), ms[0],
        ms[1], ms[2], speedup, match ? "MATCH" : "MISMATCH");

    char row[512];
    std::snprintf(row, sizeof(row),
                  "%s{\"label\":\"%s\",\"n\":%zu,\"probes\":%zu,"
                  "\"window\":%.1f,\"hits\":%llu,%s,\"speedup\":%.3f,"
                  "\"match\":%s}",
                  cases_json.size() > 1 ? "," : "", c.label, c.n, c.probes,
                  c.window, static_cast<unsigned long long>(hits),
                  variants_json.c_str(), speedup, match ? "true" : "false");
    cases_json += row;
  }
  cases_json += "]";

  std::printf("  best_speedup=%.2fx %s\n", best_speedup,
              all_match ? "(all hit sets match)" : "(HIT SET MISMATCH)");
  std::printf(
      "RTREE_COMPARE_JSON {\"schema\":\"pbsm.rtree_compare.v1\","
      "\"host\":%s,\"avx2_supported\":%s,\"all_match\":%s,"
      "\"best_speedup\":%.3f,\"cases\":%s}\n",
      bench::HostInfoJson().c_str(), have_avx2 ? "true" : "false",
      all_match ? "true" : "false", best_speedup, cases_json.c_str());
  return all_match ? 0 : 1;
}

}  // namespace
}  // namespace pbsm

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare-layouts") == 0) {
      return pbsm::RunCompareLayouts();
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
