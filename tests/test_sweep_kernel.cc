// Differential tests for the vectorized filter kernels: the forward sweep
// on the scalar batch kernel and on the AVX2 batch kernel must produce the
// all-pairs oracle's pair set on every input shape — including the shapes
// that stress SIMD lane handling (sizes straddling the 4-lane width and the
// pad granule), closed-boundary touches, zero-area MBRs, duplicate xlo
// keys, and pair counts that overflow the batch buffer.

#include "core/sweep_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/plane_sweep_join.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

/// Scoped PBSM_SIMD override (restores the prior value on destruction).
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    const char* prev = std::getenv("PBSM_SIMD");
    if (prev != nullptr) saved_ = prev;
    had_prev_ = prev != nullptr;
    if (value != nullptr) {
      setenv("PBSM_SIMD", value, /*overwrite=*/1);
    } else {
      unsetenv("PBSM_SIMD");
    }
  }
  ~ScopedSimdEnv() {
    if (had_prev_) {
      setenv("PBSM_SIMD", saved_.c_str(), 1);
    } else {
      unsetenv("PBSM_SIMD");
    }
  }

 private:
  std::string saved_;
  bool had_prev_ = false;
};

MbrPairSet RunBatch(std::vector<KeyPointer> r, std::vector<KeyPointer> s,
                    SimdMode simd, InputOrder order = InputOrder::kUnsorted) {
  std::vector<OidPair> out;
  const uint64_t n =
      PlaneSweepJoinBatch(&r, &s, VectorBatchSink{&out}, simd, order);
  EXPECT_EQ(n, out.size());
  MbrPairSet set;
  for (const OidPair& p : out) set.emplace(p.r, p.s);
  // Each candidate is emitted exactly once per sweep.
  EXPECT_EQ(set.size(), out.size());
  return set;
}

std::vector<KeyPointer> RandomRects(Rng* rng, size_t n, double extent,
                                    double max_size, uint64_t oid_base) {
  std::vector<KeyPointer> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->UniformDouble(0, extent);
    const double y = rng->UniformDouble(0, extent);
    out.push_back(KeyPointer{Rect(x, y, x + rng->NextDouble() * max_size,
                                  y + rng->NextDouble() * max_size),
                             oid_base + i});
  }
  return out;
}

/// Asserts every kernel's forward sweep agrees with the all-pairs oracle.
void ExpectAllEquivalent(const std::vector<KeyPointer>& r,
                         const std::vector<KeyPointer>& s) {
  const MbrPairSet expected = AllPairsMbrJoin(r, s);
  EXPECT_EQ(RunBatch(r, s, SimdMode::kScalar), expected) << "scalar";
  if (Avx2Supported()) {
    EXPECT_EQ(RunBatch(r, s, SimdMode::kAvx2), expected) << "avx2";
  }
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

TEST(SweepKernelDispatchTest, ScalarRequestAlwaysScalar) {
  EXPECT_EQ(ResolveKernel(SimdMode::kScalar), KernelKind::kScalar);
}

TEST(SweepKernelDispatchTest, Avx2RequestMatchesCpuSupport) {
  const KernelKind kind = ResolveKernel(SimdMode::kAvx2);
  if (Avx2Supported()) {
    EXPECT_EQ(kind, KernelKind::kAvx2);
  } else {
    EXPECT_EQ(kind, KernelKind::kScalar);
  }
}

TEST(SweepKernelDispatchTest, EnvOverridesAuto) {
  {
    ScopedSimdEnv env("scalar");
    EXPECT_EQ(ResolveKernel(SimdMode::kAuto), KernelKind::kScalar);
  }
  {
    ScopedSimdEnv env("avx2");
    EXPECT_EQ(ResolveKernel(SimdMode::kAuto),
              Avx2Supported() ? KernelKind::kAvx2 : KernelKind::kScalar);
  }
  {
    ScopedSimdEnv env("auto");
    EXPECT_EQ(ResolveKernel(SimdMode::kAuto),
              Avx2Supported() ? KernelKind::kAvx2 : KernelKind::kScalar);
  }
}

TEST(SweepKernelDispatchTest, EnvDoesNotOverrideExplicitRequest) {
  ScopedSimdEnv env("avx2");
  EXPECT_EQ(ResolveKernel(SimdMode::kScalar), KernelKind::kScalar);
}

TEST(SweepKernelDispatchTest, UnsupportedAvx2FallsBackAndCounts) {
  if (Avx2Supported()) GTEST_SKIP() << "AVX2 available; fallback not taken";
  Counter* const fallback = MetricsRegistry::Global().GetCounter(
      "sweep.kernel.fallback_scalar");
  const uint64_t before = fallback->Value();
  EXPECT_EQ(ResolveKernel(SimdMode::kAvx2), KernelKind::kScalar);
  EXPECT_GT(fallback->Value(), before);
}

TEST(SweepKernelDispatchTest, KindNames) {
  EXPECT_EQ(KernelKindName(KernelKind::kScalar), "scalar");
  EXPECT_EQ(KernelKindName(KernelKind::kAvx2), "avx2");
}

// ---------------------------------------------------------------------------
// Differential: sizes straddling SIMD widths.
// ---------------------------------------------------------------------------

class SweepKernelSizeTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SweepKernelSizeTest, AllKernelsAgree) {
  const auto [nr, ns] = GetParam();
  Rng rng(nr * 1000 + ns + 42);
  const auto r = RandomRects(&rng, nr, 50.0, 10.0, 0);
  const auto s = RandomRects(&rng, ns, 50.0, 10.0, 1 << 20);
  ExpectAllEquivalent(r, s);
}

INSTANTIATE_TEST_SUITE_P(
    LaneStraddlingSizes, SweepKernelSizeTest,
    ::testing::Values(std::pair<size_t, size_t>{0, 0},
                      std::pair<size_t, size_t>{0, 5},
                      std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{3, 4},
                      std::pair<size_t, size_t>{4, 4},
                      std::pair<size_t, size_t>{5, 3},
                      std::pair<size_t, size_t>{63, 64},
                      std::pair<size_t, size_t>{64, 65},
                      std::pair<size_t, size_t>{65, 63},
                      std::pair<size_t, size_t>{1000, 1000}));

// ---------------------------------------------------------------------------
// Differential: adversarial geometry.
// ---------------------------------------------------------------------------

TEST(SweepKernelGeometryTest, TouchingBoundariesMatch) {
  // Closed-interval semantics: rectangles sharing only an edge or corner
  // intersect. The x-touch also sits exactly at the sweep's termination
  // condition (xlo == head_xhi must still be scanned).
  std::vector<KeyPointer> r = {{Rect(0, 0, 1, 1), 1},
                               {Rect(2, 0, 3, 1), 2}};
  std::vector<KeyPointer> s = {
      {Rect(1, 1, 2, 2), 10},   // Corner-touch r1 at (1,1) and r2 at (2,1).
      {Rect(3, 0, 4, 1), 20},   // Edge-touch r2.
      {Rect(1, 0, 2, 1), 30}};  // Edge-touch both.
  const MbrPairSet expected = {{1, 10}, {2, 10}, {2, 20}, {1, 30}, {2, 30}};
  EXPECT_EQ(RunBatch(r, s, SimdMode::kScalar), expected);
  ExpectAllEquivalent(r, s);
}

TEST(SweepKernelGeometryTest, ZeroAreaRects) {
  std::vector<KeyPointer> r = {{Rect(1, 1, 1, 1), 1},    // Point.
                               {Rect(0, 2, 4, 2), 2}};   // Horizontal line.
  std::vector<KeyPointer> s = {{Rect(1, 1, 1, 1), 10},   // Same point.
                               {Rect(2, 0, 2, 4), 20},   // Vertical line.
                               {Rect(3, 3, 3, 3), 30}};  // Isolated point.
  const MbrPairSet expected = {{1, 10}, {2, 20}};
  EXPECT_EQ(RunBatch(r, s, SimdMode::kScalar), expected);
  ExpectAllEquivalent(r, s);
}

TEST(SweepKernelGeometryTest, DuplicateXloKeys) {
  // Many rectangles sharing one xlo: sort order among them is unspecified,
  // but the emitted pair *set* must not depend on it.
  std::vector<KeyPointer> r, s;
  for (uint64_t i = 0; i < 20; ++i) {
    r.push_back({Rect(5.0, static_cast<double>(i), 6.0, i + 0.5), i});
    s.push_back({Rect(5.0, i + 0.25, 7.0, i + 0.75), 100 + i});
  }
  ExpectAllEquivalent(r, s);
}

TEST(SweepKernelGeometryTest, RandomClusteredWorkloads) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    auto r = RandomRects(&rng, 300, 20.0, 8.0, 0);
    auto s = RandomRects(&rng, 300, 20.0, 8.0, 1 << 20);
    ExpectAllEquivalent(r, s);
  }
}

// ---------------------------------------------------------------------------
// Buffer management.
// ---------------------------------------------------------------------------

TEST(SweepKernelBufferTest, PairCountBeyondBufferCapacity) {
  // 80 x 80 identical rectangles = 6400 pairs > kPairBufferCap (4096), so
  // the sweep must flush mid-run without losing or duplicating pairs.
  std::vector<KeyPointer> r, s;
  for (uint64_t i = 0; i < 80; ++i) {
    r.push_back({Rect(0, 0, 1, 1), i});
    s.push_back({Rect(0, 0, 1, 1), 1000 + i});
  }
  Counter* const flushes =
      MetricsRegistry::Global().GetCounter("sweep.buffer.flushes");
  const uint64_t flushes_before = flushes->Value();
  const MbrPairSet scalar = RunBatch(r, s, SimdMode::kScalar);
  EXPECT_EQ(scalar.size(), 6400u);
  EXPECT_GE(flushes->Value(), flushes_before + 2);  // >1 flush per sweep.
  ExpectAllEquivalent(r, s);
}

TEST(SweepKernelBufferTest, KernelMetricsAdvance) {
  Rng rng(77);
  auto r = RandomRects(&rng, 500, 30.0, 5.0, 0);
  auto s = RandomRects(&rng, 500, 30.0, 5.0, 1 << 20);
  Counter* const batches =
      MetricsRegistry::Global().GetCounter("sweep.kernel.batches");
  Counter* const lanes =
      MetricsRegistry::Global().GetCounter("sweep.kernel.simd_lanes_used");
  const uint64_t batches_before = batches->Value();
  const uint64_t lanes_before = lanes->Value();
  RunBatch(r, s, SimdMode::kScalar);
  EXPECT_GT(batches->Value(), batches_before);
  if (Avx2Supported()) {
    RunBatch(r, s, SimdMode::kAvx2);
    EXPECT_GT(lanes->Value(), lanes_before);
  }
}

// ---------------------------------------------------------------------------
// Sorted-input fast path.
// ---------------------------------------------------------------------------

TEST(SweepKernelSortedTest, SortedByXloSkipsSortAndMatches) {
  Rng rng(21);
  auto r = RandomRects(&rng, 200, 40.0, 6.0, 0);
  auto s = RandomRects(&rng, 200, 40.0, 6.0, 1 << 20);
  const MbrPairSet expected = RunBatch(r, s, SimdMode::kScalar);
  auto by_xlo = [](const KeyPointer& a, const KeyPointer& b) {
    return a.mbr.xlo < b.mbr.xlo;
  };
  std::sort(r.begin(), r.end(), by_xlo);
  std::sort(s.begin(), s.end(), by_xlo);
  EXPECT_EQ(RunBatch(r, s, SimdMode::kScalar, InputOrder::kSortedByXlo),
            expected);
  if (Avx2Supported()) {
    EXPECT_EQ(RunBatch(r, s, SimdMode::kAvx2, InputOrder::kSortedByXlo),
              expected);
  }
}

// ---------------------------------------------------------------------------
// Window scan.
// ---------------------------------------------------------------------------

TEST(OverlapScanTest, MatchesNaiveIntersects) {
  Rng rng(31);
  const auto items = RandomRects(&rng, 137, 25.0, 5.0, 0);  // Odd size.
  for (const Rect& query :
       {Rect(5, 5, 15, 15), Rect(0, 0, 25, 25), Rect(24, 24, 30, 30),
        Rect(10, 10, 10, 10), Rect()}) {
    std::vector<uint32_t> expected;
    if (!query.empty()) {
      for (uint32_t i = 0; i < items.size(); ++i) {
        if (items[i].mbr.Intersects(query)) expected.push_back(i);
      }
    }
    for (const KernelKind kind : {KernelKind::kScalar, KernelKind::kAvx2}) {
      if (kind == KernelKind::kAvx2 && !Avx2Supported()) continue;
      std::vector<uint32_t> hits;
      OverlapScan(items.data(), items.size(), query, kind, &hits);
      EXPECT_EQ(hits, expected) << KernelKindName(kind);
    }
  }
}

TEST(OverlapScanTest, EmptyInput) {
  std::vector<uint32_t> hits;
  EXPECT_EQ(OverlapScan(static_cast<const KeyPointer*>(nullptr), 0,
                        Rect(0, 0, 1, 1), KernelKind::kScalar, &hits),
            0u);
  EXPECT_TRUE(hits.empty());
}

// ---------------------------------------------------------------------------
// Scratch reuse.
// ---------------------------------------------------------------------------

TEST(SweepScratchTest, ReservedBytesGaugeTracksScratch) {
  Gauge* const gauge =
      MetricsRegistry::Global().GetGauge("sweep.alloc.reserved_bytes");
  const int64_t before = gauge->Value();
  {
    SweepScratch scratch;
    std::vector<KeyPointer> r = {{Rect(0, 0, 1, 1), 1}};
    std::vector<KeyPointer> s = {{Rect(0, 0, 1, 1), 2}};
    std::vector<OidPair> out;
    PlaneSweepJoinBatch(&r, &s, VectorBatchSink{&out}, SimdMode::kScalar,
                        InputOrder::kUnsorted, &scratch);
    EXPECT_GT(gauge->Value(), before);
  }
  // Scratch destruction returns its reservation.
  EXPECT_EQ(gauge->Value(), before);
}

TEST(SweepScratchTest, ThreadLocalScratchIsPerThread) {
  SweepScratch* main_scratch = &SweepScratch::ThreadLocal();
  EXPECT_EQ(main_scratch, &SweepScratch::ThreadLocal());  // Stable.
  SweepScratch* other_scratch = nullptr;
  std::thread t([&] { other_scratch = &SweepScratch::ThreadLocal(); });
  t.join();
  EXPECT_NE(main_scratch, other_scratch);
}

TEST(SweepScratchTest, ReuseAcrossSweepsIsCorrect) {
  // Growing/shrinking inputs through one scratch: stale SoA state from a
  // larger earlier sweep must not leak into a smaller later one.
  SweepScratch scratch;
  Rng rng(53);
  for (const size_t n : {500u, 3u, 64u, 1u, 129u}) {
    auto r = RandomRects(&rng, n, 30.0, 6.0, 0);
    auto s = RandomRects(&rng, n, 30.0, 6.0, 1 << 20);
    const MbrPairSet expected = AllPairsMbrJoin(r, s);
    std::vector<OidPair> out;
    PlaneSweepJoinBatch(&r, &s, VectorBatchSink{&out}, SimdMode::kAuto,
                        InputOrder::kUnsorted, &scratch);
    MbrPairSet got;
    for (const OidPair& p : out) got.emplace(p.r, p.s);
    EXPECT_EQ(got, expected) << "n=" << n;
  }
}

}  // namespace
}  // namespace pbsm
