// End-to-end checks of PlaneSweepJoinBatch, the in-memory rectangle join
// of one partition pair, against hand-computed cases and the all-pairs
// oracle.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/sweep_kernel.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

MbrPairSet RunJoin(std::vector<KeyPointer> r, std::vector<KeyPointer> s) {
  std::vector<OidPair> out;
  PlaneSweepJoinBatch(&r, &s, VectorBatchSink{&out});
  MbrPairSet set;
  for (const OidPair& p : out) set.emplace(p.r, p.s);
  return set;
}

uint64_t CountPairs(std::vector<KeyPointer>* r, std::vector<KeyPointer>* s) {
  return PlaneSweepJoinBatch(r, s, [](const OidPair*, size_t) {});
}

std::vector<KeyPointer> RandomRects(Rng* rng, size_t n, double extent,
                                    double max_size, uint64_t oid_base) {
  std::vector<KeyPointer> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->UniformDouble(0, extent);
    const double y = rng->UniformDouble(0, extent);
    out.push_back(KeyPointer{
        Rect(x, y, x + rng->NextDouble() * max_size,
             y + rng->NextDouble() * max_size),
        oid_base + i});
  }
  return out;
}

TEST(PlaneSweepJoinTest, EmptyInputs) {
  std::vector<KeyPointer> r, s;
  EXPECT_EQ(CountPairs(&r, &s), 0u);
  r.push_back(KeyPointer{Rect(0, 0, 1, 1), 1});
  std::vector<KeyPointer> empty;
  EXPECT_EQ(CountPairs(&r, &empty), 0u);
}

TEST(PlaneSweepJoinTest, HandComputedCase) {
  std::vector<KeyPointer> r = {{Rect(0, 0, 2, 2), 1},
                               {Rect(5, 5, 6, 6), 2}};
  std::vector<KeyPointer> s = {{Rect(1, 1, 3, 3), 10},
                               {Rect(2, 2, 4, 4), 20},   // Touches r1.
                               {Rect(7, 7, 8, 8), 30}};  // No partner.
  const MbrPairSet expected = {{1, 10}, {1, 20}};
  EXPECT_EQ(RunJoin(r, s), expected);
  EXPECT_EQ(AllPairsMbrJoin(r, s), expected);
}

TEST(PlaneSweepJoinTest, EmitsPairsInRSOrder) {
  // The sink always receives (r_oid, s_oid) regardless of which side
  // drives the sweep step.
  std::vector<KeyPointer> r = {{Rect(1, 0, 3, 1), 7}};
  std::vector<KeyPointer> s = {{Rect(0, 0, 2, 1), 1000}};  // s starts first.
  const MbrPairSet out = RunJoin(r, s);
  EXPECT_EQ(out, (MbrPairSet{{7, 1000}}));
}

TEST(PlaneSweepJoinTest, IdenticalRectanglesAllPair) {
  std::vector<KeyPointer> r, s;
  for (uint64_t i = 0; i < 10; ++i) {
    r.push_back({Rect(0, 0, 1, 1), i});
    s.push_back({Rect(0, 0, 1, 1), 100 + i});
  }
  EXPECT_EQ(RunJoin(r, s).size(), 100u);
}

TEST(PlaneSweepJoinTest, PointRectanglesTouchCount) {
  // Degenerate (zero-area) MBRs — points — touching an edge.
  std::vector<KeyPointer> r = {{Rect(1, 1, 1, 1), 1}};
  std::vector<KeyPointer> s = {{Rect(1, 1, 2, 2), 2},
                               {Rect(1.5, 1.5, 1.5, 1.5), 3}};
  const MbrPairSet expected = {{1, 2}};
  EXPECT_EQ(RunJoin(r, s), expected);
}

struct SweepCase {
  uint64_t seed;
  size_t nr;
  size_t ns;
  double max_size;  // Rect size relative to a 100x100 extent.
};

class PlaneSweepPropertyTest : public ::testing::TestWithParam<SweepCase> {};

// The nested-loops reference is the all-pairs oracle.
TEST_P(PlaneSweepPropertyTest, AllAlgorithmsMatchNestedLoops) {
  const SweepCase& c = GetParam();
  Rng rng(c.seed);
  const auto r = RandomRects(&rng, c.nr, 100.0, c.max_size, 0);
  const auto s = RandomRects(&rng, c.ns, 100.0, c.max_size, 1 << 20);
  EXPECT_EQ(RunJoin(r, s), AllPairsMbrJoin(r, s));
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, PlaneSweepPropertyTest,
    ::testing::Values(SweepCase{1, 50, 50, 5.0},
                      SweepCase{2, 200, 200, 2.0},
                      SweepCase{3, 500, 100, 10.0},
                      SweepCase{4, 1, 500, 50.0},
                      SweepCase{5, 300, 300, 0.5},
                      SweepCase{6, 100, 100, 100.0},  // Huge overlap.
                      SweepCase{7, 1000, 1000, 1.0}));

TEST(PlaneSweepJoinTest, ReturnsEmittedCount) {
  Rng rng(9);
  auto r = RandomRects(&rng, 100, 50, 5, 0);
  auto s = RandomRects(&rng, 100, 50, 5, 1000);
  uint64_t emitted = 0;
  const uint64_t reported = PlaneSweepJoinBatch(
      &r, &s, [&](const OidPair*, size_t n) { emitted += n; });
  EXPECT_EQ(reported, emitted);
}

}  // namespace
}  // namespace pbsm
