#include "geom/hilbert.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"

namespace pbsm {
namespace {

TEST(HilbertTest, Order1IsTheBasicCurve) {
  // The order-1 Hilbert curve visits (0,0), (0,1), (1,1), (1,0).
  EXPECT_EQ(HilbertD2XY(1, 0, 0), 0u);
  EXPECT_EQ(HilbertD2XY(1, 0, 1), 1u);
  EXPECT_EQ(HilbertD2XY(1, 1, 1), 2u);
  EXPECT_EQ(HilbertD2XY(1, 1, 0), 3u);
}

TEST(HilbertTest, IsBijectiveOnSmallGrids) {
  for (uint32_t order = 1; order <= 5; ++order) {
    const uint32_t side = 1u << order;
    std::set<uint64_t> seen;
    for (uint32_t x = 0; x < side; ++x) {
      for (uint32_t y = 0; y < side; ++y) {
        const uint64_t d = HilbertD2XY(order, x, y);
        EXPECT_LT(d, static_cast<uint64_t>(side) * side);
        EXPECT_TRUE(seen.insert(d).second)
            << "duplicate key at order " << order;
      }
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(side) * side);
  }
}

TEST(HilbertTest, ConsecutiveKeysAreGridNeighbors) {
  // The defining property of the Hilbert curve: walking the curve moves one
  // grid cell at a time.
  const uint32_t order = 4;
  const uint32_t side = 1u << order;
  std::vector<std::pair<uint32_t, uint32_t>> by_key(side * side);
  for (uint32_t x = 0; x < side; ++x) {
    for (uint32_t y = 0; y < side; ++y) {
      by_key[HilbertD2XY(order, x, y)] = {x, y};
    }
  }
  for (size_t d = 1; d < by_key.size(); ++d) {
    const auto [x0, y0] = by_key[d - 1];
    const auto [x1, y1] = by_key[d];
    const uint32_t manhattan = (x0 > x1 ? x0 - x1 : x1 - x0) +
                               (y0 > y1 ? y0 - y1 : y1 - y0);
    EXPECT_EQ(manhattan, 1u) << "jump at d=" << d;
  }
}

TEST(ZOrderTest, InterleavesBits) {
  EXPECT_EQ(ZOrderKey(4, 0, 0), 0u);
  EXPECT_EQ(ZOrderKey(4, 1, 0), 1u);
  EXPECT_EQ(ZOrderKey(4, 0, 1), 2u);
  EXPECT_EQ(ZOrderKey(4, 1, 1), 3u);
  EXPECT_EQ(ZOrderKey(4, 2, 0), 4u);
  EXPECT_EQ(ZOrderKey(4, 3, 3), 15u);
}

TEST(ZOrderTest, IsBijectiveOnSmallGrid) {
  std::set<uint64_t> seen;
  for (uint32_t x = 0; x < 16; ++x) {
    for (uint32_t y = 0; y < 16; ++y) {
      EXPECT_TRUE(seen.insert(ZOrderKey(4, x, y)).second);
    }
  }
}

TEST(SpaceFillingCurveTest, MapsUniverseCorners) {
  const Rect universe(0, 0, 100, 100);
  const SpaceFillingCurve curve(SpaceFillingCurve::Kind::kHilbert, universe,
                                8);
  // Corner cells map without crashing and differ from each other.
  const uint64_t k00 = curve.Key(Point{0, 0});
  const uint64_t k11 = curve.Key(Point{100, 100});
  const uint64_t kmid = curve.Key(Point{50, 50});
  EXPECT_NE(k00, k11);
  EXPECT_NE(k00, kmid);
  // Out-of-universe points clamp to border cells.
  EXPECT_EQ(curve.Key(Point{-10, -10}), k00);
}

TEST(SpaceFillingCurveTest, PreservesLocalityBetterThanRowMajor) {
  // Average key distance of adjacent points should be small relative to the
  // key space for a space-filling curve.
  const Rect universe(0, 0, 1, 1);
  const SpaceFillingCurve curve(SpaceFillingCurve::Kind::kHilbert, universe,
                                10);
  Rng rng(99);
  double total_gap = 0;
  const int kSamples = 1000;
  for (int i = 0; i < kSamples; ++i) {
    const Point p{rng.NextDouble(), rng.NextDouble()};
    const Point q{p.x + 0.001, p.y};  // Immediate spatial neighbor.
    const uint64_t a = curve.Key(p);
    const uint64_t b = curve.Key(Point{std::min(q.x, 1.0), q.y});
    total_gap += static_cast<double>(a > b ? a - b : b - a);
  }
  const double key_space = static_cast<double>(1u << 10) * (1u << 10);
  EXPECT_LT(total_gap / kSamples, key_space * 0.05);
}

TEST(SpaceFillingCurveTest, RectKeyUsesCenter) {
  const Rect universe(0, 0, 100, 100);
  const SpaceFillingCurve curve(SpaceFillingCurve::Kind::kZOrder, universe);
  EXPECT_EQ(curve.Key(Rect(10, 10, 30, 30)), curve.Key(Point{20, 20}));
}

TEST(SpaceFillingCurveTest, CurveHierarchyIsPrefixContiguous) {
  // Both curves are hierarchical: a cell at order k covers exactly the
  // finest-order keys [key_k * 4^(n-k), (key_k + 1) * 4^(n-k)). Verified
  // exhaustively per sampled coarse cell for both curves.
  Rng rng(20260812);
  for (int iter = 0; iter < 200; ++iter) {
    const uint32_t n = 4 + static_cast<uint32_t>(rng.Uniform(7));  // 4..10.
    const uint32_t k = 1 + static_cast<uint32_t>(rng.Uniform(n - 1));
    const uint32_t shift = n - k;
    const uint32_t cx = static_cast<uint32_t>(rng.Uniform(1u << k));
    const uint32_t cy = static_cast<uint32_t>(rng.Uniform(1u << k));
    for (const bool hilbert : {true, false}) {
      const uint64_t coarse = hilbert ? HilbertD2XY(k, cx, cy)
                                      : ZOrderKey(k, cx, cy);
      const uint64_t lo = coarse << (2 * shift);
      const uint64_t hi = (coarse + 1) << (2 * shift);
      for (uint32_t dx = 0; dx < (1u << shift); ++dx) {
        for (uint32_t dy = 0; dy < (1u << shift); ++dy) {
          const uint32_t x = (cx << shift) | dx;
          const uint32_t y = (cy << shift) | dy;
          const uint64_t key =
              hilbert ? HilbertD2XY(n, x, y) : ZOrderKey(n, x, y);
          ASSERT_GE(key, lo) << (hilbert ? "hilbert" : "zorder");
          ASSERT_LT(key, hi) << (hilbert ? "hilbert" : "zorder");
        }
      }
    }
  }
}

}  // namespace
}  // namespace pbsm
