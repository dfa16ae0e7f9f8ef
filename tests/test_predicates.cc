#include "geom/predicates.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "geom/geometry.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

Geometry UnitSquare() {
  return Geometry::MakePolygon({{{0, 0}, {10, 0}, {10, 10}, {0, 10}}});
}

Geometry SwissCheese() {
  // 10x10 square with a 2x2 hole centered at (5, 5).
  return Geometry::MakePolygon({{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
                                {{4, 4}, {6, 4}, {6, 6}, {4, 6}}});
}

TEST(PointInRingTest, InsideOutsideBoundary) {
  const std::vector<Point> ring = {{0, 0}, {10, 0}, {10, 10}, {0, 10}};
  EXPECT_TRUE(PointInRing({5, 5}, ring));
  EXPECT_FALSE(PointInRing({-1, 5}, ring));
  EXPECT_FALSE(PointInRing({11, 5}, ring));
  EXPECT_TRUE(PointInRing({0, 5}, ring));    // On edge.
  EXPECT_TRUE(PointInRing({10, 10}, ring));  // On vertex.
}

TEST(PointInRingTest, ConcaveRing) {
  // A "U" shape: the notch interior is outside.
  const std::vector<Point> ring = {{0, 0}, {10, 0}, {10, 10}, {7, 10},
                                   {7, 3},  {3, 3},  {3, 10},  {0, 10}};
  EXPECT_TRUE(PointInRing({1, 5}, ring));    // Left arm.
  EXPECT_TRUE(PointInRing({8, 5}, ring));    // Right arm.
  EXPECT_FALSE(PointInRing({5, 5}, ring));   // The notch.
  EXPECT_TRUE(PointInRing({5, 1}, ring));    // The base.
}

TEST(PointInPolygonTest, HolesExcludeInterior) {
  const Geometry g = SwissCheese();
  EXPECT_TRUE(PointInPolygon({1, 1}, g));
  EXPECT_FALSE(PointInPolygon({5, 5}, g));   // Strictly inside the hole.
  EXPECT_TRUE(PointInPolygon({4, 5}, g));    // On the hole boundary.
  EXPECT_FALSE(PointInPolygon({-1, -1}, g));
}

TEST(SegmentSetsIntersectTest, NaiveAndSweepAgreeOnHandCases) {
  const std::vector<Segment> red = {{{0, 0}, {5, 5}}, {{6, 0}, {9, 0}}};
  const std::vector<Segment> blue_hit = {{{0, 5}, {5, 0}}};
  const std::vector<Segment> blue_miss = {{{20, 20}, {30, 30}}};
  for (const auto mode :
       {SegmentTestMode::kNaive, SegmentTestMode::kPlaneSweep}) {
    EXPECT_TRUE(SegmentSetsIntersect(red, blue_hit, mode));
    EXPECT_FALSE(SegmentSetsIntersect(red, blue_miss, mode));
    EXPECT_FALSE(SegmentSetsIntersect({}, blue_hit, mode));
    EXPECT_FALSE(SegmentSetsIntersect(red, {}, mode));
  }
}

TEST(IntersectsTest, PointCases) {
  const Geometry p = Geometry::MakePoint({5, 5});
  EXPECT_TRUE(Intersects(p, Geometry::MakePoint({5, 5})));
  EXPECT_FALSE(Intersects(p, Geometry::MakePoint({5, 6})));
  const Geometry line = Geometry::MakePolyline({{0, 0}, {10, 10}});
  EXPECT_TRUE(Intersects(p, line));
  EXPECT_TRUE(Intersects(line, p));  // Symmetric dispatch.
  EXPECT_FALSE(Intersects(Geometry::MakePoint({5, 6}), line));
  EXPECT_TRUE(Intersects(p, UnitSquare()));
  EXPECT_FALSE(Intersects(Geometry::MakePoint({5, 5}), SwissCheese()));
}

TEST(IntersectsTest, PolylinePolyline) {
  const Geometry a = Geometry::MakePolyline({{0, 0}, {10, 10}});
  const Geometry b = Geometry::MakePolyline({{0, 10}, {10, 0}});
  const Geometry c = Geometry::MakePolyline({{20, 20}, {30, 30}});
  EXPECT_TRUE(Intersects(a, b));
  EXPECT_FALSE(Intersects(a, c));
  // MBRs overlap but the chains do not touch.
  const Geometry d = Geometry::MakePolyline({{0, 9}, {4, 9.5}, {0, 9.8}});
  const Geometry e = Geometry::MakePolyline({{5, 0}, {6, 9}, {7, 0}});
  EXPECT_FALSE(Intersects(d, e));
}

TEST(IntersectsTest, PolylinePolygon) {
  const Geometry square = UnitSquare();
  // Crossing the boundary.
  EXPECT_TRUE(Intersects(Geometry::MakePolyline({{-5, 5}, {5, 5}}), square));
  // Entirely inside.
  EXPECT_TRUE(Intersects(Geometry::MakePolyline({{1, 1}, {2, 2}}), square));
  // Entirely outside.
  EXPECT_FALSE(
      Intersects(Geometry::MakePolyline({{20, 20}, {30, 30}}), square));
  // Entirely within the hole: no intersection with the swiss cheese.
  EXPECT_FALSE(Intersects(Geometry::MakePolyline({{4.5, 4.8}, {5.5, 5.2}}),
                          SwissCheese()));
}

TEST(IntersectsTest, PolygonPolygon) {
  const Geometry a = UnitSquare();
  const Geometry b =
      Geometry::MakePolygon({{{5, 5}, {15, 5}, {15, 15}, {5, 15}}});
  const Geometry c =
      Geometry::MakePolygon({{{20, 20}, {30, 20}, {25, 30}}});
  EXPECT_TRUE(Intersects(a, b));
  EXPECT_FALSE(Intersects(a, c));
  // Containment without boundary contact.
  const Geometry inner =
      Geometry::MakePolygon({{{2, 2}, {3, 2}, {3, 3}, {2, 3}}});
  EXPECT_TRUE(Intersects(a, inner));
  EXPECT_TRUE(Intersects(inner, a));
  // A polygon inside the hole of the swiss cheese does not intersect it.
  const Geometry in_hole =
      Geometry::MakePolygon({{{4.5, 4.5}, {5.5, 4.5}, {5.5, 5.5}, {4.5, 5.5}}});
  EXPECT_FALSE(Intersects(in_hole, SwissCheese()));
  EXPECT_FALSE(Intersects(SwissCheese(), in_hole));
}

TEST(ContainsTest, BasicContainment) {
  const Geometry outer = UnitSquare();
  EXPECT_TRUE(Contains(outer, Geometry::MakePoint({5, 5})));
  EXPECT_FALSE(Contains(outer, Geometry::MakePoint({15, 5})));
  EXPECT_TRUE(
      Contains(outer, Geometry::MakePolyline({{1, 1}, {9, 9}})));
  EXPECT_FALSE(
      Contains(outer, Geometry::MakePolyline({{5, 5}, {15, 5}})));
  const Geometry inner =
      Geometry::MakePolygon({{{2, 2}, {8, 2}, {8, 8}, {2, 8}}});
  EXPECT_TRUE(Contains(outer, inner));
  EXPECT_FALSE(Contains(inner, outer));
}

TEST(ContainsTest, NonPolygonOuterIsRejected) {
  const Geometry line = Geometry::MakePolyline({{0, 0}, {10, 10}});
  EXPECT_FALSE(Contains(line, Geometry::MakePoint({5, 5})));
}

TEST(ContainsTest, HolePokingIntoInnerBreaksContainment) {
  const Geometry cheese = SwissCheese();
  // Inner polygon surrounds the hole: the hole carves it, so not contained.
  const Geometry around_hole =
      Geometry::MakePolygon({{{3, 3}, {7, 3}, {7, 7}, {3, 7}}});
  EXPECT_FALSE(Contains(cheese, around_hole));
  // Inner polygon clear of the hole is contained.
  const Geometry clear =
      Geometry::MakePolygon({{{1, 1}, {3, 1}, {3, 3}, {1, 3}}});
  EXPECT_TRUE(Contains(cheese, clear));
  // A point inside the hole is not contained.
  EXPECT_FALSE(Contains(cheese, Geometry::MakePoint({5, 5})));
}

TEST(ContainsTest, NaiveAndSweepModesAgree) {
  const Geometry outer = SwissCheese();
  const std::vector<Geometry> inners = {
      Geometry::MakePolygon({{{1, 1}, {3, 1}, {3, 3}, {1, 3}}}),
      Geometry::MakePolygon({{{3, 3}, {7, 3}, {7, 7}, {3, 7}}}),
      Geometry::MakePolyline({{1, 1}, {9, 1}}),
      Geometry::MakePolyline({{1, 1}, {11, 1}}),
  };
  for (const Geometry& g : inners) {
    EXPECT_EQ(Contains(outer, g, SegmentTestMode::kNaive),
              Contains(outer, g, SegmentTestMode::kPlaneSweep));
  }
}

/// Polygon with a notch cut down from its top edge: x in (4, 6) above
/// y = 4 is outside.
Geometry UShape() {
  return Geometry::MakePolygon(
      {{{0, 0}, {10, 0}, {10, 10}, {6, 10}, {6, 4}, {4, 4}, {4, 10}, {0, 10}}});
}

constexpr SegmentTestMode kModes[] = {SegmentTestMode::kNaive,
                                      SegmentTestMode::kPlaneSweep};

TEST(ContainsTest, InnerLeavingBetweenBoundaryContactsIsRejected) {
  const Geometry u = UShape();
  const Geometry cheese = SwissCheese();
  const Geometry holed = Geometry::MakePolygon(
      {{{0, 0}, {20, 0}, {20, 20}, {0, 20}},
       {{9, 9}, {11, 9}, {11, 11}, {9, 11}}});
  // Every vertex and every edge midpoint of each inner lies in the outer,
  // yet part of the inner does not.
  const std::vector<std::pair<const Geometry*, Geometry>> outside = {
      // (5, 8) is in the notch.
      {&u, Geometry::MakePolyline({{1, 8}, {3, 8}, {9, 8}})},
      {&u, Geometry::MakePolygon({{{3, 7}, {9, 7}, {9, 9}, {3, 9}}})},
      // (10, 10) is in the hole.
      {&holed, Geometry::MakePolyline({{2, 10}, {8, 10}, {18, 10}})},
      // Touches the boundary only, and spans the notch's mouth at (5, 10).
      {&u, Geometry::MakePolyline({{1, 10}, {7, 10}})},
      // The hole's first vertex lies on the inner's edge, the rest inside.
      {&cheese, Geometry::MakePolygon({{{4, 2}, {9, 2}, {9, 8}, {4, 8}}})},
  };
  for (const auto& [outer, inner] : outside) {
    EXPECT_FALSE(BruteContains(*outer, inner)) << inner.ToWkt();
    for (const SegmentTestMode mode : kModes) {
      EXPECT_FALSE(Contains(*outer, inner, mode)) << inner.ToWkt();
    }
  }
  // Runs along the notch's floor and the outer edge: touches, stays in.
  const std::vector<Geometry> inside = {
      Geometry::MakePolyline({{1, 4}, {9, 4}}),
      Geometry::MakePolyline({{1, 10}, {4, 10}, {4, 5}, {2, 2}}),
      Geometry::MakePolygon({{{0, 0}, {10, 0}, {10, 4}, {0, 4}}}),
  };
  for (const Geometry& inner : inside) {
    EXPECT_TRUE(BruteContains(u, inner)) << inner.ToWkt();
    for (const SegmentTestMode mode : kModes) {
      EXPECT_TRUE(Contains(u, inner, mode)) << inner.ToWkt();
    }
  }
}

/// Checks Intersects in both modes and both argument orders, and Contains
/// in both modes and both roles, against the brute-force oracles.
void ExpectMatchesOracle(const Geometry& a, const Geometry& b) {
  const bool intersects = BruteIntersects(a, b);
  ASSERT_EQ(BruteIntersects(b, a), intersects) << a.ToWkt() << " | "
                                               << b.ToWkt();
  const bool a_contains_b = BruteContains(a, b);
  const bool b_contains_a = BruteContains(b, a);
  for (const SegmentTestMode mode : kModes) {
    EXPECT_EQ(Intersects(a, b, mode), intersects)
        << a.ToWkt() << " | " << b.ToWkt();
    EXPECT_EQ(Intersects(b, a, mode), intersects)
        << b.ToWkt() << " | " << a.ToWkt();
    EXPECT_EQ(Contains(a, b, mode), a_contains_b)
        << a.ToWkt() << " contains " << b.ToWkt();
    EXPECT_EQ(Contains(b, a, mode), b_contains_a)
        << b.ToWkt() << " contains " << a.ToWkt();
  }
}

TEST(PredicateOracleTest, DegenerateHandCasesMatchOracle) {
  const std::vector<Geometry> geoms = {
      UnitSquare(),
      SwissCheese(),
      UShape(),
      // MBR shares only the edge x = 10 with the unit square's: touching
      // along it, at one point of it, and not at all.
      Geometry::MakePolygon({{{10, 0}, {20, 0}, {20, 10}, {10, 10}}}),
      Geometry::MakePolygon({{{10, 5}, {20, 0}, {20, 10}}}),
      Geometry::MakePolygon({{{10, 12}, {20, 0}, {20, 12}}}),
      // MBR shares only the corner (10, 10), touching there or not.
      Geometry::MakePolygon({{{10, 10}, {20, 10}, {20, 20}, {10, 20}}}),
      Geometry::MakePolygon({{{10, 10}, {20, 15}, {15, 20}}}),
      Geometry::MakePolygon({{{0, 0}, {10, 0}, {0, 10}}}),
      // Collinear overlaps lying on the border of the MBR intersection.
      Geometry::MakePolyline({{-5, 0}, {5, 0}}),
      Geometry::MakePolyline({{10, 0}, {10, 20}}),
      Geometry::MakePolyline({{4, 10}, {6, 10}}),
      Geometry::MakePolyline({{-5, 10}, {25, 10}}),
      // Shared vertices.
      Geometry::MakePolygon({{{6, 4}, {8, 2}, {9, 5}}}),
      Geometry::MakePolyline({{4, 4}, {4, -3}, {12, -3}}),
      Geometry::MakePoint({6, 4}),
      Geometry::MakePoint({5, 7}),
      Geometry::MakePoint({10, 10}),
      // In, touching and around the Swiss cheese's hole.
      Geometry::MakePolygon({{{4.5, 4.5}, {5.5, 4.5}, {5.5, 5.5}, {4.5, 5.5}}}),
      Geometry::MakePolygon({{{4, 4}, {5, 4}, {5, 5}, {4, 5}}}),
      Geometry::MakePolygon({{{3, 3}, {7, 3}, {7, 7}, {3, 7}}}),
      Geometry::MakePolygon({{{4, 2}, {9, 2}, {9, 8}, {4, 8}}}),
      Geometry::MakePolyline({{4.5, 5}, {5.5, 5}}),
      // Polylines wholly inside a polygon.
      Geometry::MakePolyline({{2, 2}, {3, 3}, {2, 4}}),
      Geometry::MakePolyline({{1, 1}, {9, 1}, {9, 3}}),
  };
  for (const Geometry& a : geoms) {
    for (const Geometry& b : geoms) ExpectMatchesOracle(a, b);
  }
}

/// Random shapes on a small integer grid, where shared vertices, collinear
/// overlaps and zero-width MBR intersections are common.
Geometry RandomGridGeometry(Rng* rng) {
  auto coord = [rng] { return static_cast<double>(rng->Uniform(13)); };
  switch (rng->Uniform(5)) {
    case 0:
      return Geometry::MakePoint({coord(), coord()});
    case 1: {
      std::vector<Point> pts{{coord(), coord()}};
      const size_t n = 1 + rng->Uniform(4);
      for (size_t i = 0; i < n; ++i) pts.push_back({coord(), coord()});
      return Geometry::MakePolyline(std::move(pts));
    }
    case 2: {
      // A U: box [x0, x0 + w] x [y0, y0 + h] with a notch of width 1 down
      // to y0 + d from the top.
      const double x0 = coord() / 2, y0 = coord() / 2;
      const double w = 3 + static_cast<double>(rng->Uniform(4));
      const double h = 2 + static_cast<double>(rng->Uniform(5));
      const double nx = x0 + 1 + static_cast<double>(rng->Uniform(
                                     static_cast<uint64_t>(w) - 2));
      const double d = 1 + static_cast<double>(rng->Uniform(
                               static_cast<uint64_t>(h) - 1));
      return Geometry::MakePolygon({{{x0, y0},
                                     {x0 + w, y0},
                                     {x0 + w, y0 + h},
                                     {nx + 1, y0 + h},
                                     {nx + 1, y0 + d},
                                     {nx, y0 + d},
                                     {nx, y0 + h},
                                     {x0, y0 + h}}});
    }
    default: {
      // A box, with a box hole inside (touching the outer ring or not)
      // half the time.
      const double x0 = coord(), y0 = coord();
      const double w = 1 + static_cast<double>(rng->Uniform(6));
      const double h = 1 + static_cast<double>(rng->Uniform(6));
      std::vector<std::vector<Point>> rings = {
          {{x0, y0}, {x0 + w, y0}, {x0 + w, y0 + h}, {x0, y0 + h}}};
      if (w >= 2 && h >= 2 && rng->Uniform(2) == 0) {
        const double hx = x0 + static_cast<double>(rng->Uniform(
                                   static_cast<uint64_t>(w) - 1));
        const double hy = y0 + static_cast<double>(rng->Uniform(
                                   static_cast<uint64_t>(h) - 1));
        rings.push_back({{hx, hy}, {hx + 1, hy}, {hx + 1, hy + 1}, {hx, hy + 1}});
      }
      return Geometry::MakePolygon(std::move(rings));
    }
  }
}

TEST(PredicateOracleTest, GridFuzzMatchesOracle) {
  for (const uint64_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    std::vector<Geometry> geoms;
    for (int i = 0; i < 40; ++i) geoms.push_back(RandomGridGeometry(&rng));
    for (size_t i = 0; i < geoms.size(); ++i) {
      for (size_t j = i; j < geoms.size(); ++j) {
        ExpectMatchesOracle(geoms[i], geoms[j]);
      }
    }
  }
}

/// Property: the two segment-set algorithms agree on random inputs.
class SegmentSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SegmentSetPropertyTest, NaiveMatchesSweep) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 300; ++iter) {
    auto make_set = [&](size_t n) {
      std::vector<Segment> segs;
      for (size_t i = 0; i < n; ++i) {
        const Point a{rng.UniformDouble(0, 20), rng.UniformDouble(0, 20)};
        const Point b{a.x + rng.UniformDouble(-3, 3),
                      a.y + rng.UniformDouble(-3, 3)};
        segs.push_back({a, b});
      }
      return segs;
    };
    const auto red = make_set(1 + rng.Uniform(20));
    const auto blue = make_set(1 + rng.Uniform(20));
    EXPECT_EQ(SegmentSetsIntersect(red, blue, SegmentTestMode::kNaive),
              SegmentSetsIntersect(red, blue, SegmentTestMode::kPlaneSweep));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentSetPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(PredicateConcurrencyTest, ThreadsAgreeWithSingleThreadAnswers) {
  // The segment sweep reuses per-thread scratch arrays. Four threads
  // evaluating Intersects and Contains on the same shared geometries at
  // once must reproduce the single-thread answers (and stay clean under
  // the TSan build).
  Rng rng(2024);
  std::vector<Geometry> geoms;
  for (int i = 0; i < 48; ++i) {
    const Point c{rng.UniformDouble(0, 30), rng.UniformDouble(0, 30)};
    const int n = 3 + static_cast<int>(rng.Uniform(12));
    std::vector<Point> pts;
    for (int k = 0; k < n; ++k) {
      const double angle = (k + rng.NextDouble() * 0.8) * 2.0 * M_PI / n;
      const double r = rng.UniformDouble(1.0, 8.0);
      pts.push_back({c.x + r * std::cos(angle), c.y + r * std::sin(angle)});
    }
    geoms.push_back(i % 3 == 0 ? Geometry::MakePolyline(std::move(pts))
                               : Geometry::MakePolygon({std::move(pts)}));
  }
  // Answer k encodes pair (k / n, k % n): bit 0 Intersects, bit 1 Contains.
  const size_t n = geoms.size();
  std::vector<uint8_t> expected(n * n);
  uint64_t hits = 0;
  for (size_t k = 0; k < n * n; ++k) {
    const Geometry& a = geoms[k / n];
    const Geometry& b = geoms[k % n];
    expected[k] = (Intersects(a, b) ? 1 : 0) | (Contains(a, b) ? 2 : 0);
    hits += expected[k] & 1;
  }
  ASSERT_GT(hits, n);  // Not only the diagonal.
  ASSERT_LT(hits, n * n);

  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 4; ++rep) {
        // Each thread walks the pairs from a different start, so the
        // threads interleave over the same geometries.
        for (size_t i = 0; i < n * n; ++i) {
          const size_t k = (i + t * n * n / 4) % (n * n);
          const Geometry& a = geoms[k / n];
          const Geometry& b = geoms[k % n];
          const uint8_t got =
              (Intersects(a, b) ? 1 : 0) | (Contains(a, b) ? 2 : 0);
          if (got != expected[k]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace pbsm
