#include "geom/predicates.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "geom/geometry.h"
#include "storage/tuple.h"
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
  // Triangular holes whose every vertex lies on the boundary of the inner
  // square below: the second mirrors the first in x = 10.
  const std::vector<Point> tri = {{5, 5}, {10, 5}, {5, 10}};
  const std::vector<Point> tri_mirrored = {{15, 5}, {10, 5}, {15, 10}};
  const std::vector<Point> frame = {{0, 0}, {20, 0}, {20, 20}, {0, 20}};
  const Geometry tri_hole = Geometry::MakePolygon({frame, tri});
  const Geometry tri_hole_mirrored =
      Geometry::MakePolygon({frame, tri_mirrored});
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
      // Every hole vertex lies on the inner's boundary, yet (6, 6) and
      // (14, 6) are in the holes.
      {&tri_hole, Geometry::MakePolygon({{{5, 5}, {10, 5}, {10, 10}, {5, 10}}})},
      {&tri_hole_mirrored,
       Geometry::MakePolygon({{{10, 5}, {15, 5}, {15, 10}, {10, 10}}})},
      // The inner is the hole itself: every hole edge runs along it.
      {&tri_hole, Geometry::MakePolygon({tri})},
  };
  for (const auto& [outer, inner] : outside) {
    EXPECT_FALSE(BruteContains(*outer, inner)) << inner.ToWkt();
    for (const SegmentTestMode mode : kModes) {
      EXPECT_FALSE(Contains(*outer, inner, mode)) << inner.ToWkt();
    }
  }
  const std::vector<std::pair<const Geometry*, Geometry>> inside = {
      // Run along the notch's floor and the outer edge: touch, stay in.
      {&u, Geometry::MakePolyline({{1, 4}, {9, 4}})},
      {&u, Geometry::MakePolyline({{1, 10}, {4, 10}, {4, 5}, {2, 2}})},
      {&u, Geometry::MakePolygon({{{0, 0}, {10, 0}, {10, 4}, {0, 4}}})},
      // Inners whose own hole is the outer's hole: every hole edge runs
      // along the inner's boundary, and the hole lies outside its area.
      {&tri_hole, Geometry::MakePolygon(
                      {{{5, 5}, {10, 5}, {10, 10}, {5, 10}}, tri})},
      {&tri_hole,
       Geometry::MakePolygon({{{2, 2}, {18, 2}, {18, 18}, {2, 18}}, tri})},
      {&tri_hole_mirrored,
       Geometry::MakePolygon(
           {{{10, 5}, {15, 5}, {15, 10}, {10, 10}}, tri_mirrored})},
  };
  for (const auto& [outer, inner] : inside) {
    EXPECT_TRUE(BruteContains(*outer, inner)) << inner.ToWkt();
    for (const SegmentTestMode mode : kModes) {
      EXPECT_TRUE(Contains(*outer, inner, mode)) << inner.ToWkt();
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

/// Star-shaped polygon fitted inside `region`: radii at sorted angles never
/// self-intersect, so every sample is valid without a repair pass.
Geometry RandomStarPolygon(Rng* rng, const Rect& region, bool with_hole) {
  const double max_r = rng->UniformDouble(0.02, 0.25) *
                       std::min(region.width(), region.height());
  const double cx = rng->UniformDouble(region.xlo + max_r, region.xhi - max_r);
  const double cy = rng->UniformDouble(region.ylo + max_r, region.yhi - max_r);
  const int n = 3 + static_cast<int>(rng->Uniform(10));
  std::vector<Point> outer;
  for (int i = 0; i < n; ++i) {
    const double angle = (i + rng->NextDouble() * 0.8) * 2.0 * M_PI / n;
    const double r = max_r * rng->UniformDouble(0.35, 1.0);
    outer.push_back({cx + r * std::cos(angle), cy + r * std::sin(angle)});
  }
  std::vector<std::vector<Point>> rings = {outer};
  if (with_hole) {
    std::vector<Point> hole;
    // Shrink the outer ring toward the center: stays strictly inside.
    for (const Point& p : outer) {
      hole.push_back({cx + (p.x - cx) * 0.4, cy + (p.y - cy) * 0.4});
    }
    std::reverse(hole.begin(), hole.end());
    rings.push_back(hole);
  }
  return Geometry::MakePolygon(std::move(rings));
}

Geometry RandomWalkPolyline(Rng* rng, const Rect& region) {
  const int n = 2 + static_cast<int>(rng->Uniform(12));
  double x = rng->UniformDouble(region.xlo, region.xhi);
  double y = rng->UniformDouble(region.ylo, region.yhi);
  const double step = 0.1 * std::min(region.width(), region.height());
  std::vector<Point> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back({x, y});
    // Clamped random walk; re-draw steps that a corner clamp collapsed to
    // the previous vertex (zero-length segments are uninteresting fuzz).
    do {
      x = std::clamp(pts.back().x + rng->UniformDouble(-step, step),
                     region.xlo, region.xhi);
      y = std::clamp(pts.back().y + rng->UniformDouble(-step, step),
                     region.ylo, region.yhi);
    } while (x == pts.back().x && y == pts.back().y);
  }
  return Geometry::MakePolyline(std::move(pts));
}

Geometry RandomStarOrWalk(Rng* rng, const Rect& region) {
  switch (rng->Uniform(4)) {
    case 0:
      return RandomStarPolygon(rng, region, rng->Bernoulli(0.3));
    case 1:
      return Geometry::MakePoint({rng->UniformDouble(region.xlo, region.xhi),
                                  rng->UniformDouble(region.ylo, region.yhi)});
    default:
      return RandomWalkPolyline(rng, region);
  }
}

TEST(RefinementFuzzTest, ParsedViewsMatchOwnedGeometryAtEveryAlignment) {
  // Refinement parses tuples straight out of page bytes, where a record's
  // vertex array sits at whatever offset its name length leaves. Name
  // lengths 0-7 put it at every byte offset mod 8; views parsed from those
  // records must reproduce the owned geometries' predicate answers and
  // bit-identical MBRs. (A Point* cast of record bytes would also trip the
  // UBSan build's alignment check here.)
  const Rect universe(0.0, 0.0, 64.0, 64.0);
  Rng rng(20260813);
  uint64_t intersecting = 0, containing = 0;
  for (int iter = 0; iter < 300; ++iter) {
    Rect region = universe;
    if (rng.Bernoulli(0.8)) {
      const double w = rng.UniformDouble(4.0, 12.0);
      const double x = rng.UniformDouble(universe.xlo, universe.xhi - w);
      const double y = rng.UniformDouble(universe.ylo, universe.yhi - w);
      region = Rect(x, y, x + w, y + w);
    }
    const Geometry outer = RandomStarPolygon(&rng, region, rng.Bernoulli(0.3));
    if (rng.Bernoulli(0.5)) {
      // Draw the other side from the middle of the polygon's MBR, so that
      // containments actually occur.
      const Rect& m = outer.Mbr();
      const double sw = m.width() / 4.0, sh = m.height() / 4.0;
      region = Rect(m.xlo + sw, m.ylo + sh, m.xhi - sw, m.yhi - sh);
    }
    const Geometry other = RandomStarOrWalk(&rng, region);
    const bool intersects = Intersects(outer, other);
    const bool contains = Contains(outer, other);
    intersecting += intersects ? 1 : 0;
    containing += contains ? 1 : 0;
    for (size_t name_len = 0; name_len < 8; ++name_len) {
      auto record = [&](const Geometry& g, size_t len) {
        Tuple t;
        t.name = std::string(len, 'x');
        t.geometry = g;
        const std::string bytes = t.Serialize();
        return std::vector<char>(bytes.begin(), bytes.end());
      };
      const std::vector<char> outer_rec = record(outer, name_len);
      const std::vector<char> other_rec = record(other, 7 - name_len);
      GeometryBuffer outer_buf, other_buf;
      TupleView outer_view, other_view;
      ASSERT_TRUE(ParseTupleView(outer_rec.data(), outer_rec.size(),
                                 &outer_buf, &outer_view)
                      .ok());
      ASSERT_TRUE(ParseTupleView(other_rec.data(), other_rec.size(),
                                 &other_buf, &other_view)
                      .ok());
      const GeometryView& ov = outer_view.geometry;
      const GeometryView& tv = other_view.geometry;
      EXPECT_EQ(std::memcmp(&ov.Mbr(), &outer.Mbr(), sizeof(Rect)), 0);
      EXPECT_EQ(std::memcmp(&tv.Mbr(), &other.Mbr(), sizeof(Rect)), 0);
      ASSERT_TRUE(std::equal(tv.points().begin(), tv.points().end(),
                             other.view().points().begin(),
                             other.view().points().end()));
      EXPECT_EQ(Intersects(ov, tv), intersects)
          << "iter " << iter << " name_len " << name_len;
      EXPECT_EQ(Intersects(tv, ov), intersects);
      EXPECT_EQ(Contains(ov, tv), contains)
          << "iter " << iter << " name_len " << name_len;
    }
  }
  // Both answers of both predicates occur, or the equalities prove little.
  EXPECT_GT(intersecting, 30u);
  EXPECT_LT(intersecting, 270u);
  EXPECT_GT(containing, 5u);
}

}  // namespace
}  // namespace pbsm
