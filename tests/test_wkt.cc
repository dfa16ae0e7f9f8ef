#include "geom/wkt.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/predicates.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

TEST(WktParseTest, Point) {
  PBSM_ASSERT_OK_AND_ASSIGN(const Geometry g, ParseWkt("POINT (3.5 -4.25)"));
  EXPECT_EQ(g.type(), GeometryType::kPoint);
  EXPECT_EQ(g.ring(0)[0], (Point{3.5, -4.25}));
}

TEST(WktParseTest, LineString) {
  PBSM_ASSERT_OK_AND_ASSIGN(const Geometry g,
                            ParseWkt("LINESTRING (0 0, 1 2, 3.5 -1)"));
  EXPECT_EQ(g.type(), GeometryType::kPolyline);
  EXPECT_EQ(g.num_points(), 3u);
}

TEST(WktParseTest, PolygonWithHole) {
  PBSM_ASSERT_OK_AND_ASSIGN(
      const Geometry g,
      ParseWkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), "
               "(4 4, 6 4, 6 6, 4 6, 4 4))"));
  EXPECT_EQ(g.type(), GeometryType::kPolygon);
  EXPECT_EQ(g.num_holes(), 1u);
  // The repeated closing vertex is dropped.
  EXPECT_EQ(g.ring(0).size(), 4u);
  EXPECT_TRUE(PointInPolygon({1, 1}, g));
  EXPECT_FALSE(PointInPolygon({5, 5}, g));
}

TEST(WktParseTest, CaseAndWhitespaceInsensitive) {
  EXPECT_TRUE(ParseWkt("point(1 2)").ok());
  EXPECT_TRUE(ParseWkt("  LineString ( 0 0 ,\t1 1 )  ").ok());
  EXPECT_TRUE(ParseWkt("Polygon((0 0, 1 0, 0 1))").ok());
}

TEST(WktParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseWkt("").ok());
  EXPECT_FALSE(ParseWkt("CIRCLE (0 0, 5)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1 2, 3 4)").ok());
  EXPECT_FALSE(ParseWkt("LINESTRING (1 2)").ok());
  EXPECT_FALSE(ParseWkt("LINESTRING (1 2, 3 4").ok());  // Unclosed.
  EXPECT_FALSE(ParseWkt("POLYGON ((0 0, 1 0))").ok());  // 2-vertex ring.
  EXPECT_FALSE(ParseWkt("POINT (a b)").ok());
  EXPECT_FALSE(ParseWkt("POINT (1 2) trailing").ok());
}

class WktRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WktRoundTripTest, ToWktParsesBack) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 100; ++iter) {
    auto rand_pt = [&]() {
      return Point{rng.UniformDouble(-50, 50), rng.UniformDouble(-50, 50)};
    };
    Geometry g = Geometry::MakePoint(rand_pt());
    const int kind = static_cast<int>(rng.Uniform(3));
    if (kind == 1) {
      std::vector<Point> pts;
      for (int i = 0; i < 2 + static_cast<int>(rng.Uniform(10)); ++i) {
        pts.push_back(rand_pt());
      }
      g = Geometry::MakePolyline(std::move(pts));
    } else if (kind == 2) {
      std::vector<std::vector<Point>> rings;
      for (int r = 0; r < 1 + static_cast<int>(rng.Uniform(2)); ++r) {
        std::vector<Point> ring;
        for (int i = 0; i < 3 + static_cast<int>(rng.Uniform(8)); ++i) {
          ring.push_back(rand_pt());
        }
        rings.push_back(std::move(ring));
      }
      g = Geometry::MakePolygon(std::move(rings));
    }
    auto parsed = ParseWkt(g.ToWkt());
    ASSERT_TRUE(parsed.ok()) << g.ToWkt() << " -> "
                             << parsed.status().ToString();
    EXPECT_EQ(parsed->type(), g.type());
    EXPECT_EQ(parsed->num_rings(), g.num_rings());
    // ToWkt prints with %f precision (6 digits); compare approximately.
    for (size_t r = 0; r < g.num_rings(); ++r) {
      ASSERT_EQ(parsed->ring(r).size(), g.ring(r).size());
      for (size_t i = 0; i < g.ring(r).size(); ++i) {
        EXPECT_NEAR(parsed->ring(r)[i].x, g.ring(r)[i].x, 1e-5);
        EXPECT_NEAR(parsed->ring(r)[i].y, g.ring(r)[i].y, 1e-5);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WktRoundTripTest,
                         ::testing::Values(31, 41, 59));

}  // namespace
}  // namespace pbsm
