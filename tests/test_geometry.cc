#include "geom/geometry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geom/predicates.h"
#include "geom/segment.h"
#include "storage/tuple.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

/// Owned parse of the first `size` bytes of `buf` through the view parser.
Result<Geometry> ParseOwned(const std::string& buf, size_t size,
                            size_t* consumed) {
  GeometryBuffer storage;
  GeometryView view;
  PBSM_RETURN_IF_ERROR(
      ParseGeometryView(reinterpret_cast<const uint8_t*>(buf.data()), size,
                        &storage, &view, consumed));
  return Geometry::FromParsed(view, std::move(storage));
}

std::vector<Segment> Segments(const GeometryView& g) {
  std::vector<Segment> segs;
  AnySegment(g, [&segs](const Point& a, const Point& b) {
    segs.push_back(Segment{a, b});
    return false;
  });
  return segs;
}

TEST(GeometryTest, PointBasics) {
  const Geometry g = Geometry::MakePoint({3, 4});
  EXPECT_EQ(g.type(), GeometryType::kPoint);
  EXPECT_EQ(g.num_points(), 1u);
  EXPECT_EQ(g.Mbr(), Rect(3, 4, 3, 4));
  const std::vector<Segment> segs = Segments(g);
  EXPECT_TRUE(segs.empty());
}

TEST(GeometryTest, PolylineBasics) {
  const Geometry g = Geometry::MakePolyline({{0, 0}, {1, 2}, {3, 1}});
  EXPECT_EQ(g.type(), GeometryType::kPolyline);
  EXPECT_EQ(g.num_points(), 3u);
  EXPECT_EQ(g.Mbr(), Rect(0, 0, 3, 2));
  const std::vector<Segment> segs = Segments(g);
  // Open chain: 2 segments, no closing edge.
  ASSERT_EQ(segs.size(), 2u);
  EXPECT_EQ(segs[0].a, (Point{0, 0}));
  EXPECT_EQ(segs[1].b, (Point{3, 1}));
}

TEST(GeometryTest, PolygonWithHoleBasics) {
  const Geometry g = Geometry::MakePolygon(
      {{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
       {{4, 4}, {6, 4}, {6, 6}, {4, 6}}});
  EXPECT_EQ(g.type(), GeometryType::kPolygon);
  EXPECT_EQ(g.num_points(), 8u);
  EXPECT_EQ(g.num_holes(), 1u);
  EXPECT_EQ(g.Mbr(), Rect(0, 0, 10, 10));
  const std::vector<Segment> segs = Segments(g);
  // Rings are implicitly closed: 4 + 4 edges.
  EXPECT_EQ(segs.size(), 8u);
}

TEST(GeometryTest, SerializationRoundTripPolyline) {
  const Geometry g = Geometry::MakePolyline({{0.5, -1.25}, {3e10, 4e-10}});
  std::string buf;
  g.AppendTo(&buf);
  EXPECT_EQ(buf.size(), g.SerializedSize());
  size_t consumed = 0;
  auto parsed = ParseOwned(buf, buf.size(), &consumed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(*parsed, g);
  EXPECT_EQ(parsed->Mbr(), g.Mbr());
}

TEST(GeometryTest, ParseRejectsTruncation) {
  const Geometry g = Geometry::MakePolygon(
      {{{0, 0}, {1, 0}, {1, 1}}, {{0.2, 0.2}, {0.4, 0.2}, {0.3, 0.4}}});
  std::string buf;
  g.AppendTo(&buf);
  for (const size_t cut : {size_t{0}, size_t{3}, buf.size() / 2,
                           buf.size() - 1}) {
    size_t consumed = 0;
    auto parsed = ParseOwned(buf, cut, &consumed);
    EXPECT_FALSE(parsed.ok()) << "cut=" << cut;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(GeometryTest, ParseRejectsBadTypeTag) {
  std::string buf;
  Geometry::MakePoint({1, 2}).AppendTo(&buf);
  buf[0] = 9;  // Invalid tag.
  size_t consumed = 0;
  auto parsed = ParseOwned(buf, buf.size(), &consumed);
  EXPECT_FALSE(parsed.ok());
}

TEST(GeometryTest, WktRendering) {
  EXPECT_EQ(Geometry::MakePoint({1, 2}).ToWkt().substr(0, 6), "POINT ");
  const std::string line =
      Geometry::MakePolyline({{0, 0}, {1, 1}}).ToWkt();
  EXPECT_EQ(line.substr(0, 11), "LINESTRING ");
  const std::string poly =
      Geometry::MakePolygon({{{0, 0}, {1, 0}, {0, 1}}}).ToWkt();
  EXPECT_EQ(poly.substr(0, 8), "POLYGON ");
  // Polygon rings render with the closing vertex repeated.
  EXPECT_NE(poly.find("0.000000 0.000000)"), std::string::npos);
}

class GeometryRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeometryRoundTripTest, RandomGeometriesSurviveSerialization) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    Geometry g = Geometry::MakePoint({0, 0});
    const int kind = static_cast<int>(rng.Uniform(3));
    auto rand_pt = [&]() {
      return Point{rng.UniformDouble(-100, 100), rng.UniformDouble(-100, 100)};
    };
    if (kind == 0) {
      g = Geometry::MakePoint(rand_pt());
    } else if (kind == 1) {
      std::vector<Point> pts;
      const int n = 2 + static_cast<int>(rng.Uniform(30));
      for (int i = 0; i < n; ++i) pts.push_back(rand_pt());
      g = Geometry::MakePolyline(std::move(pts));
    } else {
      std::vector<std::vector<Point>> rings;
      const int nrings = 1 + static_cast<int>(rng.Uniform(3));
      for (int r = 0; r < nrings; ++r) {
        std::vector<Point> ring;
        const int n = 3 + static_cast<int>(rng.Uniform(20));
        for (int i = 0; i < n; ++i) ring.push_back(rand_pt());
        rings.push_back(std::move(ring));
      }
      g = Geometry::MakePolygon(std::move(rings));
    }
    std::string buf;
    g.AppendTo(&buf);
    ASSERT_EQ(buf.size(), g.SerializedSize());
    size_t consumed = 0;
    auto parsed = ParseOwned(buf, buf.size(), &consumed);
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(consumed, buf.size());
    EXPECT_EQ(*parsed, g);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeometryRoundTripTest,
                         ::testing::Values(7, 77, 777));

// ---------------------------------------------------------------------------
// Property-based fuzz: the production predicates vs independent oracles,
// driven by a fixed seed corpus so every run replays the same cases and a
// failure message pins the exact (seed, iteration) to reproduce.
// ---------------------------------------------------------------------------

Point RandomPoint(Rng* rng, double lo = -50, double hi = 50) {
  return Point{rng->UniformDouble(lo, hi), rng->UniformDouble(lo, hi)};
}

/// Short random segment; small extents make intersections non-trivially
/// rare (roughly half the sampled pairs intersect, half do not).
Segment RandomSegment(Rng* rng) {
  const Point a = RandomPoint(rng);
  return Segment{a, Point{a.x + rng->UniformDouble(-12, 12),
                          a.y + rng->UniformDouble(-12, 12)}};
}

/// Random convex ring in counter-clockwise order: points sorted by angle
/// around their centroid. Convexity is what gives us an independent exact
/// containment oracle (the half-plane test below).
std::vector<Point> RandomConvexRing(Rng* rng) {
  const Point center = RandomPoint(rng, -30, 30);
  const double radius = rng->UniformDouble(2, 25);
  const int n = 3 + static_cast<int>(rng->Uniform(8));
  std::vector<double> angles;
  for (int i = 0; i < n; ++i) {
    angles.push_back(rng->UniformDouble(0, 2 * 3.14159265358979323846));
  }
  std::sort(angles.begin(), angles.end());
  std::vector<Point> ring;
  for (const double a : angles) {
    ring.push_back(Point{center.x + radius * std::cos(a),
                         center.y + radius * std::sin(a)});
  }
  return ring;
}

/// Exact containment oracle for a CCW convex ring: inside (boundary
/// inclusive) iff `p` is on the left of, or collinear with, every edge.
/// Shares nothing with PointInRing's crossing-number implementation.
bool ConvexRingContains(const Point& p, const std::vector<Point>& ring) {
  for (size_t i = 0; i < ring.size(); ++i) {
    const Point& a = ring[i];
    const Point& b = ring[(i + 1) % ring.size()];
    if (Orientation(a, b, p) < 0) return false;
  }
  return true;
}

TEST(GeometryFuzzTest, SegmentSetsPlaneSweepMatchesQuadraticOracle) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    for (int iter = 0; iter < 300; ++iter) {
      std::vector<Segment> red, blue;
      const int nr = 1 + static_cast<int>(rng.Uniform(12));
      const int nb = 1 + static_cast<int>(rng.Uniform(12));
      for (int i = 0; i < nr; ++i) red.push_back(RandomSegment(&rng));
      for (int i = 0; i < nb; ++i) blue.push_back(RandomSegment(&rng));

      // Oracle: raw all-pairs over the exact segment primitive.
      bool oracle = false;
      for (const Segment& r : red) {
        for (const Segment& b : blue) {
          if (SegmentsIntersect(r, b)) {
            oracle = true;
            break;
          }
        }
        if (oracle) break;
      }
      EXPECT_EQ(SegmentSetsIntersect(red, blue, SegmentTestMode::kPlaneSweep),
                oracle)
          << "seed=" << seed << " iter=" << iter;
      EXPECT_EQ(SegmentSetsIntersect(red, blue, SegmentTestMode::kNaive),
                oracle)
          << "seed=" << seed << " iter=" << iter;
    }
  }
}

TEST(GeometryFuzzTest, PointInConvexRingMatchesHalfPlaneOracle) {
  for (const uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    for (int iter = 0; iter < 200; ++iter) {
      const std::vector<Point> ring = RandomConvexRing(&rng);
      for (int q = 0; q < 12; ++q) {
        // Mix far-away points with points near (and exactly on) the
        // boundary, where crossing-number implementations break first.
        Point p;
        if (q < 6) {
          p = RandomPoint(&rng, -60, 60);
        } else if (q < 9) {
          const Point& a = ring[rng.Uniform(ring.size())];
          p = Point{a.x + rng.UniformDouble(-0.5, 0.5),
                    a.y + rng.UniformDouble(-0.5, 0.5)};
        } else {
          p = ring[rng.Uniform(ring.size())];  // Exactly a vertex.
        }
        EXPECT_EQ(PointInRing(p, ring), ConvexRingContains(p, ring))
            << "seed=" << seed << " iter=" << iter << " p=(" << p.x << ","
            << p.y << ")";
      }
    }
  }
}

TEST(GeometryFuzzTest, PointInPolygonRespectsHoles) {
  for (const uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    for (int iter = 0; iter < 150; ++iter) {
      const std::vector<Point> outer = RandomConvexRing(&rng);
      // A hole strictly inside the outer ring: shrink it towards its
      // centroid so every hole vertex stays interior.
      Point c{0, 0};
      for (const Point& p : outer) {
        c.x += p.x;
        c.y += p.y;
      }
      c.x /= static_cast<double>(outer.size());
      c.y /= static_cast<double>(outer.size());
      std::vector<Point> hole;
      for (const Point& p : outer) {
        hole.push_back(Point{c.x + (p.x - c.x) * 0.4,
                             c.y + (p.y - c.y) * 0.4});
      }
      const Geometry polygon = Geometry::MakePolygon({outer, hole});

      for (int q = 0; q < 10; ++q) {
        const Point p = RandomPoint(&rng, -60, 60);
        const bool in_outer = ConvexRingContains(p, outer);
        const bool in_hole = ConvexRingContains(p, hole);
        bool on_hole_boundary = false;
        for (size_t i = 0; i < hole.size(); ++i) {
          if (PointOnSegment(
                  p, Segment{hole[i], hole[(i + 1) % hole.size()]})) {
            on_hole_boundary = true;
            break;
          }
        }
        // Boundary-inclusive semantics: a point on the hole's boundary
        // still belongs to the polygon.
        const bool oracle = in_outer && (!in_hole || on_hole_boundary);
        EXPECT_EQ(PointInPolygon(p, polygon), oracle)
            << "seed=" << seed << " iter=" << iter << " p=(" << p.x << ","
            << p.y << ")";
      }
    }
  }
}

TEST(GeometryFuzzTest, IntersectsModesAgreeAndAreSymmetric) {
  for (const uint64_t seed : {31u, 32u, 33u}) {
    Rng rng(seed);
    for (int iter = 0; iter < 150; ++iter) {
      auto random_geometry = [&]() -> Geometry {
        const int kind = static_cast<int>(rng.Uniform(3));
        if (kind == 0) return Geometry::MakePoint(RandomPoint(&rng));
        if (kind == 1) {
          std::vector<Point> pts{RandomPoint(&rng)};
          const int n = 1 + static_cast<int>(rng.Uniform(8));
          for (int i = 0; i < n; ++i) {
            pts.push_back(Point{pts.back().x + rng.UniformDouble(-10, 10),
                                pts.back().y + rng.UniformDouble(-10, 10)});
          }
          return Geometry::MakePolyline(std::move(pts));
        }
        return Geometry::MakePolygon({RandomConvexRing(&rng)});
      };
      const Geometry a = random_geometry();
      const Geometry b = random_geometry();
      const bool naive = Intersects(a, b, SegmentTestMode::kNaive);
      EXPECT_EQ(naive, BruteIntersects(a, b))
          << "oracle, seed=" << seed << " iter=" << iter;
      EXPECT_EQ(Intersects(a, b, SegmentTestMode::kPlaneSweep), naive)
          << "seed=" << seed << " iter=" << iter;
      EXPECT_EQ(Intersects(b, a, SegmentTestMode::kNaive), naive)
          << "symmetry, seed=" << seed << " iter=" << iter;
      // Disjoint MBRs must imply a negative answer (the filter step's
      // correctness precondition).
      if (!a.Mbr().Intersects(b.Mbr())) {
        EXPECT_FALSE(naive);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Parse hardening: any byte string yields Corruption or a view that keeps
// every Make* invariant the predicates rely on — never a crash, an
// out-of-bounds read, or an allocation sized from an unchecked header.
// Buffers are exact-size heap copies so the sanitizer builds see over-reads.
// ---------------------------------------------------------------------------

void ExpectValidView(const GeometryView& v) {
  ASSERT_GE(v.num_rings(), 1u);
  if (v.type() != GeometryType::kPolygon) {
    ASSERT_EQ(v.num_rings(), 1u);
  }
  for (size_t r = 0; r < v.num_rings(); ++r) {
    const size_t n = v.ring(r).size();
    switch (v.type()) {
      case GeometryType::kPoint:
        EXPECT_EQ(n, 1u);
        break;
      case GeometryType::kPolyline:
        EXPECT_GE(n, 2u);
        break;
      case GeometryType::kPolygon:
        EXPECT_GE(n, 3u);
        break;
    }
  }
  EXPECT_EQ(v.ring_ends().back(), v.points().size());
}

/// Parses `bytes` as a tuple record from an exact-size heap buffer. A
/// failure must be Corruption and leave the scratch's earlier content as it
/// was; a success must be a valid view whose MBR the MBR-only parse
/// reproduces. Returns whether the parse succeeded.
bool CheckTupleParse(const std::string& bytes) {
  const std::vector<char> record(bytes.begin(), bytes.end());
  GeometryBuffer scratch;
  scratch.points.push_back({-1, -1});  // An earlier geometry in the buffer.
  scratch.ring_ends.push_back(1);
  TupleView view;
  const Status st =
      ParseTupleView(record.data(), record.size(), &scratch, &view);
  if (!st.ok()) {
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_EQ(scratch.points.size(), 1u);
    EXPECT_EQ(scratch.ring_ends.size(), 1u);
    return false;
  }
  ExpectValidView(view.geometry);
  EXPECT_EQ(view.geometry.points().data(), scratch.points.data() + 1);
  const auto mbr = ParseTupleMbr(record.data(), record.size());
  EXPECT_TRUE(mbr.ok() && *mbr == view.geometry.Mbr());
  return true;
}

std::vector<Geometry> HardeningCorpus() {
  return {Geometry::MakePoint({1.5, -2}),
          Geometry::MakePolyline({{0, 0}, {3, 1}, {4, -2}}),
          Geometry::MakePolygon({{{0, 0}, {10, 0}, {10, 10}, {0, 10}},
                                 {{4, 4}, {6, 4}, {6, 6}, {4, 6}}})};
}

std::string TupleRecord(const Geometry& g, size_t name_len, bool with_mer) {
  Tuple t;
  t.id = 42;
  t.feature_class = 7;
  t.name = std::string(name_len, 'n');
  t.geometry = g;
  if (with_mer) t.mer = Rect(1, 1, 2, 2);
  return t.Serialize();
}

TEST(ParseHardeningTest, EveryPrefixIsCorruptionAndTheWholeIsValid) {
  for (const Geometry& g : HardeningCorpus()) {
    for (const bool with_mer : {false, true}) {
      const std::string bytes = TupleRecord(g, 3, with_mer);
      for (size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_FALSE(CheckTupleParse(bytes.substr(0, cut))) << "cut=" << cut;
      }
      EXPECT_TRUE(CheckTupleParse(bytes));
    }
  }
}

TEST(ParseHardeningTest, MutatedHeadersNeverCrash) {
  // Geometry header of a MER-less record: type byte, ring count, then the
  // first ring's vertex count.
  const size_t name_len = 5;
  const size_t geom = sizeof(uint64_t) + sizeof(uint32_t) + 1 +
                      sizeof(uint32_t) + name_len;
  const uint32_t counts[] = {0, 1, 2, 3, 4, 1u << 20, 0x7fffffffu,
                             0xffffffffu};
  uint64_t accepted = 0, rejected = 0;
  for (const Geometry& g : HardeningCorpus()) {
    const std::string bytes = TupleRecord(g, name_len, false);
    for (const uint8_t type : {0, 1, 2, 3, 4, 255}) {
      std::string m = bytes;
      m[geom] = static_cast<char>(type);
      (CheckTupleParse(m) ? accepted : rejected) += 1;
    }
    for (const size_t field : {geom + 1, geom + 1 + sizeof(uint32_t)}) {
      for (const uint32_t count : counts) {
        std::string m = bytes;
        std::memcpy(m.data() + field, &count, sizeof(count));
        (CheckTupleParse(m) ? accepted : rejected) += 1;
      }
    }
  }
  // Both outcomes occur: unchanged and reinterpretable headers still parse.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ParseHardeningTest, RingInvariantsAreEnforced) {
  // A 0-vertex point, a 1-vertex polyline and a 2-vertex polygon ring each
  // carry enough bytes for their stated counts, yet break an invariant.
  auto header = [](uint8_t type, uint32_t nrings) {
    std::string out(1, static_cast<char>(type));
    out.append(reinterpret_cast<const char*>(&nrings), sizeof(nrings));
    return out;
  };
  auto ring = [](uint32_t n) {
    std::string out(reinterpret_cast<const char*>(&n), sizeof(n));
    for (uint32_t i = 0; i < n; ++i) {
      const Point p{static_cast<double>(i), 1.0};
      out.append(reinterpret_cast<const char*>(&p), sizeof(p));
    }
    return out;
  };
  const std::string pad(64, '\0');  // Trailing bytes a count could claim.
  const std::string bad[] = {
      header(1, 1) + ring(0) + pad,           // Point without a vertex.
      header(1, 1) + ring(2),                 // Point with two vertices.
      header(1, 2) + ring(1) + ring(1),       // Two-ring point.
      header(2, 1) + ring(1) + pad,           // 1-vertex polyline.
      header(2, 2) + ring(2) + ring(2),       // Two-ring polyline.
      header(3, 1) + ring(2) + pad,           // 2-vertex polygon ring.
      header(3, 2) + ring(3) + ring(2) + pad  // 2-vertex hole.
  };
  for (const std::string& bytes : bad) {
    const std::vector<uint8_t> data(bytes.begin(), bytes.end());
    GeometryBuffer scratch;
    GeometryView view;
    size_t consumed = 0;
    const Status st =
        ParseGeometryView(data.data(), data.size(), &scratch, &view, &consumed);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_TRUE(scratch.points.empty());
  }
  const std::string good = header(3, 2) + ring(3) + ring(3);
  const std::vector<uint8_t> data(good.begin(), good.end());
  GeometryBuffer scratch;
  GeometryView view;
  size_t consumed = 0;
  ASSERT_TRUE(
      ParseGeometryView(data.data(), data.size(), &scratch, &view, &consumed)
          .ok());
  EXPECT_EQ(consumed, data.size());
  ExpectValidView(view);
}

TEST(ParseHardeningTest, HugeRingCountAllocatesNothing) {
  // 9 bytes claiming 2^20 rings: refuted before any scratch is sized.
  const uint32_t nrings = 1u << 20;
  std::vector<uint8_t> data(9, 0);
  data[0] = static_cast<uint8_t>(GeometryType::kPolygon);
  std::memcpy(data.data() + 1, &nrings, sizeof(nrings));
  GeometryBuffer scratch;
  GeometryView view;
  size_t consumed = 0;
  const Status st =
      ParseGeometryView(data.data(), data.size(), &scratch, &view, &consumed);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(scratch.points.capacity(), 0u);
  EXPECT_EQ(scratch.ring_ends.capacity(), 0u);
}

}  // namespace
}  // namespace pbsm
