#ifndef PBSM_TESTS_TEST_UTIL_H_
#define PBSM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/key_pointer.h"
#include "geom/geometry.h"
#include "geom/predicates.h"
#include "geom/segment.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace pbsm {

/// Asserts that a Status-returning expression is OK.
#define PBSM_ASSERT_OK(expr)                                 \
  do {                                                       \
    const ::pbsm::Status _st = (expr);                       \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                 \
  } while (false)

#define PBSM_EXPECT_OK(expr)                                 \
  do {                                                       \
    const ::pbsm::Status _st = (expr);                       \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                 \
  } while (false)

/// Unwraps a Result<T>, asserting success.
#define PBSM_ASSERT_OK_AND_ASSIGN(lhs, expr)                 \
  auto PBSM_CONCAT_TEST_(_res, __LINE__) = (expr);           \
  ASSERT_TRUE(PBSM_CONCAT_TEST_(_res, __LINE__).ok())        \
      << PBSM_CONCAT_TEST_(_res, __LINE__).status().ToString(); \
  lhs = std::move(PBSM_CONCAT_TEST_(_res, __LINE__)).value()

#define PBSM_CONCAT_TEST_(a, b) PBSM_CONCAT_TEST_IMPL_(a, b)
#define PBSM_CONCAT_TEST_IMPL_(a, b) a##b

/// Set of (r_oid, s_oid) candidate pairs, for order-free comparison.
using MbrPairSet = std::set<std::pair<uint64_t, uint64_t>>;

/// The MBR-join oracle: every (r.oid, s.oid) whose MBRs intersect (closed
/// boundaries), found by testing all |r| x |s| pairs with Rect::Intersects.
/// Shares no code with the sweep kernels it checks.
inline MbrPairSet AllPairsMbrJoin(const std::vector<KeyPointer>& r,
                                  const std::vector<KeyPointer>& s) {
  MbrPairSet out;
  for (const KeyPointer& a : r) {
    for (const KeyPointer& b : s) {
      if (a.mbr.Intersects(b.mbr)) out.emplace(a.oid, b.oid);
    }
  }
  return out;
}

/// Every boundary segment of `g`, ring-major.
inline std::vector<Segment> AllSegments(const GeometryView& g) {
  std::vector<Segment> out;
  AnySegment(g, [&out](const Point& a, const Point& b) {
    out.push_back(Segment{a, b});
    return false;
  });
  return out;
}

/// The exact-intersection oracle: every segment pair of the two *full*
/// boundaries, with no MBR test and no sweep, then the vertex-in-polygon
/// fallback for disjoint boundaries. Shares only the point and segment
/// primitives with the predicates it checks.
inline bool BruteIntersects(const GeometryView& a, const GeometryView& b) {
  const bool a_point = a.type() == GeometryType::kPoint;
  const bool b_point = b.type() == GeometryType::kPoint;
  if (a_point && b_point) return a.points()[0] == b.points()[0];
  if (a_point || b_point) {
    const Point& p = a_point ? a.points()[0] : b.points()[0];
    const GeometryView& other = a_point ? b : a;
    if (other.type() == GeometryType::kPolygon) {
      return PointInPolygon(p, other);
    }
    for (const Segment& s : AllSegments(other)) {
      if (PointOnSegment(p, s)) return true;
    }
    return false;
  }
  const std::vector<Segment> b_segs = AllSegments(b);
  for (const Segment& sa : AllSegments(a)) {
    for (const Segment& sb : b_segs) {
      if (SegmentsIntersect(sa, sb)) return true;
    }
  }
  return (b.type() == GeometryType::kPolygon &&
          PointInPolygon(a.points()[0], b)) ||
         (a.type() == GeometryType::kPolygon &&
          PointInPolygon(b.points()[0], a));
}

/// The endpoints of `e` and every endpoint of `segs` lying on it, in order
/// along `e`; nullopt when a segment of `segs` properly crosses `e`.
inline std::optional<std::vector<Point>> SplitAtContacts(
    const Segment& e, const std::vector<Segment>& segs) {
  std::vector<Point> cuts{e.a, e.b};
  for (const Segment& o : segs) {
    const int o1 = Orientation(e.a, e.b, o.a);
    const int o2 = Orientation(e.a, e.b, o.b);
    const int o3 = Orientation(o.a, o.b, e.a);
    const int o4 = Orientation(o.a, o.b, e.b);
    if (o1 != 0 && o2 != 0 && o1 != o2 && o3 != 0 && o4 != 0 && o3 != o4) {
      return std::nullopt;
    }
    if (PointOnSegment(o.a, e)) cuts.push_back(o.a);
    if (PointOnSegment(o.b, e)) cuts.push_back(o.b);
  }
  auto along = [&e](const Point& p) {
    return (p.x - e.a.x) * (e.b.x - e.a.x) + (p.y - e.a.y) * (e.b.y - e.a.y);
  };
  std::sort(cuts.begin(), cuts.end(), [&along](const Point& p, const Point& q) {
    return along(p) < along(q);
  });
  return cuts;
}

/// A point strictly inside simple ring `ring`: on the horizontal line
/// halfway between its two lowest distinct vertex heights, the two
/// leftmost edge crossings bound an interval inside the ring.
inline Point ScanlineInteriorPoint(std::span<const Point> ring) {
  double y0 = INFINITY, y1 = INFINITY;
  for (const Point& p : ring) {
    if (p.y < y0) {
      y1 = y0;
      y0 = p.y;
    } else if (p.y > y0 && p.y < y1) {
      y1 = p.y;
    }
  }
  const double y = (y0 + y1) / 2;
  std::vector<double> xs;
  for (size_t i = 0; i < ring.size(); ++i) {
    const Point& a = ring[i];
    const Point& b = ring[(i + 1) % ring.size()];
    if ((a.y < y) != (b.y < y)) {
      xs.push_back(a.x + (y - a.y) * (b.x - a.x) / (b.y - a.y));
    }
  }
  std::sort(xs.begin(), xs.end());
  return Point{(xs[0] + xs[1]) / 2, y};
}

/// The exact-containment oracle: every point of `inner` in the closed
/// polygon `outer`. Tests every vertex of `inner`; tests every edge of
/// `inner` against every segment of the full boundary of `outer`, failing
/// on a proper crossing and otherwise splitting the edge at each touch
/// point and testing every piece's midpoint. A hole of `outer` then lies
/// wholly inside or wholly outside a polygon `inner`'s area: the hole's
/// edges, split at inner's vertices, decide at the first piece whose
/// midpoint is off inner's boundary, and a point strictly inside the hole
/// decides when every piece runs along that boundary.
inline bool BruteContains(const GeometryView& outer, const GeometryView& inner) {
  if (outer.type() != GeometryType::kPolygon) return false;
  for (const Point& v : inner.points()) {
    if (!PointInPolygon(v, outer)) return false;
  }
  const std::vector<Segment> outer_segs = AllSegments(outer);
  const std::vector<Segment> inner_segs = AllSegments(inner);
  auto mid = [](const Point& p, const Point& q) {
    return Point{(p.x + q.x) / 2, (p.y + q.y) / 2};
  };
  for (const Segment& e : inner_segs) {
    const std::optional<std::vector<Point>> cuts =
        SplitAtContacts(e, outer_segs);
    if (!cuts.has_value()) return false;  // Proper crossing.
    for (size_t i = 0; i + 1 < cuts->size(); ++i) {
      if (!PointInPolygon(mid((*cuts)[i], (*cuts)[i + 1]), outer)) {
        return false;
      }
    }
  }
  if (inner.type() != GeometryType::kPolygon) return true;
  auto on_inner_boundary = [&inner_segs](const Point& p) {
    for (const Segment& s : inner_segs) {
      if (PointOnSegment(p, s)) return true;
    }
    return false;
  };
  for (size_t h = 1; h < outer.num_rings(); ++h) {
    const std::span<const Point> hole = outer.ring(h);
    std::optional<bool> carves;
    for (size_t i = 0; i < hole.size() && !carves.has_value(); ++i) {
      const std::vector<Point> cuts =
          *SplitAtContacts(Segment{hole[i], hole[(i + 1) % hole.size()]},
                           inner_segs);
      for (size_t k = 0; k + 1 < cuts.size(); ++k) {
        const Point m = mid(cuts[k], cuts[k + 1]);
        if (!on_inner_boundary(m)) {
          carves = PointInPolygon(m, inner);
          break;
        }
      }
    }
    if (!carves.has_value()) {
      const Point q = ScanlineInteriorPoint(hole);
      carves = !on_inner_boundary(q) && PointInPolygon(q, inner);
    }
    if (*carves) return false;
  }
  return true;
}

/// Creates a unique scratch directory and a DiskManager + BufferPool over
/// it; removes everything on destruction.
class StorageEnv {
 public:
  explicit StorageEnv(size_t pool_bytes = 1 << 20,
                      DiskModel model = DiskModel(),
                      IoRetryPolicy retry = IoRetryPolicy()) {
    char tmpl[] = "/tmp/pbsm_test_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    dir_ = dir != nullptr ? dir : "/tmp/pbsm_test_fallback";
    disk_ = std::make_unique<DiskManager>(dir_, model);
    pool_ = std::make_unique<BufferPool>(disk_.get(), pool_bytes, retry);
  }
  ~StorageEnv() {
    pool_.reset();
    disk_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  DiskManager* disk() { return disk_.get(); }
  BufferPool* pool() { return pool_.get(); }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
};

}  // namespace pbsm

#endif  // PBSM_TESTS_TEST_UTIL_H_
