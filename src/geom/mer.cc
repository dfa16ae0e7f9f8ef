#include "geom/mer.h"

#include <vector>

#include "geom/predicates.h"
#include "geom/segment.h"

namespace pbsm {

bool RectInsidePolygon(const Rect& candidate, const GeometryView& polygon) {
  if (candidate.empty() || polygon.type() != GeometryType::kPolygon) {
    return false;
  }
  if (!polygon.Mbr().Contains(candidate)) return false;
  const Point corners[4] = {{candidate.xlo, candidate.ylo},
                            {candidate.xhi, candidate.ylo},
                            {candidate.xhi, candidate.yhi},
                            {candidate.xlo, candidate.yhi}};
  for (const Point& c : corners) {
    if (!PointInPolygon(c, polygon)) return false;
  }
  // No boundary segment of the polygon (outer ring or hole) may reach into
  // the rectangle; this also rejects holes that sit wholly inside it.
  return !AnySegment(polygon, [&candidate](const Point& a, const Point& b) {
    return SegmentIntersectsRect(Segment{a, b}, candidate);
  });
}

Rect ComputeMer(const GeometryView& polygon) {
  if (polygon.type() != GeometryType::kPolygon) return Rect();
  const Rect mbr = polygon.Mbr();

  // Candidate anchors: ring centroid first, then vertex-pair midpoints.
  std::vector<Point> anchors;
  const std::span<const Point> outer = polygon.ring(0);
  Point centroid{0, 0};
  for (const Point& p : outer) {
    centroid.x += p.x;
    centroid.y += p.y;
  }
  centroid.x /= static_cast<double>(outer.size());
  centroid.y /= static_cast<double>(outer.size());
  anchors.push_back(centroid);
  for (size_t i = 0; i + 2 < outer.size(); i += 2) {
    anchors.push_back(Point{(outer[i].x + outer[i + 2].x) / 2,
                            (outer[i].y + outer[i + 2].y) / 2});
  }

  for (const Point& anchor : anchors) {
    if (!PointInPolygon(anchor, polygon)) continue;
    // Binary search the largest shrink factor t such that the MBR scaled
    // toward the anchor stays inside the polygon.
    auto rect_at = [&](double t) {
      return Rect(anchor.x - t * (anchor.x - mbr.xlo),
                  anchor.y - t * (anchor.y - mbr.ylo),
                  anchor.x + t * (mbr.xhi - anchor.x),
                  anchor.y + t * (mbr.yhi - anchor.y));
    };
    double lo = 0.0, hi = 1.0, best = -1.0;
    if (RectInsidePolygon(rect_at(1.0), polygon)) {
      return rect_at(1.0);
    }
    for (int iter = 0; iter < 24; ++iter) {
      const double mid = (lo + hi) / 2;
      if (RectInsidePolygon(rect_at(mid), polygon)) {
        best = mid;
        lo = mid;
      } else {
        hi = mid;
      }
    }
    if (best > 0.0) return rect_at(best);
  }
  return Rect();
}

}  // namespace pbsm
