#ifndef PBSM_GEOM_PREDICATES_H_
#define PBSM_GEOM_PREDICATES_H_

#include <span>
#include <vector>

#include "geom/geometry.h"
#include "geom/point.h"
#include "geom/segment.h"

namespace pbsm {

/// How the exact refinement predicates test segment sets against each other.
enum class SegmentTestMode {
  kNaive,       ///< All-pairs O(n*m) — the paper's unoptimized Paradise path.
  kPlaneSweep,  ///< Forward plane sweep over x-sorted segments.
};

/// True when `p` lies inside or on the boundary of the closed ring
/// (implicitly closed vertex list, >= 3 vertices).
bool PointInRing(const Point& p, std::span<const Point> ring);

/// True when `p` lies inside `polygon` (outer ring minus holes, boundary
/// inclusive — a point on a hole boundary still counts as inside).
/// Precondition: polygon.type() == kPolygon.
bool PointInPolygon(const Point& p, const GeometryView& polygon);

/// True when at least one red segment intersects at least one blue segment.
bool SegmentSetsIntersect(const std::vector<Segment>& red,
                          const std::vector<Segment>& blue,
                          SegmentTestMode mode);

/// Exact "geometries share at least one point" predicate. Supports every
/// type pair. `mode` selects the segment-set testing algorithm.
///
/// The segment-set predicates below sweep per-thread scratch arrays whose
/// capacity persists across calls, so refinement allocates nothing per
/// candidate once warm; they are safe to call from any number of threads.
bool Intersects(const GeometryView& a, const GeometryView& b,
                SegmentTestMode mode = SegmentTestMode::kPlaneSweep);

/// Appends witness points where the boundary segments of `a` and `b`
/// intersect (at most one witness per segment pair, at most `max_points`
/// total). Plane-sweep based; used by overlay-style queries that need the
/// crossing locations, not just the boolean.
void BoundaryIntersectionPoints(const GeometryView& a, const GeometryView& b,
                                size_t max_points, std::vector<Point>* out);

/// Exact "every point of `inner` lies in `outer`" predicate.
/// `outer` must be a polygon; `inner` may be any type. Boundary contact is
/// allowed. A hole of `outer` whose interior meets `inner`'s breaks
/// containment, also when every vertex of the hole lies on inner's boundary.
bool Contains(const GeometryView& outer, const GeometryView& inner,
              SegmentTestMode mode = SegmentTestMode::kPlaneSweep);

}  // namespace pbsm

#endif  // PBSM_GEOM_PREDICATES_H_
