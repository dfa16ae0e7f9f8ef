#include "geom/predicates.h"

#include <algorithm>

#include "common/logging.h"

namespace pbsm {

namespace {

bool PointOnRingBoundary(const Point& p, std::span<const Point> ring) {
  const size_t n = ring.size();
  for (size_t i = 0; i < n; ++i) {
    if (PointOnSegment(p, Segment{ring[i], ring[(i + 1) % n]})) return true;
  }
  return false;
}

/// Ray-casting crossing parity; boundary handled by the caller.
bool PointInRingInterior(const Point& p, std::span<const Point> ring) {
  bool inside = false;
  const size_t n = ring.size();
  for (size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = ring[i];
    const Point& b = ring[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

/// A boundary segment with its MBR precomputed: the element both
/// segment-set algorithms iterate.
struct SweepSeg {
  Rect mbr;
  Segment seg;
};

/// The red and blue sweep arrays of the calling thread. Their capacity
/// persists across calls, so a warm thread refines allocation-free. No
/// user of the arrays calls another, so one pair per thread suffices.
struct SweepScratch {
  std::vector<SweepSeg> red;
  std::vector<SweepSeg> blue;
};

SweepScratch& Scratch() {
  static thread_local SweepScratch scratch;
  return scratch;
}

void Fill(const GeometryView& g, std::vector<SweepSeg>* out) {
  out->clear();
  AnySegment(g, [out](const Point& a, const Point& b) {
    const Segment s{a, b};
    out->push_back(SweepSeg{s.Mbr(), s});
    return false;
  });
}

/// Forward plane sweep (Brinkhoff et al. style): both sides sorted by
/// MBR.xlo; repeatedly take the head with the smaller xlo and scan the other
/// side while its xlo is within the head's x-extent. visit(head, other)
/// runs on every pair whose MBRs overlap; returning true stops the sweep.
template <typename Visit>
bool Sweep(std::vector<SweepSeg>& r, std::vector<SweepSeg>& b,
           Visit&& visit) {
  auto by_xlo = [](const SweepSeg& x, const SweepSeg& y) {
    return x.mbr.xlo < y.mbr.xlo;
  };
  std::sort(r.begin(), r.end(), by_xlo);
  std::sort(b.begin(), b.end(), by_xlo);

  auto scan = [&](const SweepSeg& head, const std::vector<SweepSeg>& other,
                  size_t from) {
    for (size_t k = from;
         k < other.size() && other[k].mbr.xlo <= head.mbr.xhi; ++k) {
      if (head.mbr.ylo <= other[k].mbr.yhi &&
          other[k].mbr.ylo <= head.mbr.yhi && visit(head, other[k])) {
        return true;
      }
    }
    return false;
  };

  size_t i = 0, j = 0;
  while (i < r.size() && j < b.size()) {
    if (r[i].mbr.xlo <= b[j].mbr.xlo) {
      if (scan(r[i], b, j)) return true;
      ++i;
    } else {
      if (scan(b[j], r, i)) return true;
      ++j;
    }
  }
  return false;
}

/// True when some red segment intersects some blue segment. The sweep
/// reorders both arrays.
bool SweepSegsIntersect(std::vector<SweepSeg>& red,
                        std::vector<SweepSeg>& blue, SegmentTestMode mode) {
  if (red.empty() || blue.empty()) return false;
  if (mode == SegmentTestMode::kNaive) {
    // All pairs with an MBR quick reject: the unoptimized Paradise path.
    for (const SweepSeg& r : red) {
      for (const SweepSeg& b : blue) {
        if (r.mbr.Intersects(b.mbr) && SegmentsIntersect(r.seg, b.seg)) {
          return true;
        }
      }
    }
    return false;
  }
  return Sweep(red, blue, [](const SweepSeg& x, const SweepSeg& y) {
    return SegmentsIntersect(x.seg, y.seg);
  });
}

bool BoundariesIntersect(const GeometryView& a, const GeometryView& b,
                         SegmentTestMode mode) {
  SweepScratch& s = Scratch();
  Fill(a, &s.red);
  Fill(b, &s.blue);
  return SweepSegsIntersect(s.red, s.blue, mode);
}

/// One representative vertex (the first of the first ring). Parsing and
/// the Make* factories guarantee every geometry has one.
const Point& AnyVertex(const GeometryView& g) { return g.points()[0]; }

}  // namespace

bool PointInRing(const Point& p, std::span<const Point> ring) {
  PBSM_CHECK(ring.size() >= 3) << "ring needs >= 3 vertices";
  if (PointOnRingBoundary(p, ring)) return true;
  return PointInRingInterior(p, ring);
}

bool PointInPolygon(const Point& p, const GeometryView& polygon) {
  PBSM_CHECK(polygon.type() == GeometryType::kPolygon);
  if (!PointInRing(p, polygon.ring(0))) return false;
  for (size_t h = 1; h < polygon.num_rings(); ++h) {
    // Strictly inside a hole => outside the polygon. On the hole boundary
    // still counts as inside the polygon.
    const std::span<const Point> hole = polygon.ring(h);
    if (!PointOnRingBoundary(p, hole) && PointInRingInterior(p, hole)) {
      return false;
    }
  }
  return true;
}

bool SegmentSetsIntersect(const std::vector<Segment>& red,
                          const std::vector<Segment>& blue,
                          SegmentTestMode mode) {
  SweepScratch& s = Scratch();
  s.red.clear();
  s.blue.clear();
  for (const Segment& seg : red) s.red.push_back(SweepSeg{seg.Mbr(), seg});
  for (const Segment& seg : blue) s.blue.push_back(SweepSeg{seg.Mbr(), seg});
  return SweepSegsIntersect(s.red, s.blue, mode);
}

bool Intersects(const GeometryView& a, const GeometryView& b,
                SegmentTestMode mode) {
  if (!a.Mbr().Intersects(b.Mbr())) return false;

  const GeometryType ta = a.type();
  const GeometryType tb = b.type();

  // Normalize so the "simpler" type is first.
  if (static_cast<int>(ta) > static_cast<int>(tb)) {
    return Intersects(b, a, mode);
  }

  if (ta == GeometryType::kPoint) {
    const Point& p = AnyVertex(a);
    switch (tb) {
      case GeometryType::kPoint:
        return p == AnyVertex(b);
      case GeometryType::kPolyline:
        return AnySegment(b, [&p](const Point& s0, const Point& s1) {
          return PointOnSegment(p, Segment{s0, s1});
        });
      case GeometryType::kPolygon:
        return PointInPolygon(p, b);
    }
  }

  if (BoundariesIntersect(a, b, mode)) return true;
  if (tb != GeometryType::kPolygon) return false;  // Polyline x polyline.
  // Disjoint boundaries: a polyline is entirely inside or entirely outside
  // the polygon, so one vertex decides; two polygons are disjoint unless
  // one contains the other.
  return PointInPolygon(AnyVertex(a), b) ||
         (ta == GeometryType::kPolygon && PointInPolygon(AnyVertex(b), a));
}

void BoundaryIntersectionPoints(const GeometryView& a, const GeometryView& b,
                                size_t max_points, std::vector<Point>* out) {
  if (out->size() >= max_points || !a.Mbr().Intersects(b.Mbr())) return;
  SweepScratch& s = Scratch();
  Fill(a, &s.red);
  Fill(b, &s.blue);
  Sweep(s.red, s.blue, [&](const SweepSeg& x, const SweepSeg& y) {
    Point witness;
    if (SegmentIntersectionPoint(x.seg, y.seg, &witness)) {
      out->push_back(witness);
    }
    return out->size() >= max_points;
  });
}

bool Contains(const GeometryView& outer, const GeometryView& inner,
              SegmentTestMode mode) {
  if (outer.type() != GeometryType::kPolygon) return false;
  if (!outer.Mbr().Contains(inner.Mbr())) return false;

  if (inner.type() == GeometryType::kPoint) {
    return PointInPolygon(AnyVertex(inner), outer);
  }

  SweepScratch& s = Scratch();
  Fill(inner, &s.red);
  Fill(outer, &s.blue);
  const bool boundaries_touch = SweepSegsIntersect(s.red, s.blue, mode);
  auto outside = [&outer](const Point& p) {
    return !PointInPolygon(p, outer);
  };

  if (boundaries_touch || mode == SegmentTestMode::kNaive) {
    // With boundary contact, every vertex and every edge midpoint of
    // `inner` must lie in `outer`: this accepts inner geometries that touch
    // the boundary from the inside and rejects any proper crossing (a
    // crossing leaves some midpoint or vertex outside for non-degenerate
    // inputs). The unoptimized Paradise-style path checks every vertex
    // even when the boundaries are disjoint.
    for (const Point& p : inner.points()) {
      if (outside(p)) return false;
    }
    if (boundaries_touch &&
        AnySegment(inner, [&outside](const Point& a, const Point& b) {
          return outside(Point{(a.x + b.x) / 2, (a.y + b.y) / 2});
        })) {
      return false;
    }
  } else if (outside(AnyVertex(inner))) {
    // Boundaries disjoint: `inner` is wholly inside or wholly outside.
    return false;
  }

  // A hole of `outer` strictly inside `inner`'s area would carve it.
  if (inner.type() == GeometryType::kPolygon) {
    for (size_t h = 1; h < outer.num_rings(); ++h) {
      const Point& v = outer.ring(h)[0];
      if (PointInPolygon(v, inner) && !PointOnRingBoundary(v, inner.ring(0))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace pbsm
