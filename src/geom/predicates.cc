#include "geom/predicates.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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

/// A point where an outer boundary touches inner segment `*seg` without
/// crossing it; `t` orders the contacts along the segment.
struct Contact {
  const SweepSeg* seg;
  double t;
  Point p;
};

/// The red and blue sweep arrays of the calling thread, kept at their
/// high-water size so a warm thread refines allocation-free. No user of
/// the arrays calls another, so one set per thread suffices.
struct SweepScratch {
  std::vector<SweepSeg> red;
  std::vector<SweepSeg> blue;
  std::vector<Contact> contacts;  ///< Contains' touch points.
};

SweepScratch& Scratch() {
  static thread_local SweepScratch scratch;
  return scratch;
}

/// A point's (x, y), or a corner of an MBR, as one 2-lane vector, so the
/// fill below bounds and window-tests both axes in one instruction each.
typedef double Pair __attribute__((vector_size(2 * sizeof(double))));

/// Stores segment (a, b) at out[n] and returns the next free index: n + 1
/// when the segment's MBR meets the window [wlo, whi], n (so the slot is
/// overwritten) when it does not. Branch-free, because which segments
/// survive is data.
inline size_t Keep(SweepSeg* out, size_t n, const Point& a, const Point& b,
                   Pair wlo, Pair whi) {
  Pair pa, pb;
  std::memcpy(&pa, &a, sizeof(pa));
  std::memcpy(&pb, &b, sizeof(pb));
  const Pair lo = pb < pa ? pb : pa;  // (xlo, ylo), as std::min.
  const Pair hi = pa < pb ? pb : pa;  // (xhi, yhi), as std::max.
  SweepSeg& d = out[n];
  static_assert(sizeof(Rect) == 2 * sizeof(Pair));  // xlo, ylo, xhi, yhi.
  unsigned char* const mbr = reinterpret_cast<unsigned char*>(&d.mbr);
  std::memcpy(mbr, &lo, sizeof(lo));
  std::memcpy(mbr + sizeof(lo), &hi, sizeof(hi));
  d.seg = Segment{a, b};
  const auto meets = (lo <= whi) & (wlo <= hi);
  return n + static_cast<size_t>(meets[0] & meets[1] & 1);
}

/// Writes the segments of the rings `ring_ends` delimits in `pts` (closed
/// or open) whose MBRs meet `window` to the front of `*buf` and returns
/// them.
std::span<SweepSeg> FillRings(std::span<const Point> pts,
                              std::span<const uint32_t> ring_ends,
                              bool closed, const Rect& window,
                              std::vector<SweepSeg>* buf) {
  // A ring contributes at most as many segments as it has vertices.
  if (buf->size() < pts.size()) buf->resize(pts.size());
  SweepSeg* const out = buf->data();
  const Pair wlo = {window.xlo, window.ylo};
  const Pair whi = {window.xhi, window.yhi};
  size_t n = 0;
  size_t begin = 0;
  for (const uint32_t end : ring_ends) {
    for (size_t i = begin; i + 1 < end; ++i) {
      n = Keep(out, n, pts[i], pts[i + 1], wlo, whi);
    }
    if (closed) n = Keep(out, n, pts[end - 1], pts[begin], wlo, whi);
    begin = end;
  }
  return {out, n};
}

/// Writes the boundary segments of `g` whose MBRs meet `window` to the
/// front of `*buf` and returns them. A point of one boundary shared with
/// another geometry lies in both MBRs, so with window = the MBRs'
/// intersection no dropped segment has a partner to intersect.
std::span<SweepSeg> FillWindow(const GeometryView& g, const Rect& window,
                               std::vector<SweepSeg>* buf) {
  return FillRings(g.points(), g.ring_ends(),
                   g.type() == GeometryType::kPolygon, window, buf);
}

/// Forward plane sweep (Brinkhoff et al. style): both sides sorted by
/// MBR.xlo; repeatedly take the head with the smaller xlo and scan the other
/// side while its xlo is within the head's x-extent. visit(red, blue) runs
/// on every pair whose MBRs overlap; returning true stops the sweep.
template <typename Visit>
bool Sweep(std::span<SweepSeg> r, std::span<SweepSeg> b, Visit&& visit) {
  auto by_xlo = [](const SweepSeg& x, const SweepSeg& y) {
    return x.mbr.xlo < y.mbr.xlo;
  };
  std::sort(r.begin(), r.end(), by_xlo);
  std::sort(b.begin(), b.end(), by_xlo);

  auto scan = [&](const SweepSeg& head, std::span<const SweepSeg> other,
                  size_t from, bool head_is_red) {
    for (size_t k = from;
         k < other.size() && other[k].mbr.xlo <= head.mbr.xhi; ++k) {
      if (head.mbr.ylo <= other[k].mbr.yhi &&
          other[k].mbr.ylo <= head.mbr.yhi &&
          (head_is_red ? visit(head, other[k]) : visit(other[k], head))) {
        return true;
      }
    }
    return false;
  };

  size_t i = 0, j = 0;
  while (i < r.size() && j < b.size()) {
    if (r[i].mbr.xlo <= b[j].mbr.xlo) {
      if (scan(r[i], b, j, true)) return true;
      ++i;
    } else {
      if (scan(b[j], r, i, false)) return true;
      ++j;
    }
  }
  return false;
}

/// Runs visit(red, blue) on every pair whose MBRs overlap, with the
/// algorithm `mode` names, until it returns true. The sweep reorders both
/// spans.
template <typename Visit>
bool VisitPairs(std::span<SweepSeg> red, std::span<SweepSeg> blue,
                SegmentTestMode mode, Visit&& visit) {
  if (red.empty() || blue.empty()) return false;
  if (mode == SegmentTestMode::kNaive) {
    // All pairs with an MBR quick reject: the unoptimized Paradise path.
    for (const SweepSeg& r : red) {
      for (const SweepSeg& b : blue) {
        if (r.mbr.Intersects(b.mbr) && visit(r, b)) return true;
      }
    }
    return false;
  }
  return Sweep(red, blue, visit);
}

/// True when some red segment intersects some blue segment.
bool SweepSegsIntersect(std::span<SweepSeg> red, std::span<SweepSeg> blue,
                        SegmentTestMode mode) {
  return VisitPairs(red, blue, mode, [](const SweepSeg& x, const SweepSeg& y) {
    return SegmentsIntersect(x.seg, y.seg);
  });
}

bool BoundariesIntersect(const GeometryView& a, const GeometryView& b,
                         SegmentTestMode mode) {
  const Rect w = Rect::Intersection(a.Mbr(), b.Mbr());
  SweepScratch& s = Scratch();
  return SweepSegsIntersect(FillWindow(a, w, &s.red), FillWindow(b, w, &s.blue),
                            mode);
}

/// True when `p`, known collinear with `s`, lies on it.
bool WithinSegmentBox(const Point& p, const Segment& s) {
  return std::min(s.a.x, s.b.x) <= p.x && p.x <= std::max(s.a.x, s.b.x) &&
         std::min(s.a.y, s.b.y) <= p.y && p.y <= std::max(s.a.y, s.b.y);
}

/// Tests inner segment `in` against outer segment `out`. Returns true when
/// they cross properly (one point, interior to both), which puts part of
/// `in` outside the polygon. Otherwise appends each point where the two
/// touch, i.e. every endpoint of one lying on the other, to `*contacts`.
bool CrossesOrTouches(const SweepSeg& in, const Segment& out,
                      std::vector<Contact>* contacts) {
  const Segment& s = in.seg;
  const int o1 = Orientation(s.a, s.b, out.a);
  const int o2 = Orientation(s.a, s.b, out.b);
  const int o3 = Orientation(out.a, out.b, s.a);
  const int o4 = Orientation(out.a, out.b, s.b);
  if (o1 * o2 < 0 && o3 * o4 < 0) return true;
  auto touch = [&](const Point& p) {
    const double t = (p.x - s.a.x) * (s.b.x - s.a.x) +
                     (p.y - s.a.y) * (s.b.y - s.a.y);
    contacts->push_back(Contact{&in, t, p});
  };
  if (o1 == 0 && WithinSegmentBox(out.a, s)) touch(out.a);
  if (o2 == 0 && WithinSegmentBox(out.b, s)) touch(out.b);
  if (o3 == 0 && WithinSegmentBox(s.a, out)) touch(s.a);
  if (o4 == 0 && WithinSegmentBox(s.b, out)) touch(s.b);
  return false;
}

/// One representative vertex (the first of the first ring). Parsing and
/// the Make* factories guarantee every geometry has one.
const Point& AnyVertex(const GeometryView& g) { return g.points()[0]; }

/// Where a point lies relative to a polygon.
enum class Location { kInterior, kBoundary, kExterior };

Location Locate(const Point& p, const GeometryView& polygon) {
  if (!polygon.Mbr().Contains(p)) return Location::kExterior;
  for (size_t r = 0; r < polygon.num_rings(); ++r) {
    if (PointOnRingBoundary(p, polygon.ring(r))) return Location::kBoundary;
  }
  if (!PointInRingInterior(p, polygon.ring(0))) return Location::kExterior;
  for (size_t h = 1; h < polygon.num_rings(); ++h) {
    if (PointInRingInterior(p, polygon.ring(h))) return Location::kExterior;
  }
  return Location::kInterior;
}

/// A point strictly inside simple ring `ring`. Its lowest (then leftmost)
/// vertex c is convex. If no other vertex lies in the triangle of c and its
/// two neighbours, the triangle's centroid is inside the ring; otherwise
/// the segment from c to the vertex in the triangle farthest from the
/// neighbours' chord is a diagonal, and its midpoint is inside.
Point RingInteriorPoint(std::span<const Point> ring) {
  const size_t n = ring.size();
  size_t c = 0;
  for (size_t i = 1; i < n; ++i) {
    if (ring[i].y < ring[c].y ||
        (ring[i].y == ring[c].y && ring[i].x < ring[c].x)) {
      c = i;
    }
  }
  const Point& v = ring[c];
  const Point& a = ring[(c + n - 1) % n];
  const Point& b = ring[(c + 1) % n];
  const int turn = Orientation(a, v, b);
  const Point* deepest = nullptr;
  double depth = 0.0;
  for (const Point& q : ring) {
    if (q == v || Orientation(a, v, q) == -turn ||
        Orientation(v, b, q) == -turn || Orientation(b, a, q) != turn) {
      continue;  // The apex, outside the triangle, or on the chord a-b.
    }
    const double d = std::abs((b.x - a.x) * (q.y - a.y) -
                              (b.y - a.y) * (q.x - a.x));
    if (d > depth) {
      depth = d;
      deepest = &q;
    }
  }
  if (deepest == nullptr) {
    return Point{(a.x + v.x + b.x) / 3, (a.y + v.y + b.y) / 3};
  }
  return Point{(v.x + deepest->x) / 2, (v.y + deepest->y) / 2};
}

/// Whether hole ring `hole` of a containing polygon carves polygon `inner`,
/// i.e. whether the hole's open interior meets inner's interior. Contains
/// calls it once inner's boundary crosses the polygon's nowhere and lies in
/// the polygon wherever the two touch, so it enters no hole: the hole's
/// interior (connected) lies wholly in inner's interior or wholly outside.
/// Contacts with inner's boundary split the hole's edges into pieces that
/// each lie in inner's interior, outside it, or along its boundary, and the
/// first piece off that boundary decides. A hole that runs along inner's
/// boundary throughout is decided by a point strictly inside it.
bool HoleCarves(std::span<const Point> hole, const GeometryView& inner,
                SegmentTestMode mode) {
  SweepScratch& s = Scratch();
  std::vector<Contact>& contacts = s.contacts;
  contacts.clear();
  const uint32_t end[] = {static_cast<uint32_t>(hole.size())};
  const std::span<SweepSeg> edges =
      FillRings(hole, end, /*closed=*/true, inner.Mbr(), &s.red);
  // A hole whose boundary misses inner's MBR cannot lie inside inner.
  if (edges.empty()) return false;
  if (VisitPairs(edges, FillWindow(inner, inner.Mbr(), &s.blue), mode,
                 [&contacts](const SweepSeg& edge, const SweepSeg& b) {
                   return CrossesOrTouches(edge, b.seg, &contacts);
                 })) {
    return true;  // Inner's boundary crosses into the hole.
  }
  std::sort(contacts.begin(), contacts.end(),
            [](const Contact& x, const Contact& y) {
              return x.seg != y.seg ? x.seg < y.seg : x.t < y.t;
            });
  size_t c = 0;
  for (const SweepSeg& e : edges) {
    Point from = e.seg.a;
    while (true) {
      const bool last = c == contacts.size() || contacts[c].seg != &e;
      const Point to = last ? e.seg.b : contacts[c].p;
      if (to != from) {
        const Location where = Locate(
            Point{(from.x + to.x) / 2, (from.y + to.y) / 2}, inner);
        if (where != Location::kBoundary) {
          return where == Location::kInterior;
        }
      }
      if (last) break;
      from = to;
      ++c;
    }
  }
  return Locate(RingInteriorPoint(hole), inner) == Location::kInterior;
}

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
  auto fill = [](const std::vector<Segment>& segs,
                 std::vector<SweepSeg>* buf) -> std::span<SweepSeg> {
    if (buf->size() < segs.size()) buf->resize(segs.size());
    for (size_t i = 0; i < segs.size(); ++i) {
      (*buf)[i] = SweepSeg{segs[i].Mbr(), segs[i]};
    }
    return {buf->data(), segs.size()};
  };
  return SweepSegsIntersect(fill(red, &s.red), fill(blue, &s.blue), mode);
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
  const Rect w = Rect::Intersection(a.Mbr(), b.Mbr());
  SweepScratch& s = Scratch();
  Sweep(FillWindow(a, w, &s.red), FillWindow(b, w, &s.blue),
        [&](const SweepSeg& x, const SweepSeg& y) {
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

  // Every point the two boundaries share lies in inner's MBR, so only the
  // outer segments meeting it can cross or touch `inner`.
  SweepScratch& s = Scratch();
  std::vector<Contact>& contacts = s.contacts;
  contacts.clear();
  if (VisitPairs(FillWindow(inner, inner.Mbr(), &s.red),
                 FillWindow(outer, inner.Mbr(), &s.blue), mode,
                 [&contacts](const SweepSeg& in, const SweepSeg& out) {
                   return CrossesOrTouches(in, out.seg, &contacts);
                 })) {
    return false;  // A proper crossing leaves part of `inner` outside.
  }
  auto outside = [&outer](const Point& p) {
    return !PointInPolygon(p, outer);
  };

  if (!contacts.empty() || mode == SegmentTestMode::kNaive) {
    // The unoptimized Paradise-style path checks every vertex even when
    // the boundaries are disjoint.
    for (const Point& p : inner.points()) {
      if (outside(p)) return false;
    }
    // Touch points split each touched inner edge into pieces that meet the
    // outer boundary at most at their ends (or lie along it), so each
    // piece is wholly inside or wholly outside and its midpoint decides.
    std::sort(contacts.begin(), contacts.end(),
              [](const Contact& x, const Contact& y) {
                return x.seg != y.seg ? x.seg < y.seg : x.t < y.t;
              });
    for (size_t i = 0; i < contacts.size();) {
      const SweepSeg* const touched = contacts[i].seg;
      const Segment& edge = touched->seg;
      Point from = edge.a;
      for (; i < contacts.size() && contacts[i].seg == touched; ++i) {
        const Point& to = contacts[i].p;
        if (to != from &&
            outside(Point{(from.x + to.x) / 2, (from.y + to.y) / 2})) {
          return false;
        }
        from = to;
      }
      if (from != edge.b &&
          outside(Point{(from.x + edge.b.x) / 2, (from.y + edge.b.y) / 2})) {
        return false;
      }
    }
  } else {
    // Boundaries disjoint: each ring of `inner` is wholly inside or wholly
    // outside, so one vertex per ring decides.
    for (size_t r = 0; r < inner.num_rings(); ++r) {
      if (outside(inner.ring(r)[0])) return false;
    }
  }

  // A hole of `outer` whose interior meets `inner`'s carves it.
  if (inner.type() == GeometryType::kPolygon) {
    for (size_t h = 1; h < outer.num_rings(); ++h) {
      if (HoleCarves(outer.ring(h), inner, mode)) return false;
    }
  }
  return true;
}

}  // namespace pbsm
