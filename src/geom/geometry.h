#ifndef PBSM_GEOM_GEOMETRY_H_
#define PBSM_GEOM_GEOMETRY_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "geom/segment.h"

namespace pbsm {

/// Kinds of spatial feature stored in a tuple's spatial attribute.
enum class GeometryType : uint8_t {
  kPoint = 1,
  kPolyline = 2,  ///< Open chain of >= 2 vertices (roads, rivers, rails).
  kPolygon = 3,   ///< Outer ring plus zero or more hole rings
                  ///< (the paper's "swiss-cheese polygon").
};

/// A non-owning flat view of a spatial feature: every vertex of every ring
/// in one array, plus each ring's exclusive end index into it.
///  * kPoint     — one ring with exactly one vertex.
///  * kPolyline  — one ring, an *open* chain of >= 2 vertices.
///  * kPolygon   — ring 0 is the outer boundary, rings 1..n are holes; each
///                 has >= 3 vertices and is implicitly closed (the closing
///                 vertex is not repeated).
///
/// Every predicate takes views, so owned geometries and tuples parsed into
/// reused scratch share one kernel. A view is valid while the storage it
/// points into is: its Geometry, or the GeometryBuffer it was parsed into
/// (until that buffer grows or clears).
class GeometryView {
 public:
  GeometryView() = default;
  GeometryView(GeometryType type, const Rect& mbr,
               std::span<const Point> points,
               std::span<const uint32_t> ring_ends)
      : type_(type), mbr_(mbr), points_(points), ring_ends_(ring_ends) {}

  GeometryType type() const { return type_; }
  const Rect& Mbr() const { return mbr_; }
  /// Every vertex, ring-major.
  std::span<const Point> points() const { return points_; }
  std::span<const uint32_t> ring_ends() const { return ring_ends_; }
  size_t num_rings() const { return ring_ends_.size(); }
  std::span<const Point> ring(size_t r) const {
    const uint32_t begin = r == 0 ? 0 : ring_ends_[r - 1];
    return points_.subspan(begin, ring_ends_[r] - begin);
  }

 private:
  GeometryType type_ = GeometryType::kPoint;
  Rect mbr_;
  std::span<const Point> points_;
  std::span<const uint32_t> ring_ends_;
};

/// Calls fn(a, b) for each boundary segment of `g`, ring-major in vertex
/// order; a polygon ring ends with its implicit closing segment, points
/// contribute nothing. Stops and returns true as soon as fn returns true.
template <typename Fn>
bool AnySegment(const GeometryView& g, Fn&& fn) {
  const bool closed = g.type() == GeometryType::kPolygon;
  for (size_t r = 0; r < g.num_rings(); ++r) {
    const std::span<const Point> ring = g.ring(r);
    for (size_t i = 0; i + 1 < ring.size(); ++i) {
      if (fn(ring[i], ring[i + 1])) return true;
    }
    if (closed && fn(ring.back(), ring.front())) return true;
  }
  return false;
}

/// Vertices and ring ends of one or more flat geometries, appended back to
/// back (ring ends count from each geometry's own first vertex). Parsing
/// into a warm buffer allocates nothing; a Geometry owns one holding itself.
struct GeometryBuffer {
  std::vector<Point> points;
  std::vector<uint32_t> ring_ends;

  void clear() {
    points.clear();
    ring_ends.clear();
  }
};

/// Parses one serialized geometry (the Geometry::AppendTo format) and sets
/// `*consumed` to the bytes read. The vertices, which may sit at any
/// alignment in `data`, are memcpy'd onto the end of `*scratch` and `*view`
/// points at them; scratch == nullptr yields the type and MBR only. Returns
/// Corruption, leaving scratch as it was, for truncated input, a ring table
/// larger than the remaining bytes (checked before scratch grows), or rings
/// that break the type's vertex-count invariants.
Status ParseGeometryView(const uint8_t* data, size_t size,
                         GeometryBuffer* scratch, GeometryView* view,
                         size_t* consumed);

/// A spatial feature owning its flat vertex storage: the type for
/// generators, WKT and tests. view() is free and implicit, so a Geometry
/// goes wherever a GeometryView is taken. Immutable; the MBR is computed
/// once.
class Geometry {
 public:
  /// Constructs an empty point at the origin (needed by containers only).
  Geometry() : Geometry(MakePoint(Point{0, 0})) {}

  static Geometry MakePoint(const Point& p);
  /// Precondition: pts.size() >= 2.
  static Geometry MakePolyline(std::vector<Point> pts);
  /// Precondition: rings non-empty, every ring has >= 3 vertices.
  static Geometry MakePolygon(std::vector<std::vector<Point>> rings);
  /// Adopts `buffer`, which must hold exactly the one geometry `view` was
  /// parsed into it (ParseGeometryView into an empty buffer).
  static Geometry FromParsed(const GeometryView& view, GeometryBuffer buffer);

  GeometryView view() const {
    return GeometryView(type_, mbr_, buf_.points, buf_.ring_ends);
  }
  operator GeometryView() const { return view(); }  // NOLINT: implicit.

  GeometryType type() const { return type_; }
  const Rect& Mbr() const { return mbr_; }
  size_t num_rings() const { return buf_.ring_ends.size(); }
  std::span<const Point> ring(size_t r) const { return view().ring(r); }

  /// Total vertex count across all rings.
  size_t num_points() const { return buf_.points.size(); }
  /// Number of hole rings (0 unless kPolygon).
  size_t num_holes() const {
    return type_ == GeometryType::kPolygon ? num_rings() - 1 : 0;
  }

  /// Appends the serialized form (type, ring table, vertices) to `out`.
  void AppendTo(std::string* out) const;
  /// Bytes AppendTo will produce.
  size_t SerializedSize() const;
  /// WKT-style rendering, e.g. "LINESTRING (0 0, 1 1)".
  std::string ToWkt() const;

  friend bool operator==(const Geometry& a, const Geometry& b) {
    return a.type_ == b.type_ && a.buf_.points == b.buf_.points &&
           a.buf_.ring_ends == b.buf_.ring_ends;
  }

 private:
  Geometry(GeometryType type, GeometryBuffer buf);
  Geometry(GeometryType type, GeometryBuffer buf, const Rect& mbr);

  GeometryType type_;
  GeometryBuffer buf_;
  Rect mbr_;
};

}  // namespace pbsm

#endif  // PBSM_GEOM_GEOMETRY_H_
