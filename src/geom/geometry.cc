#include "geom/geometry.h"

#include <cstring>

#include "common/logging.h"

namespace pbsm {

namespace {

void AppendRaw(std::string* out, const void* p, size_t n) {
  out->append(reinterpret_cast<const char*>(p), n);
}

template <typename T>
bool ReadRaw(const uint8_t* data, size_t size, size_t* off, T* out) {
  if (size - *off < sizeof(T)) return false;
  std::memcpy(out, data + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

}  // namespace

Status ParseGeometryView(const uint8_t* data, size_t size,
                         GeometryBuffer* scratch, GeometryView* view,
                         size_t* consumed) {
  size_t off = 0;
  uint8_t type_raw = 0;
  uint32_t nrings = 0;
  if (!ReadRaw(data, size, &off, &type_raw) ||
      !ReadRaw(data, size, &off, &nrings)) {
    return Status::Corruption("geometry header truncated");
  }
  if (type_raw < 1 || type_raw > 3) {
    return Status::Corruption("bad geometry type tag");
  }
  const auto type = static_cast<GeometryType>(type_raw);
  // A ring costs its vertex count plus at least one vertex. Points and
  // polylines are single-ring.
  if (nrings == 0 || (type != GeometryType::kPolygon && nrings != 1) ||
      nrings > (size - off) / (sizeof(uint32_t) + sizeof(Point))) {
    return Status::Corruption("bad geometry ring count");
  }
  // Vertex minimum per ring (a point ring holds exactly one).
  const uint32_t min_pts = type == GeometryType::kPolygon ? 3 : 2;
  const size_t p0 = scratch != nullptr ? scratch->points.size() : 0;
  const size_t r0 = scratch != nullptr ? scratch->ring_ends.size() : 0;
  Rect mbr;
  uint32_t total = 0;
  for (uint32_t r = 0; r < nrings; ++r) {
    uint32_t npts = 0;
    if (!ReadRaw(data, size, &off, &npts) ||
        (type == GeometryType::kPoint ? npts != 1 : npts < min_pts) ||
        npts > (size - off) / sizeof(Point)) {
      if (scratch != nullptr) {  // Leave no half-parsed geometry behind.
        scratch->points.resize(p0);
        scratch->ring_ends.resize(r0);
      }
      return Status::Corruption("bad geometry ring");
    }
    if (scratch != nullptr) {
      // The ring is validated, so size the scratch once and copy and bound
      // it in one pass (a block memcpy plus a second bounding pass measured
      // slower on rings of ~14 vertices).
      const size_t at = scratch->points.size();
      scratch->points.resize(at + npts);
      Point* const dst = scratch->points.data() + at;
      for (uint32_t i = 0; i < npts; ++i) {
        std::memcpy(dst + i, data + off + i * sizeof(Point), sizeof(Point));
        mbr.Expand(dst[i]);
      }
      scratch->ring_ends.push_back(total + npts);
    } else {
      for (uint32_t i = 0; i < npts; ++i) {
        Point p;
        std::memcpy(&p, data + off + i * sizeof(Point), sizeof(Point));
        mbr.Expand(p);
      }
    }
    off += npts * sizeof(Point);
    total += npts;
  }
  *consumed = off;
  *view = scratch == nullptr
              ? GeometryView(type, mbr, {}, {})
              : GeometryView(type, mbr, {scratch->points.data() + p0, total},
                             {scratch->ring_ends.data() + r0, nrings});
  return Status::OK();
}

Geometry::Geometry(GeometryType type, GeometryBuffer buf)
    : type_(type), buf_(std::move(buf)) {
  for (const Point& p : buf_.points) mbr_.Expand(p);
}

Geometry::Geometry(GeometryType type, GeometryBuffer buf, const Rect& mbr)
    : type_(type), buf_(std::move(buf)), mbr_(mbr) {}

Geometry Geometry::MakePoint(const Point& p) {
  return Geometry(GeometryType::kPoint, GeometryBuffer{{p}, {1}});
}

Geometry Geometry::MakePolyline(std::vector<Point> pts) {
  PBSM_CHECK(pts.size() >= 2) << "polyline needs >= 2 vertices";
  const auto n = static_cast<uint32_t>(pts.size());
  return Geometry(GeometryType::kPolyline, GeometryBuffer{std::move(pts), {n}});
}

Geometry Geometry::MakePolygon(std::vector<std::vector<Point>> rings) {
  PBSM_CHECK(!rings.empty()) << "polygon needs an outer ring";
  GeometryBuffer buf;
  for (const auto& ring : rings) {
    PBSM_CHECK(ring.size() >= 3) << "polygon ring needs >= 3 vertices";
    buf.points.insert(buf.points.end(), ring.begin(), ring.end());
    buf.ring_ends.push_back(static_cast<uint32_t>(buf.points.size()));
  }
  return Geometry(GeometryType::kPolygon, std::move(buf));
}

Geometry Geometry::FromParsed(const GeometryView& view,
                              GeometryBuffer buffer) {
  PBSM_CHECK(buffer.points.size() == view.points().size() &&
             buffer.ring_ends.size() == view.num_rings())
      << "buffer holds more than the parsed geometry";
  return Geometry(view.type(), std::move(buffer), view.Mbr());
}

size_t Geometry::SerializedSize() const {
  return sizeof(uint8_t) + sizeof(uint32_t) +
         num_rings() * sizeof(uint32_t) + num_points() * sizeof(Point);
}

void Geometry::AppendTo(std::string* out) const {
  const uint8_t type = static_cast<uint8_t>(type_);
  AppendRaw(out, &type, sizeof(type));
  const uint32_t nrings = static_cast<uint32_t>(num_rings());
  AppendRaw(out, &nrings, sizeof(nrings));
  for (size_t r = 0; r < num_rings(); ++r) {
    const std::span<const Point> pts = ring(r);
    const uint32_t npts = static_cast<uint32_t>(pts.size());
    AppendRaw(out, &npts, sizeof(npts));
    AppendRaw(out, pts.data(), pts.size() * sizeof(Point));
  }
}

std::string Geometry::ToWkt() const {
  auto append_ring = [](std::string* out, std::span<const Point> ring,
                        bool close) {
    out->push_back('(');
    for (size_t i = 0; i < ring.size(); ++i) {
      if (i > 0) out->append(", ");
      out->append(std::to_string(ring[i].x));
      out->push_back(' ');
      out->append(std::to_string(ring[i].y));
    }
    if (close && !ring.empty()) {
      out->append(", ");
      out->append(std::to_string(ring[0].x));
      out->push_back(' ');
      out->append(std::to_string(ring[0].y));
    }
    out->push_back(')');
  };

  std::string out;
  switch (type_) {
    case GeometryType::kPoint:
      out = "POINT (";
      out.append(std::to_string(buf_.points[0].x));
      out.push_back(' ');
      out.append(std::to_string(buf_.points[0].y));
      out.push_back(')');
      break;
    case GeometryType::kPolyline:
      out = "LINESTRING ";
      append_ring(&out, ring(0), /*close=*/false);
      break;
    case GeometryType::kPolygon: {
      out = "POLYGON (";
      for (size_t r = 0; r < num_rings(); ++r) {
        if (r > 0) out.append(", ");
        append_ring(&out, ring(r), /*close=*/true);
      }
      out.push_back(')');
      break;
    }
  }
  return out;
}

}  // namespace pbsm
