#include "storage/tuple.h"

#include <cstring>

namespace pbsm {

std::string Tuple::Serialize() const {
  std::string out;
  out.reserve(sizeof(id) + sizeof(feature_class) + 2 + sizeof(uint32_t) +
              name.size() + 4 * sizeof(double) + geometry.SerializedSize());
  out.append(reinterpret_cast<const char*>(&id), sizeof(id));
  out.append(reinterpret_cast<const char*>(&feature_class),
             sizeof(feature_class));
  const uint8_t has_mer = mer.empty() ? 0 : 1;
  out.append(reinterpret_cast<const char*>(&has_mer), sizeof(has_mer));
  if (has_mer != 0) {
    const double coords[4] = {mer.xlo, mer.ylo, mer.xhi, mer.yhi};
    out.append(reinterpret_cast<const char*>(coords), sizeof(coords));
  }
  const uint32_t name_len = static_cast<uint32_t>(name.size());
  out.append(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  out.append(name);
  geometry.AppendTo(&out);
  return out;
}

Status ParseTupleView(const char* data, size_t size, GeometryBuffer* scratch,
                      TupleView* view) {
  size_t off = 0;
  const auto read = [&](void* dst, size_t n) {
    if (size - off < n) return false;
    std::memcpy(dst, data + off, n);
    off += n;
    return true;
  };
  uint32_t name_len = 0;
  uint8_t has_mer = 0;
  if (!read(&view->id, sizeof(view->id)) ||
      !read(&view->feature_class, sizeof(view->feature_class)) ||
      !read(&has_mer, sizeof(has_mer))) {
    return Status::Corruption("tuple header truncated");
  }
  view->mer = Rect();
  if (has_mer != 0) {
    double coords[4];
    if (!read(coords, sizeof(coords))) {
      return Status::Corruption("tuple MER truncated");
    }
    view->mer = Rect(coords[0], coords[1], coords[2], coords[3]);
  }
  if (!read(&name_len, sizeof(name_len))) {
    return Status::Corruption("tuple header truncated");
  }
  if (size - off < name_len) {
    return Status::Corruption("tuple name truncated");
  }
  view->name = std::string_view(data + off, name_len);
  off += name_len;
  size_t consumed = 0;
  return ParseGeometryView(reinterpret_cast<const uint8_t*>(data) + off,
                           size - off, scratch, &view->geometry, &consumed);
}

Result<Rect> ParseTupleMbr(const char* data, size_t size) {
  TupleView view;
  PBSM_RETURN_IF_ERROR(ParseTupleView(data, size, nullptr, &view));
  return view.geometry.Mbr();
}

Result<Tuple> Tuple::Parse(const char* data, size_t size) {
  GeometryBuffer buffer;
  buffer.points.reserve(size / sizeof(Point));  // One allocation, not log n.
  TupleView v;
  PBSM_RETURN_IF_ERROR(ParseTupleView(data, size, &buffer, &v));
  return Tuple{v.id, v.feature_class, std::string(v.name),
               Geometry::FromParsed(v.geometry, std::move(buffer)), v.mer};
}

}  // namespace pbsm
