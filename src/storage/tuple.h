#ifndef PBSM_STORAGE_TUPLE_H_
#define PBSM_STORAGE_TUPLE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "geom/geometry.h"
#include "geom/rect.h"

namespace pbsm {

/// A relation tuple: non-spatial attributes plus one spatial attribute.
///
/// Mirrors the paper's TIGER tuples, which carry a name, a feature
/// classification and address-range attributes next to the polyline.
struct Tuple {
  uint64_t id = 0;             ///< Source-assigned identifier.
  uint32_t feature_class = 0;  ///< e.g. road category, landuse code.
  std::string name;            ///< Feature name.
  Geometry geometry;           ///< The spatial join attribute.
  /// Optional precomputed maximal enclosed rectangle (BKSS94 §4.4): a
  /// rectangle guaranteed to lie inside `geometry`'s area. Stored with the
  /// tuple — as the paper proposes — so the containment refinement can
  /// short-circuit without recomputing it. Empty when absent.
  Rect mer;

  /// Serializes to a byte string suitable for HeapFile storage.
  std::string Serialize() const;

  /// Parses a record produced by Serialize() into owned values. For
  /// callers that keep the name, id or geometry; scans and refinement use
  /// ParseTupleView.
  static Result<Tuple> Parse(const char* data, size_t size);
};

/// A parsed record that owns nothing: `name` points into the record bytes,
/// `geometry` into the caller's GeometryBuffer.
struct TupleView {
  uint64_t id = 0;
  uint32_t feature_class = 0;
  std::string_view name;
  GeometryView geometry;
  Rect mer;  ///< Stored MER; empty when absent.
};

/// Parses a record produced by Tuple::Serialize() without allocating once
/// `scratch` is warm: the vertices are appended to `*scratch` (see
/// ParseGeometryView; nullptr parses the MBR only). Never reads a Point
/// out of the record bytes in place — they may sit at any alignment.
Status ParseTupleView(const char* data, size_t size, GeometryBuffer* scratch,
                      TupleView* view);

/// The MBR of a record's geometry, for scans that need nothing else.
Result<Rect> ParseTupleMbr(const char* data, size_t size);

}  // namespace pbsm

#endif  // PBSM_STORAGE_TUPLE_H_
