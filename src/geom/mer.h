#ifndef PBSM_GEOM_MER_H_
#define PBSM_GEOM_MER_H_

#include "geom/geometry.h"
#include "geom/rect.h"

namespace pbsm {

/// Computes a *maximal enclosed rectangle* (MER) for a polygon: an
/// axis-aligned rectangle fully contained in the polygon's area.
///
/// This implements the BKSS94 refinement accelerator the paper cites in
/// §4.4: storing an MER next to the MBR lets a containment refinement
/// short-circuit — if MBR(inner) fits inside MER(outer), `inner` is
/// guaranteed to be contained without running the exact test.
///
/// The rectangle is found by shrinking the MBR toward the polygon's interior
/// anchor point with a binary search, validating candidates by corner and
/// edge-sample containment plus a boundary-intersection check. The result is
/// conservative (always enclosed) but not necessarily maximum-area; an empty
/// Rect is returned when no axis-aligned rectangle around the anchor fits
/// (e.g. the anchor falls outside, or the polygon is degenerate).
Rect ComputeMer(const GeometryView& polygon);

/// True when `candidate` lies fully inside `polygon`'s area (holes
/// respected). Exact up to the segment predicates.
bool RectInsidePolygon(const Rect& candidate, const GeometryView& polygon);

}  // namespace pbsm

#endif  // PBSM_GEOM_MER_H_
