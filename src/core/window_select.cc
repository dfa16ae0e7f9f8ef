#include "core/window_select.h"

#include <algorithm>

#include "storage/tuple.h"

namespace pbsm {

Result<SelectResult> WindowSelect(BufferPool* pool, const JoinInput& input,
                                  const Rect& window, SelectAccessPath path,
                                  const JoinOptions& opts,
                                  const RStarTree* index) {
  if (window.empty()) {
    return Status::InvalidArgument("window selection needs a window");
  }
  SelectResult result;
  DiskManager* disk = pool->disk();
  PhaseTimer timer(disk, &result.cost);

  // The exact test geometry: the window as a polygon.
  const Geometry window_polygon = Geometry::MakePolygon(
      {{{window.xlo, window.ylo},
        {window.xhi, window.ylo},
        {window.xhi, window.yhi},
        {window.xlo, window.yhi}}});

  GeometryBuffer scratch;  // One candidate's vertices at a time.
  TupleView tuple;
  switch (path) {
    case SelectAccessPath::kFullScan: {
      PBSM_RETURN_IF_ERROR(input.heap->Scan(
          [&](Oid oid, const char* data, size_t size) -> Status {
            scratch.clear();
            PBSM_RETURN_IF_ERROR(ParseTupleView(data, size, &scratch, &tuple));
            if (!tuple.geometry.Mbr().Intersects(window)) {
              return Status::OK();
            }
            ++result.candidates;
            if (Intersects(tuple.geometry, window_polygon,
                           opts.refinement_mode)) {
              result.oids.push_back(oid);
            }
            return Status::OK();
          }));
      break;
    }
    case SelectAccessPath::kIndex: {
      if (index == nullptr) {
        return Status::InvalidArgument(
            "index access path requires an R*-tree");
      }
      std::vector<uint64_t> hits;
      PBSM_RETURN_IF_ERROR(index->WindowQuery(window, &hits));
      result.candidates = hits.size();
      // Fetch in physical order to keep the reads near-sequential.
      std::sort(hits.begin(), hits.end());
      std::string record;
      for (const uint64_t encoded : hits) {
        const Oid oid = Oid::Decode(encoded);
        PBSM_RETURN_IF_ERROR(input.heap->Fetch(oid, &record));
        scratch.clear();
        PBSM_RETURN_IF_ERROR(
            ParseTupleView(record.data(), record.size(), &scratch, &tuple));
        if (Intersects(tuple.geometry, window_polygon,
                       opts.refinement_mode)) {
          result.oids.push_back(oid);
        }
      }
      break;
    }
  }
  return result;
}

}  // namespace pbsm
