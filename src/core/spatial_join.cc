#include "core/spatial_join.h"

#include <string>

#include "common/logging.h"

namespace pbsm {

std::string_view JoinMethodName(JoinMethod method) {
  switch (method) {
    case JoinMethod::kPbsm:
      return "pbsm";
    case JoinMethod::kParallelPbsm:
      return "parallel_pbsm";
    case JoinMethod::kInl:
      return "inl";
    case JoinMethod::kRtree:
      return "rtree";
    case JoinMethod::kSpatialHash:
      return "spatial_hash";
    case JoinMethod::kZOrder:
      return "zorder";
  }
  PBSM_CHECK(false) << "unknown JoinMethod "
                    << static_cast<int>(method);
}

std::optional<JoinMethod> ParseJoinMethod(std::string_view name) {
  if (name == "pbsm") return JoinMethod::kPbsm;
  if (name == "parallel_pbsm" || name == "parallel") {
    return JoinMethod::kParallelPbsm;
  }
  if (name == "inl") return JoinMethod::kInl;
  if (name == "rtree") return JoinMethod::kRtree;
  if (name == "spatial_hash" || name == "hash") {
    return JoinMethod::kSpatialHash;
  }
  if (name == "zorder" || name == "z-order") return JoinMethod::kZOrder;
  return std::nullopt;
}

// The SpatialJoin facade itself lives in src/exec/spatial_join.cc: it
// builds and drives an operator tree, which the core library cannot do
// without depending on the exec layer above it.

}  // namespace pbsm
