#ifndef PBSM_CORE_JOIN_OPTIONS_H_
#define PBSM_CORE_JOIN_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/canceller.h"
#include "common/logging.h"
#include "core/plane_sweep_join.h"
#include "core/spatial_partitioner.h"
#include "geom/predicates.h"
#include "rtree/node_layout.h"
#include "storage/catalog.h"
#include "storage/heap_file.h"

namespace pbsm {

/// Exact join predicate evaluated by the refinement step.
enum class SpatialPredicate {
  kIntersects,  ///< R.geometry shares at least one point with S.geometry.
  kContains,    ///< R.geometry (a polygon) fully contains S.geometry.
};

/// Receives every result pair (after refinement). May be empty when the
/// caller only needs counts.
using ResultSink = std::function<void(Oid r, Oid s)>;

/// One join input: a stored relation plus its catalog entry.
struct JoinInput {
  const HeapFile* heap = nullptr;
  RelationInfo info;
};

/// Knobs shared by every join method (JoinMethod); each method reads the
/// subset its comments name and ignores the rest.
struct JoinOptions {
  /// Operator memory budget (Equation 1's M and the refinement block size).
  size_t memory_budget_bytes = 4ull << 20;

  // --- PBSM filter step (§3.1, §3.4) ---
  uint32_t num_tiles = 1024;  ///< Requested NT (the paper's default).
  TileMapping mapping = TileMapping::kHash;
  /// Filter-kernel selection for plane sweeps and R-tree node scans. kAuto
  /// consults the PBSM_SIMD environment variable, then CPUID.
  SimdMode simd = SimdMode::kAuto;
  /// 0 = use Equation 1; otherwise forces the partition count.
  uint32_t num_partitions_override = 0;
  /// How serial pbsm avoids emitting replicated candidates twice.
  /// kTwoLayer (default) tags tile copies with corner classes and runs
  /// duplicate-free per-tile mini-joins — no merge-dedup stage at all.
  /// kMerge is the paper's replicate-then-merge-dedup scheme; it is also
  /// the only mode with the §3.5 dynamic repartition path (two-layer
  /// partitions are processed whole). parallel_pbsm always runs two-layer
  /// and, like the other join methods, ignores this knob.
  DedupMode dedup_mode = DedupMode::kTwoLayer;

  // --- Partition overflow handling (§3.5; extension, on by default) ---
  bool dynamic_repartition = true;
  uint32_t max_repartition_depth = 3;

  // --- Refinement step (§3.2, §4.4) ---
  SegmentTestMode refinement_mode = SegmentTestMode::kPlaneSweep;
  /// BKSS94 MBR/MER pre-filter for containment refinement.
  bool use_mer_filter = false;

  // --- Index construction (INL / R-tree join) ---
  double index_fill_factor = 0.75;
  /// In-memory node layout of bulk-loaded trees (AoS pages or quantized SoA
  /// prefilter lanes; see rtree/node_layout.h). kAuto consults the
  /// PBSM_RTREE_LAYOUT environment variable, defaulting to quantized.
  NodeLayout rtree_layout = NodeLayout::kAuto;

  // --- Parallel execution (ParallelPbsmJoin; serial joins ignore it) ---
  /// Worker threads for the parallel executor. 0 = hardware concurrency.
  uint32_t num_threads = 0;

  // --- Cooperative cancellation (service timeouts, client aborts) ---
  /// Observed-only: the join polls it at phase and block boundaries and
  /// returns its CancellationStatus() when tripped. The executors chain
  /// their internal error-propagation canceller below it, so one flag stops
  /// both serial loops and parallel sibling tasks. Must outlive the join.
  Canceller* cancel = nullptr;
};

/// Evaluates the exact predicate on two geometries. The switch is
/// exhaustive; an out-of-range enum value (memory corruption, an
/// unhandled new predicate) aborts instead of silently returning false and
/// dropping result pairs.
[[nodiscard]] inline bool EvaluatePredicate(SpatialPredicate pred,
                                            const GeometryView& r,
                                            const GeometryView& s,
                                            SegmentTestMode mode) {
  switch (pred) {
    case SpatialPredicate::kIntersects:
      return Intersects(r, s, mode);
    case SpatialPredicate::kContains:
      return Contains(r, s, mode);
  }
  PBSM_CHECK(false) << "unknown SpatialPredicate "
                    << static_cast<int>(pred);
}

}  // namespace pbsm

#endif  // PBSM_CORE_JOIN_OPTIONS_H_
