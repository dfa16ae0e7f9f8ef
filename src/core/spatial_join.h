#ifndef PBSM_CORE_SPATIAL_JOIN_H_
#define PBSM_CORE_SPATIAL_JOIN_H_

#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/metrics.h"
#include "common/status.h"
#include "core/join_cost.h"
#include "core/join_options.h"
#include "core/parallel_stats.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace pbsm {

/// Every join algorithm the system implements, selectable through the one
/// SpatialJoin() facade below.
enum class JoinMethod {
  kPbsm,          ///< Partition Based Spatial-Merge join (the paper's §3).
  kParallelPbsm,  ///< Threaded PBSM executor (shared-memory parallel).
  kInl,           ///< Indexed nested loops over an R*-tree (§4.1).
  kRtree,         ///< Synchronized R*-tree traversal join (§4.2, BKS93).
  kSpatialHash,   ///< Spatial hash join (LR96).
  kZOrder,        ///< Orenstein z-value transform join (Ore86/OM88).
};

/// Stable lowercase identifier ("pbsm", "parallel_pbsm", "inl", "rtree",
/// "spatial_hash", "zorder") — used in CLI flags, metrics and trace spans.
std::string_view JoinMethodName(JoinMethod method);

/// Inverse of JoinMethodName; nullopt on an unknown identifier.
std::optional<JoinMethod> ParseJoinMethod(std::string_view name);

/// Window pushdown: only result pairs whose BOTH sides' MBRs intersect
/// `window` are emitted to the sink. It runs as a SelectOp above the join.
/// The optional MBR maps skip the tuple fetch + parse per side; when null
/// the side's MBR is read from its heap.
struct WindowFilter {
  Rect window;
  const std::unordered_map<uint64_t, Rect>* r_mbrs = nullptr;
  const std::unordered_map<uint64_t, Rect>* s_mbrs = nullptr;
};

/// The complete specification of one spatial join: the algorithm, the exact
/// predicate, the shared knobs, and per-algorithm option groups. Fields an
/// algorithm does not use are ignored. The groups are plain nested structs
/// with designated-initializer-friendly defaults:
///
///   JoinSpec spec;
///   spec.method = JoinMethod::kZOrder;
///   spec.zorder = {.max_level = 10, .max_cells_per_object = 8};
///   spec.options.num_threads = 4;
struct JoinSpec {
  JoinMethod method = JoinMethod::kPbsm;
  SpatialPredicate predicate = SpatialPredicate::kIntersects;

  /// Optional window pushdown over the result pairs (see WindowFilter).
  /// JoinResult.num_results still counts pre-window refined pairs; only
  /// the sink sees the filtered stream.
  std::optional<WindowFilter> window;

  /// Knobs shared by every algorithm (memory budget, tiles, thread count
  /// for the parallel executor, ...). Of note: options.dedup_mode selects
  /// the duplicate-free two-layer filter (default) or the paper's
  /// replicate-then-merge-dedup scheme for serial PBSM (parallel_pbsm
  /// always runs two-layer), and options.refinement_mode picks the
  /// segment-test algorithm of the exact refinement every method shares.
  JoinOptions options;

  /// Receives each (r, s) result pair. Always oriented as the facade's
  /// inputs: first OID from `r`, second from `s`, whichever side an
  /// algorithm internally indexes or probes. May be empty for counts only.
  ResultSink sink;

  // --- kInl / kRtree: pre-existing indexes (Figures 14/15 variants) ---
  /// R*-tree over the r (resp. s) input. kRtree uses both when given and
  /// builds the missing ones; kInl probes with the other side and requires
  /// at most one. Ignored by the non-index methods.
  const RStarTree* r_index = nullptr;
  const RStarTree* s_index = nullptr;

  /// kSpatialHash options.
  struct Hash {
    uint32_t num_buckets = 0;       ///< 0 derives from Equation 1.
    double sample_fraction = 0.01;  ///< R sample seeding bucket extents.
  };
  Hash hash;

  /// kZOrder options.
  struct ZOrder {
    uint32_t max_level = 8;             ///< Quadtree depth.
    uint32_t max_cells_per_object = 4;  ///< Cells approximating one MBR.
  };
  ZOrder zorder;

  // --- kParallelPbsm ---
  /// Optional sink for per-worker/per-task timing statistics.
  ParallelJoinStats* parallel_stats = nullptr;
};

/// What one SpatialJoin() execution produced: the result-pair count, the
/// per-phase cost breakdown, and the
/// global-metrics delta attributable to this join (counters bumped and
/// histograms recorded between entry and exit — buffer-pool hits/misses,
/// refinement true/false positives, repartition depths, ...).
struct JoinResult {
  JoinMethod method = JoinMethod::kPbsm;
  uint64_t num_results = 0;      ///< == breakdown.results.
  double wall_seconds = 0.0;     ///< End-to-end facade wall time.
  JoinCostBreakdown breakdown;
  MetricsSnapshot metrics;       ///< Delta snapshot over this join.
};

/// Unified entry point: runs the join described by `spec` over inputs `r`
/// and `s` and returns a uniform JoinResult. Every execution is wrapped in
/// a "join/<method>" trace span (phases nest underneath) and bumps the
/// "join.candidates" / "join.results" / "join.duplicates_removed" /
/// "join.replicated" / "join.repartitioned_pairs" counters.
///
/// Orientation: the predicate is evaluated as pred(r, s) and result pairs
/// arrive at spec.sink as (r_oid, s_oid) for every method, including kInl
/// (which internally may index either side; the facade indexes the side
/// with a pre-existing index, else the smaller input, and restores the
/// caller's orientation).
///
/// This is the ONLY public join entry point. The per-algorithm filter
/// functions its operator tree wraps live in core/join_methods_internal.h
/// and are reserved for src/core and src/exec implementation files.
Result<JoinResult> SpatialJoin(BufferPool* pool, const JoinInput& r,
                               const JoinInput& s, const JoinSpec& spec);

}  // namespace pbsm

#endif  // PBSM_CORE_SPATIAL_JOIN_H_
