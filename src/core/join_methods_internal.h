#ifndef PBSM_CORE_JOIN_METHODS_INTERNAL_H_
#define PBSM_CORE_JOIN_METHODS_INTERNAL_H_

// Implementation-internal entry points of the join algorithms. External
// callers — tests, benches, examples, the service — go through the
// SpatialJoin facade (core/spatial_join.h); only src/core/*.cc and the
// operator engine in src/exec/*.cc include this header.
//
// Each serial method is a filter: an XxxFilter function runs the method's
// filter phases and appends candidate OID pairs to a caller-owned
// CandidateSorter. The exec layer's FilterJoinOp wraps it and RefineOp
// settles the sorted, de-duplicated candidates (§3.2), so every serial
// method runs as FilterJoinOp -> RefineOp. The parallel executor
// (ParallelPbsmJoin) runs filter and refinement itself and sits behind
// ParallelJoinOp.
//
// Each filter records its phases into `*breakdown` and appends candidates
// to `*sorter` without calling Finish() on it. Pairs are in the caller's
// (r, s) orientation. Cancellation (opts.cancel) is polled at phase and
// partition boundaries.

#include "common/status.h"
#include "core/join_cost.h"
#include "core/join_options.h"
#include "core/parallel_stats.h"
#include "core/refinement.h"
#include "rtree/rstar_tree.h"
#include "storage/buffer_pool.h"

namespace pbsm {

/// Real shared-memory parallel PBSM join with duplicate-free two-layer
/// partitioning (see core/two_layer_filter.h). Three phases:
///  * "partition inputs": page ranges of both inputs split across scan
///    tasks, each replicating tuples into per-partition buffers as
///    corner-classed tile copies (no locks);
///  * "filter partitions": each partition is an independent task running
///    the class-pair mini-joins — globally, every candidate pair is
///    emitted exactly once, so each task appends its candidates to R-page
///    buckets in the executing worker's arena;
///  * "refinement": one task per R-page bucket gathers, sorts and refines
///    its candidates concurrently.
///
/// opts.dedup_mode is ignored: there is no merge-dedup phase and no §3.5
/// repartition (partitions are processed whole). Produces exactly the
/// result pairs of serial PBSM. `sink` may be called from worker threads
/// (calls are serialised internally, but arrival order is
/// nondeterministic).
///
/// In the returned breakdown, each phase's cpu_seconds is the phase's
/// *wall-clock* time (workers run concurrently) and its io counters are the
/// aggregate physical I/O of the phase; per-task busy times live in
/// `*stats` (optional).
Result<JoinCostBreakdown> ParallelPbsmJoin(BufferPool* pool,
                                           const JoinInput& r,
                                           const JoinInput& s,
                                           SpatialPredicate pred,
                                           const JoinOptions& opts,
                                           const ResultSink& sink = {},
                                           ParallelJoinStats* stats = nullptr);

/// The Partition Based Spatial-Merge join's filter step (the paper's §3.1,
/// §3.4, §3.5).
///
/// Both inputs are scanned once; each tuple's key-pointer (<MBR, OID>) is
/// routed by the tiled spatial partitioning function into one or more of P
/// on-disk partitions (P from Equation 1 unless overridden). Each partition
/// pair is then merged in memory, producing candidate OID pairs:
///  * kTwoLayer (default): corner-classed tile copies and duplicate-free
///    per-tile mini-joins. Partitions are processed whole.
///  * kMerge (the paper's scheme): a plane sweep per partition pair; the
///    refinement sort removes the replicated candidates. Partition pairs
///    that exceed the memory budget are handled per §3.5: dynamically
///    repartitioned with a finer tile grid (when opts.dynamic_repartition,
///    an extension over the paper's implementation), falling back to
///    chunked sweeps with S re-reads once the recursion depth is exhausted.
///
/// Phases "partition <r>", "partition <s>", "merge partitions".
Status PbsmFilter(BufferPool* pool, const JoinInput& r, const JoinInput& s,
                  const JoinOptions& opts, CandidateSorter* sorter,
                  JoinCostBreakdown* breakdown);

/// R-tree based spatial join filter (Brinkhoff, Kriegel, Seeger — SIGMOD
/// '93), the paper's §4.2 baseline.
///
/// Bulk loads an R*-tree on each input that lacks one (pass non-null
/// `r_index`/`s_index` for the Figures 14/15 pre-existing-index variants),
/// then performs a synchronized depth-first traversal of the two trees:
/// at each step the entries of one R node and one S node are joined with
/// the same plane-sweep technique PBSM uses, and matching child pairs are
/// traversed in tandem. Leaf-level matches become candidate OID pairs.
/// Any index built here is dropped before returning.
///
/// Phases "build index <name>" (per missing side), "join trees".
Status RtreeFilter(BufferPool* pool, const JoinInput& r, const JoinInput& s,
                   const JoinOptions& opts, CandidateSorter* sorter,
                   JoinCostBreakdown* breakdown,
                   const RStarTree* r_index = nullptr,
                   const RStarTree* s_index = nullptr);

/// Indexed nested loops filter (the paper's §4.1).
///
/// `indexed` is the input carrying (or receiving) the R*-tree — the paper
/// indexes the smaller input when building from scratch; `probing` is
/// scanned and probes the index tuple by tuple. Each window-query hit
/// becomes a candidate pair; the indexed tuples are never fetched here.
/// When `preexisting_index` is non-null the build phase is skipped
/// (Figures 14/15's INL-1-* variants); otherwise the index is bulk loaded
/// and dropped before returning.
///
/// Pairs are emitted as (indexed, probing) when `emit_indexed_first`, else
/// flipped — the caller passes the flag restoring its own (r, s)
/// orientation. Phases "build index <name>" (when building),
/// "probe index".
Status InlFilter(BufferPool* pool, const JoinInput& indexed,
                 const JoinInput& probing, const JoinOptions& opts,
                 CandidateSorter* sorter, JoinCostBreakdown* breakdown,
                 const RStarTree* preexisting_index = nullptr,
                 bool emit_indexed_first = true);

/// Options for the spatial hash filter (FilterJoinOp builds one from
/// JoinSpec::hash).
struct SpatialHashJoinOptions {
  /// Number of buckets; 0 derives it from Equation 1 like PBSM.
  uint32_t num_buckets = 0;
  /// R tuples sampled to seed the bucket extents (fraction of |R|).
  double sample_fraction = 0.01;
  JoinOptions join;
};

/// Spatial hash join filter (Lo & Ravishankar, SIGMOD '96) — the
/// concurrent no-index algorithm the paper's §2 and Table 1 discuss,
/// implemented as a fourth join for comparison.
///
/// Where PBSM partitions *both* inputs with one space-regular tiling and
/// replicates any object spanning tiles, the spatial hash join is
/// asymmetric:
///  1. a sample of R seeds the bucket extents (here: a Hilbert-sorted
///     sample cut into equal runs, each run's cover is one seed — standing
///     in for LR96's seeded-tree levels);
///  2. every R tuple goes to exactly ONE bucket — the one whose extent
///     needs the least enlargement (the bucket extent grows to cover it),
///     so R is never replicated and candidates are unique;
///  3. every S tuple is replicated to ALL buckets whose (final) extents
///     its MBR overlaps; S tuples overlapping no bucket are dropped by the
///     filter (they cannot join);
///  4. each bucket pair is plane-sweep joined into candidates. LR96 itself
///     "ignores the very expensive refinement step" (the paper's words);
///     here the shared refinement runs after it so totals are comparable.
///
/// Phases "sample <r>", "partition <r>", "partition <s>", "merge buckets".
Status SpatialHashFilter(BufferPool* pool, const JoinInput& r,
                         const JoinInput& s,
                         const SpatialHashJoinOptions& options,
                         CandidateSorter* sorter,
                         JoinCostBreakdown* breakdown);

/// Options for the z-value transform filter (FilterJoinOp builds one from
/// JoinSpec::zorder).
struct ZOrderJoinOptions {
  /// Quadtree depth: the universe is a 2^max_level x 2^max_level pixel
  /// grid. Orenstein's grid-choice sensitivity ([Ore89], discussed in the
  /// paper's §2): finer grids filter better but need more z-elements per
  /// object.
  uint32_t max_level = 8;
  /// Cap on quadtree cells approximating one MBR (the space/precision
  /// knob). The decomposition stops refining once it would exceed this.
  uint32_t max_cells_per_object = 4;

  JoinOptions join;  ///< Memory budget, refinement mode, etc.
};

/// Orenstein-style z-value spatial join filter ([Ore86, OM88] — the
/// "transform the approximation into another dimension" family of the
/// paper's Table 1, built as an additional comparison baseline).
///
/// Each tuple's MBR is approximated by up to `max_cells_per_object`
/// quadtree cells; each cell is a z-order interval [lo, hi). Both inputs
/// become z-interval lists, externally sorted by (lo asc, hi desc).
/// Because quadtree intervals are either nested or disjoint, a single
/// merge pass with one containment stack per input finds every R/S pair
/// with overlapping intervals — the 1-D "merge" the transform approach
/// buys. The filter never misses a truly intersecting pair (cell covers
/// are supersets of the MBRs) but produces more false positives than the
/// MBR filter, which is the drawback the paper cites. One object pair can
/// meet through several cells; the refinement sort removes the repeats.
///
/// Phases "transform <r>", "transform <s>", "merge z-lists".
Status ZOrderFilter(BufferPool* pool, const JoinInput& r, const JoinInput& s,
                    const ZOrderJoinOptions& options, CandidateSorter* sorter,
                    JoinCostBreakdown* breakdown);

}  // namespace pbsm

#endif  // PBSM_CORE_JOIN_METHODS_INTERNAL_H_
