#ifndef PBSM_CORE_REFINEMENT_H_
#define PBSM_CORE_REFINEMENT_H_

#include "common/status.h"
#include "core/join_cost.h"
#include "core/join_options.h"
#include "core/key_pointer.h"
#include "storage/external_sort.h"

namespace pbsm {

/// Comparator for candidate pairs (primary OID_R, secondary OID_S).
struct OidPairLess {
  bool operator()(const OidPair& a, const OidPair& b) const { return a < b; }
};

/// External sorter over filter-step candidates.
using CandidateSorter = ExternalSorter<OidPair, OidPairLess>;

/// Pull-function producing the next already-de-duplicated candidate pair in
/// (OID_R, OID_S) order; returns false at end of stream.
using SortedPairStream = std::function<Result<bool>(OidPair*)>;

/// Core of the refinement step, driven by any sorted, de-duplicated pair
/// stream — the serial path wraps an external sorter (RefineCandidates),
/// the parallel executor wraps one R-page-range bucket of in-memory sorted
/// candidates. Steps 2-4 of the §3.2 algorithm: block-wise R fetches
/// in OID order, per-block re-sort on OID_S ("swizzling"), sequential S
/// fetches, exact predicate evaluation. Updates breakdown->results only.
///
/// Tuples are parsed from page-run pins (HeapFile::FetchView) into flat
/// geometry views — R views into a block arena, the S view into a per-stream
/// scratch — so refinement allocates nothing per tuple once warm. Between
/// fetches the stream holds at most two pins, its current R page and its
/// current S page, and releases both when it returns.
Status RefinePairStream(const SortedPairStream& next, const JoinInput& r,
                        const JoinInput& s, SpatialPredicate pred,
                        const JoinOptions& opts, const ResultSink& sink,
                        JoinCostBreakdown* breakdown);

/// The refinement step shared by PBSM and the R-tree join (§3.2):
///
///  1. externally sorts the candidate pairs on (OID_R, OID_S), dropping
///     duplicates during the merge (a tuple pair can be produced by several
///     partitions / tile overlaps);
///  2. reads as many R tuples as fit in the memory budget, in OID_R order
///     (physical order, so the reads are near-sequential);
///  3. "swizzles" each pair's OID_R to the in-memory R tuple, re-sorts the
///     block's pairs on OID_S, and fetches S tuples sequentially;
///  4. evaluates the exact predicate on every candidate, forwarding hits to
///     `sink`.
///
/// With opts.use_mer_filter set and a containment predicate, a precomputed
/// maximal-enclosed-rectangle test short-circuits the exact check (BKSS94,
/// discussed in §4.4).
///
/// Updates breakdown->duplicates_removed and breakdown->results; the caller
/// wraps the call in a PhaseTimer for cost capture.
Status RefineCandidates(CandidateSorter* candidates, const JoinInput& r,
                        const JoinInput& s, SpatialPredicate pred,
                        const JoinOptions& opts, const ResultSink& sink,
                        JoinCostBreakdown* breakdown);

}  // namespace pbsm

#endif  // PBSM_CORE_REFINEMENT_H_
