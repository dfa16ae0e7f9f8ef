#include "core/refinement.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "geom/mer.h"
#include "storage/tuple.h"

namespace pbsm {

namespace {

/// An R tuple held in memory for one refinement block. Its geometry view
/// points into the block arena and lives exactly as long as the block.
struct BlockTuple {
  uint64_t oid = 0;
  GeometryView geometry;
  size_t first_point = 0;  // Offsets of the geometry in the block arena.
  size_t first_ring = 0;
  size_t bytes = 0;  // Serialized size, for budget accounting.
  // Lazily computed MER (containment pre-filter). nullopt = not computed.
  std::optional<Rect> mer;
};

/// One candidate inside a block: index of the R tuple + the S OID.
struct BlockPair {
  size_t r_index = 0;
  uint64_t s_oid = 0;
};

/// Per-stream tallies flushed to the metrics registry exactly once, on
/// every exit path (including cancellation and I/O errors).
struct RefineStats {
  uint64_t tp = 0;  ///< Pairs emitted (hits).
  uint64_t fp = 0;  ///< Pairs dropped (filter false positives).

  void Flush() const {
    // A candidate passing the exact predicate is a filter true positive;
    // one failing it was a false positive of the MBR filter (the CPU the
    // paper's §4.4 refinement discussion is about).
    static Counter* const true_positives =
        MetricsRegistry::Global().GetCounter("join.refine.true_positives");
    static Counter* const false_positives =
        MetricsRegistry::Global().GetCounter("join.refine.false_positives");
    true_positives->Add(tp);
    false_positives->Add(fp);
  }
};

/// Reads sorted candidate pairs into memory-budget-sized blocks of R tuples
/// plus their pairs, honouring the block-boundary push-back. R tuples are
/// parsed straight from the pinned page into one flat arena reused across
/// blocks (allocation-free once warm); the current R page stays pinned
/// until an OID on another page arrives.
class BlockReader {
 public:
  BlockReader(const SortedPairStream& next, const HeapFile& r_heap,
              const JoinOptions& opts)
      : next_(next), r_heap_(r_heap), opts_(opts) {}

  /// Fills one block; returns false when the stream is exhausted and no
  /// pairs remain. On true, `pairs` is non-empty and indexes `r_tuples`,
  /// whose views stay valid until the next call.
  Result<bool> NextBlock(std::vector<BlockTuple>* r_tuples,
                         std::vector<BlockPair>* pairs) {
    r_tuples->clear();
    pairs->clear();
    arena_.clear();
    size_t block_bytes = 0;
    while (true) {
      OidPair pair;
      PBSM_ASSIGN_OR_RETURN(const bool has, Pull(&pair));
      if (!has) break;
      if (r_tuples->empty() || r_tuples->back().oid != pair.r) {
        // New R tuple: check the budget *before* admitting it.
        if (!r_tuples->empty() &&
            block_bytes + sizeof(BlockPair) >= opts_.memory_budget_bytes) {
          // Block full; push the pair back for the next block.
          pushed_back_ = pair;
          pending_ = true;
          break;
        }
        const char* data = nullptr;
        size_t size = 0;
        PBSM_RETURN_IF_ERROR(
            r_heap_.FetchView(Oid::Decode(pair.r), &page_, &data, &size));
        BlockTuple bt;
        bt.first_point = arena_.points.size();
        bt.first_ring = arena_.ring_ends.size();
        TupleView tuple;
        PBSM_RETURN_IF_ERROR(ParseTupleView(data, size, &arena_, &tuple));
        bt.oid = pair.r;
        bt.geometry = tuple.geometry;
        if (!tuple.mer.empty()) bt.mer = tuple.mer;  // Stored MER (BKSS94).
        bt.bytes = size;
        block_bytes += bt.bytes;
        r_tuples->push_back(std::move(bt));
      }
      pairs->push_back(BlockPair{r_tuples->size() - 1, pair.s});
      block_bytes += sizeof(BlockPair);
      if (block_bytes >= opts_.memory_budget_bytes) break;
    }
    // The arena may have moved while it grew: re-point every view at it.
    for (BlockTuple& bt : *r_tuples) {
      const GeometryView& g = bt.geometry;
      bt.geometry = GeometryView(
          g.type(), g.Mbr(), {arena_.points.data() + bt.first_point,
                              g.points().size()},
          {arena_.ring_ends.data() + bt.first_ring, g.num_rings()});
    }
    return !pairs->empty();
  }

 private:
  // Reads the next pair, honouring a block-boundary push-back.
  Result<bool> Pull(OidPair* out) {
    if (pending_) {
      pending_ = false;
      *out = pushed_back_;
      return true;
    }
    return next_(out);
  }

  const SortedPairStream& next_;
  const HeapFile& r_heap_;
  const JoinOptions& opts_;
  OidPair pushed_back_{};
  bool pending_ = false;  // `pushed_back_` holds an unconsumed pair.
  PageHandle page_;       // Page-run cursor over the R heap.
  GeometryBuffer arena_;  // The block's R geometries, back to back.
};

/// Fetches S tuples through a one-entry cache: pairs arrive sorted on
/// OID_S, so runs of the same S tuple parse once, and runs of the same S
/// page pin it once (parsing straight from the pinned bytes). The S view
/// lives for its run, in one scratch buffer reused by every load.
class CachedSFetcher {
 public:
  explicit CachedSFetcher(const HeapFile& s_heap) : s_heap_(s_heap) {}

  Status Load(uint64_t s_oid) {
    if (s_oid == oid_) return Status::OK();
    const char* data = nullptr;
    size_t size = 0;
    PBSM_RETURN_IF_ERROR(
        s_heap_.FetchView(Oid::Decode(s_oid), &page_, &data, &size));
    scratch_.clear();
    oid_ = ~0ull;  // A failed parse leaves no valid view behind.
    PBSM_RETURN_IF_ERROR(ParseTupleView(data, size, &scratch_, &tuple_));
    oid_ = s_oid;
    return Status::OK();
  }

  const GeometryView& geometry() const { return tuple_.geometry; }

 private:
  const HeapFile& s_heap_;
  uint64_t oid_ = ~0ull;
  GeometryBuffer scratch_;
  TupleView tuple_;
  PageHandle page_;  // Page-run cursor over the S heap.
};

/// The exact per-pair test, including the BKSS94 MER short-circuit for
/// containment. Uses the MER stored with the tuple when the relation was
/// loaded with precompute_mers; otherwise computes (and caches) one per
/// block.
bool ExactPairTest(BlockTuple* rt, const GeometryView& s_geometry,
                   SpatialPredicate pred, const JoinOptions& opts) {
  if (pred == SpatialPredicate::kContains && opts.use_mer_filter &&
      rt->geometry.type() == GeometryType::kPolygon) {
    // BKSS94: MBR of the inner inside the MER of the outer proves
    // containment without the exact test.
    if (!rt->mer.has_value()) rt->mer = ComputeMer(rt->geometry);
    if (!rt->geometry.Mbr().Contains(s_geometry.Mbr())) return false;
    if (!rt->mer->empty() && rt->mer->Contains(s_geometry.Mbr())) return true;
  }
  return EvaluatePredicate(pred, rt->geometry, s_geometry,
                           opts.refinement_mode);
}

/// The refine loop. The block's pairs, swizzle-sorted on OID_S, form one
/// run per S tuple, parsed once; every pair of the run is tested exactly.
Status RefineLoop(const SortedPairStream& next, const JoinInput& r,
                  const JoinInput& s, SpatialPredicate pred,
                  const JoinOptions& opts, const ResultSink& sink,
                  JoinCostBreakdown* breakdown, RefineStats* stats) {
  BlockReader reader(next, *r.heap, opts);
  CachedSFetcher s_fetch(*s.heap);
  std::vector<BlockTuple> r_tuples;
  std::vector<BlockPair> pairs;
  while (true) {
    // Block boundary: the natural granularity to honour an external
    // cancellation (service timeout) without polling per pair.
    if (opts.cancel != nullptr && opts.cancel->is_cancelled()) {
      return opts.cancel->CancellationStatus();
    }
    PBSM_ASSIGN_OR_RETURN(const bool has, reader.NextBlock(&r_tuples, &pairs));
    if (!has) break;

    // ---- "Swizzle": sort the block's pairs by OID_S so the S relation is
    // read sequentially. ----
    std::sort(pairs.begin(), pairs.end(),
              [](const BlockPair& a, const BlockPair& b) {
                return a.s_oid < b.s_oid;
              });

    for (const BlockPair& bp : pairs) {
      // Small blocks make the boundary check above too coarse: a timeout
      // arriving while results stream to a slow sink must still cancel the
      // query before the block finishes.
      if (opts.cancel != nullptr && opts.cancel->is_cancelled()) {
        return opts.cancel->CancellationStatus();
      }
      PBSM_RETURN_IF_ERROR(s_fetch.Load(bp.s_oid));
      BlockTuple& rt = r_tuples[bp.r_index];
      if (ExactPairTest(&rt, s_fetch.geometry(), pred, opts)) {
        ++stats->tp;
        ++breakdown->results;
        if (sink) sink(Oid::Decode(rt.oid), Oid::Decode(bp.s_oid));
      } else {
        ++stats->fp;
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status RefinePairStream(const SortedPairStream& next, const JoinInput& r,
                        const JoinInput& s, SpatialPredicate pred,
                        const JoinOptions& opts, const ResultSink& sink,
                        JoinCostBreakdown* breakdown) {
  RefineStats stats;
  const Status status =
      RefineLoop(next, r, s, pred, opts, sink, breakdown, &stats);
  stats.Flush();
  return status;
}

Status RefineCandidates(CandidateSorter* candidates, const JoinInput& r,
                        const JoinInput& s, SpatialPredicate pred,
                        const JoinOptions& opts, const ResultSink& sink,
                        JoinCostBreakdown* breakdown) {
  PBSM_RETURN_IF_ERROR(candidates->Finish());

  bool have_prev = false;
  OidPair prev{};
  // De-duplicating stream over the sorted candidates. A pair pushed back at
  // a block boundary by RefinePairStream was already de-duplicated on its
  // first read; `prev` still equals it, so genuine later duplicates are
  // still caught.
  const SortedPairStream next = [&](OidPair* out) -> Result<bool> {
    while (true) {
      OidPair pair;
      PBSM_ASSIGN_OR_RETURN(const bool has, candidates->Next(&pair));
      if (!has) return false;
      if (have_prev && pair == prev) {
        ++breakdown->duplicates_removed;
        continue;
      }
      have_prev = true;
      prev = pair;
      *out = pair;
      return true;
    }
  };
  return RefinePairStream(next, r, s, pred, opts, sink, breakdown);
}

}  // namespace pbsm
