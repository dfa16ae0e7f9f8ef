#include "core/join_methods_internal.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/refinement.h"
#include "core/sweep_kernel.h"
#include "geom/hilbert.h"
#include "storage/external_sort.h"
#include "storage/tuple.h"

namespace pbsm {

namespace {

/// One z-interval of an object's quadtree approximation.
struct ZElement {
  uint64_t lo = 0;
  uint64_t hi = 0;  // Exclusive.
  uint64_t oid = 0;
};
static_assert(std::is_trivially_copyable_v<ZElement>);

/// Sort by (lo asc, hi desc): an ancestor cell sorts before its
/// descendants that share its lower bound.
struct ZElementLess {
  bool operator()(const ZElement& a, const ZElement& b) const {
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.hi > b.hi;
  }
};

using ZSorter = ExternalSorter<ZElement, ZElementLess>;

/// Recursive quadtree decomposition of `mbr` into at most `budget` cells.
/// `cell` is the current quadtree cell's region; `z` its Morton prefix at
/// `level` (0 = whole universe). Appends (zlo, zhi) intervals.
class Decomposer {
 public:
  Decomposer(const Rect& universe, uint32_t max_level, uint32_t budget)
      : universe_(universe), max_level_(max_level), budget_(budget) {}

  void Run(const Rect& mbr, std::vector<std::pair<uint64_t, uint64_t>>* out) {
    out_ = out;
    remaining_splits_ = budget_ > 0 ? budget_ - 1 : 0;
    Walk(universe_, 0, 0, mbr);
  }

 private:
  /// Emits the interval of cell `z` at `level`.
  void Emit(uint64_t z, uint32_t level) {
    const uint32_t shift = 2 * (max_level_ - level);
    out_->emplace_back(z << shift, (z + 1) << shift);
  }

  void Walk(const Rect& cell, uint64_t z, uint32_t level, const Rect& mbr) {
    if (!cell.Intersects(mbr)) return;
    if (mbr.Contains(cell) || level == max_level_) {
      Emit(z, level);
      return;
    }
    // Split into four children. Descending into a single intersecting
    // child is free (the output cell count does not grow), so even a
    // budget of one cell shrinks to the smallest enclosing quadtree cell.
    const double mx = (cell.xlo + cell.xhi) / 2;
    const double my = (cell.ylo + cell.yhi) / 2;
    const Rect quads[4] = {
        Rect(cell.xlo, cell.ylo, mx, my),   // z bits 00.
        Rect(mx, cell.ylo, cell.xhi, my),   // 01 (x high bit).
        Rect(cell.xlo, my, mx, cell.yhi),   // 10 (y high bit).
        Rect(mx, my, cell.xhi, cell.yhi),   // 11.
    };
    uint32_t hit = 0;
    for (const Rect& q : quads) {
      if (q.Intersects(mbr)) ++hit;
    }
    const uint32_t split_cost = hit > 0 ? hit - 1 : 0;
    if (split_cost > remaining_splits_) {
      Emit(z, level);
      return;
    }
    remaining_splits_ -= split_cost;
    for (int q = 0; q < 4; ++q) {
      Walk(quads[q], (z << 2) | static_cast<uint64_t>(q), level + 1, mbr);
    }
  }

  const Rect universe_;
  const uint32_t max_level_;
  const uint32_t budget_;
  std::vector<std::pair<uint64_t, uint64_t>>* out_ = nullptr;
  uint32_t remaining_splits_ = 0;
};

/// Scans `heap`, decomposes every MBR, feeds the z-elements to `sorter`.
Status TransformInput(const HeapFile& heap, Decomposer* decomposer,
                      ZSorter* sorter, uint64_t* num_elements) {
  std::vector<std::pair<uint64_t, uint64_t>> cells;
  return heap.Scan([&](Oid oid, const char* data, size_t size) -> Status {
    PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
    cells.clear();
    decomposer->Run(mbr, &cells);
    for (const auto& [lo, hi] : cells) {
      PBSM_RETURN_IF_ERROR(sorter->Add(ZElement{lo, hi, oid.Encode()}));
      ++*num_elements;
    }
    return Status::OK();
  });
}

}  // namespace

Status ZOrderFilter(BufferPool* pool, const JoinInput& r, const JoinInput& s,
                    const ZOrderJoinOptions& options, CandidateSorter* sorter,
                    JoinCostBreakdown* bd) {
  if (options.max_level == 0 || options.max_level > 31) {
    return Status::InvalidArgument("max_level must be in [1, 31]");
  }
  JoinCostBreakdown& breakdown = *bd;
  DiskManager* disk = pool->disk();
  const Rect universe = Rect::Union(r.info.universe, s.info.universe);
  if (universe.empty()) {
    return Status::InvalidArgument("join inputs have an empty universe");
  }
  Decomposer decomposer(universe, options.max_level,
                        std::max(1u, options.max_cells_per_object));

  // ---- Transform both inputs into sorted z-interval lists. ----
  ZSorter r_sorter(pool, options.join.memory_budget_bytes, ZElementLess{});
  ZSorter s_sorter(pool, options.join.memory_budget_bytes, ZElementLess{});
  uint64_t r_elements = 0, s_elements = 0;
  {
    const std::string phase = "transform " + r.info.name;
    PhaseCost& cost = breakdown.AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);
    PBSM_RETURN_IF_ERROR(
        TransformInput(*r.heap, &decomposer, &r_sorter, &r_elements));
    PBSM_RETURN_IF_ERROR(r_sorter.Finish());
  }
  {
    const std::string phase = "transform " + s.info.name;
    PhaseCost& cost = breakdown.AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);
    PBSM_RETURN_IF_ERROR(
        TransformInput(*s.heap, &decomposer, &s_sorter, &s_elements));
    PBSM_RETURN_IF_ERROR(s_sorter.Finish());
  }
  breakdown.replicated =
      (r_elements - r.info.cardinality) + (s_elements - s.info.cardinality);

  // ---- 1-D merge with containment stacks. ----
  CandidateSorter& candidates = *sorter;
  {
    PhaseCost& cost = breakdown.AddPhase("merge z-lists");
    PhaseTimer timer(disk, &cost, "merge z-lists");

    // (hi, oid) stacks of currently open intervals; quadtree intervals are
    // nested-or-disjoint, so every open interval on the opposite stack
    // contains the incoming one.
    std::vector<std::pair<uint64_t, uint64_t>> r_stack, s_stack;
    ZElement r_head{}, s_head{};
    bool r_has = false, s_has = false;
    PBSM_ASSIGN_OR_RETURN(r_has, r_sorter.Next(&r_head));
    PBSM_ASSIGN_OR_RETURN(s_has, s_sorter.Next(&s_head));
    const ZElementLess less;

    // Buffered emission: pairs are staged in an OidPair block and handed to
    // the sorter in batches, like the sweep kernels' pair buffer.
    std::vector<OidPair> pair_buf;
    pair_buf.reserve(kPairBufferCap);
    Status append_status;
    auto flush = [&] {
      if (pair_buf.empty()) return;
      if (append_status.ok()) {
        append_status = candidates.AddBatch(pair_buf.data(), pair_buf.size());
      }
      pair_buf.clear();
    };
    auto emit = [&](uint64_t r_oid, uint64_t s_oid) {
      pair_buf.push_back(OidPair{r_oid, s_oid});
      ++breakdown.candidates;
      if (pair_buf.size() == kPairBufferCap) flush();
    };

    while (r_has || s_has) {
      const bool take_r = r_has && (!s_has || less(r_head, s_head));
      const ZElement e = take_r ? r_head : s_head;
      // Close every interval that ends at or before this one starts.
      while (!r_stack.empty() && r_stack.back().first <= e.lo) {
        r_stack.pop_back();
      }
      while (!s_stack.empty() && s_stack.back().first <= e.lo) {
        s_stack.pop_back();
      }
      // Pair with every open interval of the other input.
      if (take_r) {
        for (const auto& [hi, s_oid] : s_stack) emit(e.oid, s_oid);
        r_stack.emplace_back(e.hi, e.oid);
        PBSM_ASSIGN_OR_RETURN(r_has, r_sorter.Next(&r_head));
      } else {
        for (const auto& [hi, r_oid] : r_stack) emit(r_oid, e.oid);
        s_stack.emplace_back(e.hi, e.oid);
        PBSM_ASSIGN_OR_RETURN(s_has, s_sorter.Next(&s_head));
      }
    }
    flush();
    PBSM_RETURN_IF_ERROR(append_status);
  }
  return Status::OK();
}

}  // namespace pbsm
