#include "core/join_methods_internal.h"

#include <optional>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/index_build.h"
#include "core/sweep_kernel.h"
#include "storage/tuple.h"

namespace pbsm {

Status InlFilter(BufferPool* pool, const JoinInput& indexed,
                 const JoinInput& probing, const JoinOptions& opts,
                 CandidateSorter* sorter, JoinCostBreakdown* breakdown,
                 const RStarTree* preexisting_index, bool emit_indexed_first) {
  DiskManager* disk = pool->disk();

  std::optional<RStarTree> built;
  const RStarTree* index = preexisting_index;
  if (index == nullptr) {
    const std::string phase = "build index " + indexed.info.name;
    PhaseCost& cost = breakdown->AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);
    PBSM_ASSIGN_OR_RETURN(
        RStarTree tree,
        BuildIndexByBulkLoad(pool, indexed,
                             "inl_idx_" + indexed.info.name + ".rtree",
                             opts.index_fill_factor,
                             opts.memory_budget_bytes, opts.rtree_layout));
    built.emplace(std::move(tree));
    index = &*built;
  }

  {
    PhaseCost& cost = breakdown->AddPhase("probe index");
    PhaseTimer timer(disk, &cost, "probe index");
    // Probe hits become candidate pairs for the downstream refinement
    // operator; the indexed tuples are never fetched here.
    Status append_status;
    std::vector<OidPair> buf;
    buf.reserve(kPairBufferCap);
    auto flush = [&] {
      if (buf.empty() || !append_status.ok()) return;
      append_status = sorter->AddBatch(buf.data(), buf.size());
      buf.clear();
    };
    // One kernel resolution and one metric flush per join, not per probe.
    const KernelKind kind = ResolveKernel(opts.simd);
    RibbonScanStats scan_stats;
    std::vector<uint64_t> hits;
    const Status scan_status = probing.heap->Scan(
        [&](Oid p_oid, const char* data, size_t size) -> Status {
          if (opts.cancel != nullptr && opts.cancel->is_cancelled()) {
            Tracer::Global().FlushOpenSpans();
            return opts.cancel->CancellationStatus();
          }
          PBSM_ASSIGN_OR_RETURN(const Rect p_mbr, ParseTupleMbr(data, size));
          hits.clear();
          PBSM_RETURN_IF_ERROR(
              index->ProbeWindow(p_mbr, kind, &hits, &scan_stats));
          breakdown->candidates += hits.size();
          for (const uint64_t i_encoded : hits) {
            buf.push_back(emit_indexed_first
                              ? OidPair{i_encoded, p_oid.Encode()}
                              : OidPair{p_oid.Encode(), i_encoded});
            if (buf.size() == kPairBufferCap) flush();
          }
          return append_status;
        });
    flush();
    FlushRibbonScanStats(scan_stats);
    PBSM_RETURN_IF_ERROR(scan_status);
    PBSM_RETURN_IF_ERROR(append_status);
  }

  if (built.has_value()) {
    PBSM_RETURN_IF_ERROR(pool->DropFile(built->file()));
  }
  return Status::OK();
}

}  // namespace pbsm
