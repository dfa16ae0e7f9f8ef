#include "core/parallel_pbsm.h"

#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/plane_sweep_join.h"
#include "core/spatial_join.h"
#include "core/refinement.h"
#include "core/spatial_partitioner.h"
#include "core/sweep_kernel.h"
#include "storage/tuple.h"

namespace pbsm {

namespace {

/// Per-worker staging produced by declustering.
struct WorkerInput {
  /// Full-replication mode: a private heap per worker (tuple.id rewritten
  /// to the encoded OID in the *original* relation, for global dedup).
  std::optional<HeapFile> r_heap;
  std::optional<HeapFile> s_heap;
  /// MBR-only mode: key-pointers carrying original-relation OIDs.
  std::vector<KeyPointer> r_kps;
  std::vector<KeyPointer> s_kps;
};

/// Declusters one input across the workers.
Status Decluster(BufferPool* pool, const HeapFile& heap,
                 const SpatialPartitioner& part, bool full_objects,
                 bool is_r, std::vector<WorkerInput>* workers,
                 uint64_t* replicated) {
  std::vector<uint32_t> targets;
  return heap.Scan([&](Oid oid, const char* data, size_t size) -> Status {
    PBSM_ASSIGN_OR_RETURN(Tuple tuple, Tuple::Parse(data, size));
    const Rect mbr = tuple.geometry.Mbr();
    targets.clear();
    part.PartitionsFor(mbr, &targets);
    *replicated += targets.size() - 1;
    if (full_objects) {
      // Carry the original identity for global result de-duplication.
      tuple.id = oid.Encode();
      const std::string record = tuple.Serialize();
      for (const uint32_t w : targets) {
        HeapFile& dest = is_r ? *(*workers)[w].r_heap : *(*workers)[w].s_heap;
        PBSM_ASSIGN_OR_RETURN(const Oid dest_oid, dest.Append(record));
        (void)dest_oid;
      }
    } else {
      const KeyPointer kp{mbr, oid.Encode()};
      for (const uint32_t w : targets) {
        auto& kps = is_r ? (*workers)[w].r_kps : (*workers)[w].s_kps;
        kps.push_back(kp);
      }
    }
    return Status::OK();
  });
}

}  // namespace

namespace {

double ScaledSeconds(const PhaseCost& cost, double cpu_scale) {
  return cost.cpu_seconds * cpu_scale + cost.io.modeled_seconds;
}

}  // namespace

double ParallelPbsmReport::ParallelSeconds(double cpu_scale) const {
  double slowest = 0.0;
  for (const WorkerReport& w : workers) {
    slowest = std::max(slowest, ScaledSeconds(w.cost, cpu_scale));
  }
  return ScaledSeconds(decluster_cost, cpu_scale) + slowest;
}

double ParallelPbsmReport::TotalWorkSeconds(double cpu_scale) const {
  double sum = ScaledSeconds(decluster_cost, cpu_scale);
  for (const WorkerReport& w : workers) {
    sum += ScaledSeconds(w.cost, cpu_scale);
  }
  return sum;
}

double ParallelPbsmReport::Speedup(double cpu_scale) const {
  const double p = ParallelSeconds(cpu_scale);
  return p == 0.0 ? 1.0 : TotalWorkSeconds(cpu_scale) / p;
}

double ParallelPbsmReport::WorkerCostCov(double cpu_scale) const {
  std::vector<double> costs;
  costs.reserve(workers.size());
  for (const WorkerReport& w : workers) {
    costs.push_back(ScaledSeconds(w.cost, cpu_scale));
  }
  return ComputeStats(costs).CoefficientOfVariation();
}

static Result<ParallelPbsmReport> SimulateParallelPbsmImpl(
    BufferPool* pool, const JoinInput& r, const JoinInput& s,
    SpatialPredicate pred, const ParallelPbsmOptions& options,
    const ResultSink& sink) {
  if (options.num_workers == 0) {
    return Status::InvalidArgument("need at least one worker");
  }
  const Rect universe = Rect::Union(r.info.universe, s.info.universe);
  if (universe.empty()) {
    return Status::InvalidArgument("join inputs have an empty universe");
  }
  DiskManager* disk = pool->disk();
  const uint32_t tiles =
      std::max(options.num_tiles, options.num_workers);
  const SpatialPartitioner decluster(universe, tiles, options.num_workers,
                                     options.mapping);

  ParallelPbsmReport report;
  report.workers.resize(options.num_workers);

  // ---- Decluster both inputs (a scan + split, as a parallel loader or
  // dynamic redistribution would do). ----
  std::vector<WorkerInput> inputs(options.num_workers);
  {
    PhaseTimer timer(disk, &report.decluster_cost);
    if (options.replicate_full_objects) {
      for (uint32_t w = 0; w < options.num_workers; ++w) {
        PBSM_ASSIGN_OR_RETURN(
            HeapFile rh,
            HeapFile::Create(pool, "pw_r_" + std::to_string(w)));
        PBSM_ASSIGN_OR_RETURN(
            HeapFile sh,
            HeapFile::Create(pool, "pw_s_" + std::to_string(w)));
        inputs[w].r_heap.emplace(std::move(rh));
        inputs[w].s_heap.emplace(std::move(sh));
      }
    }
    PBSM_RETURN_IF_ERROR(Decluster(pool, *r.heap, decluster,
                                   options.replicate_full_objects,
                                   /*is_r=*/true, &inputs,
                                   &report.replicated_r));
    PBSM_RETURN_IF_ERROR(Decluster(pool, *s.heap, decluster,
                                   options.replicate_full_objects,
                                   /*is_r=*/false, &inputs,
                                   &report.replicated_s));
  }

  // ---- Run each worker's filter + refinement, accounted separately. ----
  std::set<std::pair<uint64_t, uint64_t>> global_results;
  for (uint32_t w = 0; w < options.num_workers; ++w) {
    WorkerReport& wr = report.workers[w];
    PhaseTimer timer(disk, &wr.cost);

    // Filter: local plane-sweep over the worker's key-pointers.
    std::vector<KeyPointer> r_kps, s_kps;
    if (options.replicate_full_objects) {
      PBSM_RETURN_IF_ERROR(inputs[w].r_heap->Scan(
          [&](Oid oid, const char* data, size_t size) -> Status {
            PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
            r_kps.push_back(KeyPointer{mbr, oid.Encode()});
            return Status::OK();
          }));
      PBSM_RETURN_IF_ERROR(inputs[w].s_heap->Scan(
          [&](Oid oid, const char* data, size_t size) -> Status {
            PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
            s_kps.push_back(KeyPointer{mbr, oid.Encode()});
            return Status::OK();
          }));
    } else {
      r_kps = std::move(inputs[w].r_kps);
      s_kps = std::move(inputs[w].s_kps);
    }
    wr.r_tuples = r_kps.size();
    wr.s_tuples = s_kps.size();

    CandidateSorter sorter(pool, options.join.memory_budget_bytes,
                           OidPairLess{});
    Status append_status;
    wr.candidates += PlaneSweepJoinBatch(
        &r_kps, &s_kps,
        SorterBatchSink<CandidateSorter>{&sorter, &append_status},
        options.join.sweep, options.join.simd);
    PBSM_RETURN_IF_ERROR(append_status);

    // Refinement. Full mode reads the worker's private heaps; MBR-only
    // mode reads the *original* relations ("remote" fetches).
    const HeapFile& r_src =
        options.replicate_full_objects ? *inputs[w].r_heap : *r.heap;
    const HeapFile& s_src =
        options.replicate_full_objects ? *inputs[w].s_heap : *s.heap;

    JoinCostBreakdown worker_breakdown;
    std::string record;
    ResultSink worker_sink = [&](Oid ro, Oid so) {
      ++wr.results;
      std::pair<uint64_t, uint64_t> key;
      if (options.replicate_full_objects) {
        // Recover the original identities stored in the tuple ids.
        Tuple rt, st;
        if (r_src.Fetch(ro, &record).ok()) {
          auto parsed = Tuple::Parse(record.data(), record.size());
          if (parsed.ok()) rt = std::move(parsed).value();
        }
        if (s_src.Fetch(so, &record).ok()) {
          auto parsed = Tuple::Parse(record.data(), record.size());
          if (parsed.ok()) st = std::move(parsed).value();
        }
        key = {rt.id, st.id};
      } else {
        key = {ro.Encode(), so.Encode()};
      }
      if (global_results.insert(key).second) {
        ++report.results;
        if (sink) sink(Oid::Decode(key.first), Oid::Decode(key.second));
      }
    };
    PBSM_RETURN_IF_ERROR(RefineCandidates(&sorter, JoinInput{&r_src, r.info},
                                          JoinInput{&s_src, s.info}, pred,
                                          options.join, worker_sink,
                                          &worker_breakdown));
    if (!options.replicate_full_objects) {
      // Model the network cost of fetching tuples from their home sites:
      // one remote fetch per tuple access the refinement performed.
      wr.remote_fetches =
          wr.candidates - worker_breakdown.duplicates_removed;
      wr.cost.io.modeled_seconds +=
          static_cast<double>(wr.remote_fetches) *
          options.remote_fetch_seconds;
    }
  }

  // ---- Cleanup worker staging. ----
  for (uint32_t w = 0; w < options.num_workers; ++w) {
    if (inputs[w].r_heap.has_value()) {
      PBSM_RETURN_IF_ERROR(pool->DropFile(inputs[w].r_heap->file()));
    }
    if (inputs[w].s_heap.has_value()) {
      PBSM_RETURN_IF_ERROR(pool->DropFile(inputs[w].s_heap->file()));
    }
  }
  return report;
}

Result<ParallelPbsmReport> SimulateParallelPbsm(
    BufferPool* pool, const JoinInput& r, const JoinInput& s,
    SpatialPredicate pred, const ParallelPbsmOptions& options,
    const ResultSink& sink) {
  Result<ParallelPbsmReport> report =
      SimulateParallelPbsmImpl(pool, r, s, pred, options, sink);
  // This legacy entry point bypasses the SpatialJoin facade, so it must
  // do the facade's failure accounting itself or failed simulations
  // vanish from join.failures.* dashboards.
  if (!report.ok()) {
    CountJoinFailure(JoinMethod::kParallelPbsm, report.status());
  }
  return report;
}

}  // namespace pbsm
