#include "core/join_methods_internal.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/plane_sweep_join.h"
#include "core/refinement.h"
#include "core/sweep_kernel.h"
#include "core/spatial_partitioner.h"
#include "geom/hilbert.h"
#include "storage/spool_file.h"
#include "storage/tuple.h"

namespace pbsm {

Status SpatialHashFilter(BufferPool* pool, const JoinInput& r,
                         const JoinInput& s,
                         const SpatialHashJoinOptions& options,
                         CandidateSorter* sorter,
                         JoinCostBreakdown* bd) {
  JoinCostBreakdown& breakdown = *bd;
  DiskManager* disk = pool->disk();
  const Rect universe = Rect::Union(r.info.universe, s.info.universe);
  if (universe.empty()) {
    return Status::InvalidArgument("join inputs have an empty universe");
  }
  uint32_t num_buckets =
      options.num_buckets != 0
          ? options.num_buckets
          : SpatialPartitioner::EstimatePartitionCount(
                r.info.cardinality, s.info.cardinality,
                options.join.memory_budget_bytes);
  if (num_buckets < 1) num_buckets = 1;
  breakdown.num_partitions = num_buckets;

  // ---- Seed bucket extents from a sample of R. ----
  std::vector<Rect> extents(num_buckets);
  {
    const std::string phase = "sample " + r.info.name;
    PhaseCost& cost = breakdown.AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);
    size_t sample_target = static_cast<size_t>(
        static_cast<double>(r.info.cardinality) * options.sample_fraction);
    sample_target = std::max<size_t>(sample_target, num_buckets * 4);

    // Reservoir sample of R MBRs (deterministic).
    Rng rng(0x5ea7ed);
    std::vector<Rect> sample;
    sample.reserve(sample_target);
    uint64_t seen = 0;
    PBSM_RETURN_IF_ERROR(r.heap->Scan(
        [&](Oid, const char* data, size_t size) -> Status {
          PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
          ++seen;
          if (sample.size() < sample_target) {
            sample.push_back(mbr);
          } else {
            const uint64_t j = rng.Uniform(seen);
            if (j < sample_target) sample[j] = mbr;
          }
          return Status::OK();
        }));
    if (sample.empty()) {
      // Degenerate input; one bucket covering the universe.
      extents.assign(1, universe);
      num_buckets = 1;
      breakdown.num_partitions = 1;
    } else {
      // Hilbert-sort the sample and cut it into equal runs; each run's
      // cover seeds one bucket (a flat stand-in for LR96's seeded tree).
      const SpaceFillingCurve curve(SpaceFillingCurve::Kind::kHilbert,
                                    universe);
      std::sort(sample.begin(), sample.end(),
                [&curve](const Rect& a, const Rect& b) {
                  return curve.Key(a) < curve.Key(b);
                });
      const size_t per_bucket =
          (sample.size() + num_buckets - 1) / num_buckets;
      for (uint32_t b = 0; b < num_buckets; ++b) {
        const size_t begin = static_cast<size_t>(b) * per_bucket;
        const size_t end = std::min(begin + per_bucket, sample.size());
        Rect cover;
        for (size_t i = begin; i < end; ++i) cover.Expand(sample[i]);
        if (cover.empty()) cover = universe;  // Surplus buckets.
        extents[b] = cover;
      }
    }
  }

  // ---- Partition R: each tuple to the one bucket needing the least
  // enlargement; the bucket extent grows to cover it. ----
  std::vector<SpoolFile> r_spools, s_spools;
  for (uint32_t b = 0; b < num_buckets; ++b) {
    PBSM_ASSIGN_OR_RETURN(SpoolFile rs,
                          SpoolFile::Create(pool, sizeof(KeyPointer)));
    PBSM_ASSIGN_OR_RETURN(SpoolFile ss,
                          SpoolFile::Create(pool, sizeof(KeyPointer)));
    r_spools.push_back(std::move(rs));
    s_spools.push_back(std::move(ss));
  }
  {
    const std::string phase = "partition " + r.info.name;
    PhaseCost& cost = breakdown.AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);
    PBSM_RETURN_IF_ERROR(r.heap->Scan(
        [&](Oid oid, const char* data, size_t size) -> Status {
          PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
          uint32_t best = 0;
          double best_growth = std::numeric_limits<double>::infinity();
          double best_area = std::numeric_limits<double>::infinity();
          for (uint32_t b = 0; b < num_buckets; ++b) {
            const double growth =
                Rect::Union(extents[b], mbr).Area() - extents[b].Area();
            const double area = extents[b].Area();
            if (growth < best_growth ||
                (growth == best_growth && area < best_area)) {
              best_growth = growth;
              best_area = area;
              best = b;
            }
          }
          extents[best].Expand(mbr);
          const KeyPointer kp{mbr, oid.Encode()};
          return r_spools[best].Append(&kp);
        }));
  }

  // ---- Partition S: replicate to every overlapping bucket extent. ----
  {
    const std::string phase = "partition " + s.info.name;
    PhaseCost& cost = breakdown.AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);
    PBSM_RETURN_IF_ERROR(s.heap->Scan(
        [&](Oid oid, const char* data, size_t size) -> Status {
          PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
          const KeyPointer kp{mbr, oid.Encode()};
          uint32_t copies = 0;
          for (uint32_t b = 0; b < num_buckets; ++b) {
            if (extents[b].Intersects(kp.mbr)) {
              PBSM_RETURN_IF_ERROR(s_spools[b].Append(&kp));
              ++copies;
            }
          }
          // S tuples overlapping no bucket are filtered out entirely.
          if (copies > 1) breakdown.replicated += copies - 1;
          return Status::OK();
        }));
  }

  // ---- Join each bucket pair with the plane sweep. ----
  {
    PhaseCost& cost = breakdown.AddPhase("merge buckets");
    PhaseTimer timer(disk, &cost, "merge buckets");
    const uint64_t chunk_records = std::max<uint64_t>(
        1, options.join.memory_budget_bytes / 2 / sizeof(KeyPointer));
    for (uint32_t b = 0; b < num_buckets; ++b) {
      if (r_spools[b].num_records() > 0 && s_spools[b].num_records() > 0) {
        Status append_status;
        auto batch_sink = [&](const OidPair* pairs, size_t n) {
          if (!append_status.ok()) return;
          append_status = sorter->AddBatch(pairs, n);
          breakdown.candidates += n;
        };
        // Chunked sweep: R side in memory-bounded chunks against S chunks
        // (buckets normally fit; overflow degrades gracefully).
        SpoolFile::Reader r_reader = r_spools[b].NewReader();
        while (true) {
          std::vector<KeyPointer> r_chunk;
          KeyPointer kp;
          while (r_chunk.size() < chunk_records) {
            PBSM_ASSIGN_OR_RETURN(const bool has, r_reader.Next(&kp));
            if (!has) break;
            r_chunk.push_back(kp);
          }
          if (r_chunk.empty()) break;
          SpoolFile::Reader s_reader = s_spools[b].NewReader();
          while (true) {
            std::vector<KeyPointer> s_chunk;
            while (s_chunk.size() < chunk_records) {
              PBSM_ASSIGN_OR_RETURN(const bool has, s_reader.Next(&kp));
              if (!has) break;
              s_chunk.push_back(kp);
            }
            if (s_chunk.empty()) break;
            PlaneSweepJoinBatch(&r_chunk, &s_chunk, batch_sink,
                                options.join.simd);
          }
        }
        PBSM_RETURN_IF_ERROR(append_status);
      }
      PBSM_RETURN_IF_ERROR(r_spools[b].Drop());
      PBSM_RETURN_IF_ERROR(s_spools[b].Drop());
    }
  }
  return Status::OK();
}

}  // namespace pbsm
