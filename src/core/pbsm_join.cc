#include "core/join_methods_internal.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/plane_sweep_join.h"
#include "core/refinement.h"
#include "core/sweep_kernel.h"
#include "core/spatial_partitioner.h"
#include "core/two_layer_filter.h"
#include "storage/spool_file.h"
#include "storage/tuple.h"

namespace pbsm {

namespace {

/// Scans `heap` and routes each tuple's key-pointer into the partition
/// spools selected by the partitioning function. Counts extra copies
/// created by replication in `*replicated`.
Status PartitionInput(const HeapFile& heap, const SpatialPartitioner& part,
                      std::vector<SpoolFile>* spools, uint64_t* replicated) {
  std::vector<uint32_t> targets;
  return heap.Scan([&](Oid oid, const char* data, size_t size) -> Status {
    PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
    const KeyPointer kp{mbr, oid.Encode()};
    targets.clear();
    part.PartitionsFor(kp.mbr, &targets);
    *replicated += targets.size() - 1;
    for (const uint32_t p : targets) {
      PBSM_RETURN_IF_ERROR((*spools)[p].Append(&kp));
    }
    return Status::OK();
  });
}

/// Two-layer variant of PartitionInput: one *classed* copy per overlapped
/// tile, routed to that tile's partition spool. Replication is counted per
/// tile copy — the mini-joins need tile granularity, so an object spanning
/// several tiles of one partition still spools several copies (unlike the
/// merge mode, which dedups to one copy per partition).
Status PartitionInputClassed(const HeapFile& heap,
                             const SpatialPartitioner& part,
                             std::vector<SpoolFile>* spools,
                             uint64_t* replicated) {
  std::vector<TileAssignment> targets;
  uint64_t class_counts[4] = {0, 0, 0, 0};
  const Status st =
      heap.Scan([&](Oid oid, const char* data, size_t size) -> Status {
        PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
        ClassedKeyPointer ckp{mbr, oid.Encode(), 0, 0};
        targets.clear();
        part.ClassifyTiles(ckp.mbr, &targets);
        *replicated += targets.size() - 1;
        for (const TileAssignment& t : targets) {
          ckp.tile = t.tile;
          ckp.cls = static_cast<uint32_t>(t.cls);
          ++class_counts[ckp.cls];
          PBSM_RETURN_IF_ERROR(
              (*spools)[part.PartitionOfTile(t.tile)].Append(&ckp));
        }
        return Status::OK();
      });
  two_layer_internal::FlushClassCounts(class_counts);
  return st;
}

/// Reads an entire key-pointer spool into memory.
Result<std::vector<KeyPointer>> ReadSpool(const SpoolFile& spool) {
  std::vector<KeyPointer> out;
  out.reserve(spool.num_records());
  SpoolFile::Reader reader = spool.NewReader();
  KeyPointer kp;
  while (true) {
    PBSM_ASSIGN_OR_RETURN(const bool has, reader.Next(&kp));
    if (!has) break;
    out.push_back(kp);
  }
  return out;
}

/// Sweeps two in-memory partition halves into the candidate sorter,
/// flushing batched pair blocks straight into the sorter buffer.
Status SweepInto(std::vector<KeyPointer>* r, std::vector<KeyPointer>* s,
                 const JoinOptions& opts, CandidateSorter* sorter,
                 JoinCostBreakdown* breakdown) {
  Status append_status;
  breakdown->candidates += PlaneSweepJoinBatch(
      r, s, SorterBatchSink<CandidateSorter>{sorter, &append_status},
      opts.simd);
  return append_status;
}

/// Reads an entire classed-key-pointer spool into memory.
Result<std::vector<ClassedKeyPointer>> ReadSpoolClassed(
    const SpoolFile& spool) {
  std::vector<ClassedKeyPointer> out;
  out.reserve(spool.num_records());
  SpoolFile::Reader reader = spool.NewReader();
  ClassedKeyPointer ckp;
  while (true) {
    PBSM_ASSIGN_OR_RETURN(const bool has, reader.Next(&ckp));
    if (!has) break;
    out.push_back(ckp);
  }
  return out;
}

/// Two-layer merge of one partition pair: per-tile class mini-joins,
/// candidates straight into the sorter (the sort orders the stream for
/// refinement I/O; there are no duplicates for it to remove). No §3.5
/// repartition path — a finer sub-grid would re-derive tile classes, so an
/// overflowing partition is processed whole instead (key-pointers only;
/// Equation 1 sizing keeps that near the budget except under extreme skew).
Status MergePairTwoLayer(SpoolFile* r_spool, SpoolFile* s_spool,
                         const JoinOptions& opts, CandidateSorter* sorter,
                         JoinCostBreakdown* breakdown) {
  if (r_spool->num_records() == 0 || s_spool->num_records() == 0) {
    return Status::OK();
  }
  PBSM_ASSIGN_OR_RETURN(std::vector<ClassedKeyPointer> r,
                        ReadSpoolClassed(*r_spool));
  PBSM_ASSIGN_OR_RETURN(std::vector<ClassedKeyPointer> s,
                        ReadSpoolClassed(*s_spool));
  Status append_status;
  breakdown->candidates += TwoLayerPartitionJoinBatch(
      &r, &s, ResolveKernel(opts.simd),
      SorterBatchSink<CandidateSorter>{sorter, &append_status});
  return append_status;
}

/// Merges one partition pair, handling memory overflow per §3.5.
Status MergePair(BufferPool* pool, SpoolFile* r_spool, SpoolFile* s_spool,
                 const Rect& universe, const JoinOptions& opts,
                 uint32_t depth, CandidateSorter* sorter,
                 JoinCostBreakdown* breakdown) {
  if (r_spool->num_records() == 0 || s_spool->num_records() == 0) {
    return Status::OK();
  }
  const uint64_t pair_bytes =
      (r_spool->num_records() + s_spool->num_records()) * sizeof(KeyPointer);

  if (pair_bytes <= opts.memory_budget_bytes) {
    PBSM_ASSIGN_OR_RETURN(std::vector<KeyPointer> r, ReadSpool(*r_spool));
    PBSM_ASSIGN_OR_RETURN(std::vector<KeyPointer> s, ReadSpool(*s_spool));
    return SweepInto(&r, &s, opts, sorter, breakdown);
  }

  if (opts.dynamic_repartition && depth < opts.max_repartition_depth) {
    // Repartition the overflowing pair with a finer grid over the same
    // universe. The grid shape changes with the tile count, so skewed
    // clusters that landed in one partition spread across the sub-grid.
    ++breakdown->repartitioned_pairs;
    static Histogram* const repartition_depth =
        MetricsRegistry::Global().GetHistogram("join.pbsm.repartition_depth");
    repartition_depth->Record(depth + 1);
    uint32_t sub_parts = SpatialPartitioner::EstimatePartitionCount(
        r_spool->num_records(), s_spool->num_records(),
        opts.memory_budget_bytes);
    if (sub_parts < 2) sub_parts = 2;
    const uint32_t sub_tiles = sub_parts * 16 + 7;  // Off the parent shape.
    const SpatialPartitioner sub(universe, sub_tiles, sub_parts,
                                 opts.mapping);

    auto repartition =
        [&](SpoolFile* parent,
            std::vector<SpoolFile>* subs) -> Status {
      for (uint32_t p = 0; p < sub_parts; ++p) {
        PBSM_ASSIGN_OR_RETURN(SpoolFile spool,
                              SpoolFile::Create(pool, sizeof(KeyPointer)));
        subs->push_back(std::move(spool));
      }
      SpoolFile::Reader reader = parent->NewReader();
      KeyPointer kp;
      std::vector<uint32_t> targets;
      while (true) {
        PBSM_ASSIGN_OR_RETURN(const bool has, reader.Next(&kp));
        if (!has) break;
        targets.clear();
        sub.PartitionsFor(kp.mbr, &targets);
        for (const uint32_t p : targets) {
          PBSM_RETURN_IF_ERROR((*subs)[p].Append(&kp));
        }
      }
      return Status::OK();
    };

    std::vector<SpoolFile> r_subs, s_subs;
    PBSM_RETURN_IF_ERROR(repartition(r_spool, &r_subs));
    PBSM_RETURN_IF_ERROR(repartition(s_spool, &s_subs));
    for (uint32_t p = 0; p < sub_parts; ++p) {
      PBSM_RETURN_IF_ERROR(MergePair(pool, &r_subs[p], &s_subs[p], universe,
                                     opts, depth + 1, sorter, breakdown));
      PBSM_RETURN_IF_ERROR(r_subs[p].Drop());
      PBSM_RETURN_IF_ERROR(s_subs[p].Drop());
    }
    // Sub-partitioning can replicate pairs across sub-partitions; the
    // refinement sort removes them like any other duplicate.
    return Status::OK();
  }

  // Chunked fallback: sweep memory-sized chunks of R against memory-sized
  // chunks of S, re-reading the S spool once per R chunk (the quadratic
  // I/O cost is why the paper prefers repartitioning).
  const uint64_t chunk_records =
      std::max<uint64_t>(1, opts.memory_budget_bytes / 2 / sizeof(KeyPointer));
  SpoolFile::Reader r_reader = r_spool->NewReader();
  while (true) {
    std::vector<KeyPointer> r_chunk;
    r_chunk.reserve(chunk_records);
    KeyPointer kp;
    while (r_chunk.size() < chunk_records) {
      PBSM_ASSIGN_OR_RETURN(const bool has, r_reader.Next(&kp));
      if (!has) break;
      r_chunk.push_back(kp);
    }
    if (r_chunk.empty()) break;
    SpoolFile::Reader s_reader = s_spool->NewReader();
    while (true) {
      std::vector<KeyPointer> s_chunk;
      s_chunk.reserve(chunk_records);
      while (s_chunk.size() < chunk_records) {
        PBSM_ASSIGN_OR_RETURN(const bool has, s_reader.Next(&kp));
        if (!has) break;
        s_chunk.push_back(kp);
      }
      if (s_chunk.empty()) break;
      PBSM_RETURN_IF_ERROR(SweepInto(&r_chunk, &s_chunk, opts, sorter,
                                     breakdown));
    }
  }
  return Status::OK();
}

}  // namespace

Status PbsmFilter(BufferPool* pool, const JoinInput& r, const JoinInput& s,
                  const JoinOptions& opts, CandidateSorter* sorter,
                  JoinCostBreakdown* breakdown) {
  DiskManager* disk = pool->disk();

  // The partitioning function must see both inputs, so the universe is the
  // combined catalog cover (§3.1's catalog estimate).
  const Rect universe = Rect::Union(r.info.universe, s.info.universe);
  if (universe.empty()) {
    return Status::InvalidArgument("join inputs have an empty universe");
  }

  uint32_t num_partitions =
      opts.num_partitions_override != 0
          ? opts.num_partitions_override
          : SpatialPartitioner::EstimatePartitionCount(
                r.info.cardinality, s.info.cardinality,
                opts.memory_budget_bytes);
  const uint32_t num_tiles = std::max(opts.num_tiles, num_partitions);
  const SpatialPartitioner partitioner(universe, num_tiles, num_partitions,
                                       opts.mapping);
  breakdown->num_partitions = num_partitions;
  breakdown->num_tiles = partitioner.num_tiles();

  // ---- Filter: partition both inputs. ----
  const bool two_layer = opts.dedup_mode == DedupMode::kTwoLayer;
  const size_t record_size =
      two_layer ? sizeof(ClassedKeyPointer) : sizeof(KeyPointer);
  std::vector<SpoolFile> r_spools, s_spools;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    PBSM_ASSIGN_OR_RETURN(SpoolFile rs, SpoolFile::Create(pool, record_size));
    PBSM_ASSIGN_OR_RETURN(SpoolFile ss, SpoolFile::Create(pool, record_size));
    r_spools.push_back(std::move(rs));
    s_spools.push_back(std::move(ss));
  }

  {
    const std::string phase = "partition " + r.info.name;
    PhaseCost& cost = breakdown->AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);
    PBSM_RETURN_IF_ERROR(
        two_layer ? PartitionInputClassed(*r.heap, partitioner, &r_spools,
                                          &breakdown->replicated)
                  : PartitionInput(*r.heap, partitioner, &r_spools,
                                   &breakdown->replicated));
  }
  {
    const std::string phase = "partition " + s.info.name;
    PhaseCost& cost = breakdown->AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);
    PBSM_RETURN_IF_ERROR(
        two_layer ? PartitionInputClassed(*s.heap, partitioner, &s_spools,
                                          &breakdown->replicated)
                  : PartitionInput(*s.heap, partitioner, &s_spools,
                                   &breakdown->replicated));
  }

  // ---- Filter: merge each partition pair with the plane sweep. ----
  {
    PhaseCost& cost = breakdown->AddPhase("merge partitions");
    PhaseTimer timer(disk, &cost, "merge partitions");
    for (uint32_t p = 0; p < num_partitions; ++p) {
      if (opts.cancel != nullptr && opts.cancel->is_cancelled()) {
        // Materialize the open phase spans so a caller exporting the span
        // tree after this abort sees a complete tree.
        Tracer::Global().FlushOpenSpans();
        return opts.cancel->CancellationStatus();
      }
      PBSM_RETURN_IF_ERROR(
          two_layer ? MergePairTwoLayer(&r_spools[p], &s_spools[p], opts,
                                        sorter, breakdown)
                    : MergePair(pool, &r_spools[p], &s_spools[p], universe,
                                opts, /*depth=*/0, sorter, breakdown));
      PBSM_RETURN_IF_ERROR(r_spools[p].Drop());
      PBSM_RETURN_IF_ERROR(s_spools[p].Drop());
    }
  }
  return Status::OK();
}

}  // namespace pbsm
