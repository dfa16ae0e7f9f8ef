#include "core/join_methods_internal.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <utility>
#include <vector>

#include "common/canceller.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/plane_sweep_join.h"
#include "core/refinement.h"
#include "core/spatial_partitioner.h"
#include "core/sweep_kernel.h"
#include "core/two_layer_filter.h"
#include "storage/tuple.h"

namespace pbsm {

namespace {

/// Wraps a status returned from inside a phase: flushes every thread's
/// still-open trace spans first, so an error or cancellation export (the
/// METRICS_JSON span tree, a Chrome trace) keeps the phase spans that were
/// open at exit instead of orphaning their finished sub-spans.
Status EarlyExit(const Status& status) {
  Tracer::Global().FlushOpenSpans();
  return status;
}

/// A phase's failure, in reporting priority: first real task error (the
/// root cause), then an external cancellation with the canceller's own
/// reason, then any remaining per-task status (sibling kCancelled noise).
Status PhaseStatus(const Canceller& cancel,
                   const std::vector<Status>& task_status) {
  PBSM_RETURN_IF_ERROR(cancel.FirstError());
  if (cancel.is_cancelled()) return cancel.CancellationStatus();
  for (const Status& ts : task_status) PBSM_RETURN_IF_ERROR(ts);
  return Status::OK();
}

/// Key-pointer buffers one scan task routed into: one vector per partition.
using PartitionBuffers = std::vector<std::vector<KeyPointer>>;

/// Scans pages [first, end) of `heap`, routing each tuple's key-pointer
/// into `bufs` (one bucket per partition).
Status ScanRangeIntoBuffers(const HeapFile& heap, uint32_t first,
                            uint32_t end, const SpatialPartitioner& part,
                            const Canceller& cancel, PartitionBuffers* bufs,
                            uint64_t* replicated) {
  std::vector<uint32_t> targets;
  return heap.ScanPages(
      first, end, [&](Oid oid, const char* data, size_t size) -> Status {
        if (cancel.is_cancelled()) {
          return Status::Cancelled("sibling scan task failed");
        }
        PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
        const KeyPointer kp{tuple.geometry.Mbr(), oid.Encode()};
        targets.clear();
        part.PartitionsFor(kp.mbr, &targets);
        *replicated += targets.size() - 1;
        for (const uint32_t p : targets) {
          (*bufs)[p].push_back(kp);
        }
        return Status::OK();
      });
}

/// Sweeps one in-memory partition pair into `out`, recursively
/// repartitioning with a finer grid when the pair exceeds the memory
/// budget (§3.5, the in-memory analogue of the serial MergePair).
void SweepPartitionPair(std::vector<KeyPointer>* r,
                        std::vector<KeyPointer>* s, const Rect& universe,
                        const JoinOptions& opts, uint32_t depth,
                        InputOrder order, std::vector<OidPair>* out,
                        uint64_t* candidates, uint64_t* repartitioned) {
  if (r->empty() || s->empty()) return;
  const uint64_t pair_bytes = (r->size() + s->size()) * sizeof(KeyPointer);
  if (pair_bytes <= opts.memory_budget_bytes || !opts.dynamic_repartition ||
      depth >= opts.max_repartition_depth) {
    *candidates += PlaneSweepJoinBatch(r, s, VectorBatchSink{out}, opts.sweep,
                                       opts.simd, order);
    return;
  }

  ++*repartitioned;
  if (opts.sweep == SweepAlgorithm::kForwardSweep &&
      order != InputOrder::kSortedByXlo) {
    // Sort once at the overflowing parent: routing below preserves order,
    // so every recursive sub-sweep can skip its own std::sort.
    auto by_xlo = [](const KeyPointer& a, const KeyPointer& b) {
      return a.mbr.xlo < b.mbr.xlo;
    };
    std::sort(r->begin(), r->end(), by_xlo);
    std::sort(s->begin(), s->end(), by_xlo);
    order = InputOrder::kSortedByXlo;
  }
  uint32_t sub_parts = SpatialPartitioner::EstimatePartitionCount(
      r->size(), s->size(), opts.memory_budget_bytes);
  if (sub_parts < 2) sub_parts = 2;
  const uint32_t sub_tiles = sub_parts * 16 + 7;  // Off the parent shape.
  const SpatialPartitioner sub(universe, sub_tiles, sub_parts, opts.mapping);

  auto route = [&](std::vector<KeyPointer>* in,
                   std::vector<std::vector<KeyPointer>>* subs) {
    subs->resize(sub_parts);
    std::vector<uint32_t> targets;
    for (const KeyPointer& kp : *in) {
      targets.clear();
      sub.PartitionsFor(kp.mbr, &targets);
      for (const uint32_t p : targets) (*subs)[p].push_back(kp);
    }
    in->clear();
    in->shrink_to_fit();
  };
  std::vector<std::vector<KeyPointer>> r_subs, s_subs;
  route(r, &r_subs);
  route(s, &s_subs);
  for (uint32_t p = 0; p < sub_parts; ++p) {
    SweepPartitionPair(&r_subs[p], &s_subs[p], universe, opts, depth + 1,
                       order, out, candidates, repartitioned);
    r_subs[p] = {};
    s_subs[p] = {};
  }
  // Sub-partitioning can replicate pairs across sub-partitions; the
  // candidate merge removes them like any other duplicate.
}

/// Splits [0, total) into `chunks` near-equal contiguous ranges.
std::vector<std::pair<uint32_t, uint32_t>> SplitRange(uint32_t total,
                                                      uint32_t chunks) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  if (chunks == 0) chunks = 1;
  const uint32_t base = total / chunks;
  const uint32_t extra = total % chunks;
  uint32_t begin = 0;
  for (uint32_t c = 0; c < chunks; ++c) {
    const uint32_t len = base + (c < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

/// Records a task's busy seconds into the per-task slot and the executing
/// worker's accumulator (a worker runs its tasks serially, so the
/// per-worker slot needs no lock).
class TaskTimer {
 public:
  TaskTimer(double* task_slot, std::vector<double>* worker_busy)
      : task_slot_(task_slot), worker_busy_(worker_busy) {}
  ~TaskTimer() {
    const double s = watch_.ElapsedSeconds();
    *task_slot_ += s;
    const int w = ThreadPool::CurrentWorker();
    if (w >= 0 && static_cast<size_t>(w) < worker_busy_->size()) {
      (*worker_busy_)[static_cast<size_t>(w)] += s;
    }
  }

 private:
  double* task_slot_;
  std::vector<double>* worker_busy_;
  Stopwatch watch_;
};

/// Phase 1 of both dedup modes: a parallel filter scan, one task per page
/// range of each input. Each task owns private per-partition buffers; the
/// barrier makes them visible to the phase-2 tasks without locks.
/// `scan(heap, first, end, bufs, replicated, task)` fills one task's
/// buffers (task t < threads scans R range t, task threads + t S range t).
template <typename Buffers, typename ScanFn>
Status ScanInputs(DiskManager* disk, ThreadPool& tp, Canceller& cancel,
                  const JoinInput& r, const JoinInput& s, uint32_t threads,
                  uint32_t num_partitions, const ScanFn& scan,
                  std::vector<Buffers>* r_bufs, std::vector<Buffers>* s_bufs,
                  ParallelJoinStats& st, JoinCostBreakdown* breakdown) {
  static Counter* const cancelled_tasks =
      MetricsRegistry::Global().GetCounter("join.parallel.cancelled_tasks");
  const auto r_ranges = SplitRange(r.heap->num_pages(), threads);
  const auto s_ranges = SplitRange(s.heap->num_pages(), threads);
  r_bufs->resize(threads);
  s_bufs->resize(threads);
  std::vector<uint64_t> task_replicated(2 * threads, 0);
  std::vector<Status> task_status(2 * threads);
  st.partition_task_seconds.assign(2 * threads, 0.0);
  {
    PhaseCost& cost = breakdown->AddPhase("partition inputs");
    PhaseTimer timer(disk, &cost, "partition inputs");
    Stopwatch wall;
    for (uint32_t t = 0; t < threads; ++t) {
      for (const uint32_t task : {t, threads + t}) {
        tp.Submit([&, t, task] {
          TaskTimer tt(&st.partition_task_seconds[task],
                       &st.worker_busy_seconds);
          if (cancel.is_cancelled()) {
            cancelled_tasks->Add();
            task_status[task] = Status::Cancelled("sibling scan task failed");
            return;
          }
          const bool is_r = task < threads;
          const auto& range = (is_r ? r_ranges : s_ranges)[t];
          Buffers& bufs = (is_r ? *r_bufs : *s_bufs)[t];
          bufs.resize(num_partitions);
          task_status[task] =
              scan(*(is_r ? r : s).heap, range.first, range.second, &bufs,
                   &task_replicated[task], task);
          cancel.Report(task_status[task]);
        });
      }
    }
    tp.Wait();
    st.partition_wall_seconds = wall.ElapsedSeconds();
  }
  // The first real error wins; sibling kCancelled statuses are noise, and
  // an external cancellation surfaces with the canceller's own reason.
  PBSM_RETURN_IF_ERROR(PhaseStatus(cancel, task_status));
  for (const uint64_t rep : task_replicated) breakdown->replicated += rep;
  return Status::OK();
}

/// Moves entry `i` of every task's bucket list (`lists[t][i]`) onto the end
/// of `out`, releasing the sources.
template <typename T>
void GatherBucket(std::vector<std::vector<std::vector<T>>>& lists, size_t i,
                  std::vector<T>* out) {
  size_t total = out->size();
  for (const auto& list : lists) total += list[i].size();
  out->reserve(total);
  for (auto& list : lists) {
    out->insert(out->end(), list[i].begin(), list[i].end());
    list[i] = {};
  }
}

/// Tasks per thread: the floor on the partition count (phase 2) and the
/// number of R-page-range refinement buckets (phase 3) — enough tasks for
/// work stealing to even out skew.
constexpr uint32_t kTasksPerThread = 4;

/// Maps OID_R to its refinement bucket, page(OID_R) * B / r_pages: B equal
/// ranges of R pages. Every R page belongs to exactly one bucket, so each
/// refinement task reads a disjoint R page range, and the bucket is
/// monotone in OID_R, so a sorted candidate run is split by binary search.
class RPageBuckets {
 public:
  RPageBuckets(uint32_t r_pages, uint32_t num_buckets)
      : r_pages_(std::max<uint32_t>(r_pages, 1)), size_(num_buckets) {}

  uint32_t size() const { return size_; }
  uint32_t Of(uint64_t oid_r) const {
    const uint64_t page = Oid::Decode(oid_r).page_no;
    return static_cast<uint32_t>(
        std::min<uint64_t>(page * size_ / r_pages_, size_ - 1));
  }

 private:
  uint64_t r_pages_;
  uint32_t size_;
};

/// Batch sink appending each candidate to its R-page bucket of one
/// worker's arena.
struct BucketBatchSink {
  const RPageBuckets* buckets;
  std::vector<std::vector<OidPair>>* arena;
  void operator()(const OidPair* pairs, size_t n) const {
    for (size_t i = 0; i < n; ++i) {
      (*arena)[buckets->Of(pairs[i].r)].push_back(pairs[i]);
    }
  }
};

/// Buffers one refinement task's results and hands them to the caller's
/// sink under the shared mutex, up to kBatch pairs per lock; the sink is
/// called with the lock held because it must never be entered
/// concurrently. The destructor flushes the rest, so every exit path (error
/// and cancellation included) delivers every pair the task refined.
class BatchedSink {
 public:
  static constexpr size_t kBatch = 1024;

  BatchedSink(const ResultSink& sink, std::mutex* mutex)
      : sink_(sink), mutex_(mutex) {}
  ~BatchedSink() { Flush(); }
  BatchedSink(const BatchedSink&) = delete;
  BatchedSink& operator=(const BatchedSink&) = delete;

  /// The per-pair sink for RefinePairStream; empty without a caller sink.
  ResultSink AsSink() {
    if (!sink_) return nullptr;
    return [this](Oid r, Oid s) {
      buf_.emplace_back(r, s);
      if (buf_.size() >= kBatch) Flush();
    };
  }

 private:
  void Flush() {
    if (buf_.empty()) return;
    std::lock_guard<std::mutex> lock(*mutex_);
    for (const auto& [r, s] : buf_) sink_(r, s);
    buf_.clear();
  }

  const ResultSink& sink_;
  std::mutex* mutex_;
  std::vector<std::pair<Oid, Oid>> buf_;
};

/// One refinement task's candidates: sorted on (OID_R, OID_S) and
/// duplicate-free.
struct CandidateSlice {
  const OidPair* begin;
  const OidPair* end;
};

/// Yields bucket `b`'s candidates, either as a view into caller-owned
/// memory or gathered into `scratch`.
using SliceFn =
    std::function<CandidateSlice(uint32_t b, std::vector<OidPair>* scratch)>;

/// Phase 3 of both dedup modes: one pool task per R-page bucket, each
/// preparing its own slice and refining it as an independent §3.2 stream —
/// no global sort, no serial section, and the sink lock is taken once per
/// result batch.
Status RefineBuckets(DiskManager* disk, ThreadPool& tp, Canceller& cancel,
                     uint32_t num_buckets, const SliceFn& slice,
                     const JoinInput& r, const JoinInput& s,
                     SpatialPredicate pred, const JoinOptions& opts,
                     const ResultSink& sink, ParallelJoinStats& st,
                     JoinCostBreakdown* breakdown) {
  static Counter* const cancelled_tasks =
      MetricsRegistry::Global().GetCounter("join.parallel.cancelled_tasks");
  PhaseCost& cost = breakdown->AddPhase("refinement");
  PhaseTimer timer(disk, &cost, "refinement");
  Stopwatch wall;
  std::mutex sink_mutex;
  std::vector<JoinCostBreakdown> task_breakdowns(num_buckets);
  std::vector<Status> task_status(num_buckets);
  st.refine_task_seconds.assign(num_buckets, 0.0);
  for (uint32_t b = 0; b < num_buckets; ++b) {
    tp.Submit([&, b] {
      TaskTimer tt(&st.refine_task_seconds[b], &st.worker_busy_seconds);
      if (cancel.is_cancelled()) {
        cancelled_tasks->Add();
        task_status[b] = Status::Cancelled("sibling refine task failed");
        return;
      }
      std::vector<OidPair> scratch;
      const CandidateSlice c = slice(b, &scratch);
      if (c.begin == c.end) return;
      const OidPair* cursor = c.begin;
      // Polling the flag per pair bounds how much doomed refinement I/O a
      // task still performs after a sibling's failure.
      const SortedPairStream next = [&cursor, &c,
                                     &cancel](OidPair* out) -> Result<bool> {
        if (cancel.is_cancelled()) {
          return Status::Cancelled("sibling refine task failed");
        }
        if (cursor == c.end) return false;
        *out = *cursor++;
        return true;
      };
      BatchedSink batch(sink, &sink_mutex);
      task_status[b] = RefinePairStream(next, r, s, pred, opts,
                                        batch.AsSink(), &task_breakdowns[b]);
      cancel.Report(task_status[b]);
    });
  }
  tp.Wait();
  st.refine_wall_seconds = wall.ElapsedSeconds();
  PBSM_RETURN_IF_ERROR(PhaseStatus(cancel, task_status));
  for (const JoinCostBreakdown& tb : task_breakdowns) {
    breakdown->results += tb.results;
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Two-layer (duplicate-free) executor. See core/two_layer_filter.h for the
// scheme; here it replaces phases 2+3a of the merge path with one "filter
// partitions" phase whose output needs no k-way dedup merge.
// ---------------------------------------------------------------------------

/// Classed-copy buffers one scan task routed into: one vector per partition.
using ClassedBuffers = std::vector<std::vector<ClassedKeyPointer>>;

/// Scans pages [first, end) of `heap`, replicating each tuple into every
/// tile its MBR overlaps with the copy's corner class, routed to the tile's
/// partition bucket. `class_counts` accumulates per-class copy counts
/// (indexed by TileClass) for the partition.class_* metrics.
Status ScanRangeIntoClassedBuffers(const HeapFile& heap, uint32_t first,
                                   uint32_t end,
                                   const SpatialPartitioner& part,
                                   const Canceller& cancel,
                                   ClassedBuffers* bufs, uint64_t* replicated,
                                   uint64_t* class_counts) {
  std::vector<TileAssignment> targets;
  return heap.ScanPages(
      first, end, [&](Oid oid, const char* data, size_t size) -> Status {
        if (cancel.is_cancelled()) {
          return Status::Cancelled("sibling scan task failed");
        }
        PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
        ClassedKeyPointer ckp;
        ckp.mbr = tuple.geometry.Mbr();
        ckp.oid = oid.Encode();
        targets.clear();
        part.ClassifyTiles(ckp.mbr, &targets);
        *replicated += targets.size() - 1;
        for (const TileAssignment& ta : targets) {
          ckp.tile = ta.tile;
          ckp.cls = static_cast<uint32_t>(ta.cls);
          ++class_counts[ckp.cls];
          (*bufs)[part.PartitionOfTile(ta.tile)].push_back(ckp);
        }
        return Status::OK();
      });
}

/// The two-layer executor body: phase 1 routes classed copies, phase 2 runs
/// the per-partition mini-joins (no dedup merge exists — every candidate
/// pair is emitted exactly once globally) into per-worker R-page buckets,
/// phase 3 gathers, sorts and refines each bucket as its own task.
/// Unlike the merge path there is no §3.5 repartition:
/// partitions are processed whole (the mini-join is an out-of-place sweep
/// whose footprint is the partition itself, already sized by Equation 1).
Result<JoinCostBreakdown> ParallelTwoLayerJoin(
    DiskManager* disk, ThreadPool& tp, Canceller& cancel, const JoinInput& r,
    const JoinInput& s, SpatialPredicate pred, const JoinOptions& opts,
    const ResultSink& sink, ParallelJoinStats& st,
    const SpatialPartitioner& partitioner, uint32_t threads,
    JoinCostBreakdown breakdown) {
  const uint32_t num_partitions = partitioner.num_partitions();
  static Counter* const cancelled_tasks =
      MetricsRegistry::Global().GetCounter("join.parallel.cancelled_tasks");

  // ---- Phase 1: parallel classed filter scan. As in the merge path, but
  // each copy additionally carries (tile, class). ----
  std::vector<ClassedBuffers> r_bufs, s_bufs;
  std::vector<std::array<uint64_t, 4>> task_classes(
      2 * threads, std::array<uint64_t, 4>{0, 0, 0, 0});
  {
    const Status ps = ScanInputs(
        disk, tp, cancel, r, s, threads, num_partitions,
        [&](const HeapFile& heap, uint32_t first, uint32_t end,
            ClassedBuffers* bufs, uint64_t* replicated, uint32_t task) {
          return ScanRangeIntoClassedBuffers(heap, first, end, partitioner,
                                             cancel, bufs, replicated,
                                             task_classes[task].data());
        },
        &r_bufs, &s_bufs, st, &breakdown);
    if (!ps.ok()) return EarlyExit(ps);
  }
  {
    uint64_t classes[4] = {0, 0, 0, 0};
    for (const auto& tc : task_classes) {
      for (size_t c = 0; c < 4; ++c) classes[c] += tc[c];
    }
    two_layer_internal::FlushClassCounts(classes);
  }

  // ---- Phase 2: concurrent duplicate-free mini-joins, one task per
  // partition. Each task gathers its partition's classed copies into
  // thread-local scratch and appends each candidate to its R-page bucket in
  // the executing worker's arena — no cross-worker writes, no dedup
  // merge. ----
  const RPageBuckets buckets(r.heap->num_pages(), kTasksPerThread * threads);
  std::vector<std::vector<std::vector<OidPair>>> arenas(
      threads, std::vector<std::vector<OidPair>>(buckets.size()));
  std::vector<uint64_t> task_candidates(num_partitions, 0);
  st.sweep_task_seconds.assign(num_partitions, 0.0);
  const KernelKind kind = ResolveKernel(opts.simd);
  {
    PhaseCost& cost = breakdown.AddPhase("filter partitions");
    PhaseTimer timer(disk, &cost, "filter partitions");
    Stopwatch wall;
    for (uint32_t p = 0; p < num_partitions; ++p) {
      tp.Submit([&, p] {
        TaskTimer tt(&st.sweep_task_seconds[p], &st.worker_busy_seconds);
        if (cancel.is_cancelled()) {
          cancelled_tasks->Add();
          return;
        }
        // Thread-local gather buffers: partitions handled by the same
        // worker reuse their capacity, so steady state performs no
        // per-partition allocations (asserted by the zero-alloc test).
        thread_local std::vector<ClassedKeyPointer> r_kps, s_kps;
        r_kps.clear();
        s_kps.clear();
        GatherBucket(r_bufs, p, &r_kps);
        GatherBucket(s_bufs, p, &s_kps);
        if (r_kps.empty() || s_kps.empty()) return;
        const int w = ThreadPool::CurrentWorker();
        PBSM_CHECK(w >= 0 && static_cast<size_t>(w) < arenas.size())
            << "filter task executed outside the pool";
        task_candidates[p] = TwoLayerPartitionJoinBatch(
            &r_kps, &s_kps, kind,
            BucketBatchSink{&buckets, &arenas[static_cast<size_t>(w)]});
      });
    }
    tp.Wait();
    st.sweep_wall_seconds = wall.ElapsedSeconds();
  }
  if (cancel.is_cancelled()) return EarlyExit(cancel.CancellationStatus());
  for (uint32_t p = 0; p < num_partitions; ++p) {
    breakdown.candidates += task_candidates[p];
  }
  // st.merge_wall_seconds stays 0: there is no merge phase to pay for.

  // ---- Phase 3: each task gathers its bucket from every worker arena and
  // sorts it for refinement I/O order. The runs are duplicate-free across
  // partitions, so no k-way merge or dedup compare is needed. ----
  const SliceFn gather = [&arenas](uint32_t b, std::vector<OidPair>* out) {
    GatherBucket(arenas, b, out);
    std::sort(out->begin(), out->end(), OidPairLess{});
    return CandidateSlice{out->data(), out->data() + out->size()};
  };
  const Status rs = RefineBuckets(disk, tp, cancel, buckets.size(), gather, r,
                                  s, pred, opts, sink, st, &breakdown);
  if (!rs.ok()) return EarlyExit(rs);
  return breakdown;
}

}  // namespace

double ParallelJoinStats::SweepBalanceCov() const {
  std::vector<double> busy;
  busy.reserve(sweep_task_seconds.size());
  for (const double s : sweep_task_seconds) {
    if (s > 0.0) busy.push_back(s);
  }
  return ComputeStats(busy).CoefficientOfVariation();
}

double ParallelJoinStats::TotalBusySeconds() const {
  double sum = 0.0;
  for (const double s : partition_task_seconds) sum += s;
  for (const double s : sweep_task_seconds) sum += s;
  for (const double s : refine_task_seconds) sum += s;
  return sum;
}

double ParallelJoinStats::CriticalPathSpeedup() const {
  double slowest = 0.0;
  for (const double s : worker_busy_seconds) {
    slowest = std::max(slowest, s);
  }
  const double total = TotalBusySeconds();
  return slowest == 0.0 ? 1.0 : total / slowest;
}

Result<JoinCostBreakdown> ParallelPbsmJoin(BufferPool* pool,
                                           const JoinInput& r,
                                           const JoinInput& s,
                                           SpatialPredicate pred,
                                           const JoinOptions& opts,
                                           const ResultSink& sink,
                                           ParallelJoinStats* stats) {
  JoinCostBreakdown breakdown;
  DiskManager* disk = pool->disk();
  const uint32_t threads = opts.num_threads != 0
                               ? opts.num_threads
                               : static_cast<uint32_t>(
                                     ThreadPool::DefaultThreads());

  const Rect universe = Rect::Union(r.info.universe, s.info.universe);
  if (universe.empty()) {
    return Status::InvalidArgument("join inputs have an empty universe");
  }

  // Equation 1 sizes partitions for the memory budget; the executor
  // additionally wants enough partitions to keep every worker busy in the
  // sweep phase, so it raises the count to kTasksPerThread tasks per thread
  // (an explicit override is respected verbatim).
  uint32_t num_partitions =
      opts.num_partitions_override != 0
          ? opts.num_partitions_override
          : std::max(SpatialPartitioner::EstimatePartitionCount(
                         r.info.cardinality, s.info.cardinality,
                         opts.memory_budget_bytes),
                     threads * kTasksPerThread);
  const uint32_t num_tiles = std::max(opts.num_tiles, num_partitions);
  const SpatialPartitioner partitioner(universe, num_tiles, num_partitions,
                                       opts.mapping);
  breakdown.num_partitions = num_partitions;
  breakdown.num_tiles = partitioner.num_tiles();

  ParallelJoinStats local_stats;
  ParallelJoinStats& st = stats != nullptr ? *stats : local_stats;
  st = ParallelJoinStats();
  st.num_threads = threads;
  st.worker_busy_seconds.assign(threads, 0.0);

  Stopwatch total_watch;
  ThreadPool tp(threads);
  // Error propagation between sibling tasks, chained below the caller's
  // cancel flag (service timeout / client abort) when one is supplied: a
  // tripped parent stops every task at its next poll, exactly like a
  // sibling failure, but the parent's reason wins in the returned status.
  Canceller cancel(opts.cancel);
  if (opts.dedup_mode == DedupMode::kTwoLayer) {
    Result<JoinCostBreakdown> result =
        ParallelTwoLayerJoin(disk, tp, cancel, r, s, pred, opts, sink, st,
                             partitioner, threads, std::move(breakdown));
    st.total_wall_seconds = total_watch.ElapsedSeconds();
    return result;
  }

  static Counter* const cancelled_tasks =
      MetricsRegistry::Global().GetCounter("join.parallel.cancelled_tasks");

  // ---- Phase 1: parallel filter scan. ----
  std::vector<PartitionBuffers> r_bufs, s_bufs;
  {
    const Status ps = ScanInputs(
        disk, tp, cancel, r, s, threads, num_partitions,
        [&](const HeapFile& heap, uint32_t first, uint32_t end,
            PartitionBuffers* bufs, uint64_t* replicated, uint32_t) {
          return ScanRangeIntoBuffers(heap, first, end, partitioner, cancel,
                                      bufs, replicated);
        },
        &r_bufs, &s_bufs, st, &breakdown);
    if (!ps.ok()) return EarlyExit(ps);
  }

  // ---- Phase 2: concurrent plane-sweep, one task per partition pair.
  // Each task gathers the scan tasks' buckets for its partition, sweeps
  // them, and leaves a sorted candidate run. ----
  std::vector<std::vector<OidPair>> partition_candidates(num_partitions);
  std::vector<uint64_t> task_candidates(num_partitions, 0);
  std::vector<uint64_t> task_repartitioned(num_partitions, 0);
  st.sweep_task_seconds.assign(num_partitions, 0.0);
  {
    PhaseCost& cost = breakdown.AddPhase("sweep partitions");
    PhaseTimer timer(disk, &cost, "sweep partitions");
    Stopwatch wall;
    for (uint32_t p = 0; p < num_partitions; ++p) {
      tp.Submit([&, p] {
        TaskTimer tt(&st.sweep_task_seconds[p], &st.worker_busy_seconds);
        // Pure-CPU phase: no per-task status, but an external cancellation
        // (timeout) should not grind through the remaining partitions. The
        // post-phase is_cancelled() check below reports it.
        if (cancel.is_cancelled()) {
          cancelled_tasks->Add();
          return;
        }
        std::vector<KeyPointer> r_kps, s_kps;
        GatherBucket(r_bufs, p, &r_kps);
        GatherBucket(s_bufs, p, &s_kps);
        SweepPartitionPair(&r_kps, &s_kps, universe, opts, /*depth=*/0,
                           InputOrder::kUnsorted, &partition_candidates[p],
                           &task_candidates[p], &task_repartitioned[p]);
        std::sort(partition_candidates[p].begin(),
                  partition_candidates[p].end(), OidPairLess{});
      });
    }
    tp.Wait();
    st.sweep_wall_seconds = wall.ElapsedSeconds();
  }
  if (cancel.is_cancelled()) return EarlyExit(cancel.CancellationStatus());
  for (uint32_t p = 0; p < num_partitions; ++p) {
    breakdown.candidates += task_candidates[p];
    breakdown.repartitioned_pairs += task_repartitioned[p];
  }

  // ---- Phase 3a: k-way merge of the sorted candidate runs with duplicate
  // elimination (serial; O(N log P) on in-memory runs). ----
  std::vector<OidPair> deduped;
  {
    PhaseCost& cost = breakdown.AddPhase("merge candidates");
    PhaseTimer timer(disk, &cost, "merge candidates");
    Stopwatch wall;
    deduped.reserve(breakdown.candidates);
    struct RunCursor {
      const std::vector<OidPair>* run;
      size_t index;
    };
    auto greater = [](const std::pair<OidPair, size_t>& a,
                      const std::pair<OidPair, size_t>& b) {
      return b.first < a.first;
    };
    std::priority_queue<std::pair<OidPair, size_t>,
                        std::vector<std::pair<OidPair, size_t>>,
                        decltype(greater)>
        heap(greater);
    std::vector<RunCursor> cursors;
    cursors.reserve(num_partitions);
    for (uint32_t p = 0; p < num_partitions; ++p) {
      if (partition_candidates[p].empty()) continue;
      cursors.push_back(RunCursor{&partition_candidates[p], 0});
      heap.emplace(partition_candidates[p][0], cursors.size() - 1);
    }
    while (!heap.empty()) {
      const auto [pair, c] = heap.top();
      heap.pop();
      if (deduped.empty() || !(deduped.back() == pair)) {
        deduped.push_back(pair);
      } else {
        ++breakdown.duplicates_removed;
      }
      RunCursor& cur = cursors[c];
      if (++cur.index < cur.run->size()) {
        heap.emplace((*cur.run)[cur.index], c);
      }
    }
    partition_candidates.clear();
    st.merge_wall_seconds = wall.ElapsedSeconds();
  }

  // ---- Phase 3b: parallel refinement of OID_R-page-aligned slices of the
  // deduped run, one task per R-page bucket. ----
  const RPageBuckets buckets(r.heap->num_pages(), kTasksPerThread * threads);
  const SliceFn slice = [&deduped, &buckets](uint32_t b,
                                             std::vector<OidPair>*) {
    const auto first_of = [&](uint32_t bucket) {
      return std::partition_point(
          deduped.data(), deduped.data() + deduped.size(),
          [&](const OidPair& p) { return buckets.Of(p.r) < bucket; });
    };
    return CandidateSlice{first_of(b), first_of(b + 1)};
  };
  const Status rs = RefineBuckets(disk, tp, cancel, buckets.size(), slice, r,
                                  s, pred, opts, sink, st, &breakdown);
  if (!rs.ok()) return EarlyExit(rs);

  st.total_wall_seconds = total_watch.ElapsedSeconds();
  return breakdown;
}

}  // namespace pbsm
