#include "core/join_methods_internal.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "common/canceller.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/trace.h"
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
        PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
        ClassedKeyPointer ckp;
        ckp.mbr = mbr;
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

/// Phase 1: a parallel classed filter scan, one task per page range of
/// each input (task t < threads scans R range t, task threads + t S range
/// t). Each task owns private per-partition buffers; the barrier makes them
/// visible to the phase-2 tasks without locks.
Status ScanInputs(DiskManager* disk, ThreadPool& tp, Canceller& cancel,
                  const JoinInput& r, const JoinInput& s, uint32_t threads,
                  const SpatialPartitioner& part,
                  std::vector<ClassedBuffers>* r_bufs,
                  std::vector<ClassedBuffers>* s_bufs, ParallelJoinStats& st,
                  JoinCostBreakdown* breakdown) {
  static Counter* const cancelled_tasks =
      MetricsRegistry::Global().GetCounter("join.parallel.cancelled_tasks");
  const auto r_ranges = SplitRange(r.heap->num_pages(), threads);
  const auto s_ranges = SplitRange(s.heap->num_pages(), threads);
  r_bufs->resize(threads);
  s_bufs->resize(threads);
  std::vector<uint64_t> task_replicated(2 * threads, 0);
  std::vector<std::array<uint64_t, 4>> task_classes(
      2 * threads, std::array<uint64_t, 4>{0, 0, 0, 0});
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
          ClassedBuffers& bufs = (is_r ? *r_bufs : *s_bufs)[t];
          bufs.resize(part.num_partitions());
          task_status[task] = ScanRangeIntoClassedBuffers(
              *(is_r ? r : s).heap, range.first, range.second, part, cancel,
              &bufs, &task_replicated[task], task_classes[task].data());
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
  uint64_t classes[4] = {0, 0, 0, 0};
  for (const auto& tc : task_classes) {
    for (size_t c = 0; c < 4; ++c) classes[c] += tc[c];
  }
  two_layer_internal::FlushClassCounts(classes);
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
/// refinement task reads a disjoint R page range.
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

/// Per-worker candidate arenas: `arenas[w][b]` holds the candidates that
/// worker w's filter tasks emitted into R-page bucket b.
using CandidateArenas = std::vector<std::vector<std::vector<OidPair>>>;

/// Phase 3: one pool task per R-page bucket. Each task gathers its bucket
/// from every worker arena, sorts it for refinement I/O order and refines
/// it as an independent §3.2 stream — no global sort, no serial section,
/// and the sink lock is taken once per result batch. The runs are
/// duplicate-free across partitions, so no dedup compare is needed.
Status RefineBuckets(DiskManager* disk, ThreadPool& tp, Canceller& cancel,
                     CandidateArenas& arenas, uint32_t num_buckets,
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
      std::vector<OidPair> bucket;
      GatherBucket(arenas, b, &bucket);
      if (bucket.empty()) return;
      std::sort(bucket.begin(), bucket.end(), OidPairLess{});
      size_t cursor = 0;
      // Polling the flag per pair bounds how much doomed refinement I/O a
      // task still performs after a sibling's failure.
      const SortedPairStream next = [&cursor, &bucket,
                                     &cancel](OidPair* out) -> Result<bool> {
        if (cancel.is_cancelled()) {
          return Status::Cancelled("sibling refine task failed");
        }
        if (cursor == bucket.size()) return false;
        *out = bucket[cursor++];
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
  // filter phase, so it raises the count to kTasksPerThread tasks per
  // thread (an explicit override is respected verbatim).
  const uint32_t num_partitions =
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
  static Counter* const cancelled_tasks =
      MetricsRegistry::Global().GetCounter("join.parallel.cancelled_tasks");

  // ---- Phase 1: parallel classed filter scan. ----
  std::vector<ClassedBuffers> r_bufs, s_bufs;
  {
    const Status ps = ScanInputs(disk, tp, cancel, r, s, threads,
                                 partitioner, &r_bufs, &s_bufs, st,
                                 &breakdown);
    if (!ps.ok()) return EarlyExit(ps);
  }

  // ---- Phase 2: concurrent duplicate-free mini-joins, one task per
  // partition. Each task gathers its partition's classed copies into
  // thread-local scratch and appends each candidate to its R-page bucket in
  // the executing worker's arena — no cross-worker writes, no dedup
  // merge. No §3.5 repartition either: the mini-join is an out-of-place
  // sweep whose footprint is the partition itself, already sized by
  // Equation 1. ----
  const RPageBuckets buckets(r.heap->num_pages(), kTasksPerThread * threads);
  CandidateArenas arenas(threads,
                         std::vector<std::vector<OidPair>>(buckets.size()));
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
        // Pure-CPU phase: no per-task status, but an external cancellation
        // (timeout) should not grind through the remaining partitions. The
        // post-phase is_cancelled() check below reports it.
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
  for (const uint64_t c : task_candidates) breakdown.candidates += c;

  // ---- Phase 3: parallel refinement, one task per R-page bucket. ----
  const Status rs =
      RefineBuckets(disk, tp, cancel, arenas, buckets.size(), r, s, pred,
                    opts, sink, st, &breakdown);
  if (!rs.ok()) return EarlyExit(rs);

  st.total_wall_seconds = total_watch.ElapsedSeconds();
  return breakdown;
}

}  // namespace pbsm
