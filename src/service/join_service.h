#ifndef PBSM_SERVICE_JOIN_SERVICE_H_
#define PBSM_SERVICE_JOIN_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/canceller.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/selectivity.h"
#include "core/spatial_join.h"
#include "exec/view_maintainer.h"
#include "service/index_cache.h"
#include "service/join_planner.h"
#include "service/shard_manager.h"
#include "storage/buffer_pool.h"
#include "storage/tuple.h"

namespace pbsm {

/// Scheduling class of a service query. Strict priority: every queued
/// interactive query runs before any batch query (FIFO within a class).
enum class QueryPriority : uint8_t {
  kInteractive = 0,
  kBatch = 1,
};

std::string_view QueryPriorityName(QueryPriority p);

/// One join the service is asked to run, by dataset name.
struct JoinRequest {
  std::string r_dataset;
  std::string s_dataset;
  SpatialPredicate predicate = SpatialPredicate::kIntersects;

  /// Forced method; nullopt lets the cost-based planner choose.
  std::optional<JoinMethod> method;

  /// When set, only result pairs whose MBRs both overlap the window are
  /// emitted/counted (a window-restricted join).
  std::optional<Rect> window;

  QueryPriority priority = QueryPriority::kBatch;

  /// Wall-clock budget from submission (Submit); 0 = unlimited. Expiry
  /// cancels the join cooperatively (StatusCode::kCancelled), also while
  /// the query waits in a queue or for admission.
  double timeout_seconds = 0.0;

  /// Optional per-pair callback, invoked from service worker threads. A
  /// query over shards runs one sub-join per shard, and their sinks may
  /// fire CONCURRENTLY: the sink must then be thread-safe.
  ResultSink sink;
};

/// Execution record of one sub-join. A query over one lane (the pool-backed
/// service) has exactly one; a query over shards has one per shard its
/// window overlaps (every shard when unwindowed).
struct ShardSliceStats {
  uint32_t shard = 0;          ///< The lane (shard) the sub-join read.
  JoinMethod method = JoinMethod::kPbsm;
  uint64_t num_results = 0;    ///< After window + border-ownership filters.
  double exec_seconds = 0.0;   ///< This sub-join's execution wall time.
  /// CPU time the executing worker thread spent on this sub-join. With
  /// serial sub-joins (num_threads=1) this is the slice's full work, immune
  /// to time-sharing with sibling workers — the number the bench's
  /// critical-path throughput is computed from. With intra-sub-join threads
  /// it undercounts (pool threads are not metered).
  double cpu_seconds = 0.0;
  bool stolen = false;         ///< Executed by a worker homed on another lane.
};

/// What a completed query reports back.
struct JoinResponse {
  JoinMethod method = JoinMethod::kPbsm;
  bool planner_chosen = false;
  std::string plan;            ///< Cost table when the planner chose.
  uint64_t num_results = 0;
  double queue_seconds = 0.0;  ///< Submission to the first sub-join's start.
  double exec_seconds = 0.0;   ///< First sub-join's start to completion.

  /// One record per sub-join, in completion order. Over shards,
  /// max(exec_seconds) is the query's shard-parallel critical path — the
  /// latency an unconstrained multi-core host would see.
  std::vector<ShardSliceStats> shard_slices;
};

/// What JoinService::Explain returns: the plan a request would run under,
/// rendered without executing anything.
struct ExplainResult {
  JoinMethod method = JoinMethod::kPbsm;
  bool planner_chosen = false;  ///< False when the request forced a method.
  std::string plan;       ///< Cost table, cheapest first (PlanChoice::ToString).
  /// Planner's costed operator tree (PlanChoice::TreeString); empty when the
  /// request forced a method the planner did not pick — the planner only
  /// costs the tree of its own choice.
  std::string cost_tree;
  /// The operator tree the exec layer would actually build and drive
  /// (DescribeTree over BuildJoinTree), including window-pushdown selects.
  std::string tree;
};

/// Ticket for one submitted query. Created by JoinService::Submit; callers
/// Wait() for the result and may Cancel() at any time. Thread-safe.
class JoinQuery {
 public:
  /// Blocks until every sub-join has settled and returns the gathered
  /// result. Idempotent.
  const Result<JoinResponse>& Wait();

  bool done() const;

  /// Requests cooperative cancellation of every sub-join: queued ones fail
  /// without running, running ones stop at their next cancellation check.
  void Cancel();

 private:
  friend class JoinService;

  JoinRequest request_;
  Canceller canceller_;
  std::chrono::steady_clock::time_point submit_time_;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  bool done_ = false;
  uint32_t remaining_ = 0;       ///< Sub-joins not yet settled.
  bool started_ = false;         ///< First sub-join passed admission.
  std::chrono::steady_clock::time_point first_start_;
  Status first_bad_;             ///< First non-OK sub-join status.
  JoinResponse response_;        ///< Gathered under mutex_.
  Result<JoinResponse> result_{Status::Internal("query still pending")};
};

struct JoinServiceConfig {
  /// Total query executors, raised to at least one per lane. Each runs one
  /// sub-join at a time.
  uint32_t num_workers = 2;

  /// Bounded request queue of each lane; a query whose sub-joins do not
  /// all fit is rejected whole with kResourceExhausted (backpressure, not
  /// unbounded buffering).
  size_t queue_capacity = 64;

  /// Per-query join knobs (memory budget, tiles, refinement mode, ...).
  /// `cancel` is overwritten per query; `num_threads` applies within one
  /// sub-join and caps the parallel executor if the planner picks it.
  JoinOptions join_defaults;
};

/// Long-running in-process spatial-join service (see DESIGN.md "Service
/// layer"). It schedules over one or more *lanes*, where a lane is a
/// buffer pool, an index cache and a dataset registry:
///
///  - JoinService(BufferPool*, ...) is one lane over the caller's pool,
///    with datasets registered on the service;
///  - JoinService(ShardManager*, ...) has one lane per spatial shard, with
///    datasets registered on the ShardManager.
///
/// Every query becomes one sub-join per lane it touches (one, or every
/// shard its window overlaps), and both backings share one path:
///
///  - per-lane bounded priority queues; a query that does not fit in every
///    target queue is withdrawn whole;
///  - max(num_workers, lanes) workers homed round-robin on the lanes; an
///    idle worker steals from the deepest sibling queue;
///  - per-lane memory admission: a sub-join reserves its operator budget
///    against max(budget, half the lane's pool) and waits when the lane is
///    oversubscribed, whichever worker runs it;
///  - per-lane cost-based planning from the lane's statistics and index
///    cache state (a warm shard may run kRtree while a cold one picks
///    kPbsm), with R*-trees reused through the lane's IndexCache;
///  - shard lanes translate slice OIDs back to global OIDs and drop pairs
///    another strip owns (border ownership), so the gather needs no dedup;
///  - the first sub-join to hit a real error Report()s it on the query
///    canceller, cancelling its siblings (kCancelled never masks it);
///  - one monitor thread cancels queries past their deadline, until every
///    worker has exited;
///  - Shutdown(true) finishes every queued query, Shutdown(false) fails
///    queued queries and cancels running ones.
///
/// Thread-safety: every public method may be called from any thread. On a
/// pool-backed service datasets are registered by name and the service
/// borrows the HeapFile (the caller keeps ownership and must keep it alive
/// until DropDataset or shutdown).
class JoinService {
 public:
  JoinService(BufferPool* pool, JoinServiceConfig config);
  JoinService(ShardManager* shards, JoinServiceConfig config);
  ~JoinService();  ///< Shutdown(/*drain=*/false) if still running.

  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;

  /// Registers `name` for use in requests. Scans the heap once to build
  /// the planner histogram and the MBR table used for window filtering
  /// (skipped when `build_stats` is false — the planner then falls back to
  /// catalog-only estimates and window queries are rejected).
  /// kFailedPrecondition over shards: register on the ShardManager.
  Status RegisterDataset(const std::string& name, const HeapFile* heap,
                         const RelationInfo& info, bool build_stats = true);

  /// Unregisters `name` and invalidates every cached index over it.
  /// Running queries keep their index refs (cache pinning contract).
  /// kFailedPrecondition over shards.
  Status DropDataset(const std::string& name);

  /// Enqueues a query. Fails fast with kResourceExhausted when a target
  /// queue is full (backpressure), kNotFound for unknown datasets, and
  /// kFailedPrecondition after shutdown began.
  Result<std::shared_ptr<JoinQuery>> Submit(JoinRequest request);

  /// Submit + Wait convenience for synchronous callers.
  Result<JoinResponse> Execute(JoinRequest request);

  /// Plans `request` without executing it: runs the cost-based planner
  /// (or honours the forced method), builds the operator tree the exec
  /// layer would drive, and returns both renderings. Touches no heap pages
  /// beyond the statistics already captured at registration and never
  /// builds indexes. kFailedPrecondition over shards.
  Result<ExplainResult> Explain(const JoinRequest& request) const;

  /// Registers a materialized join view named `view_name` over two
  /// registered datasets and runs the base join to populate it. The view is
  /// then kept current through ViewInsert/ViewDelete. Fails with
  /// kAlreadyExists-style kInvalidArgument when the name is taken, and
  /// kFailedPrecondition over shards.
  Status CreateView(const std::string& view_name, const std::string& r_dataset,
                    const std::string& s_dataset,
                    SpatialPredicate predicate = SpatialPredicate::kIntersects,
                    uint32_t num_tiles = 256);

  /// Unregisters a view. Queries already streaming it finish first (shared
  /// ownership).
  Status DropView(const std::string& view_name);

  /// Names of all registered views, sorted.
  std::vector<std::string> ListViews() const;

  /// Emits the view's current pair set (ascending) to `sink` and returns
  /// the pair count — the warm path that replaces re-running the join.
  Result<uint64_t> QueryView(const std::string& view_name,
                             const ResultSink& sink) const;

  /// Applies one tuple insertion to a view's side. The caller must have
  /// already appended the tuple to the side's heap at `oid` (the view
  /// fetches counterpart tuples through the shared buffer pool). Also
  /// invalidates cached indexes over the mutated dataset — they no longer
  /// reflect the heap.
  Status ViewInsert(const std::string& view_name,
                    MaterializedJoinView::Side side, Oid oid,
                    const Tuple& tuple);

  /// Logical deletion of `oid` from a view's side; invalidates cached
  /// indexes over the mutated dataset.
  Status ViewDelete(const std::string& view_name,
                    MaterializedJoinView::Side side, Oid oid);

  /// Stops accepting queries; with `drain` finishes everything queued
  /// (idle workers keep stealing until every queue is empty), otherwise
  /// fails queued queries (kCancelled) and cancels running ones. Deadlines
  /// keep firing until the workers have exited. Idempotent; the first
  /// call's drain mode wins. Blocks until workers and the monitor exit.
  void Shutdown(bool drain = true);

  uint32_t num_lanes() const { return static_cast<uint32_t>(lanes_.size()); }
  IndexCache& cache(uint32_t lane = 0) { return *lanes_[lane]->cache; }
  size_t queue_depth(uint32_t lane = 0) const {
    return lanes_[lane]->queue.size();
  }
  uint32_t num_workers() const {
    return static_cast<uint32_t>(workers_.size());
  }

 private:
  /// One dataset of the pool-backed registry.
  struct Dataset {
    const HeapFile* heap = nullptr;
    RelationInfo info;
    std::optional<SpatialHistogram> histogram;
    /// Oid.Encode() -> feature MBR; only when build_stats was set.
    std::unordered_map<uint64_t, Rect> mbrs;
  };
  using DatasetRef = std::shared_ptr<const Dataset>;

  /// One dataset as a lane sees it, from either registry.
  struct LaneDataset {
    std::shared_ptr<const void> snapshot;  ///< Keeps the entry alive.
    JoinInput input;
    const SpatialHistogram* histogram = nullptr;
    const std::unordered_map<uint64_t, Rect>* mbrs = nullptr;
    /// Slice Oid.Encode() -> global Oid; shard lanes only.
    const std::unordered_map<uint64_t, Oid>* local_to_global = nullptr;
  };

  using QueryRef = std::shared_ptr<JoinQuery>;

  struct SubJoin {
    QueryRef query;
    uint32_t lane = 0;
    /// Exactly-once execution guard: set by the worker that runs it
    /// (claim-or-skip), by Submit when withdrawing a partial scatter, and
    /// by non-drain shutdown when failing queued sub-joins.
    std::atomic<bool> claimed{false};
  };
  using SubJoinRef = std::shared_ptr<SubJoin>;

  /// A buffer pool, its index cache, its queue and its admission budget.
  struct Lane {
    Lane(BufferPool* pool, IndexCache* cache, size_t queue_capacity,
         size_t admission_budget)
        : pool(pool),
          cache(cache),
          queue(queue_capacity, /*num_priorities=*/2),
          admission_budget(admission_budget) {}

    BufferPool* const pool;
    IndexCache* const cache;
    BoundedQueue<SubJoinRef> queue;
    const size_t admission_budget;
    std::mutex admission_mutex;
    std::condition_variable admission_cv;  ///< Release and shutdown.
    size_t admission_used = 0;             ///< Guarded by admission_mutex.
  };

  /// One view plus the dataset names it joins, so mutations can
  /// invalidate the right cache entries and DropDataset can refuse while a
  /// view still depends on the dataset.
  struct ViewEntry {
    std::shared_ptr<MaterializedJoinView> view;
    std::string r_dataset;
    std::string s_dataset;
  };

  void AddLane(BufferPool* pool, IndexCache* cache);
  void StartThreads();
  bool sharded() const { return shards_ != nullptr; }

  void WorkerLoop(uint32_t home);
  void MonitorLoop();
  bool AllQueuesEmpty() const;
  void UpdateQueueGauge();

  void RunSubJoin(const SubJoinRef& sub, bool stolen);
  /// Plans, pins indexes and runs one sub-join on `lane`; fills `slice`.
  Status RunOnLane(JoinQuery& query, uint32_t lane, ShardSliceStats* slice);
  /// Settles one sub-join on its query; the last one completes the query.
  void CompleteSub(const SubJoinRef& sub, const Status& status,
                   const ShardSliceStats* slice);

  /// The planner call a sub-join (and Explain) makes on `lane`, including
  /// the lane's index-cache warmth.
  PlanChoice PlanOnLane(uint32_t lane, const LaneDataset& r,
                        const LaneDataset& s, const JoinSpec& spec) const;
  JoinSpec BaseSpec(const JoinRequest& request) const;

  Result<DatasetRef> FindDataset(const std::string& name) const;
  Result<LaneDataset> FindLaneDataset(uint32_t lane,
                                      const std::string& name) const;
  Result<ViewEntry> FindView(const std::string& name) const;
  /// Common tail of ViewInsert/ViewDelete: cache invalidation over the
  /// mutated side's dataset.
  void InvalidateAfterViewMutation(const ViewEntry& entry,
                                   MaterializedJoinView::Side side);

  /// Blocks until `bytes` of the lane's admission budget is free, the
  /// query is cancelled, or the service stops without draining. True on
  /// success.
  bool AdmitMemory(Lane* lane, size_t bytes, const JoinQuery& query);
  void ReleaseMemory(Lane* lane, size_t bytes);

  ShardManager* const shards_ = nullptr;  ///< Null for the pool backing.
  const JoinServiceConfig config_;
  std::unique_ptr<IndexCache> owned_cache_;  ///< The pool backing's cache.
  std::vector<std::unique_ptr<Lane>> lanes_;

  mutable std::mutex datasets_mutex_;
  std::map<std::string, DatasetRef> datasets_;

  mutable std::mutex views_mutex_;
  std::map<std::string, ViewEntry> views_;

  // Deadline heap for the monitor: (deadline, query). weak_ptr so a
  // finished query's ticket can die before its deadline fires.
  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;  ///< Guarded by monitor_mutex_.
  using Deadline =
      std::pair<std::chrono::steady_clock::time_point, std::weak_ptr<JoinQuery>>;
  struct DeadlineLater {
    bool operator()(const Deadline& a, const Deadline& b) const {
      return a.first > b.first;
    }
  };
  std::priority_queue<Deadline, std::vector<Deadline>, DeadlineLater>
      deadlines_;

  // Accepted queries (weak: a finished ticket may be released by its
  // client before shutdown looks). Non-drain shutdown cancels them all.
  std::mutex running_mutex_;
  std::vector<std::weak_ptr<JoinQuery>> running_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{true};
  std::mutex shutdown_mutex_;
  bool shutdown_complete_ = false;  ///< Guarded by shutdown_mutex_.

  MetricsRegistry& metrics_ = MetricsRegistry::Global();
  Gauge* queue_depth_gauge_ = metrics_.GetGauge("service.queue_depth");
  Gauge* running_gauge_ = metrics_.GetGauge("service.running_queries");
  Counter* submitted_ = metrics_.GetCounter("service.queries.submitted");
  Counter* completed_ = metrics_.GetCounter("service.queries.completed");
  Counter* failed_ = metrics_.GetCounter("service.queries.failed");
  Counter* cancelled_ = metrics_.GetCounter("service.queries.cancelled");
  Counter* planned_ = metrics_.GetCounter("service.queries.planned");
  Counter* admission_rejects_ =
      metrics_.GetCounter("service.admission_rejects");
  Counter* admission_waits_ = metrics_.GetCounter("service.admission_waits");
  Counter* subjoins_ = metrics_.GetCounter("service.shard.subjoins");
  Counter* stolen_ = metrics_.GetCounter("service.shard.stolen_partitions");
  Counter* border_filtered_ =
      metrics_.GetCounter("service.shard.border_filtered");
  Histogram* latency_interactive_us_ =
      metrics_.GetHistogram("service.latency_us.interactive");
  Histogram* latency_batch_us_ =
      metrics_.GetHistogram("service.latency_us.batch");
  Histogram* queue_wait_us_ = metrics_.GetHistogram("service.queue_wait_us");

  // Last: the threads use every member above.
  std::vector<std::thread> workers_;
  std::thread monitor_;
};

}  // namespace pbsm

#endif  // PBSM_SERVICE_JOIN_SERVICE_H_
