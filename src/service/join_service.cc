#include "service/join_service.h"

#include <algorithm>
#include <ctime>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"
#include "core/spatial_sharding.h"
#include "exec/plan_builder.h"
#include "storage/tuple.h"

namespace pbsm {

namespace {

/// Share of a lane's buffer pool the admission controller hands out.
constexpr double kAdmissionFraction = 0.5;

/// Histogram grid of the pool backing's dataset statistics (planner input).
constexpr uint32_t kHistogramCells = 32;

/// How long an idle worker waits on its home queue before it looks at the
/// sibling queues for work to steal.
constexpr auto kIdleBeat = std::chrono::milliseconds(2);

uint64_t MicrosSince(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
}

double SecondsBetween(std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// CPU time consumed by the calling thread, for the contention-immune
/// ShardSliceStats::cpu_seconds (worker threads time-share cores, so a
/// sub-join's wall time says nothing about its work on a loaded host).
double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

Status ShardedUnsupported(const char* what) {
  return Status::FailedPrecondition(
      std::string(what) + " is not supported over shards");
}

}  // namespace

std::string_view QueryPriorityName(QueryPriority p) {
  switch (p) {
    case QueryPriority::kInteractive:
      return "interactive";
    case QueryPriority::kBatch:
      return "batch";
  }
  PBSM_CHECK(false) << "unknown QueryPriority " << static_cast<int>(p);
}

// ---------------------------------------------------------------------------
// JoinQuery.
// ---------------------------------------------------------------------------

const Result<JoinResponse>& JoinQuery::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return done_; });
  return result_;
}

bool JoinQuery::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

void JoinQuery::Cancel() {
  canceller_.Cancel(Status::Cancelled("query cancelled by client"));
}

// ---------------------------------------------------------------------------
// JoinService: lanes and threads.
// ---------------------------------------------------------------------------

JoinService::JoinService(BufferPool* pool, JoinServiceConfig config)
    : config_(std::move(config)),
      owned_cache_(std::make_unique<IndexCache>(pool, IndexCache::Config())) {
  AddLane(pool, owned_cache_.get());
  StartThreads();
}

JoinService::JoinService(ShardManager* shards, JoinServiceConfig config)
    : shards_(shards), config_(std::move(config)) {
  for (uint32_t i = 0; i < shards_->num_shards(); ++i) {
    ShardManager::Shard& shard = shards_->shard(i);
    AddLane(shard.pool.get(), shard.cache.get());
  }
  StartThreads();
}

JoinService::~JoinService() { Shutdown(/*drain=*/false); }

void JoinService::AddLane(BufferPool* pool, IndexCache* cache) {
  // A sub-join always fits the budget on its own, so admission can delay
  // it but never refuse it.
  const size_t budget = std::max(
      config_.join_defaults.memory_budget_bytes,
      static_cast<size_t>(static_cast<double>(pool->pool_bytes()) *
                          kAdmissionFraction));
  lanes_.push_back(std::make_unique<Lane>(
      pool, cache, std::max<size_t>(config_.queue_capacity, 1), budget));
}

void JoinService::StartThreads() {
  const uint32_t n = std::max(config_.num_workers, num_lanes());
  workers_.reserve(n);
  for (uint32_t w = 0; w < n; ++w) {
    workers_.emplace_back([this, home = w % num_lanes()] { WorkerLoop(home); });
  }
  monitor_ = std::thread([this] { MonitorLoop(); });
}

void JoinService::WorkerLoop(uint32_t home) {
  BoundedQueue<SubJoinRef>& queue = lanes_[home]->queue;
  while (true) {
    SubJoinRef sub;
    bool stolen = false;
    if (std::optional<SubJoinRef> own = queue.PopFor(kIdleBeat)) {
      sub = std::move(*own);
    } else {
      // Idle beat elapsed with an empty home queue: steal from the deepest
      // sibling, so a skewed lane's backlog drains on idle workers.
      uint32_t victim = home;
      size_t deepest = 0;
      for (uint32_t i = 0; i < num_lanes(); ++i) {
        const size_t depth = i == home ? 0 : lanes_[i]->queue.size();
        if (depth > deepest) {
          deepest = depth;
          victim = i;
        }
      }
      if (victim != home) {
        if (std::optional<SubJoinRef> theft = lanes_[victim]->queue.TryPop()) {
          sub = std::move(*theft);
          stolen = true;
        }
      }
    }
    if (sub == nullptr) {
      if (queue.closed()) {
        if (AllQueuesEmpty()) return;
        // Draining shutdown with work left on sibling queues: yield the
        // core to whoever is finishing it.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    UpdateQueueGauge();
    // Claim-or-skip: stealing, withdrawal and abort all race on this
    // exchange, so the sub-join settles exactly once.
    if (sub->claimed.exchange(true, std::memory_order_acq_rel)) continue;
    RunSubJoin(sub, stolen);
  }
}

void JoinService::MonitorLoop() {
  std::unique_lock<std::mutex> lock(monitor_mutex_);
  while (!monitor_stop_) {
    if (deadlines_.empty()) {
      monitor_cv_.wait(lock);
      continue;
    }
    const auto next_deadline = deadlines_.top().first;
    if (std::chrono::steady_clock::now() < next_deadline) {
      monitor_cv_.wait_until(lock, next_deadline);
      continue;
    }
    std::weak_ptr<JoinQuery> weak = deadlines_.top().second;
    deadlines_.pop();
    lock.unlock();
    if (QueryRef query = weak.lock(); query != nullptr && !query->done()) {
      query->canceller_.Cancel(
          Status::Cancelled("deadline exceeded (" +
                            std::to_string(query->request_.timeout_seconds) +
                            "s timeout)"));
    }
    lock.lock();
  }
}

bool JoinService::AllQueuesEmpty() const {
  for (const auto& lane : lanes_) {
    if (lane->queue.size() > 0) return false;
  }
  return true;
}

void JoinService::UpdateQueueGauge() {
  size_t depth = 0;
  for (const auto& lane : lanes_) depth += lane->queue.size();
  queue_depth_gauge_->Set(static_cast<int64_t>(depth));
}

void JoinService::Shutdown(bool drain) {
  // Serialised so a second caller (often the destructor after an explicit
  // Shutdown) blocks until teardown is complete instead of racing it.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shutdown_complete_) return;
  draining_.store(drain, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);

  // Close() lets workers drain what is queued; in non-drain mode we fail
  // the queued sub-joins ourselves and cancel the running queries.
  for (auto& lane : lanes_) lane->queue.Close();
  if (!drain) {
    for (auto& lane : lanes_) {
      for (const SubJoinRef& sub : lane->queue.Drain()) {
        if (!sub->claimed.exchange(true, std::memory_order_acq_rel)) {
          CompleteSub(sub,
                      Status::Cancelled("service shut down before the "
                                        "query ran"),
                      nullptr);
        }
      }
    }
    std::lock_guard<std::mutex> lock(running_mutex_);
    for (const std::weak_ptr<JoinQuery>& weak : running_) {
      if (QueryRef query = weak.lock()) {
        query->canceller_.Cancel(Status::Cancelled("service shut down"));
      }
    }
  }
  for (auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->admission_mutex);
    lane->admission_cv.notify_all();
  }

  for (std::thread& worker : workers_) worker.join();
  // Deadlines keep firing while a draining shutdown finishes the queued
  // work; the monitor stops only once no worker is left to honour one.
  {
    std::lock_guard<std::mutex> lock(monitor_mutex_);
    monitor_stop_ = true;
    monitor_cv_.notify_all();
  }
  monitor_.join();
  queue_depth_gauge_->Set(0);
  shutdown_complete_ = true;
}

// ---------------------------------------------------------------------------
// Datasets.
// ---------------------------------------------------------------------------

Status JoinService::RegisterDataset(const std::string& name,
                                    const HeapFile* heap,
                                    const RelationInfo& info,
                                    bool build_stats) {
  if (sharded()) return ShardedUnsupported("RegisterDataset");
  if (heap == nullptr) {
    return Status::InvalidArgument("RegisterDataset: null heap for '" + name +
                                   "'");
  }
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shut down");
  }
  auto dataset = std::make_shared<Dataset>();
  dataset->heap = heap;
  dataset->info = info;

  if (build_stats && info.cardinality > 0 && !info.universe.empty()) {
    TraceSpan span("service/register_stats");
    SpatialHistogram hist(info.universe, kHistogramCells, kHistogramCells);
    dataset->mbrs.reserve(info.cardinality);
    PBSM_RETURN_IF_ERROR(
        heap->Scan([&](Oid oid, const char* data, size_t size) -> Status {
          PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
          hist.Add(mbr);
          dataset->mbrs.emplace(oid.Encode(), mbr);
          return Status::OK();
        }));
    dataset->histogram.emplace(std::move(hist));
  }

  std::lock_guard<std::mutex> lock(datasets_mutex_);
  datasets_[name] = std::move(dataset);
  return Status::OK();
}

Status JoinService::DropDataset(const std::string& name) {
  if (sharded()) return ShardedUnsupported("DropDataset");
  {
    // A view's delta joins fetch counterpart tuples from the dataset heaps;
    // dropping a referenced dataset would leave the view reading a heap the
    // caller may now free. Make the dependency explicit instead.
    std::lock_guard<std::mutex> lock(views_mutex_);
    for (const auto& [view_name, entry] : views_) {
      if (entry.r_dataset == name || entry.s_dataset == name) {
        return Status::FailedPrecondition("dataset '" + name +
                                          "' is referenced by view '" +
                                          view_name + "'; drop the view first");
      }
    }
  }
  DatasetRef dropped;
  {
    std::lock_guard<std::mutex> lock(datasets_mutex_);
    auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      return Status::NotFound("dataset '" + name + "' not registered");
    }
    dropped = std::move(it->second);
    datasets_.erase(it);
  }
  // Cached trees over the dataset are stale the moment the name is gone;
  // queries already holding TreeRefs finish against the old snapshot.
  cache().InvalidateFile(dropped->info.file);
  cache().InvalidateDataset(name);
  return Status::OK();
}

Result<JoinService::DatasetRef> JoinService::FindDataset(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(datasets_mutex_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("dataset '" + name + "' not registered");
  }
  return it->second;
}

Result<JoinService::LaneDataset> JoinService::FindLaneDataset(
    uint32_t lane, const std::string& name) const {
  auto view = [](auto entry) {
    LaneDataset out;
    out.input = JoinInput{&*entry->heap, entry->info};
    out.histogram = entry->histogram.has_value() ? &*entry->histogram : nullptr;
    out.mbrs = &entry->mbrs;
    out.snapshot = std::move(entry);
    return out;
  };
  if (!sharded()) {
    PBSM_ASSIGN_OR_RETURN(DatasetRef entry, FindDataset(name));
    return view(std::move(entry));
  }
  PBSM_ASSIGN_OR_RETURN(ShardManager::ShardDatasetRef entry,
                        shards_->FindDataset(lane, name));
  const auto* local_to_global = &entry->local_to_global;
  LaneDataset out = view(std::move(entry));
  out.local_to_global = local_to_global;
  return out;
}

// ---------------------------------------------------------------------------
// Submission and planning.
// ---------------------------------------------------------------------------

Result<std::shared_ptr<JoinQuery>> JoinService::Submit(JoinRequest request) {
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shutting down");
  }
  // Every lane registers every dataset, so lane 0 speaks for all of them.
  PBSM_RETURN_IF_ERROR(FindLaneDataset(0, request.r_dataset).status());
  PBSM_RETURN_IF_ERROR(FindLaneDataset(0, request.s_dataset).status());
  if (request.timeout_seconds < 0) {
    return Status::InvalidArgument("negative timeout");
  }

  // Dispatch set: every lane, or — windowed over shards — only the strips
  // the window overlaps. Border pairs stay complete because the ownership
  // corner is clamped by the window's left edge (ShardLayout::PairOwner).
  uint32_t first = 0;
  uint32_t last = num_lanes() - 1;
  if (sharded() && request.window.has_value() && !request.window->empty()) {
    const ShardLayout::ShardRange range =
        shards_->layout().Overlapping(*request.window);
    first = std::min(range.first, last);
    last = std::min(range.last, last);
  }

  auto query = std::make_shared<JoinQuery>();
  query->request_ = std::move(request);
  query->submit_time_ = std::chrono::steady_clock::now();
  const uint32_t num_subs = last - first + 1;
  query->remaining_ = num_subs;
  query->response_.shard_slices.reserve(num_subs);
  if (query->request_.method.has_value()) {
    query->response_.method = *query->request_.method;
  }

  TraceSpan span("service/scatter");
  std::vector<SubJoinRef> subs;
  subs.reserve(num_subs);
  for (uint32_t lane = first; lane <= last; ++lane) {
    auto sub = std::make_shared<SubJoin>();
    sub->query = query;
    sub->lane = lane;
    subs.push_back(std::move(sub));
  }
  const size_t priority = static_cast<size_t>(query->request_.priority);
  for (const SubJoinRef& sub : subs) {
    BoundedQueue<SubJoinRef>& queue = lanes_[sub->lane]->queue;
    if (queue.TryPush(sub, priority)) continue;
    // Backpressure rejects the query whole: withdraw the scatter by
    // poisoning every sub-join's claim. A worker may already have claimed
    // an earlier one — the cancel stops it at its next check, and the
    // orphaned gather state dies with the last SubJoinRef.
    for (const SubJoinRef& poisoned : subs) {
      poisoned->claimed.store(true, std::memory_order_release);
    }
    query->canceller_.Cancel(Status::Cancelled("scatter withdrawn"));
    admission_rejects_->Add();
    UpdateQueueGauge();
    return Status::ResourceExhausted(
        "lane " + std::to_string(sub->lane) + " queue full (" +
        std::to_string(queue.capacity()) + " sub-joins); retry with backoff");
  }
  submitted_->Add();
  UpdateQueueGauge();

  {
    // Registry of accepted queries so a non-drain shutdown can cancel
    // them; expired slots from finished queries are reclaimed here.
    std::lock_guard<std::mutex> lock(running_mutex_);
    running_.erase(std::remove_if(running_.begin(), running_.end(),
                                  [](const std::weak_ptr<JoinQuery>& w) {
                                    return w.expired();
                                  }),
                   running_.end());
    running_.push_back(query);
  }

  if (query->request_.timeout_seconds > 0) {
    const auto deadline =
        query->submit_time_ +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(query->request_.timeout_seconds));
    std::lock_guard<std::mutex> lock(monitor_mutex_);
    deadlines_.emplace(deadline, query);
    monitor_cv_.notify_one();
  }
  return query;
}

Result<JoinResponse> JoinService::Execute(JoinRequest request) {
  PBSM_ASSIGN_OR_RETURN(const QueryRef query, Submit(std::move(request)));
  return query->Wait();
}

JoinSpec JoinService::BaseSpec(const JoinRequest& request) const {
  JoinSpec spec;
  spec.predicate = request.predicate;
  spec.options = config_.join_defaults;
  return spec;
}

PlanChoice JoinService::PlanOnLane(uint32_t lane, const LaneDataset& r,
                                   const LaneDataset& s,
                                   const JoinSpec& spec) const {
  // The cost model mirrors the knobs the join will actually run with
  // (dedup scheme) and this lane's index-cache warmth.
  const IndexCache& cache = *lanes_[lane]->cache;
  const double fill = spec.options.index_fill_factor;
  const PlannerSide pr{&r.input.info, r.histogram,
                       cache.Contains(r.input, fill)};
  const PlannerSide ps{&s.input.info, s.histogram,
                       cache.Contains(s.input, fill)};
  PlannerCosts costs;
  costs.dedup_mode = spec.options.dedup_mode;
  return PlanJoin(pr, ps, spec.options.num_threads, costs);
}

Result<ExplainResult> JoinService::Explain(const JoinRequest& request) const {
  if (sharded()) return ShardedUnsupported("Explain");
  PBSM_ASSIGN_OR_RETURN(const LaneDataset r,
                        FindLaneDataset(0, request.r_dataset));
  PBSM_ASSIGN_OR_RETURN(const LaneDataset s,
                        FindLaneDataset(0, request.s_dataset));
  if (request.window.has_value() && (r.mbrs->empty() || s.mbrs->empty())) {
    return Status::FailedPrecondition(
        "window queries need datasets registered with build_stats");
  }

  // Same planner call a sub-join would make, including cache-warmth
  // checks, so explain shows exactly what a Submit right now would run.
  JoinSpec spec = BaseSpec(request);
  const PlanChoice plan = PlanOnLane(0, r, s, spec);

  ExplainResult out;
  out.plan = plan.ToString();
  if (request.method.has_value()) {
    out.method = *request.method;
    // The planner only costs the tree of its own choice; a forced method
    // that happens to match still gets the costed rendering.
    if (*request.method == plan.method) out.cost_tree = plan.TreeString();
  } else {
    out.method = plan.method;
    out.planner_chosen = true;
    out.cost_tree = plan.TreeString();
  }
  spec.method = out.method;
  if (request.window.has_value()) {
    spec.window = WindowFilter{*request.window, r.mbrs, s.mbrs};
  }

  // Build (but never open) the operator tree the exec layer would drive.
  // No index is pinned and no heap page is touched — construction is pure.
  const std::unique_ptr<Operator> tree =
      BuildJoinTree(r.input, s.input, spec);
  out.tree = DescribeTree(*tree);
  MetricsRegistry::Global().GetCounter("service.explains")->Add();
  return out;
}

// ---------------------------------------------------------------------------
// Materialized join views.
// ---------------------------------------------------------------------------

Status JoinService::CreateView(const std::string& view_name,
                               const std::string& r_dataset,
                               const std::string& s_dataset,
                               SpatialPredicate predicate,
                               uint32_t num_tiles) {
  if (sharded()) return ShardedUnsupported("CreateView");
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shut down");
  }
  {
    std::lock_guard<std::mutex> lock(views_mutex_);
    if (views_.find(view_name) != views_.end()) {
      return Status::InvalidArgument("view '" + view_name +
                                     "' already registered");
    }
  }
  PBSM_ASSIGN_OR_RETURN(const DatasetRef r, FindDataset(r_dataset));
  PBSM_ASSIGN_OR_RETURN(const DatasetRef s, FindDataset(s_dataset));

  MaterializedJoinView::Config config;
  config.name = view_name;
  config.predicate = predicate;
  config.num_tiles = num_tiles;
  config.base.options = config_.join_defaults;
  config.base.options.cancel = nullptr;  // Builds are not query-cancellable.
  PBSM_ASSIGN_OR_RETURN(
      std::unique_ptr<MaterializedJoinView> view,
      MaterializedJoinView::Build(lanes_[0]->pool, JoinInput{r->heap, r->info},
                                  JoinInput{s->heap, s->info},
                                  std::move(config)));

  std::lock_guard<std::mutex> lock(views_mutex_);
  const bool inserted =
      views_
          .emplace(view_name, ViewEntry{std::move(view), r_dataset, s_dataset})
          .second;
  if (!inserted) {
    // Lost a race with a concurrent CreateView of the same name.
    return Status::InvalidArgument("view '" + view_name +
                                   "' already registered");
  }
  return Status::OK();
}

Status JoinService::DropView(const std::string& view_name) {
  std::lock_guard<std::mutex> lock(views_mutex_);
  auto it = views_.find(view_name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + view_name + "' not registered");
  }
  views_.erase(it);  // Streaming queries hold their own shared_ptr.
  return Status::OK();
}

std::vector<std::string> JoinService::ListViews() const {
  std::lock_guard<std::mutex> lock(views_mutex_);
  std::vector<std::string> names;
  names.reserve(views_.size());
  for (const auto& [name, entry] : views_) names.push_back(name);
  return names;  // std::map iteration order is already sorted.
}

Result<uint64_t> JoinService::QueryView(const std::string& view_name,
                                        const ResultSink& sink) const {
  PBSM_ASSIGN_OR_RETURN(const ViewEntry entry, FindView(view_name));
  TraceSpan span("service/query_view");
  const uint64_t num_pairs =
      sink ? entry.view->Emit(sink) : entry.view->num_pairs();
  MetricsRegistry::Global().GetCounter("service.view_queries")->Add();
  return num_pairs;
}

Status JoinService::ViewInsert(const std::string& view_name,
                               MaterializedJoinView::Side side, Oid oid,
                               const Tuple& tuple) {
  PBSM_ASSIGN_OR_RETURN(const ViewEntry entry, FindView(view_name));
  PBSM_RETURN_IF_ERROR(entry.view->Insert(side, oid, tuple));
  InvalidateAfterViewMutation(entry, side);
  return Status::OK();
}

Status JoinService::ViewDelete(const std::string& view_name,
                               MaterializedJoinView::Side side, Oid oid) {
  PBSM_ASSIGN_OR_RETURN(const ViewEntry entry, FindView(view_name));
  PBSM_RETURN_IF_ERROR(entry.view->Delete(side, oid));
  InvalidateAfterViewMutation(entry, side);
  return Status::OK();
}

Result<JoinService::ViewEntry> JoinService::FindView(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(views_mutex_);
  auto it = views_.find(name);
  if (it == views_.end()) {
    return Status::NotFound("view '" + name + "' not registered");
  }
  return it->second;
}

void JoinService::InvalidateAfterViewMutation(
    const ViewEntry& entry, MaterializedJoinView::Side side) {
  // The heap behind the mutated side changed; any cached R*-tree over it is
  // stale. Running queries keep their refs (cache pinning contract) — only
  // future GetOrBuild calls pay a rebuild.
  const std::string& dataset = side == MaterializedJoinView::Side::kR
                                   ? entry.r_dataset
                                   : entry.s_dataset;
  if (Result<DatasetRef> ds = FindDataset(dataset); ds.ok()) {
    cache().InvalidateFile(ds.value()->info.file);
  }
  cache().InvalidateDataset(dataset);
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

bool JoinService::AdmitMemory(Lane* lane, size_t bytes,
                              const JoinQuery& query) {
  std::unique_lock<std::mutex> lock(lane->admission_mutex);
  bool waited = false;
  while (lane->admission_used + bytes > lane->admission_budget) {
    if (query.canceller_.is_cancelled()) return false;
    if (stopping_.load(std::memory_order_acquire) &&
        !draining_.load(std::memory_order_acquire)) {
      return false;
    }
    if (!waited) {
      waited = true;
      admission_waits_->Add();
    }
    // Bounded wait so cancellation/shutdown flags are re-polled even if a
    // notification is missed.
    lane->admission_cv.wait_for(lock, std::chrono::milliseconds(50));
  }
  lane->admission_used += bytes;
  return true;
}

void JoinService::ReleaseMemory(Lane* lane, size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(lane->admission_mutex);
    PBSM_CHECK(lane->admission_used >= bytes);
    lane->admission_used -= bytes;
  }
  lane->admission_cv.notify_all();
}

void JoinService::RunSubJoin(const SubJoinRef& sub, bool stolen) {
  JoinQuery& query = *sub->query;
  if (stolen) stolen_->Add();
  auto cancelled = [&](const char* reason) {
    return query.canceller_.is_cancelled()
               ? query.canceller_.CancellationStatus()
               : Status::Cancelled(reason);
  };
  if (!draining_.load(std::memory_order_acquire) ||
      query.canceller_.is_cancelled()) {
    CompleteSub(sub, cancelled("service shut down"), nullptr);
    return;
  }
  Lane* lane = lanes_[sub->lane].get();
  const size_t reservation = config_.join_defaults.memory_budget_bytes;
  if (!AdmitMemory(lane, reservation, query)) {
    CompleteSub(sub,
                cancelled("service shut down while the query awaited "
                          "admission"),
                nullptr);
    return;
  }

  const auto start = std::chrono::steady_clock::now();
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(query.mutex_);
    if (!query.started_) {
      query.started_ = first = true;
      query.first_start_ = start;
    }
  }
  if (first) queue_wait_us_->Record(MicrosSince(query.submit_time_, start));
  running_gauge_->Add(1);

  ShardSliceStats slice;
  slice.shard = sub->lane;
  slice.stolen = stolen;
  Status status;
  {
    TraceSpan span("service/subjoin");
    const double cpu_start = ThreadCpuSeconds();
    status = RunOnLane(query, sub->lane, &slice);
    slice.cpu_seconds = ThreadCpuSeconds() - cpu_start;
  }
  slice.exec_seconds = SecondsBetween(start, std::chrono::steady_clock::now());
  running_gauge_->Add(-1);
  ReleaseMemory(lane, reservation);

  // First real error wins and cancels every sibling sub-join; kCancelled
  // is ignored by Report so it can never mask the root cause.
  if (!status.ok()) query.canceller_.Report(status);
  CompleteSub(sub, status, status.ok() ? &slice : nullptr);
}

Status JoinService::RunOnLane(JoinQuery& query, uint32_t lane_id,
                              ShardSliceStats* slice) {
  const JoinRequest& request = query.request_;
  const Lane& lane = *lanes_[lane_id];
  PBSM_ASSIGN_OR_RETURN(const LaneDataset r,
                        FindLaneDataset(lane_id, request.r_dataset));
  PBSM_ASSIGN_OR_RETURN(const LaneDataset s,
                        FindLaneDataset(lane_id, request.s_dataset));
  slice->method = request.method.value_or(JoinMethod::kPbsm);
  if (r.input.info.cardinality == 0 || s.input.info.cardinality == 0) {
    return Status::OK();  // Empty slice: this lane contributes nothing.
  }
  if (request.window.has_value() && (r.mbrs->empty() || s.mbrs->empty())) {
    return Status::FailedPrecondition(
        "window queries need datasets registered with build_stats");
  }

  JoinSpec spec = BaseSpec(request);
  spec.options.cancel = &query.canceller_;

  // 1. Choose the method: explicit override or a plan from this lane's
  // statistics and cache state.
  if (request.method.has_value()) {
    spec.method = *request.method;
  } else {
    const PlanChoice plan = PlanOnLane(lane_id, r, s, spec);
    spec.method = plan.method;
    planned_->Add();
    std::lock_guard<std::mutex> lock(query.mutex_);
    JoinResponse& response = query.response_;
    response.planner_chosen = true;
    if (response.plan.empty()) {
      response.plan = sharded() ? "shard" + std::to_string(lane_id) + ": " +
                                      plan.ToString()
                                : plan.ToString();
    }
  }
  slice->method = spec.method;

  // 2. Index-method sub-joins go through the lane's cache: build-or-reuse
  // the trees and keep the refs alive for the duration of the join.
  IndexCache::TreeRef r_tree;
  IndexCache::TreeRef s_tree;
  const double fill = spec.options.index_fill_factor;
  if (spec.method == JoinMethod::kRtree) {
    PBSM_ASSIGN_OR_RETURN(r_tree, lane.cache->GetOrBuild(r.input, fill));
    PBSM_ASSIGN_OR_RETURN(s_tree, lane.cache->GetOrBuild(s.input, fill));
    spec.r_index = r_tree.get();
    spec.s_index = s_tree.get();
  } else if (spec.method == JoinMethod::kInl) {
    // Index the smaller side (matching the facade's choice); the facade
    // probes with the other.
    if (r.input.info.cardinality <= s.input.info.cardinality) {
      PBSM_ASSIGN_OR_RETURN(r_tree, lane.cache->GetOrBuild(r.input, fill));
      spec.r_index = r_tree.get();
    } else {
      PBSM_ASSIGN_OR_RETURN(s_tree, lane.cache->GetOrBuild(s.input, fill));
      spec.s_index = s_tree.get();
    }
  }

  // 3. The window runs inside the engine as a SelectOp above the join, so
  // the sink sees (and counts) the post-window stream. A shard lane's sink
  // also drops pairs another strip owns — the two-layer rule at shard
  // granularity, so the gather needs no dedup merge — and translates slice
  // OIDs to global ones.
  if (request.window.has_value()) {
    spec.window = WindowFilter{*request.window, r.mbrs, s.mbrs};
  }
  uint64_t results = 0;
  uint64_t border_dropped = 0;
  const ResultSink& user_sink = request.sink;
  const ShardLayout layout = sharded() ? shards_->layout() : ShardLayout();
  if (sharded()) {
    spec.sink = [&](Oid ro, Oid so) {
      const auto rit = r.mbrs->find(ro.Encode());
      const auto sit = s.mbrs->find(so.Encode());
      if (rit == r.mbrs->end() || sit == s.mbrs->end()) return;
      const uint32_t owner =
          request.window.has_value()
              ? layout.PairOwner(rit->second, sit->second, *request.window)
              : layout.PairOwner(rit->second, sit->second);
      if (owner != lane_id) {
        ++border_dropped;
        return;
      }
      ++results;
      if (user_sink) {
        user_sink(r.local_to_global->at(ro.Encode()),
                  s.local_to_global->at(so.Encode()));
      }
    };
  } else {
    spec.sink = [&](Oid ro, Oid so) {
      ++results;
      if (user_sink) user_sink(ro, so);
    };
  }

  PBSM_RETURN_IF_ERROR(
      SpatialJoin(lane.pool, r.input, s.input, spec).status());
  slice->num_results = results;
  if (border_dropped > 0) border_filtered_->Add(border_dropped);
  return Status::OK();
}

void JoinService::CompleteSub(const SubJoinRef& sub, const Status& status,
                              const ShardSliceStats* slice) {
  JoinQuery& query = *sub->query;
  subjoins_->Add();
  {
    std::lock_guard<std::mutex> lock(query.mutex_);
    if (slice != nullptr) {
      query.response_.shard_slices.push_back(*slice);
      query.response_.num_results += slice->num_results;
      if (query.response_.shard_slices.size() == 1 &&
          !query.request_.method.has_value()) {
        query.response_.method = slice->method;
      }
    }
    if (!status.ok() && query.first_bad_.ok()) query.first_bad_ = status;
    PBSM_CHECK(query.remaining_ > 0);
    if (--query.remaining_ > 0) return;
  }

  // Gather complete: no other thread touches the gather state past this
  // point (Cancel only trips the canceller). Status priority: canceller
  // (first real error or the cancel reason) > first non-OK sub status > OK.
  const auto end = std::chrono::steady_clock::now();
  Status final_status = query.canceller_.is_cancelled()
                            ? query.canceller_.CancellationStatus()
                            : query.first_bad_;
  if (final_status.ok()) {
    completed_->Add();
  } else if (final_status.code() == StatusCode::kCancelled) {
    cancelled_->Add();
  } else {
    failed_->Add();
  }
  Histogram* latency = query.request_.priority == QueryPriority::kInteractive
                           ? latency_interactive_us_
                           : latency_batch_us_;
  latency->Record(MicrosSince(query.submit_time_, end));
  {
    std::lock_guard<std::mutex> lock(query.mutex_);
    if (final_status.ok()) {
      if (query.started_) {
        query.response_.queue_seconds =
            SecondsBetween(query.submit_time_, query.first_start_);
        query.response_.exec_seconds = SecondsBetween(query.first_start_, end);
      }
      query.result_ = std::move(query.response_);
    } else {
      query.result_ = std::move(final_status);
    }
    query.done_ = true;
  }
  query.done_cv_.notify_all();
}

}  // namespace pbsm
