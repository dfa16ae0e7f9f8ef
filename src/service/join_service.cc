#include "service/join_service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "exec/plan_builder.h"
#include "storage/tuple.h"

namespace pbsm {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
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
// JoinService.
// ---------------------------------------------------------------------------

JoinService::JoinService(BufferPool* pool, JoinServiceConfig config)
    : pool_(pool),
      config_(std::move(config)),
      cache_(pool, config_.cache),
      queue_(std::max<size_t>(config_.queue_capacity, 1),
             /*num_priorities=*/2),
      workers_(std::max<uint32_t>(config_.num_workers, 1)) {
  const double fraction =
      std::clamp(config_.admission_fraction, 0.05, 1.0);
  admission_budget_ = std::max(
      config_.join_defaults.memory_budget_bytes,
      static_cast<size_t>(static_cast<double>(pool_->pool_bytes()) *
                          fraction));

  MetricsRegistry& metrics = MetricsRegistry::Global();
  queue_depth_gauge_ = metrics.GetGauge("service.queue_depth");
  running_gauge_ = metrics.GetGauge("service.running_queries");
  submitted_ = metrics.GetCounter("service.queries.submitted");
  completed_ = metrics.GetCounter("service.queries.completed");
  failed_ = metrics.GetCounter("service.queries.failed");
  cancelled_ = metrics.GetCounter("service.queries.cancelled");
  admission_rejects_ = metrics.GetCounter("service.admission_rejects");
  admission_waits_ = metrics.GetCounter("service.admission_waits");
  planned_ = metrics.GetCounter("service.queries.planned");
  latency_interactive_us_ =
      metrics.GetHistogram("service.latency_us.interactive");
  latency_batch_us_ = metrics.GetHistogram("service.latency_us.batch");
  queue_wait_us_ = metrics.GetHistogram("service.queue_wait_us");

  // The executor workers are long-running pool tasks: the pool supplies the
  // threads, the bounded queue supplies priority order and backpressure.
  for (size_t i = 0; i < workers_.num_threads(); ++i) {
    workers_.Submit([this] { WorkerLoop(); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
}

JoinService::~JoinService() { Shutdown(/*drain=*/false); }

Status JoinService::RegisterDataset(const std::string& name,
                                    const HeapFile* heap,
                                    const RelationInfo& info,
                                    bool build_stats) {
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
    SpatialHistogram hist(info.universe, config_.histogram_nx,
                          config_.histogram_ny);
    dataset->mbrs.reserve(info.cardinality);
    PBSM_RETURN_IF_ERROR(
        heap->Scan([&](Oid oid, const char* data, size_t size) -> Status {
          PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
          const Rect mbr = tuple.geometry.Mbr();
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
  cache_.InvalidateFile(dropped->info.file);
  cache_.InvalidateDataset(name);
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

Result<std::shared_ptr<JoinQuery>> JoinService::Submit(JoinRequest request) {
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shutting down");
  }
  PBSM_RETURN_IF_ERROR(FindDataset(request.r_dataset).status());
  PBSM_RETURN_IF_ERROR(FindDataset(request.s_dataset).status());
  if (request.timeout_seconds < 0) {
    return Status::InvalidArgument("negative timeout");
  }

  // A query can never be admitted if its operator budget alone exceeds the
  // whole admission pool — reject now instead of deadlocking the worker.
  if (config_.join_defaults.memory_budget_bytes > admission_budget_) {
    admission_rejects_->Add();
    return Status::ResourceExhausted(
        "query memory budget exceeds service admission budget");
  }

  auto query = std::make_shared<JoinQuery>();
  query->request_ = std::move(request);
  query->submit_time_ = std::chrono::steady_clock::now();

  const size_t priority =
      static_cast<size_t>(query->request_.priority);
  if (!queue_.TryPush(query, priority)) {
    admission_rejects_->Add();
    return Status::ResourceExhausted(
        "service queue full (" + std::to_string(queue_.capacity()) +
        " requests); retry with backoff");
  }
  submitted_->Add();
  queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));

  if (query->request_.timeout_seconds > 0) {
    const auto deadline =
        query->submit_time_ +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(query->request_.timeout_seconds));
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    deadlines_.emplace(deadline, query);
    watchdog_cv_.notify_one();
  }
  return query;
}

Result<JoinResponse> JoinService::Execute(JoinRequest request) {
  PBSM_ASSIGN_OR_RETURN(const QueryRef query, Submit(std::move(request)));
  return query->Wait();
}

Result<ExplainResult> JoinService::Explain(const JoinRequest& request) const {
  PBSM_ASSIGN_OR_RETURN(const DatasetRef r, FindDataset(request.r_dataset));
  PBSM_ASSIGN_OR_RETURN(const DatasetRef s, FindDataset(request.s_dataset));
  if (request.window.has_value() && (r->mbrs.empty() || s->mbrs.empty())) {
    return Status::FailedPrecondition(
        "window queries need datasets registered with build_stats");
  }

  JoinSpec spec;
  spec.predicate = request.predicate;
  spec.options = config_.join_defaults;
  if (request.refine_mode.has_value()) {
    spec.options.refine.mode = *request.refine_mode;
  }

  // Same planner call ExecuteJoin would make, including cache-warmth
  // checks, so explain shows exactly what a Submit right now would run.
  PlannerSide pr{&r->info, r->histogram.has_value() ? &*r->histogram : nullptr,
                 cache_.Contains(JoinInput{r->heap, r->info},
                                 config_.join_defaults.index_fill_factor)};
  PlannerSide ps{&s->info, s->histogram.has_value() ? &*s->histogram : nullptr,
                 cache_.Contains(JoinInput{s->heap, s->info},
                                 config_.join_defaults.index_fill_factor)};
  PlannerCosts costs;
  costs.dedup_mode = spec.options.dedup_mode;
  costs.refine_mode = spec.options.refine.mode;
  const PlanChoice plan =
      PlanJoin(pr, ps, config_.join_defaults.num_threads, costs);

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
    spec.window = WindowFilter{*request.window, &r->mbrs, &s->mbrs};
  }

  // Build (but never open) the operator tree the exec layer would drive.
  // No index is pinned and no heap page is touched — construction is pure.
  const std::unique_ptr<Operator> tree =
      BuildJoinTree(JoinInput{r->heap, r->info}, JoinInput{s->heap, s->info},
                    spec);
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
      MaterializedJoinView::Build(pool_, JoinInput{r->heap, r->info},
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
  if (sink) entry.view->Emit(sink);
  MetricsRegistry::Global().GetCounter("service.view_queries")->Add();
  return entry.view->num_pairs();
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
    cache_.InvalidateFile(ds.value()->info.file);
  }
  cache_.InvalidateDataset(dataset);
}

void JoinService::Shutdown(bool drain) {
  // Serialised so a second caller (often the destructor after an explicit
  // Shutdown) blocks until teardown is complete instead of racing it.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (shutdown_complete_) return;
  stopping_.store(true, std::memory_order_release);
  draining_.store(drain, std::memory_order_release);

  // Close() lets workers drain what is queued; in non-drain mode we fail
  // the queued queries ourselves and cancel the ones already executing.
  queue_.Close();
  if (!drain) {
    for (const QueryRef& query : queue_.Drain()) {
      Complete(query,
               Status::Cancelled("service shut down before the query ran"));
    }
    std::lock_guard<std::mutex> lock(running_mutex_);
    for (const std::weak_ptr<JoinQuery>& weak : running_) {
      if (QueryRef query = weak.lock()) {
        query->canceller_.Cancel(Status::Cancelled("service shut down"));
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_cv_.notify_all();
  }
  admission_cv_.notify_all();

  workers_.Wait();
  if (watchdog_.joinable()) watchdog_.join();
  queue_depth_gauge_->Set(0);
  shutdown_complete_ = true;
}

void JoinService::WorkerLoop() {
  while (true) {
    std::optional<QueryRef> next = queue_.Pop();
    if (!next.has_value()) return;  // Closed and drained.
    queue_depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
    const QueryRef& query = *next;
    if (!draining_.load(std::memory_order_acquire) ||
        query->canceller_.is_cancelled()) {
      Complete(query, query->canceller_.is_cancelled()
                          ? query->canceller_.CancellationStatus()
                          : Status::Cancelled("service shut down"));
      continue;
    }
    RunQuery(query);
  }
}

void JoinService::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (true) {
    if (deadlines_.empty()) {
      if (stopping_.load(std::memory_order_acquire)) return;
      watchdog_cv_.wait(lock);
      continue;
    }
    const auto next_deadline = deadlines_.top().first;
    const auto now = std::chrono::steady_clock::now();
    if (now < next_deadline) {
      if (stopping_.load(std::memory_order_acquire)) {
        // Shutdown pending: nothing left will honour these deadlines once
        // the workers exit, and cancelling early would be wrong — drop out.
        return;
      }
      watchdog_cv_.wait_until(lock, next_deadline);
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

bool JoinService::AdmitMemory(size_t bytes, const QueryRef& query) {
  std::unique_lock<std::mutex> lock(admission_mutex_);
  bool waited = false;
  while (admission_used_ + bytes > admission_budget_) {
    if (query->canceller_.is_cancelled()) return false;
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
    admission_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
  admission_used_ += bytes;
  return true;
}

void JoinService::ReleaseMemory(size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    PBSM_CHECK(admission_used_ >= bytes);
    admission_used_ -= bytes;
  }
  admission_cv_.notify_all();
}

void JoinService::RunQuery(const QueryRef& query) {
  const size_t reservation = config_.join_defaults.memory_budget_bytes;
  if (!AdmitMemory(reservation, query)) {
    Complete(query, query->canceller_.is_cancelled()
                        ? query->canceller_.CancellationStatus()
                        : Status::Cancelled("service shut down while the "
                                            "query awaited admission"));
    return;
  }
  running_gauge_->Add(1);
  {
    // Registry of in-flight queries so a non-drain shutdown can cancel
    // them; expired slots from finished queries are reclaimed here.
    std::lock_guard<std::mutex> lock(running_mutex_);
    running_.erase(std::remove_if(running_.begin(), running_.end(),
                                  [](const std::weak_ptr<JoinQuery>& w) {
                                    return w.expired();
                                  }),
                   running_.end());
    running_.push_back(query);
  }

  const auto admit_time = std::chrono::steady_clock::now();
  queue_wait_us_->Record(MicrosSince(query->submit_time_, admit_time));

  Result<JoinResponse> result = Status::Internal("unreachable");
  {
    TraceSpan span("service/query");
    Result<DatasetRef> r = FindDataset(query->request_.r_dataset);
    Result<DatasetRef> s = FindDataset(query->request_.s_dataset);
    if (!r.ok()) {
      result = r.status();  // Dropped between submit and execution.
    } else if (!s.ok()) {
      result = s.status();
    } else {
      result = ExecuteJoin(query, r.value(), s.value());
    }
  }

  const auto end_time = std::chrono::steady_clock::now();
  if (result.ok()) {
    JoinResponse& response = result.value();
    response.queue_seconds =
        static_cast<double>(MicrosSince(query->submit_time_, admit_time)) /
        1e6;
    response.exec_seconds =
        static_cast<double>(MicrosSince(admit_time, end_time)) / 1e6;
  }
  Histogram* latency =
      query->request_.priority == QueryPriority::kInteractive
          ? latency_interactive_us_
          : latency_batch_us_;
  latency->Record(MicrosSince(query->submit_time_, end_time));

  running_gauge_->Add(-1);
  ReleaseMemory(reservation);
  Complete(query, std::move(result));
}

Result<JoinResponse> JoinService::ExecuteJoin(const QueryRef& query,
                                              const DatasetRef& r,
                                              const DatasetRef& s) {
  const JoinRequest& request = query->request_;
  JoinResponse response;

  JoinSpec spec;
  spec.predicate = request.predicate;
  spec.options = config_.join_defaults;
  spec.options.cancel = &query->canceller_;
  if (request.refine_mode.has_value()) {
    spec.options.refine.mode = *request.refine_mode;
  }

  // 1. Choose the method: explicit override or cost-based plan. The cost
  // model mirrors the knobs the join will actually run with (dedup scheme,
  // refinement mode), and under adaptive refinement the plan also fixes the
  // cell-grid precision from the catalog statistics.
  if (request.method.has_value()) {
    response.method = *request.method;
  } else {
    PlannerSide pr{&r->info,
                   r->histogram.has_value() ? &*r->histogram : nullptr,
                   cache_.Contains(JoinInput{r->heap, r->info},
                                   config_.join_defaults.index_fill_factor)};
    PlannerSide ps{&s->info,
                   s->histogram.has_value() ? &*s->histogram : nullptr,
                   cache_.Contains(JoinInput{s->heap, s->info},
                                   config_.join_defaults.index_fill_factor)};
    PlannerCosts costs;
    costs.dedup_mode = spec.options.dedup_mode;
    costs.refine_mode = spec.options.refine.mode;
    const PlanChoice plan =
        PlanJoin(pr, ps, config_.join_defaults.num_threads, costs);
    response.method = plan.method;
    response.planner_chosen = true;
    response.plan = plan.ToString();
    if (spec.options.refine.mode != RefineMode::kExact &&
        spec.options.refine.grid_order == 0) {
      spec.options.refine.grid_order = plan.grid_order;
    }
    planned_->Add();
  }
  spec.method = response.method;

  // 2. Index-method queries go through the cache: build-or-reuse both
  // trees, keep the refs alive for the duration of the join (pinning).
  IndexCache::TreeRef r_tree;
  IndexCache::TreeRef s_tree;
  const JoinInput r_input{r->heap, r->info};
  const JoinInput s_input{s->heap, s->info};
  if (spec.method == JoinMethod::kRtree) {
    PBSM_ASSIGN_OR_RETURN(
        r_tree,
        cache_.GetOrBuild(r_input, spec.options.index_fill_factor));
    PBSM_ASSIGN_OR_RETURN(
        s_tree,
        cache_.GetOrBuild(s_input, spec.options.index_fill_factor));
    spec.r_index = r_tree.get();
    spec.s_index = s_tree.get();
  } else if (spec.method == JoinMethod::kInl) {
    // Index the smaller side (matching the facade's choice); the facade
    // probes with the other.
    if (r->info.cardinality <= s->info.cardinality) {
      PBSM_ASSIGN_OR_RETURN(
          r_tree,
          cache_.GetOrBuild(r_input, spec.options.index_fill_factor));
      spec.r_index = r_tree.get();
    } else {
      PBSM_ASSIGN_OR_RETURN(
          s_tree,
          cache_.GetOrBuild(s_input, spec.options.index_fill_factor));
      spec.s_index = s_tree.get();
    }
  }

  // 3. Window filter: pushed into the engine as a SelectOp above the join,
  // backed by the MBR tables built at registration. The sink wrapper only counts —
  // it already sees the post-window stream.
  uint64_t window_results = 0;
  if (request.window.has_value()) {
    if (r->mbrs.empty() || s->mbrs.empty()) {
      return Status::FailedPrecondition(
          "window queries need datasets registered with build_stats");
    }
    spec.window = WindowFilter{*request.window, &r->mbrs, &s->mbrs};
    const ResultSink user_sink = request.sink;
    spec.sink = [&window_results, user_sink](Oid ro, Oid so) {
      ++window_results;
      if (user_sink) user_sink(ro, so);
    };
  } else {
    spec.sink = request.sink;
  }

  PBSM_ASSIGN_OR_RETURN(const JoinResult join,
                        SpatialJoin(pool_, r_input, s_input, spec));
  response.num_results =
      request.window.has_value() ? window_results : join.num_results;
  return response;
}

void JoinService::Complete(const QueryRef& query,
                           Result<JoinResponse> result) {
  if (result.ok()) {
    completed_->Add();
  } else if (result.status().code() == StatusCode::kCancelled) {
    cancelled_->Add();
  } else {
    failed_->Add();
  }
  {
    std::lock_guard<std::mutex> lock(query->mutex_);
    if (query->done_) return;  // Already completed (shutdown race).
    query->result_ = std::move(result);
    query->done_ = true;
  }
  query->done_cv_.notify_all();
}

}  // namespace pbsm
