// service_mixed and service_sharded4: the long-running service layer
// driven closed-loop by client threads, every result checked against a
// reference digest computed outside the timed region.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "service/join_router.h"
#include "service/join_service.h"
#include "service/shard_manager.h"
#include "storage/fault_injector.h"
#include "workloads.h"

namespace pbsm {
namespace perfbench {

namespace {

/// Fraction of the paper's cardinalities both service workloads load.
constexpr double kServiceScale = 0.15;

std::string ScaleInfo(const Args& args) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"seed\":%llu,\"scale\":%.4f",
                static_cast<unsigned long long>(args.seed),
                kServiceScale * args.scale_mult);
  return buf;
}

std::string RelationInfoJson(const StoredRelation& rel) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"%s\":{\"tuples\":%llu,\"pages\":%u}",
                rel.info.name.c_str(),
                static_cast<unsigned long long>(rel.info.cardinality),
                rel.heap.num_pages());
  return buf;
}

/// Pool size holding every relation twice over, plus room for indexes and
/// join spools.
size_t ResidentPoolBytes(uint64_t data_pages) {
  return (2 * data_pages + 2048) * kPageSize;
}

/// Per-client accumulators of response-level figures (merged after the
/// loop, so clients never share them).
struct ClientFigures {
  std::vector<double> queue_s, exec_s, view_insert_s, view_query_s;
  // Router only.
  std::vector<double> critical_s, gather_s, skew;
  uint64_t slices = 0, stolen = 0, slice_results = 0, joins = 0;

  void Merge(const ClientFigures& o) {
    for (auto [dst, src] :
         {std::pair{&queue_s, &o.queue_s}, std::pair{&exec_s, &o.exec_s},
          std::pair{&view_insert_s, &o.view_insert_s},
          std::pair{&view_query_s, &o.view_query_s},
          std::pair{&critical_s, &o.critical_s},
          std::pair{&gather_s, &o.gather_s}, std::pair{&skew, &o.skew}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    slices += o.slices;
    stolen += o.stolen;
    slice_results += o.slice_results;
    joins += o.joins;
  }
};

void AddQueueFigures(const ClientFigures& f, Report* report) {
  report->Add("service.queue_wait_ms.p50", "ms", 1e3 * Percentile(f.queue_s, 0.5),
              f.queue_s.size());
  report->Add("service.queue_wait_ms.p95", "ms",
              1e3 * Percentile(f.queue_s, 0.95), f.queue_s.size());
  report->Add("service.exec_ms.p50", "ms", 1e3 * Percentile(f.exec_s, 0.5),
              f.exec_s.size());
}

/// Catalog statistics after appending `tuple` to a relation.
void GrowInfo(const Tuple& tuple, RelationInfo* info) {
  const Rect mbr = tuple.geometry.Mbr();
  ++info->cardinality;
  info->total_points += tuple.geometry.num_points();
  info->universe.Expand(mbr);
  info->sum_mbr_width += mbr.xhi - mbr.xlo;
  info->sum_mbr_height += mbr.yhi - mbr.ylo;
}

// ---------------------------------------------------------------------------
// service_mixed
// ---------------------------------------------------------------------------

struct MixedDb {
  std::unique_ptr<Workspace> ws;
  std::optional<StoredRelation> road, hydro, rail, hydro_v, rail_v;
  std::unique_ptr<JoinService> service;
  std::vector<Tuple> spare_hydro, spare_rail;

  MixedDb() = default;
  MixedDb(const MixedDb&) = delete;
  MixedDb& operator=(const MixedDb&) = delete;

  /// Stops the service before the relations and pool it borrows.
  void Reset() {
    service.reset();
    road.reset();
    hydro.reset();
    rail.reset();
    hydro_v.reset();
    rail_v.reset();
    ws.reset();
  }
  ~MixedDb() { Reset(); }
};

/// Clients of service_mixed. Each one runs its view inserts and queries on
/// its own thread beside the service's two workers, so three keep the
/// runnable threads within the host's four cores.
constexpr int kMixedClients = 3;

constexpr const char* kView = "hydro_rail_view";

/// Tuples the run's view mutations keep inserted at once. Past this, every
/// other mutation deletes the oldest one, so the view — and the cost of
/// QueryView — stays the same size for the whole run.
constexpr size_t kLiveViewInserts = 64;

/// The join request kinds of the mix: two dataset pairs, planner-routed or
/// forced to the index methods, interactive or batch.
JoinRequest MixedRequest(int kind) {
  JoinRequest request;
  request.s_dataset = "rail";
  switch (kind % 4) {
    case 0:
      request.r_dataset = "road";
      request.priority = QueryPriority::kInteractive;
      break;
    case 1:
      request.r_dataset = "hydro";
      request.method = JoinMethod::kRtree;
      break;
    case 2:
      request.r_dataset = "road";
      request.method = JoinMethod::kInl;
      break;
    default:
      request.r_dataset = "hydro";
      request.priority = QueryPriority::kInteractive;
      break;
  }
  return request;
}

Status SetupMixed(const Args& args, MixedDb* db) {
  const double scale = kServiceScale * args.scale_mult;
  TigerInputs in = GenerateTiger(args.seed, scale, /*with_rail=*/true);
  std::vector<Tuple> roads = std::move(in.road.kept);
  std::vector<Tuple> hydro = std::move(in.hydro.kept);
  std::vector<Tuple> rail = std::move(in.rail.kept);
  // View inserts draw from the unsampled halves: same distribution.
  db->spare_hydro = std::move(in.hydro.spare);
  db->spare_rail = std::move(in.rail.spare);

  const uint64_t pages =
      EstimatePages(roads) + 2 * (EstimatePages(hydro) + EstimatePages(rail));
  db->ws = std::make_unique<Workspace>(NewWorkDir(args, "mixed"),
                                       ResidentPoolBytes(pages));
  BufferPool* pool = db->ws->pool();
  auto load = [&](const char* name, std::vector<Tuple> tuples,
                  std::optional<StoredRelation>* out) -> Status {
    PBSM_ASSIGN_OR_RETURN(StoredRelation rel,
                          LoadRelation(pool, nullptr, name, std::move(tuples)));
    out->emplace(std::move(rel));
    return Status::OK();
  };
  PBSM_RETURN_IF_ERROR(load("hydro_v", hydro, &db->hydro_v));
  PBSM_RETURN_IF_ERROR(load("rail_v", rail, &db->rail_v));
  PBSM_RETURN_IF_ERROR(load("road", std::move(roads), &db->road));
  PBSM_RETURN_IF_ERROR(load("hydro", std::move(hydro), &db->hydro));
  PBSM_RETURN_IF_ERROR(load("rail", std::move(rail), &db->rail));

  db->service = std::make_unique<JoinService>(pool, JoinServiceConfig{});
  for (const StoredRelation* rel :
       {&*db->road, &*db->hydro, &*db->rail, &*db->hydro_v, &*db->rail_v}) {
    PBSM_RETURN_IF_ERROR(
        db->service->RegisterDataset(rel->info.name, &rel->heap, rel->info));
  }
  PBSM_RETURN_IF_ERROR(db->service->CreateView(kView, "hydro_v", "rail_v"));
  // Warm-up to a full cache: one request of each kind builds the indexes
  // the forced and planner-routed requests use.
  for (int kind = 0; kind < 4; ++kind) {
    PBSM_RETURN_IF_ERROR(db->service->Execute(MixedRequest(kind)).status());
  }
  return Status::OK();
}

}  // namespace

Report RunServiceMixed(const Args& args) {
  Report report;
  MixedDb db;
  const std::vector<double> setup_s = TimedSetups(
      args, "service_mixed", [&] { db.Reset(); },
      [&] { return SetupMixed(args, &db); }, &report);
  if (setup_s.empty()) return report;
  BufferPool* pool = db.ws->pool();
  JoinService& service = *db.service;
  report.info_json = "{" + ScaleInfo(args) + "," + RelationInfoJson(*db.road) +
                     "," + RelationInfoJson(*db.hydro) + "," +
                     RelationInfoJson(*db.rail) + "," +
                     RelationInfoJson(*db.hydro_v) + "," +
                     RelationInfoJson(*db.rail_v) +
                     ",\"pool_pages\":" + std::to_string(pool->capacity_pages()) +
                     ",\"clients\":" + std::to_string(kMixedClients) +
                     ",\"loop\":\"closed\",\"host\":" + HostJson() + "}";

  // References for the two join pairs, outside the timed region.
  std::string problem;
  const std::optional<Digest> ref_road =
      ReferenceDigest(pool, db.road->AsInput(), db.rail->AsInput(),
                      std::nullopt, &problem);
  const std::optional<Digest> ref_hydro =
      ReferenceDigest(pool, db.hydro->AsInput(), db.rail->AsInput(),
                      std::nullopt, &problem);
  if (!ref_road.has_value() || !ref_hydro.has_value()) {
    report.Fail(problem);
    return report;
  }
  Digest refs[2] = {*ref_road, *ref_hydro};
  if (args.wrong_reference) {
    refs[0].sum += 1;
    refs[1].sum += 1;
  }
  auto base_view = service.QueryView(kView, [](Oid, Oid) {});
  if (!base_view.ok()) {
    report.Fail("QueryView failed: " + base_view.status().ToString());
    return report;
  }
  const uint64_t base_view_pairs = *base_view;
  db.ws->ArmFaults(args.fault_profile);

  // Client 0 issues every view mutation: 3 in 10 of its ops. Every client
  // issues one QueryView in 10; the rest are joins.
  static constexpr char kClient0Mix[] = "MJMJQJMJJJ";
  static constexpr char kOtherMix[] = "JJJJQJJJJJ";
  using Side = MaterializedJoinView::Side;
  std::vector<ClientFigures> figures(kMixedClients);
  RelationInfo hydro_v_info = db.hydro_v->info;
  RelationInfo rail_v_info = db.rail_v->info;
  // Client 0's alone: the tuples its inserts keep live, oldest first, and
  // the encoded OIDs of those it deleted again.
  std::deque<std::pair<Side, Oid>> live;
  std::unordered_set<uint64_t> deleted_r, deleted_s;
  uint64_t inserted = 0;
  TraceState trace;

  auto op = [&](int c, uint64_t i) -> OpOutcome {
    trace.BeforeOp();
    ClientFigures& mine = figures[c];
    const char slot = c == 0 ? kClient0Mix[i % 10] : kOtherMix[(i + c) % 10];
    TraceSpan span("perfbench/op");
    const double start = NowSeconds();
    if (slot == 'M' && live.size() >= kLiveViewInserts) {
      const auto [side, oid] = live.front();
      live.pop_front();
      const Status st = service.ViewDelete(kView, side, oid);
      const double end = NowSeconds();
      if (!st.ok()) return OpOutcome{OpOutcome::kFailed, 0};
      (side == Side::kR ? deleted_r : deleted_s).insert(oid.Encode());
      return OpOutcome{OpOutcome::kOk, end - start};
    }
    if (slot == 'M') {
      const bool r_side = inserted % 2 == 0;
      const std::vector<Tuple>& spare = r_side ? db.spare_hydro : db.spare_rail;
      const Tuple& tuple = spare[(inserted / 2) % spare.size()];
      StoredRelation& rel = r_side ? *db.hydro_v : *db.rail_v;
      auto oid = rel.heap.Append(tuple.Serialize());
      if (!oid.ok()) return OpOutcome{OpOutcome::kFailed, 0};
      const Side side = r_side ? Side::kR : Side::kS;
      const double insert_start = NowSeconds();
      const Status st = service.ViewInsert(kView, side, *oid, tuple);
      const double end = NowSeconds();
      if (!st.ok()) return OpOutcome{OpOutcome::kFailed, 0};
      GrowInfo(tuple, r_side ? &hydro_v_info : &rail_v_info);
      ++inserted;
      live.emplace_back(side, *oid);
      mine.view_insert_s.push_back(end - insert_start);
      return OpOutcome{OpOutcome::kOk, end - start};
    }
    if (slot == 'Q') {
      uint64_t emitted = 0;
      auto count = service.QueryView(
          kView, [&emitted](Oid, Oid) { ++emitted; });
      const double end = NowSeconds();
      if (!count.ok()) return OpOutcome{OpOutcome::kFailed, 0};
      // Deletes remove only tuples the run inserted, so the view always
      // holds at least its base pairs.
      if (*count != emitted || *count < base_view_pairs) {
        return OpOutcome{OpOutcome::kWrong, 0};
      }
      mine.view_query_s.push_back(end - start);
      return OpOutcome{OpOutcome::kOk, end - start};
    }
    const int kind = static_cast<int>((c + i) % 4);
    JoinRequest request = MixedRequest(kind);
    PairChecksum sum;
    request.sink = [&sum](Oid a, Oid b) { sum.Add(a, b); };
    auto response = service.Execute(std::move(request));
    const double end = NowSeconds();
    if (!response.ok()) {
      return OpOutcome{response.status().code() == StatusCode::kResourceExhausted
                           ? OpOutcome::kRefused
                           : OpOutcome::kFailed,
                       0};
    }
    if (!(sum.digest() == refs[kind % 2]) ||
        response->num_results != sum.digest().count) {
      return OpOutcome{OpOutcome::kWrong, 0};
    }
    ++mine.joins;
    mine.queue_s.push_back(response->queue_seconds);
    mine.exec_s.push_back(response->exec_seconds);
    return OpOutcome{OpOutcome::kOk, end - start};
  };
  const Phases phases =
      RunPhases(args, kMixedClients, kMixedClients, &trace, &report, op,
                [&] { figures.assign(kMixedClients, ClientFigures()); });

  // The view against a from-scratch join over the mutated heaps, less the
  // pairs of tuples deleted from the view (the heaps still hold them).
  {
    PairChecksum view_sum;
    auto count = service.QueryView(
        kView, [&view_sum](Oid a, Oid b) { view_sum.Add(a, b); });
    std::string view_problem;
    const std::optional<Digest> fresh = ReferenceDigest(
        pool, JoinInput{&db.hydro_v->heap, hydro_v_info},
        JoinInput{&db.rail_v->heap, rail_v_info}, std::nullopt, &view_problem,
        [&](Oid r, Oid s) {
          return deleted_r.count(r.Encode()) == 0 &&
                 deleted_s.count(s.Encode()) == 0;
        });
    ++report.attempted;
    if (!count.ok() || !fresh.has_value() || !(view_sum.digest() == *fresh)) {
      ++report.failed;
      report.Fail("view differs from a from-scratch join after " +
                  std::to_string(inserted) + " inserts and " +
                  std::to_string(deleted_r.size() + deleted_s.size()) +
                  " deletes");
    }
  }

  ClientFigures all;
  for (const ClientFigures& f : figures) all.Merge(f);
  if (!args.trace) {
    AddEndToEnd(phases, setup_s, &report);
    return report;
  }
  const double ops = static_cast<double>(phases.measured.attempted);
  AddStorageDeltas(phases, ops, &report);
  AddQueueFigures(all, &report);
  const double hits =
      CounterDelta(phases.after, phases.before, "service.cache.hits");
  const double misses =
      CounterDelta(phases.after, phases.before, "service.cache.misses");
  report.Add("service.cache_hit_rate", "ratio", Ratio(hits, hits + misses));
  report.Add("service.admission_waits_per_op", "count",
             Ratio(CounterDelta(phases.after, phases.before,
                                "service.admission_waits"),
                   static_cast<double>(all.joins)));
  report.Add("service.view_insert_us", "us", 1e6 * Median(all.view_insert_s),
             all.view_insert_s.size());
  report.Add("service.view_query_us", "us", 1e6 * Median(all.view_query_s),
             all.view_query_s.size());
  std::vector<double> plan_s;
  for (int rep = 0; rep < 5; ++rep) {
    for (int kind = 0; kind < 4; ++kind) {
      const double start = NowSeconds();
      if (!service.Explain(MixedRequest(kind)).ok()) report.Fail("Explain failed");
      plan_s.push_back(NowSeconds() - start);
    }
  }
  report.Add("service.plan_us", "us", 1e6 * Median(plan_s), plan_s.size());
  MeasureSharedLayers(pool, *db.road, *db.hydro, &report);
  FillUnmappedLayers(&report);
  return report;
}

// ---------------------------------------------------------------------------
// service_sharded4
// ---------------------------------------------------------------------------

namespace {

constexpr uint32_t kShards = 4;
/// Clients of service_sharded4. They wait inside JoinRouter::Execute while
/// the four shard workers run, so four do not oversubscribe four cores.
constexpr int kShardedClients = 4;

struct ShardedDb {
  std::unique_ptr<Workspace> ws;
  std::optional<StoredRelation> road, hydro;
  std::unique_ptr<ShardManager> shards;
  std::unique_ptr<JoinRouter> router;
  std::vector<Rect> windows;

  ShardedDb() = default;
  ShardedDb(const ShardedDb&) = delete;
  ShardedDb& operator=(const ShardedDb&) = delete;

  /// Stops the router before the shards it schedules onto.
  void Reset() {
    router.reset();
    shards.reset();
    road.reset();
    hydro.reset();
    ws.reset();
  }
  ~ShardedDb() { Reset(); }
};

JoinRequest ShardedRequest(const ShardedDb& db, int client, uint64_t i,
                           int* ref_index) {
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "hydro";
  request.priority = i % 2 == 0 ? QueryPriority::kInteractive
                                : QueryPriority::kBatch;
  *ref_index = 0;
  if ((client + i) % 2 == 1) {
    const size_t w = ((client + i) / 2 + client) % db.windows.size();
    request.window = db.windows[w];
    *ref_index = static_cast<int>(w) + 1;
  }
  return request;
}

Status SetupSharded(const Args& args, ShardedDb* db) {
  const double scale = kServiceScale * args.scale_mult;
  TigerInputs in = GenerateTiger(args.seed, scale, /*with_rail=*/false);
  std::vector<Tuple> roads = std::move(in.road.kept);
  std::vector<Tuple> hydro = std::move(in.hydro.kept);
  in = TigerInputs();
  db->ws = std::make_unique<Workspace>(
      NewWorkDir(args, "sharded"),
      ResidentPoolBytes(EstimatePages(roads) + EstimatePages(hydro)));
  PBSM_ASSIGN_OR_RETURN(
      StoredRelation r,
      LoadRelation(db->ws->pool(), nullptr, "road", std::move(roads)));
  PBSM_ASSIGN_OR_RETURN(
      StoredRelation s,
      LoadRelation(db->ws->pool(), nullptr, "hydro", std::move(hydro)));
  db->road.emplace(std::move(r));
  db->hydro.emplace(std::move(s));

  ShardManagerConfig config;
  config.num_shards = kShards;
  config.scratch_dir = NewWorkDir(args, "shards");
  std::error_code ec;
  std::filesystem::create_directories(config.scratch_dir, ec);
  if (ec) return Status::IoError("cannot create " + config.scratch_dir);
  db->shards = std::make_unique<ShardManager>(config);
  // Road first: the dominant dataset fixes the strip layout.
  for (const StoredRelation* rel : {&*db->road, &*db->hydro}) {
    PBSM_RETURN_IF_ERROR(
        db->shards->RegisterDataset(rel->info.name, &rel->heap, rel->info));
  }
  db->router = std::make_unique<JoinRouter>(db->shards.get(), JoinRouterConfig{});

  // Windowed requests cover one universe quadrant each (a quarter of the
  // area, half the x-range: typically one or two strips).
  Rect u = db->road->info.universe;
  u.Expand(db->hydro->info.universe);
  const double mx = 0.5 * (u.xlo + u.xhi);
  const double my = 0.5 * (u.ylo + u.yhi);
  db->windows = {Rect(u.xlo, u.ylo, mx, my), Rect(mx, u.ylo, u.xhi, my),
                 Rect(u.xlo, my, mx, u.yhi), Rect(mx, my, u.xhi, u.yhi)};

  // Warm-up: one unwindowed request touches every shard.
  JoinRequest warm;
  warm.r_dataset = "road";
  warm.s_dataset = "hydro";
  return db->router->Execute(warm).status();
}

}  // namespace

Report RunServiceSharded(const Args& args) {
  Report report;
  ShardedDb db;
  const std::vector<double> setup_s = TimedSetups(
      args, "service_sharded4", [&] { db.Reset(); },
      [&] { return SetupSharded(args, &db); }, &report);
  if (setup_s.empty()) return report;
  BufferPool* pool = db.ws->pool();
  report.info_json =
      "{" + ScaleInfo(args) + "," + RelationInfoJson(*db.road) + "," +
      RelationInfoJson(*db.hydro) + ",\"pool_pages\":" +
      std::to_string(pool->capacity_pages()) + ",\"shards\":4" +
      ",\"shard_pool_pages\":" +
      std::to_string(db.shards->shard(0).pool->capacity_pages()) +
      ",\"clients\":" + std::to_string(kShardedClients) +
      ",\"loop\":\"closed\",\"host\":" + HostJson() + "}";

  // References: the unwindowed join and each window, on the unsharded copy.
  std::vector<Digest> refs;
  std::string problem;
  std::vector<std::optional<WindowFilter>> filters = {std::nullopt};
  for (const Rect& w : db.windows) filters.push_back(WindowFilter{w});
  for (const auto& filter : filters) {
    const std::optional<Digest> ref = ReferenceDigest(
        pool, db.road->AsInput(), db.hydro->AsInput(), filter, &problem);
    if (!ref.has_value()) {
      report.Fail(problem);
      return report;
    }
    refs.push_back(*ref);
    if (args.wrong_reference) refs.back().sum += 1;
  }
  if (!args.fault_profile.empty()) {
    for (uint32_t i = 0; i < kShards; ++i) {
      auto injector = FaultInjector::Parse(args.fault_profile);
      if (!injector.ok()) {
        report.Fail("bad --fault-profile: " + injector.status().ToString());
        return report;
      }
      db.shards->shard(i).disk->set_fault_injector(std::move(*injector));
    }
  }

  std::vector<ClientFigures> figures(kShardedClients);
  TraceState trace;
  auto op = [&](int c, uint64_t i) -> OpOutcome {
    trace.BeforeOp();
    ClientFigures& mine = figures[c];
    int ref_index = 0;
    JoinRequest request = ShardedRequest(db, c, i, &ref_index);
    PairChecksum sum;
    request.sink = [&sum](Oid a, Oid b) { sum.Add(a, b); };
    TraceSpan span("perfbench/op");
    const double start = NowSeconds();
    auto response = db.router->Execute(std::move(request));
    const double latency = NowSeconds() - start;
    if (!response.ok()) {
      return OpOutcome{response.status().code() == StatusCode::kResourceExhausted
                           ? OpOutcome::kRefused
                           : OpOutcome::kFailed,
                       0};
    }
    if (!(sum.digest() == refs[ref_index]) ||
        response->num_results != sum.digest().count) {
      return OpOutcome{OpOutcome::kWrong, 0};
    }
    ++mine.joins;
    mine.queue_s.push_back(response->queue_seconds);
    mine.exec_s.push_back(response->exec_seconds);
    double critical = 0, total = 0;
    for (const ShardSliceStats& slice : response->shard_slices) {
      critical = std::max(critical, slice.exec_seconds);
      total += slice.exec_seconds;
      mine.stolen += slice.stolen ? 1 : 0;
      mine.slice_results += slice.num_results;
    }
    const size_t n = response->shard_slices.size();
    mine.slices += n;
    mine.critical_s.push_back(critical);
    mine.gather_s.push_back(latency - response->queue_seconds - critical);
    mine.skew.push_back(n == 0 ? 0.0 : Ratio(critical, total / n));
    return OpOutcome{OpOutcome::kOk, latency};
  };
  const Phases phases =
      RunPhases(args, kShardedClients, kShardedClients, &trace, &report, op,
                [&] { figures.assign(kShardedClients, ClientFigures()); });

  if (!args.trace) {
    AddEndToEnd(phases, setup_s, &report);
    return report;
  }
  ClientFigures all;
  for (const ClientFigures& f : figures) all.Merge(f);
  const double ops = static_cast<double>(phases.measured.attempted);
  AddStorageDeltas(phases, ops, &report);
  AddQueueFigures(all, &report);
  report.Add("service.router.critical_slice_ms", "ms",
             1e3 * Median(all.critical_s), all.critical_s.size());
  report.Add("service.router.gather_overhead_ms", "ms",
             1e3 * Median(all.gather_s), all.gather_s.size());
  report.Add("service.router.slice_skew", "ratio", Median(all.skew),
             all.skew.size());
  report.Add("service.router.stolen_share", "ratio",
             Ratio(static_cast<double>(all.stolen),
                   static_cast<double>(all.slices)));
  report.Add("service.router.subjoins_per_op", "count",
             Ratio(static_cast<double>(all.slices),
                   static_cast<double>(all.joins)));
  const double border = CounterDelta(phases.after, phases.before,
                                     "service.shard.border_filtered");
  report.Add("service.router.border_filtered_share", "ratio",
             Ratio(border, border + static_cast<double>(all.slice_results)));

  // Storage / refinement / index figures on shard 0's private stack.
  auto slice_of = [&](const char* name) -> std::optional<StoredRelation> {
    auto ds = db.shards->FindDataset(0, name);
    if (!ds.ok()) return std::nullopt;
    return StoredRelation{*(*ds)->heap, (*ds)->info};
  };
  const std::optional<StoredRelation> road0 = slice_of("road");
  const std::optional<StoredRelation> hydro0 = slice_of("hydro");
  if (road0.has_value() && hydro0.has_value()) {
    MeasureSharedLayers(db.shards->shard(0).pool.get(), *road0, *hydro0,
                        &report);
  } else {
    report.Fail("shard 0 slices missing");
  }
  FillUnmappedLayers(&report);
  return report;
}

}  // namespace perfbench
}  // namespace pbsm
