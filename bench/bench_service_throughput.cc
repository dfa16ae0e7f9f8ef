// Closed-loop throughput/latency driver for the join service (see
// DESIGN.md "Service layer"). Four experiments:
//
//   1. Planner validation: on the Figure 7 (road x hydrography) and
//      Figure 8 (road x rail) pairs, measure every method cold through the
//      service, then let the planner choose — it must land within 20% of
//      the fastest measured method (the PR's acceptance bar).
//   2. Index-cache speedup: a repeated rtree-method query must run in
//      under 0.5x its cold time once the service's index cache is warm.
//   3. Closed-loop throughput: 1/4/8 client threads issue a mixed
//      workload (alternating dataset pairs, priorities, planner-routed and
//      forced-method queries) back-to-back; reports queries/sec and
//      p50/p95/p99 latency, cold vs warm cache. Admission-rejected
//      attempts (kResourceExhausted) are retried after a backoff and are
//      counted but EXCLUDED from the latency percentiles — a rejection
//      returns in microseconds and would otherwise drag the tail metrics
//      toward zero exactly when the service is saturated.
//   4. Sharded scatter-gather sweep (--shards=1,4): the same closed loop
//      through a JoinService over N spatial shards. Reports wall-clock
//      throughput (ungated — a single-core host serializes the shard
//      workers) and critical-path throughput (completed / sum of per-query
//      max slice execution time, the wall-clock a host with >= N cores
//      would approach). Gate: the largest shard count's critical-path
//      throughput must be >= 1.5x the 1-shard run's.
//
// Emits one SERVICE_THROUGHPUT_JSON line, schema
// pbsm.service_throughput.v2 (recorded baselines:
// bench/results/service_throughput_baseline.json and
// bench/results/sharded_service_baseline.json) plus the standard
// METRICS_JSON exit blob. Violating experiment 1, 2 or 4 marks the bench
// failed (non-zero exit, METRICS_JSON status "failed").

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "service/join_service.h"
#include "service/shard_manager.h"

namespace pbsm {
namespace bench {

/// Shard counts for experiment 4, settable via --shards=1,4.
std::vector<uint32_t>& ShardCounts() {
  static std::vector<uint32_t> counts = {1, 4};
  return counts;
}

namespace {

struct Latencies {
  std::vector<double> seconds;

  void Add(double s) { seconds.push_back(s); }
  double Percentile(double q) {
    if (seconds.empty()) return 0.0;
    std::sort(seconds.begin(), seconds.end());
    const size_t idx = static_cast<size_t>(
        q * static_cast<double>(seconds.size() - 1) + 0.5);
    return seconds[std::min(idx, seconds.size() - 1)];
  }
};

constexpr JoinMethod kAllMethods[] = {
    JoinMethod::kPbsm,   JoinMethod::kParallelPbsm, JoinMethod::kInl,
    JoinMethod::kRtree,  JoinMethod::kSpatialHash,  JoinMethod::kZOrder,
};

/// One synchronous query through the service; aborts the bench on error
/// (this driver's queries must all succeed).
JoinResponse MustExecute(JoinService* service, JoinRequest request) {
  auto response = service->Execute(std::move(request));
  PBSM_CHECK(response.ok()) << response.status().ToString();
  return std::move(response).value();
}

/// Closed-loop client accounting: completion latencies plus the number of
/// admission rejections retried along the way.
struct ClientStats {
  Latencies lat;
  uint64_t rejected = 0;
};

/// Executes `request` until it is admitted and completes, retrying
/// admission rejections after a short backoff. Only the successful
/// attempt's latency is recorded: a rejection never entered the queue, so
/// its (near-zero) turnaround is not service latency and would corrupt the
/// percentiles. Any other error aborts the bench.
template <typename Target>
JoinResponse ExecuteClosedLoop(Target* target, const JoinRequest& request,
                               ClientStats* stats) {
  for (;;) {
    Stopwatch watch;
    auto response = target->Execute(request);
    if (response.ok()) {
      stats->lat.Add(watch.ElapsedSeconds());
      return std::move(response).value();
    }
    PBSM_CHECK(response.status().code() == StatusCode::kResourceExhausted)
        << response.status().ToString();
    ++stats->rejected;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}


int Run() {
  const double scale = ScaleFromEnv();
  PrintTitle("Service throughput: scheduler + planner + index cache");
  PrintScaleBanner(scale);

  const TigerData data = GenTiger(scale);
  Workspace ws(/*pool_bytes=*/96ull << 20);
  Catalog catalog;
  auto road = LoadRelation(ws.pool(), &catalog, "road", data.roads);
  auto hydro = LoadRelation(ws.pool(), &catalog, "hydro", data.hydro);
  auto rail = LoadRelation(ws.pool(), &catalog, "rail", data.rail);
  PBSM_CHECK(road.ok() && hydro.ok() && rail.ok());

  JoinServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 128;
  config.join_defaults.memory_budget_bytes = 8ull << 20;
  JoinService service(ws.pool(), config);
  PBSM_CHECK(service.RegisterDataset("road", &road->heap, road->info).ok());
  PBSM_CHECK(
      service.RegisterDataset("hydro", &hydro->heap, hydro->info).ok());
  PBSM_CHECK(service.RegisterDataset("rail", &rail->heap, rail->info).ok());

  std::string json = "{\"schema\":\"pbsm.service_throughput.v2\",";
  char buf[256];
  std::snprintf(buf, sizeof(buf), "\"scale\":%.3f,\"workers\":%u,", scale,
                config.num_workers);
  json += buf;
  bool ok = true;

  // -------------------------------------------------------------------
  // 1. Planner validation on the paper's two TIGER join pairs.
  // -------------------------------------------------------------------
  json += "\"planner\":{";
  const struct {
    const char* label;
    const char* r;
    const char* s;
  } kPairs[] = {{"fig07_road_hydro", "road", "hydro"},
                {"fig08_road_rail", "road", "rail"}};
  for (size_t p = 0; p < 2; ++p) {
    PrintTitle(std::string("planner validation: ") + kPairs[p].label);
    double best = 1e30;
    std::string_view best_name;
    std::string methods_json = "{";
    for (const JoinMethod method : kAllMethods) {
      service.cache().Clear();  // Every method measured cold.
      JoinRequest request;
      request.r_dataset = kPairs[p].r;
      request.s_dataset = kPairs[p].s;
      request.method = method;
      Stopwatch watch;
      const JoinResponse response = MustExecute(&service, request);
      const double sec = watch.ElapsedSeconds();
      std::printf("  %-14.*s %.3fs  (%llu results)\n",
                  (int)JoinMethodName(method).size(),
                  JoinMethodName(method).data(), sec,
                  (unsigned long long)response.num_results);
      std::snprintf(buf, sizeof(buf), "%s\"%.*s\":%.4f",
                    methods_json.size() > 1 ? "," : "",
                    (int)JoinMethodName(method).size(),
                    JoinMethodName(method).data(), sec);
      methods_json += buf;
      if (sec < best) {
        best = sec;
        best_name = JoinMethodName(method);
      }
    }
    service.cache().Clear();
    JoinRequest request;
    request.r_dataset = kPairs[p].r;
    request.s_dataset = kPairs[p].s;  // No method: planner chooses.
    Stopwatch watch;
    const JoinResponse planned = MustExecute(&service, request);
    const double planned_sec = watch.ElapsedSeconds();
    const bool within =
        planned_sec <= best * 1.20 + 0.005;  // +5ms noise floor on tiny runs.
    std::printf("  planner chose %.*s: %.3fs vs best %.*s %.3fs -> %s\n",
                (int)JoinMethodName(planned.method).size(),
                JoinMethodName(planned.method).data(), planned_sec,
                (int)best_name.size(), best_name.data(), best,
                within ? "within 20%" : "VIOLATION (>20% off best)");
    std::printf("  plan: %s\n", planned.plan.c_str());
    if (!within) ok = false;
    std::snprintf(
        buf, sizeof(buf),
        "%s\"%s\":{\"methods\":%s},\"chosen\":\"%.*s\",\"chosen_seconds\""
        ":%.4f,\"best_seconds\":%.4f,\"within_20pct\":%s}",
        p > 0 ? "," : "", kPairs[p].label, methods_json.c_str(),
        (int)JoinMethodName(planned.method).size(),
        JoinMethodName(planned.method).data(), planned_sec, best,
        within ? "true" : "false");
    json += buf;
  }
  json += "},";

  // -------------------------------------------------------------------
  // 2. Cold vs warm rtree queries through the index cache.
  // -------------------------------------------------------------------
  json += "\"cache\":{";
  PrintTitle("index cache: cold vs warm rtree queries");
  for (size_t p = 0; p < 2; ++p) {
    service.cache().Clear();
    JoinRequest request;
    request.r_dataset = kPairs[p].r;
    request.s_dataset = kPairs[p].s;
    request.method = JoinMethod::kRtree;
    Stopwatch cold_watch;
    (void)MustExecute(&service, request);
    const double cold = cold_watch.ElapsedSeconds();
    constexpr int kWarmRuns = 3;
    double warm_total = 0;
    for (int i = 0; i < kWarmRuns; ++i) {
      Stopwatch warm_watch;
      (void)MustExecute(&service, request);
      warm_total += warm_watch.ElapsedSeconds();
    }
    const double warm = warm_total / kWarmRuns;
    const bool fast_enough = warm < 0.5 * cold;
    std::printf("  %s: cold %.3fs, warm %.3fs (%.2fx) -> %s\n",
                kPairs[p].label, cold, warm, warm / cold,
                fast_enough ? "under 0.5x" : "VIOLATION (>= 0.5x cold)");
    if (!fast_enough) ok = false;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"cold_seconds\":%.4f,\"warm_seconds\":%.4f,"
                  "\"ratio\":%.3f,\"under_half\":%s}",
                  p > 0 ? "," : "", kPairs[p].label, cold, warm, warm / cold,
                  fast_enough ? "true" : "false");
    json += buf;
  }
  json += "},";

  // -------------------------------------------------------------------
  // 3. Closed-loop mixed workload at 1/4/8 client threads.
  // -------------------------------------------------------------------
  json += "\"closed_loop\":[";
  PrintTitle("closed-loop mixed workload");
  constexpr int kQueriesPerClient = 4;
  bool first_config = true;
  for (const int clients : {1, 4, 8}) {
    for (const bool warm : {false, true}) {
      if (!warm) service.cache().Clear();
      std::vector<ClientStats> per_client(clients);
      Stopwatch wall;
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (int q = 0; q < kQueriesPerClient; ++q) {
            // Mixed workload: alternate the small pairs, priorities, and
            // planner-vs-forced routing so every scheduler path is hot.
            JoinRequest request;
            const int kind = (c + q) % 3;
            request.r_dataset = kind == 0 ? "hydro" : "road";
            request.s_dataset = "rail";
            if (kind == 1) request.method = JoinMethod::kRtree;
            request.priority = (c + q) % 2 == 0 ? QueryPriority::kInteractive
                                                : QueryPriority::kBatch;
            (void)ExecuteClosedLoop(&service, request, &per_client[c]);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double elapsed = wall.ElapsedSeconds();

      Latencies all;
      uint64_t rejected = 0;
      for (ClientStats& s : per_client) {
        for (double sec : s.lat.seconds) all.Add(sec);
        rejected += s.rejected;
      }
      const double qps =
          static_cast<double>(clients * kQueriesPerClient) / elapsed;
      const double p50 = all.Percentile(0.50);
      const double p95 = all.Percentile(0.95);
      const double p99 = all.Percentile(0.99);
      std::printf("  %d client(s), %s cache: %5.2f q/s  p50=%.3fs "
                  "p95=%.3fs p99=%.3fs  (%llu rejected)\n",
                  clients, warm ? "warm" : "cold", qps, p50, p95, p99,
                  (unsigned long long)rejected);
      std::snprintf(buf, sizeof(buf),
                    "%s{\"clients\":%d,\"warm\":%s,\"queries\":%d,"
                    "\"throughput_qps\":%.3f,\"p50_s\":%.4f,\"p95_s\":%.4f,"
                    "\"p99_s\":%.4f,\"rejected\":%llu}",
                    first_config ? "" : ",", clients,
                    warm ? "true" : "false", clients * kQueriesPerClient,
                    qps, p50, p95, p99, (unsigned long long)rejected);
      json += buf;
      first_config = false;
    }
  }
  json += "],";

  // -------------------------------------------------------------------
  // 4. Sharded scatter-gather sweep: the closed loop through a JoinService
  //    over the shards.
  // -------------------------------------------------------------------
  json += "\"sharded\":[";
  PrintTitle("sharded scatter-gather sweep (road x hydro, pbsm)");
  constexpr int kShardClients = 2;
  constexpr int kQueriesPerShardClient = 3;
  struct SweepPoint {
    uint32_t shards = 0;
    double wall_qps = 0.0;
    double critical_qps = 0.0;
  };
  std::vector<SweepPoint> sweep;
  for (const uint32_t num_shards : ShardCounts()) {
    ShardManagerConfig shard_config;
    shard_config.num_shards = num_shards;
    ShardManager shards(shard_config);
    PBSM_CHECK(shards.RegisterDataset("road", &road->heap, road->info).ok());
    PBSM_CHECK(
        shards.RegisterDataset("hydro", &hydro->heap, hydro->info).ok());
    JoinServiceConfig sharded_config;
    sharded_config.queue_capacity = 128;
    sharded_config.join_defaults.memory_budget_bytes = 8ull << 20;
    JoinService sharded(&shards, sharded_config);

    struct PerShard {
      uint64_t subjoins = 0;
      uint64_t results = 0;
      uint64_t stolen = 0;
      double exec_seconds = 0.0;
      double cpu_seconds = 0.0;
    };
    std::vector<PerShard> per_shard(num_shards);
    std::vector<ClientStats> stats(kShardClients);
    double critical_seconds = 0.0;
    std::mutex agg_mutex;
    Stopwatch wall;
    std::vector<std::thread> threads;
    threads.reserve(kShardClients);
    for (int c = 0; c < kShardClients; ++c) {
      threads.emplace_back([&, c] {
        for (int q = 0; q < kQueriesPerShardClient; ++q) {
          JoinRequest request;
          request.r_dataset = "road";
          request.s_dataset = "hydro";
          request.method = JoinMethod::kPbsm;
          const JoinResponse response =
              ExecuteClosedLoop(&sharded, request, &stats[c]);
          std::lock_guard<std::mutex> lock(agg_mutex);
          // Critical path = the query's slowest slice, measured in worker
          // CPU time: wall time is inflated by time-sharing when the host
          // has fewer cores than shards (slice cpu_seconds is exact for
          // serial sub-joins).
          double critical = 0.0;
          for (const ShardSliceStats& slice : response.shard_slices) {
            critical = std::max(critical, slice.cpu_seconds);
            PerShard& agg = per_shard[slice.shard];
            ++agg.subjoins;
            agg.results += slice.num_results;
            agg.stolen += slice.stolen ? 1 : 0;
            agg.exec_seconds += slice.exec_seconds;
            agg.cpu_seconds += slice.cpu_seconds;
          }
          critical_seconds += critical;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = wall.ElapsedSeconds();
    sharded.Shutdown(/*drain=*/true);

    const int completed = kShardClients * kQueriesPerShardClient;
    uint64_t rejected = 0;
    for (const ClientStats& s : stats) rejected += s.rejected;
    SweepPoint point;
    point.shards = num_shards;
    point.wall_qps = static_cast<double>(completed) / elapsed;
    point.critical_qps =
        critical_seconds > 0.0
            ? static_cast<double>(completed) / critical_seconds
            : 0.0;
    sweep.push_back(point);
    std::printf("  %u shard(s): wall %5.2f q/s, critical-path %5.2f q/s "
                "(%llu rejected)\n",
                num_shards, point.wall_qps, point.critical_qps,
                (unsigned long long)rejected);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"shards\":%u,\"queries\":%d,"
                  "\"throughput_wall_qps\":%.3f,"
                  "\"throughput_critical_qps\":%.3f,\"rejected\":%llu,"
                  "\"per_shard\":[",
                  sweep.size() > 1 ? "," : "", num_shards, completed,
                  point.wall_qps, point.critical_qps,
                  (unsigned long long)rejected);
    json += buf;
    for (uint32_t i = 0; i < num_shards; ++i) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"shard\":%u,\"subjoins\":%llu,\"results\":%llu,"
                    "\"stolen\":%llu,\"exec_seconds\":%.4f,"
                    "\"cpu_seconds\":%.4f}",
                    i > 0 ? "," : "", i,
                    (unsigned long long)per_shard[i].subjoins,
                    (unsigned long long)per_shard[i].results,
                    (unsigned long long)per_shard[i].stolen,
                    per_shard[i].exec_seconds, per_shard[i].cpu_seconds);
      json += buf;
    }
    json += "]}";
  }
  json += "],";

  // The gate compares the largest shard count against the 1-shard run on
  // CRITICAL-PATH throughput: wall-clock on a single-core host serializes
  // the shard workers and says nothing about scatter-gather scaling.
  json += "\"sharded_gate\":";
  const SweepPoint* base = nullptr;
  for (const SweepPoint& p : sweep) {
    if (p.shards == 1) base = &p;
  }
  if (base != nullptr && sweep.size() > 1 && sweep.back().shards > 1) {
    const SweepPoint& top = sweep.back();
    const double critical_ratio =
        base->critical_qps > 0.0 ? top.critical_qps / base->critical_qps
                                 : 0.0;
    const double wall_ratio =
        base->wall_qps > 0.0 ? top.wall_qps / base->wall_qps : 0.0;
    const bool pass = critical_ratio >= 1.5;
    std::printf("  gate: %u-shard critical-path throughput %.2fx 1-shard "
                "(wall %.2fx, ungated) -> %s\n",
                top.shards, critical_ratio, wall_ratio,
                pass ? "ok (>= 1.5x)" : "VIOLATION (< 1.5x)");
    if (!pass) ok = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"baseline_shards\":1,\"target_shards\":%u,"
                  "\"critical_ratio\":%.3f,\"wall_ratio\":%.3f,"
                  "\"threshold\":1.5,\"pass\":%s},",
                  top.shards, critical_ratio, wall_ratio,
                  pass ? "true" : "false");
    json += buf;
  } else {
    json += "{\"skipped\":true},";
  }
  std::snprintf(buf, sizeof(buf),
                "\"cache_hits\":%llu,\"cache_misses\":%llu,\"status\":"
                "\"%s\"}",
                (unsigned long long)service.cache().hits(),
                (unsigned long long)service.cache().misses(),
                ok ? "ok" : "failed");
  json += buf;

  std::printf("\nSERVICE_THROUGHPUT_JSON %s\n", json.c_str());
  service.Shutdown(/*drain=*/true);
  if (!ok) MarkBenchFailed();
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace pbsm

int main(int argc, char** argv) {
  pbsm::bench::ParseBenchArgs(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string prefix = "--shards=";
    if (arg.rfind(prefix, 0) != 0) continue;
    std::vector<uint32_t> counts;
    std::string list = arg.substr(prefix.size());
    size_t pos = 0;
    while (pos < list.size()) {
      const size_t comma = list.find(',', pos);
      const std::string item =
          list.substr(pos, comma == std::string::npos ? comma : comma - pos);
      const int n = std::atoi(item.c_str());
      PBSM_CHECK(n > 0) << "bad --shards entry: " << item;
      counts.push_back(static_cast<uint32_t>(n));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    PBSM_CHECK(!counts.empty()) << "empty --shards list";
    pbsm::bench::ShardCounts() = std::move(counts);
  }
  return pbsm::bench::Run();
}
