// Extension bench: the multi-threaded PBSM executor (ParallelPbsmJoin).
// Sweeps the worker-thread count on the TIGER-like Road ⋈ Hydrography
// workload and emits one JSON object per configuration:
//
//   {"threads": N, "wall_seconds": ..., "wall_speedup": ...,
//    "critical_path_speedup": ..., "sweep_balance_cov": ..., ...}
//
// wall_speedup is single-thread wall / N-thread wall on *this* host; it is
// capped by the host's core count. critical_path_speedup is total task busy
// time / busiest worker's busy time — the speedup the same decomposition
// achieves once every worker has its own core, and the trajectory metric
// tracked in bench/results/parallel_exec_baseline.json.
//
// Set PBSM_JSON_OUT=<path> to also append the JSON lines to a file.

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "core/spatial_join.h"
#include "datagen/loader.h"

namespace pbsm {
namespace bench {
namespace {

void Run() {
  const double scale = ScaleFromEnv();
  const unsigned hw = static_cast<unsigned>(ThreadPool::DefaultThreads());
  PrintTitle("Extension: real multi-threaded PBSM executor");
  PrintScaleBanner(scale);
  std::printf("  hardware_concurrency=%u (wall speedup is capped by this; "
              "critical_path_speedup measures the decomposition)\n", hw);

  FILE* json_out = nullptr;
  if (const char* path = std::getenv("PBSM_JSON_OUT")) {
    json_out = std::fopen(path, "a");
  }

  const TigerData tiger = GenTiger(scale);

  // Thread ladder: 1,2,4,... up to at least 8 so the decomposition metrics
  // are recorded even on small hosts, and up to hardware_concurrency on
  // larger ones.
  std::vector<uint32_t> ladder;
  for (uint32_t t = 1; t <= std::max(8u, hw); t *= 2) ladder.push_back(t);
  if (hw > 8 && ladder.back() != hw) ladder.push_back(hw);

  double single_thread_wall = 0.0;
  for (const uint32_t threads : ladder) {
    Workspace ws(64 << 20);
    auto r = LoadRelation(ws.pool(), nullptr, "road", tiger.roads);
    PBSM_CHECK(r.ok()) << r.status().ToString();
    auto s = LoadRelation(ws.pool(), nullptr, "hydro", tiger.hydro);
    PBSM_CHECK(s.ok()) << s.status().ToString();
    ws.disk()->ResetStats();

    JoinOptions opts;
    opts.memory_budget_bytes = 4 << 20;
    opts.num_threads = threads;
    ParallelJoinStats stats;
    JoinSpec join_spec;
    join_spec.method = JoinMethod::kParallelPbsm;
    join_spec.options = opts;
    join_spec.parallel_stats = &stats;
    auto joined =
        SpatialJoin(ws.pool(), r->AsInput(), s->AsInput(), join_spec);
    PBSM_CHECK(joined.ok()) << joined.status().ToString();
    const JoinCostBreakdown* cost = &joined->breakdown;
    if (threads == 1) single_thread_wall = stats.total_wall_seconds;
    const double wall_speedup =
        stats.total_wall_seconds == 0.0
            ? 1.0
            : single_thread_wall / stats.total_wall_seconds;

    char json[512];
    std::snprintf(
        json, sizeof(json),
        "{\"threads\": %u, \"hardware_concurrency\": %u, "
        "\"wall_seconds\": %.4f, \"wall_speedup\": %.3f, "
        "\"critical_path_speedup\": %.3f, \"sweep_balance_cov\": %.4f, "
        "\"partitions\": %u, \"candidates\": %llu, \"results\": %llu, "
        "\"partition_wall\": %.4f, \"sweep_wall\": %.4f, "
        "\"refine_wall\": %.4f}",
        threads, hw, stats.total_wall_seconds, wall_speedup,
        stats.CriticalPathSpeedup(), stats.SweepBalanceCov(),
        cost->num_partitions,
        static_cast<unsigned long long>(cost->candidates),
        static_cast<unsigned long long>(cost->results),
        stats.partition_wall_seconds, stats.sweep_wall_seconds,
        stats.refine_wall_seconds);
    std::printf("  %s\n", json);
    if (json_out != nullptr) std::fprintf(json_out, "%s\n", json);
  }

  // Cross-check against the serial executor once (result equivalence).
  {
    Workspace ws(64 << 20);
    auto r = LoadRelation(ws.pool(), nullptr, "road", tiger.roads);
    PBSM_CHECK(r.ok()) << r.status().ToString();
    auto s = LoadRelation(ws.pool(), nullptr, "hydro", tiger.hydro);
    PBSM_CHECK(s.ok()) << s.status().ToString();
    JoinOptions opts;
    opts.memory_budget_bytes = 4 << 20;
    JoinSpec serial_spec;
    serial_spec.method = JoinMethod::kPbsm;
    serial_spec.options = opts;
    auto serial =
        SpatialJoin(ws.pool(), r->AsInput(), s->AsInput(), serial_spec);
    PBSM_CHECK(serial.ok()) << serial.status().ToString();
    JoinSpec parallel_spec;
    parallel_spec.method = JoinMethod::kParallelPbsm;
    parallel_spec.options = opts;
    parallel_spec.options.num_threads = 4;
    auto parallel =
        SpatialJoin(ws.pool(), r->AsInput(), s->AsInput(), parallel_spec);
    PBSM_CHECK(parallel.ok()) << parallel.status().ToString();
    PBSM_CHECK(serial->num_results == parallel->num_results)
        << "serial " << serial->num_results << " vs parallel "
        << parallel->num_results;
    std::printf("  serial/parallel result check: %llu == %llu OK\n",
                static_cast<unsigned long long>(serial->num_results),
                static_cast<unsigned long long>(parallel->num_results));
  }

  if (json_out != nullptr) std::fclose(json_out);
}

}  // namespace
}  // namespace bench
}  // namespace pbsm

int main(int argc, char** argv) {
  pbsm::bench::ParseBenchArgs(argc, argv);
  pbsm::bench::Run();
  return 0;
}
