// fig07_outofcore and fig07_inmem_4t: the paper's Figure 7 join (Road x
// Hydrography, intersects) at half the paper's cardinalities, run back to
// back from one caller through the SpatialJoin facade.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/parallel_stats.h"
#include "core/spatial_join.h"
#include "workloads.h"

namespace pbsm {
namespace perfbench {

namespace {

/// Fraction of the paper's cardinalities both fig07 workloads load.
constexpr double kFig07Scale = 0.5;

/// The paper's `mb` MB buffer pool scaled the way bench/bench_util.h's
/// PoolSizes() does it: by the data scale and by 1.5 for our larger tuples.
size_t PaperPoolBytes(double mb, double scale) {
  const size_t bytes = static_cast<size_t>(mb * 1024 * 1024 * scale * 1.5);
  return std::max<size_t>(bytes, 16 * kPageSize);
}

struct Fig07Db {
  std::unique_ptr<Workspace> ws;
  std::optional<StoredRelation> road;
  std::optional<StoredRelation> hydro;
};

/// Generates, loads and warms one database.
Status SetupFig07(const Args& args, bool in_memory, Fig07Db* db) {
  const double scale = kFig07Scale * args.scale_mult;
  TigerInputs in = GenerateTiger(args.seed, scale, /*with_rail=*/false);
  std::vector<Tuple> roads = std::move(in.road.kept);
  std::vector<Tuple> hydro = std::move(in.hydro.kept);
  in = TigerInputs();  // The spare halves are not needed.
  const size_t pool_bytes =
      in_memory ? 2 * (EstimatePages(roads) + EstimatePages(hydro)) *
                          kPageSize * 5 / 4
                : PaperPoolBytes(2.0, scale);
  db->ws = std::make_unique<Workspace>(NewWorkDir(args, "fig07"), pool_bytes);
  PBSM_ASSIGN_OR_RETURN(
      StoredRelation r,
      LoadRelation(db->ws->pool(), nullptr, "road", std::move(roads)));
  PBSM_ASSIGN_OR_RETURN(
      StoredRelation s,
      LoadRelation(db->ws->pool(), nullptr, "hydrography", std::move(hydro)));
  db->road.emplace(std::move(r));
  db->hydro.emplace(std::move(s));
  if (in_memory) {
    // Warm-up to a full cache: every input page resident before timing.
    for (const StoredRelation* rel : {&*db->road, &*db->hydro}) {
      PBSM_RETURN_IF_ERROR(rel->heap.Scan(
          [](Oid, const char*, size_t) { return Status::OK(); }));
    }
  }
  return Status::OK();
}

/// Breakdown-derived layer figures of one traced join.
struct PhaseSplit {
  std::vector<double> partition_s, filter_s, refine_s, refine_share;
  std::vector<double> replication, precision, overhead_s;
  std::vector<double> par_refine_wall_s, par_utilisation, par_balance_cov;

  void Add(const JoinResult& result, uint64_t inputs,
           const ParallelJoinStats* stats) {
    double part = 0, filter = 0, refine = 0;
    for (const auto& [name, cost] : result.breakdown.phases) {
      if (name.rfind("partition", 0) == 0) {
        part += cost.cpu_seconds;
      } else if (name == "refinement") {
        refine += cost.cpu_seconds;
      } else {
        filter += cost.cpu_seconds;
      }
    }
    const double phases = part + filter + refine;
    partition_s.push_back(part);
    filter_s.push_back(filter);
    refine_s.push_back(refine);
    refine_share.push_back(Ratio(refine, phases));
    replication.push_back(
        Ratio(static_cast<double>(result.breakdown.replicated),
              static_cast<double>(inputs)));
    precision.push_back(
        Ratio(static_cast<double>(result.breakdown.results),
              static_cast<double>(result.breakdown.candidates)));
    overhead_s.push_back(result.wall_seconds - phases);
    if (stats != nullptr && stats->num_threads > 0) {
      par_refine_wall_s.push_back(stats->refine_wall_seconds);
      par_utilisation.push_back(
          Ratio(stats->TotalBusySeconds(),
                stats->total_wall_seconds * stats->num_threads));
      par_balance_cov.push_back(stats->SweepBalanceCov());
    }
  }
};

}  // namespace

Report RunFig07(const Args& args, bool in_memory) {
  Report report;
  Fig07Db db;
  const std::vector<double> setup_s = TimedSetups(
      args, "fig07", [&] { db = Fig07Db(); },
      [&] { return SetupFig07(args, in_memory, &db); }, &report);
  if (setup_s.empty()) return report;
  BufferPool* pool = db.ws->pool();
  const JoinInput road = db.road->AsInput();
  const JoinInput hydro = db.hydro->AsInput();
  const uint64_t inputs = road.info.cardinality + hydro.info.cardinality;
  const uint64_t data_pages = db.road->heap.num_pages() +
                              db.hydro->heap.num_pages();
  if (in_memory && pool->capacity_pages() < 2 * data_pages) {
    report.Fail("in-memory pool is smaller than twice the inputs");
  }

  JoinSpec spec;
  if (in_memory) {
    spec.method = JoinMethod::kParallelPbsm;
    spec.options.num_threads = 4;
  } else {
    spec.method = JoinMethod::kPbsm;
    // The operator budget is the pool grant, as in bench/join_bench.h.
    spec.options.memory_budget_bytes = pool->pool_bytes();
  }

  char info[512];
  std::snprintf(info, sizeof(info),
                "{\"seed\":%llu,\"scale\":%.4f,\"r_tuples\":%llu,"
                "\"s_tuples\":%llu,\"r_pages\":%u,\"s_pages\":%u,"
                "\"pool_pages\":%zu,\"method\":\"%s\",\"threads\":%u,"
                "\"clients\":1,\"loop\":\"closed\",\"host\":%s}",
                static_cast<unsigned long long>(args.seed),
                kFig07Scale * args.scale_mult,
                static_cast<unsigned long long>(road.info.cardinality),
                static_cast<unsigned long long>(hydro.info.cardinality),
                db.road->heap.num_pages(), db.hydro->heap.num_pages(),
                pool->capacity_pages(),
                std::string(JoinMethodName(spec.method)).c_str(),
                spec.options.num_threads, HostJson().c_str());
  report.info_json = info;

  // Reference pair set, outside every timed region.
  std::string problem;
  std::optional<Digest> reference =
      ReferenceDigest(pool, road, hydro, std::nullopt, &problem);
  if (!reference.has_value()) {
    report.Fail(problem);
    return report;
  }
  // One untimed join brings thread pools, scratch arenas and the allocator
  // to steady state; its result must match too.
  {
    auto warm = JoinDigest(pool, road, hydro, spec);
    if (!warm.ok() || !(*warm == *reference)) {
      report.Fail("warm-up join result differs from the reference");
    }
  }
  if (args.wrong_reference) reference->sum += 1;
  db.ws->ArmFaults(args.fault_profile);

  PhaseSplit split;
  TraceState trace;
  auto op = [&](int, uint64_t) {
    trace.BeforeOp();
    PairChecksum sum;
    ParallelJoinStats stats;
    JoinSpec run = spec;
    run.sink = [&sum](Oid a, Oid b) { sum.Add(a, b); };
    if (in_memory) run.parallel_stats = &stats;
    const double start = NowSeconds();
    Result<JoinResult> result = [&] {
      TraceSpan span("perfbench/join");
      return SpatialJoin(pool, road, hydro, run);
    }();
    const double seconds = NowSeconds() - start;
    if (!result.ok()) return OpOutcome{OpOutcome::kFailed, seconds};
    if (!(sum.digest() == *reference)) {
      return OpOutcome{OpOutcome::kWrong, seconds};
    }
    if (trace.on) split.Add(*result, inputs, in_memory ? &stats : nullptr);
    return OpOutcome{OpOutcome::kOk, seconds};
  };
  const Phases phases = RunPhases(args, /*clients=*/1, /*min_ops=*/3, &trace,
                                  &report, op, [&] { split = PhaseSplit(); });

  if (!args.trace) {
    AddEndToEnd(phases, setup_s, &report);
    return report;
  }
  const MetricsSnapshot& before = phases.before;
  const MetricsSnapshot& after = phases.after;
  AddStorageDeltas(phases, static_cast<double>(phases.measured.attempted),
                   &report);
  const double tp = CounterDelta(after, before, "join.refine.true_positives");
  const double fp = CounterDelta(after, before, "join.refine.false_positives");
  report.Add("core.refine.true_hit_rate", "ratio", Ratio(tp, tp + fp));
  const uint64_t n = split.refine_s.size();
  report.Add("core.partition.self_s", "s", Median(split.partition_s), n);
  report.Add("core.partition.replication", "ratio", Median(split.replication),
             n);
  report.Add("core.filter.self_s", "s", Median(split.filter_s), n);
  report.Add("core.filter.precision", "ratio", Median(split.precision), n);
  report.Add("core.refine.self_s", "s", Median(split.refine_s), n);
  report.Add("core.refine.share", "ratio", Median(split.refine_share), n);
  report.Add("exec.overhead_s", "s", Median(split.overhead_s), n);

  if (in_memory) {
    const uint64_t m = split.par_refine_wall_s.size();
    report.Add("core.parallel.refine_wall_s", "s",
               Median(split.par_refine_wall_s), m);
    report.Add("core.parallel.utilisation", "ratio",
               Median(split.par_utilisation), m);
    report.Add("core.parallel.sweep_balance_cov", "ratio",
               Median(split.par_balance_cov), m);
    // 1-thread wall of the same join against the 4-thread untraced median.
    std::vector<double> serial;
    for (int rep = 0; rep < 2; ++rep) {
      JoinSpec one = spec;
      one.options.num_threads = 1;
      const double start = NowSeconds();
      auto digest = JoinDigest(pool, road, hydro, one);
      serial.push_back(NowSeconds() - start);
      if (!digest.ok() || !(*digest == *reference)) {
        report.Fail("1-thread parallel_pbsm result differs from reference");
      }
    }
    report.Add("core.parallel.speedup_wall", "ratio",
               Ratio(Median(serial), phases.untraced_p50), serial.size());
  }
  MeasureSharedLayers(pool, *db.road, *db.hydro, &report);
  FillUnmappedLayers(&report);
  return report;
}

}  // namespace perfbench
}  // namespace pbsm
