// Reproduces the §4.4 refinement observation: without the plane-sweep
// algorithm for the exact polyline-intersection test, the refinement step's
// cost increases by ~62%. Runs PBSM Road JOIN Hydrography with the
// plane-sweep refinement and with the naive all-pairs segment test, and
// compares the refinement-phase and total costs.

#include <cstdio>

#include "bench/join_bench.h"

namespace pbsm {
namespace bench {
namespace {

double RefinementSeconds(const JoinCostBreakdown& cost) {
  for (const auto& [name, phase] : cost.phases) {
    if (name == "refinement") return PaperSeconds(phase);
  }
  return 0.0;
}

void Run() {
  const double scale = ScaleFromEnv();
  PrintTitle("Ablation (S4.4): refinement with plane sweep vs naive "
             "segment tests");
  PrintScaleBanner(scale);
  PrintNote("paper: dropping the plane-sweep refinement increases the "
            "refinement step's cost by ~62%");

  const TigerData tiger = GenTiger(scale);
  const auto pools = PoolSizes(scale);
  const size_t pool_bytes = pools[2].second;  // The 24MB point.

  double sweep_refine = 0.0;
  struct Config {
    const char* label;
    SegmentTestMode mode;
  };
  static const Config kConfigs[] = {
      {"plane-sweep refinement", SegmentTestMode::kPlaneSweep},
      {"naive refinement", SegmentTestMode::kNaive},
  };
  for (const Config& c : kConfigs) {
    Workspace ws(pool_bytes);
    auto r = LoadRelation(ws.pool(), nullptr, "road", tiger.roads);
    PBSM_CHECK(r.ok()) << r.status().ToString();
    auto s = LoadRelation(ws.pool(), nullptr, "hydro", tiger.hydro);
    PBSM_CHECK(s.ok()) << s.status().ToString();
    ws.disk()->ResetStats();
    JoinOptions opts = MakeJoinOptions(pool_bytes);
    opts.refinement_mode = c.mode;
    JoinSpec spec;
    spec.method = JoinMethod::kPbsm;
    spec.options = opts;
    auto joined = SpatialJoin(ws.pool(), r->AsInput(), s->AsInput(), spec);
    PBSM_CHECK(joined.ok()) << joined.status().ToString();
    const JoinCostBreakdown* cost = &joined->breakdown;
    const double refine = RefinementSeconds(*cost);
    if (c.mode == SegmentTestMode::kPlaneSweep) sweep_refine = refine;
    std::printf("  %-28s refinement=%8.3fs total=%8.3fs results=%llu\n",
                c.label, refine, PaperSeconds(cost->Total()),
                static_cast<unsigned long long>(cost->results));
  }
  if (sweep_refine > 0) {
    std::printf("  (naive vs plane-sweep refinement overhead shown above; "
                "paper measured +62%%)\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace pbsm

int main() {
  pbsm::bench::Run();
  return 0;
}
