// Extension bench: the full Table 1 line-up on one workload. The paper's
// classification (§2, Table 1) covers four families; this repository
// implements one member of each, joined here on Road x Hydrography:
//
//   transform, no index ........ zorder            [Ore86, OM88]
//   direct 2-D, needs indices .. rtree             [BKS93]
//   direct 2-D, builds index ... inl (paper's INL)
//   direct 2-D, no index ....... pbsm (the paper) and
//                                spatial_hash      [LR96]
//
// Expected shape: the two partition-based no-index algorithms (PBSM and
// the spatial hash join) lead; the z-transform trails even at its best
// grid; INL trails until the pool holds the indexed input.

#include <cstdio>

#include "bench/join_bench.h"

namespace pbsm {
namespace bench {
namespace {

void Run() {
  const double scale = ScaleFromEnv();
  PrintTitle("Extension: all five join algorithms (Table 1 line-up), "
             "Road JOIN Hydrography");
  PrintScaleBanner(scale);
  PrintNote("families per the paper's Table 1: PBSM & spatial-hash "
            "(partition, no index), R-tree join (tree indices), INL "
            "(build+probe index), z-join (1-D transform)");

  const TigerData tiger = GenTiger(scale);
  for (const auto& [pool_label, pool_bytes] : PoolSizes(scale)) {
    std::printf("  -- buffer pool %s --\n", pool_label.c_str());
    JoinBenchSpec spec;
    spec.r_tuples = &tiger.roads;
    spec.s_tuples = &tiger.hydro;
    spec.r_name = "road";
    spec.s_name = "hydrography";

    static const char* kNames[] = {"PBSM", "R-tree join", "Idx nested loops"};
    for (int algo = 0; algo < 3; ++algo) {
      PrintJoinRow(kNames[algo], RunOneJoin(spec, pool_bytes, algo));
    }
    {
      Workspace ws(pool_bytes);
      auto r = LoadRelation(ws.pool(), nullptr, "road", tiger.roads);
      PBSM_CHECK(r.ok()) << r.status().ToString();
      auto s = LoadRelation(ws.pool(), nullptr, "hydro", tiger.hydro);
      PBSM_CHECK(s.ok()) << s.status().ToString();
      ws.disk()->ResetStats();
      JoinSpec join_spec;
      join_spec.method = JoinMethod::kSpatialHash;
      join_spec.options = MakeJoinOptions(pool_bytes);
      auto joined =
          SpatialJoin(ws.pool(), r->AsInput(), s->AsInput(), join_spec);
      PBSM_CHECK(joined.ok()) << joined.status().ToString();
      PrintJoinRow("Spatial hash join (LR96)", joined->breakdown);
    }
    {
      Workspace ws(pool_bytes);
      auto r = LoadRelation(ws.pool(), nullptr, "road", tiger.roads);
      PBSM_CHECK(r.ok()) << r.status().ToString();
      auto s = LoadRelation(ws.pool(), nullptr, "hydro", tiger.hydro);
      PBSM_CHECK(s.ok()) << s.status().ToString();
      ws.disk()->ResetStats();
      JoinSpec join_spec;
      join_spec.method = JoinMethod::kZOrder;
      join_spec.zorder.max_level = 8;
      // Its best grid (bench_ext_zorder).
      join_spec.zorder.max_cells_per_object = 4;
      join_spec.options = MakeJoinOptions(pool_bytes);
      auto joined =
          SpatialJoin(ws.pool(), r->AsInput(), s->AsInput(), join_spec);
      PBSM_CHECK(joined.ok()) << joined.status().ToString();
      PrintJoinRow("Z-transform join (Ore86)", joined->breakdown);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace pbsm

int main() {
  pbsm::bench::Run();
  return 0;
}
