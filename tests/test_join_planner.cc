#include "service/join_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "core/selectivity.h"
#include "datagen/tiger_gen.h"
#include "service/shard_manager.h"
#include "tests/join_test_harness.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

RelationInfo MakeInfo(const std::string& name, uint64_t cardinality,
                      double avg_extent, double avg_points = 30.0) {
  RelationInfo info;
  info.name = name;
  info.cardinality = cardinality;
  info.universe = Rect(0, 0, 1000, 1000);
  info.total_points =
      static_cast<uint64_t>(avg_points * static_cast<double>(cardinality));
  info.sum_mbr_width = avg_extent * static_cast<double>(cardinality);
  info.sum_mbr_height = avg_extent * static_cast<double>(cardinality);
  return info;
}

TEST(EstimateCandidatePairsTest, ZeroForEmptyInput) {
  const RelationInfo r = MakeInfo("r", 0, 1.0);
  const RelationInfo s = MakeInfo("s", 1000, 1.0);
  EXPECT_EQ(EstimateCandidatePairs(r, s), 0.0);
  EXPECT_EQ(EstimateCandidatePairs(s, r), 0.0);
}

TEST(EstimateCandidatePairsTest, ScalesWithDensity) {
  const RelationInfo r = MakeInfo("r", 10000, 1.0);
  const RelationInfo sparse = MakeInfo("s", 10000, 1.0);
  const RelationInfo dense = MakeInfo("s", 10000, 10.0);
  const double few = EstimateCandidatePairs(r, sparse);
  const double many = EstimateCandidatePairs(r, dense);
  EXPECT_GT(few, 0.0);
  EXPECT_GT(many, few);
  // Never more than the cross product.
  EXPECT_LE(many, 10000.0 * 10000.0);
}

TEST(PlanJoinTest, RanksAllSixMethods) {
  const RelationInfo r_info = MakeInfo("r", 50000, 2.0);
  const RelationInfo s_info = MakeInfo("s", 20000, 2.0);
  const PlanChoice choice = PlanJoin({&r_info}, {&s_info}, 1);
  ASSERT_EQ(choice.alternatives.size(), 6u);
  std::set<JoinMethod> seen;
  double prev = -1.0;
  for (const MethodCost& alt : choice.alternatives) {
    seen.insert(alt.method);
    EXPECT_GE(alt.estimated_seconds, prev);  // Ascending.
    prev = alt.estimated_seconds;
  }
  EXPECT_EQ(seen.size(), 6u);  // Every method costed exactly once.
  EXPECT_EQ(choice.method, choice.alternatives.front().method);
  EXPECT_GT(choice.estimated_candidates, 0.0);
  EXPECT_FALSE(choice.ToString().empty());
}

TEST(PlanJoinTest, ColdSingleThreadPrefersSerialPbsm) {
  // The calibrated regime of the TIGER workloads: similar-scale inputs,
  // nothing cached, one core. Index builds make the tree methods lose and
  // the parallel executor has no extra threads to pay for its overhead.
  const RelationInfo r_info = MakeInfo("road", 68000, 2.0);
  const RelationInfo s_info = MakeInfo("hydro", 18000, 2.0);
  const PlanChoice choice = PlanJoin({&r_info}, {&s_info}, /*threads=*/1);
  EXPECT_EQ(choice.method, JoinMethod::kPbsm);
}

TEST(PlanJoinTest, ManyThreadsPreferParallelPbsm) {
  const RelationInfo r_info = MakeInfo("road", 68000, 2.0);
  const RelationInfo s_info = MakeInfo("hydro", 18000, 2.0);
  const PlanChoice choice = PlanJoin({&r_info}, {&s_info}, /*threads=*/8);
  EXPECT_EQ(choice.method, JoinMethod::kParallelPbsm);
}

TEST(PlanJoinTest, WarmIndexesFlipTheChoiceToRtree) {
  const RelationInfo r_info = MakeInfo("road", 68000, 2.0);
  const RelationInfo s_info = MakeInfo("hydro", 18000, 2.0);
  PlannerSide r{&r_info};
  PlannerSide s{&s_info};
  const PlanChoice cold = PlanJoin(r, s, 1);
  EXPECT_NE(cold.method, JoinMethod::kRtree);

  r.index_cached = true;
  s.index_cached = true;
  const PlanChoice warm = PlanJoin(r, s, 1);
  EXPECT_EQ(warm.method, JoinMethod::kRtree);
  EXPECT_LT(warm.estimated_seconds, cold.estimated_seconds);
}

TEST(PlanJoinTest, HistogramSharpensTheCandidateEstimate) {
  RelationInfo r_info = MakeInfo("r", 10000, 5.0);
  RelationInfo s_info = MakeInfo("s", 10000, 5.0);

  // Catalog-only model assumes uniform spread; build histograms where the
  // two inputs occupy disjoint halves of the universe, so the histogram
  // estimate must come out far below the catalog one.
  SpatialHistogram r_hist(r_info.universe, 8, 8);
  SpatialHistogram s_hist(s_info.universe, 8, 8);
  for (int i = 0; i < 10000; ++i) {
    const double y = (i % 100) * 10.0;
    r_hist.Add(Rect(10, y, 15, y + 5));        // Left edge.
    s_hist.Add(Rect(900, y, 905, y + 5));      // Right edge.
  }
  const PlanChoice catalog_only = PlanJoin({&r_info}, {&s_info}, 1);
  const PlanChoice with_hist =
      PlanJoin({&r_info, &r_hist}, {&s_info, &s_hist}, 1);
  EXPECT_LT(with_hist.estimated_candidates,
            catalog_only.estimated_candidates);
}

TEST(PlanJoinTest, MergeDedupModeChargesOnlyThePbsmMethods) {
  const RelationInfo r_info = MakeInfo("r", 50000, 2.0);
  const RelationInfo s_info = MakeInfo("s", 20000, 2.0);
  PlannerCosts costs;  // Default: two-layer, no merge-dedup term.
  const PlanChoice two_layer = PlanJoin({&r_info}, {&s_info}, 8, costs);
  costs.dedup_mode = DedupMode::kMerge;
  const PlanChoice merge = PlanJoin({&r_info}, {&s_info}, 8, costs);

  auto cost_of = [](const PlanChoice& choice, JoinMethod m) {
    for (const MethodCost& alt : choice.alternatives) {
      if (alt.method == m) return alt.estimated_seconds;
    }
    ADD_FAILURE() << "method missing from plan";
    return 0.0;
  };
  // The dedup phase makes serial PBSM dearer under kMerge...
  EXPECT_GT(cost_of(merge, JoinMethod::kPbsm),
            cost_of(two_layer, JoinMethod::kPbsm));
  // ...while the parallel executor (always two-layer) and the methods
  // without the knob are untouched.
  EXPECT_EQ(cost_of(merge, JoinMethod::kParallelPbsm),
            cost_of(two_layer, JoinMethod::kParallelPbsm));
  EXPECT_EQ(cost_of(merge, JoinMethod::kRtree),
            cost_of(two_layer, JoinMethod::kRtree));
  EXPECT_EQ(cost_of(merge, JoinMethod::kSpatialHash),
            cost_of(two_layer, JoinMethod::kSpatialHash));
}

TEST(PlanJoinTest, OverrideCostsSteerTheChoice) {
  const RelationInfo r_info = MakeInfo("r", 50000, 2.0);
  const RelationInfo s_info = MakeInfo("s", 50000, 2.0);
  PlannerCosts costs;
  costs.hash_per_tuple = 1e-12;  // Make hashing essentially free.
  const PlanChoice choice = PlanJoin({&r_info}, {&s_info}, 1, costs);
  EXPECT_EQ(choice.method, JoinMethod::kSpatialHash);
}

// ---------------------------------------------------------------------------
// Sharded planning: one plan per shard slice, costed from that shard's own
// slice statistics and index-cache state.
// ---------------------------------------------------------------------------

class PlanShardedJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TigerGenerator::Params params;
    params.seed = 42;
    params.universe = Rect(params.universe.xlo, params.universe.ylo,
                           params.universe.xlo + params.universe.width() / 8,
                           params.universe.ylo + params.universe.height() / 8);
    TigerGenerator gen(params);
    roads_ = gen.GenerateRoads(1200);
    hydro_ = gen.GenerateHydrography(500);

    auto road = LoadRelation(storage_.pool(), nullptr, "road", roads_);
    ASSERT_TRUE(road.ok()) << road.status().ToString();
    road_.emplace(std::move(road).value());
    auto hydro = LoadRelation(storage_.pool(), nullptr, "hydro", hydro_);
    ASSERT_TRUE(hydro.ok()) << hydro.status().ToString();
    hydro_rel_.emplace(std::move(hydro).value());

    ShardManagerConfig config;
    config.num_shards = 4;
    shards_.emplace(config);
    PBSM_ASSERT_OK(
        shards_->RegisterDataset("road", &road_->heap, road_->info));
    PBSM_ASSERT_OK(
        shards_->RegisterDataset("hydro", &hydro_rel_->heap,
                                 hydro_rel_->info));
  }

  /// Bulk-builds the cached R-trees over both of `shard`'s slices, at the
  /// fill factor PlanShardedJoin checks by default.
  void WarmShard(uint32_t shard) {
    const double fill = JoinOptions().index_fill_factor;
    for (const std::string& name : {std::string("road"),
                                    std::string("hydro")}) {
      PBSM_ASSERT_OK_AND_ASSIGN(const auto dataset,
                                shards_->FindDataset(shard, name));
      PBSM_ASSERT_OK(shards_->shard(shard)
                         .cache
                         ->GetOrBuild(
                             JoinInput{dataset->heap.get(), dataset->info},
                             fill)
                         .status());
    }
  }

  StorageEnv storage_{4096 * kPageSize};
  std::vector<Tuple> roads_, hydro_;
  std::optional<StoredRelation> road_, hydro_rel_;
  std::optional<ShardManager> shards_;
};

TEST_F(PlanShardedJoinTest, CoversEverySliceWithAggregateTotals) {
  PBSM_ASSERT_OK_AND_ASSIGN(const ShardedPlan plan,
                            PlanShardedJoin(*shards_, "road", "hydro"));
  ASSERT_EQ(plan.slices.size(), 4u);
  double max_est = 0.0, sum_est = 0.0;
  for (uint32_t i = 0; i < 4; ++i) {
    const ShardSlicePlan& slice = plan.slices[i];
    EXPECT_EQ(slice.shard, i);
    ASSERT_GT(slice.r_cardinality, 0u);
    ASSERT_GT(slice.s_cardinality, 0u);
    EXPECT_EQ(slice.choice.alternatives.size(), 6u);
    EXPECT_GT(slice.choice.estimated_seconds, 0.0);
    max_est = std::max(max_est, slice.choice.estimated_seconds);
    sum_est += slice.choice.estimated_seconds;
  }
  EXPECT_DOUBLE_EQ(plan.critical_path_seconds, max_est);
  EXPECT_DOUBLE_EQ(plan.serial_seconds, sum_est);
  EXPECT_GE(plan.serial_seconds, plan.critical_path_seconds);
  EXPECT_NE(plan.ToString().find("critical path"), std::string::npos);
}

TEST_F(PlanShardedJoinTest, WarmShardPlansRtreeWhileColdSiblingsDoNot) {
  PBSM_ASSERT_OK_AND_ASSIGN(const ShardedPlan cold,
                            PlanShardedJoin(*shards_, "road", "hydro"));
  for (const ShardSlicePlan& slice : cold.slices) {
    EXPECT_NE(slice.choice.method, JoinMethod::kRtree)
        << "shard " << slice.shard << " planned a cold index build";
  }

  WarmShard(1);
  PBSM_ASSERT_OK_AND_ASSIGN(const ShardedPlan warm,
                            PlanShardedJoin(*shards_, "road", "hydro"));
  EXPECT_EQ(warm.slices[1].choice.method, JoinMethod::kRtree);
  EXPECT_LT(warm.slices[1].choice.estimated_seconds,
            cold.slices[1].choice.estimated_seconds);
  // Shard-aware costing: the siblings' caches are untouched, so their
  // slices keep their cold plans.
  for (const uint32_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(warm.slices[i].choice.method, cold.slices[i].choice.method);
    EXPECT_NE(warm.slices[i].choice.method, JoinMethod::kRtree);
  }
}

TEST_F(PlanShardedJoinTest, UnknownDatasetIsNotFound) {
  const auto plan = PlanShardedJoin(*shards_, "road", "nope");
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace pbsm
