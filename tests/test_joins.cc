#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/index_build.h"
#include "core/spatial_join.h"
#include "datagen/loader.h"
#include "datagen/sequoia_gen.h"
#include "datagen/tiger_gen.h"
#include "geom/predicates.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

ResultSink Collect(PairSet* out) {
  return [out](Oid r, Oid s) { out->emplace(r.Encode(), s.Encode()); };
}

/// Runs the facade and unwraps the per-phase cost breakdown, which is what
/// these tests assert on.
Result<JoinCostBreakdown> RunJoin(BufferPool* pool, const JoinInput& r,
                                  const JoinInput& s, const JoinSpec& spec) {
  PBSM_ASSIGN_OR_RETURN(JoinResult result, SpatialJoin(pool, r, s, spec));
  return std::move(result.breakdown);
}

JoinSpec MakeSpec(JoinMethod method, SpatialPredicate pred,
                  const JoinOptions& opts, ResultSink sink = {}) {
  JoinSpec spec;
  spec.method = method;
  spec.predicate = pred;
  spec.options = opts;
  spec.sink = std::move(sink);
  return spec;
}

/// Ground truth: nested loop over the raw tuples with exact predicates.
PairSet BruteForceJoin(const std::vector<Tuple>& r,
                       const std::vector<Tuple>& s, SpatialPredicate pred,
                       const StoredRelation& r_rel,
                       const StoredRelation& s_rel) {
  // Map tuple ids to OIDs by re-scanning the heap files.
  auto oids_by_position = [](const StoredRelation& rel) {
    std::vector<uint64_t> oids;
    EXPECT_TRUE(rel.heap
                    .Scan([&](Oid oid, const char*, size_t) -> Status {
                      oids.push_back(oid.Encode());
                      return Status::OK();
                    })
                    .ok());
    return oids;
  };
  const auto r_oids = oids_by_position(r_rel);
  const auto s_oids = oids_by_position(s_rel);
  PairSet out;
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      if (EvaluatePredicate(pred, r[i].geometry, s[j].geometry,
                            SegmentTestMode::kPlaneSweep)) {
        out.emplace(r_oids[i], s_oids[j]);
      }
    }
  }
  return out;
}

class JoinEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TigerGenerator::Params params;
    params.seed = 4242;
    TigerGenerator gen(params);
    roads_ = gen.GenerateRoads(1200);
    hydro_ = gen.GenerateHydrography(400);
  }

  std::vector<Tuple> roads_;
  std::vector<Tuple> hydro_;
};

TEST_F(JoinEquivalenceTest, AllAlgorithmsMatchBruteForce) {
  StorageEnv env(512 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation roads,
      LoadRelation(env.pool(), nullptr, "road", roads_));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation hydro,
      LoadRelation(env.pool(), nullptr, "hydro", hydro_));
  const PairSet expected = BruteForceJoin(
      roads_, hydro_, SpatialPredicate::kIntersects, roads, hydro);
  ASSERT_GT(expected.size(), 0u) << "test data produces no join results";

  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_tiles = 256;

  PairSet pbsm_pairs;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown pbsm_cost,
      RunJoin(env.pool(), roads.AsInput(), hydro.AsInput(),
              MakeSpec(JoinMethod::kPbsm, SpatialPredicate::kIntersects, opts,
                       Collect(&pbsm_pairs))));
  EXPECT_EQ(pbsm_pairs, expected);
  EXPECT_EQ(pbsm_cost.results, expected.size());
  EXPECT_GE(pbsm_cost.candidates, expected.size());

  // The facade restores (r, s) orientation for INL no matter which side it
  // indexes internally, so the pair set compares directly.
  PairSet inl_pairs;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown inl_cost,
      RunJoin(env.pool(), roads.AsInput(), hydro.AsInput(),
              MakeSpec(JoinMethod::kInl, SpatialPredicate::kIntersects, opts,
                       Collect(&inl_pairs))));
  EXPECT_EQ(inl_pairs, expected);
  EXPECT_EQ(inl_cost.results, expected.size());

  PairSet rtree_pairs;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown rtree_cost,
      RunJoin(env.pool(), roads.AsInput(), hydro.AsInput(),
              MakeSpec(JoinMethod::kRtree, SpatialPredicate::kIntersects, opts,
                       Collect(&rtree_pairs))));
  EXPECT_EQ(rtree_pairs, expected);
  EXPECT_EQ(rtree_cost.results, expected.size());
}

TEST_F(JoinEquivalenceTest, PbsmInvariantUnderKnobs) {
  StorageEnv env(512 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation roads,
      LoadRelation(env.pool(), nullptr, "road", roads_));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation hydro,
      LoadRelation(env.pool(), nullptr, "hydro", hydro_));

  JoinOptions base;
  base.memory_budget_bytes = 1 << 20;
  base.num_tiles = 512;
  PairSet reference;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown ref_cost,
      RunJoin(env.pool(), roads.AsInput(), hydro.AsInput(),
              MakeSpec(JoinMethod::kPbsm, SpatialPredicate::kIntersects, base,
                       Collect(&reference))));
  (void)ref_cost;
  ASSERT_GT(reference.size(), 0u);

  // Mapping scheme, tile count, partition count, tiny memory budgets
  // (forcing §3.5 overflow handling), and the naive segment test must not
  // change the result set. The §3.5 paths exist only in the
  // paper's merge-dedup filter (two-layer partitions are processed whole),
  // so the tiny-budget variants pin kMerge and state whether repartitioning
  // must fire.
  struct Variant {
    const char* label;
    JoinOptions opts;
    /// Whether §3.5 must repartition some partition pair; unchecked if
    /// unset.
    std::optional<bool> repartitions = std::nullopt;
  };
  std::vector<Variant> variants;
  {
    JoinOptions o = base;
    o.mapping = TileMapping::kRoundRobin;
    variants.push_back({"round robin", o});
  }
  {
    JoinOptions o = base;
    o.num_tiles = 16;
    variants.push_back({"coarse tiles", o});
  }
  {
    JoinOptions o = base;
    o.num_partitions_override = 7;
    variants.push_back({"forced 7 partitions", o});
  }
  {
    JoinOptions o = base;
    o.dedup_mode = DedupMode::kMerge;
    o.memory_budget_bytes = 16 << 10;  // Forces repartitioning.
    variants.push_back({"tiny budget with repartition", o, true});
  }
  {
    JoinOptions o = base;
    o.dedup_mode = DedupMode::kMerge;
    o.memory_budget_bytes = 16 << 10;
    o.dynamic_repartition = false;  // Forces the chunked fallback.
    variants.push_back({"tiny budget chunked fallback", o, false});
  }
  {
    JoinOptions o = base;
    o.refinement_mode = SegmentTestMode::kNaive;
    variants.push_back({"naive refinement", o});
  }

  for (const Variant& v : variants) {
    PairSet got;
    PBSM_ASSERT_OK_AND_ASSIGN(
        const JoinCostBreakdown cost,
        RunJoin(env.pool(), roads.AsInput(), hydro.AsInput(),
                MakeSpec(JoinMethod::kPbsm, SpatialPredicate::kIntersects,
                         v.opts, Collect(&got))));
    EXPECT_EQ(got, reference) << v.label;
    EXPECT_EQ(cost.results, reference.size()) << v.label;
    if (v.repartitions.has_value()) {
      EXPECT_EQ(cost.repartitioned_pairs > 0, *v.repartitions) << v.label;
    }
  }
}

TEST_F(JoinEquivalenceTest, ClusteringDoesNotChangeResults) {
  StorageEnv env(512 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation roads,
      LoadRelation(env.pool(), nullptr, "road", roads_, false));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation hydro,
      LoadRelation(env.pool(), nullptr, "hydro", hydro_, false));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation roads_cl,
      LoadRelation(env.pool(), nullptr, "road_cl", roads_, true));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation hydro_cl,
      LoadRelation(env.pool(), nullptr, "hydro_cl", hydro_, true));

  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;

  auto result_count = [&](const StoredRelation& r,
                          const StoredRelation& s) -> uint64_t {
    auto res = SpatialJoin(env.pool(), r.AsInput(), s.AsInput(),
                           MakeSpec(JoinMethod::kPbsm,
                                    SpatialPredicate::kIntersects, opts));
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() ? res->num_results : 0;
  };
  EXPECT_EQ(result_count(roads, hydro), result_count(roads_cl, hydro_cl));
}

TEST_F(JoinEquivalenceTest, SmallBufferPoolsDoNotChangeResults) {
  // 16-frame pool: everything constantly evicted; results must not change.
  StorageEnv big(512 * kPageSize);
  StorageEnv tiny(16 * kPageSize);
  JoinOptions opts;
  opts.memory_budget_bytes = 256 << 10;

  uint64_t counts[2];
  StorageEnv* envs[2] = {&big, &tiny};
  for (int i = 0; i < 2; ++i) {
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation roads,
        LoadRelation(envs[i]->pool(), nullptr, "road", roads_));
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation hydro,
        LoadRelation(envs[i]->pool(), nullptr, "hydro", hydro_));
    PBSM_ASSERT_OK_AND_ASSIGN(
        const JoinCostBreakdown cost,
        RunJoin(envs[i]->pool(), roads.AsInput(), hydro.AsInput(),
                MakeSpec(JoinMethod::kPbsm, SpatialPredicate::kIntersects,
                         opts)));
    counts[i] = cost.results;
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0], 0u);
}

TEST(JoinPredicateTest, ContainmentJoinMatchesBruteForce) {
  StorageEnv env(512 * kPageSize);
  SequoiaGenerator gen(SequoiaGenerator::Params{});
  const auto polys = gen.GeneratePolygons(200);
  const auto islands = gen.GenerateIslands(300);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation polys_rel,
      LoadRelation(env.pool(), nullptr, "poly", polys));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation islands_rel,
      LoadRelation(env.pool(), nullptr, "island", islands));
  const PairSet expected =
      BruteForceJoin(polys, islands, SpatialPredicate::kContains, polys_rel,
                     islands_rel);
  ASSERT_GT(expected.size(), 0u);

  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;

  for (const bool mer : {false, true}) {
    JoinOptions o = opts;
    o.use_mer_filter = mer;
    PairSet got;
    PBSM_ASSERT_OK_AND_ASSIGN(
        const JoinCostBreakdown cost,
        RunJoin(env.pool(), polys_rel.AsInput(), islands_rel.AsInput(),
                MakeSpec(JoinMethod::kPbsm, SpatialPredicate::kContains, o,
                         Collect(&got))));
    EXPECT_EQ(got, expected) << "mer=" << mer;
    EXPECT_EQ(cost.results, expected.size());
  }

  // INL internally indexes the smaller input; the facade keeps the
  // containment predicate and result pairs oriented as (polys, islands).
  PairSet inl_pairs;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown inl_cost,
      RunJoin(env.pool(), polys_rel.AsInput(), islands_rel.AsInput(),
              MakeSpec(JoinMethod::kInl, SpatialPredicate::kContains, opts,
                       Collect(&inl_pairs))));
  EXPECT_EQ(inl_pairs, expected);
  EXPECT_EQ(inl_cost.results, expected.size());

  // The R-tree join agrees on containment too.
  PairSet rtree_pairs;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown rt,
      RunJoin(env.pool(), polys_rel.AsInput(), islands_rel.AsInput(),
              MakeSpec(JoinMethod::kRtree, SpatialPredicate::kContains, opts,
                       Collect(&rtree_pairs))));
  EXPECT_EQ(rtree_pairs, expected);
  (void)rt;
}

TEST(JoinPreexistingIndexTest, IndexVariantsMatch) {
  StorageEnv env(512 * kPageSize);
  TigerGenerator gen(TigerGenerator::Params{});
  const auto roads = gen.GenerateRoads(800);
  const auto rail = gen.GenerateRail(150);
  PBSM_ASSERT_OK_AND_ASSIGN(const StoredRelation roads_rel,
                            LoadRelation(env.pool(), nullptr, "road", roads));
  PBSM_ASSERT_OK_AND_ASSIGN(const StoredRelation rail_rel,
                            LoadRelation(env.pool(), nullptr, "rail", rail));

  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;

  // Reference: no pre-existing indices.
  PairSet expected;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown ref,
      RunJoin(env.pool(), roads_rel.AsInput(), rail_rel.AsInput(),
              MakeSpec(JoinMethod::kRtree, SpatialPredicate::kIntersects,
                       opts, Collect(&expected))));
  (void)ref;

  // Pre-built indices.
  PBSM_ASSERT_OK_AND_ASSIGN(
      const RStarTree road_idx,
      BuildIndexByBulkLoad(env.pool(), roads_rel.AsInput(), "ri.rtree",
                           0.75));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const RStarTree rail_idx,
      BuildIndexByBulkLoad(env.pool(), rail_rel.AsInput(), "si.rtree",
                           0.75));

  // R-tree join with both indices pre-existing: no build phases.
  PairSet both;
  JoinSpec both_spec =
      MakeSpec(JoinMethod::kRtree, SpatialPredicate::kIntersects, opts,
               Collect(&both));
  both_spec.r_index = &road_idx;
  both_spec.s_index = &rail_idx;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown rt2,
      RunJoin(env.pool(), roads_rel.AsInput(), rail_rel.AsInput(),
              both_spec));
  EXPECT_EQ(both, expected);
  EXPECT_EQ(rt2.phases.size(), 2u);  // join trees + refinement only.

  // R-tree join with one index pre-existing: exactly one build phase.
  PairSet one;
  JoinSpec one_spec =
      MakeSpec(JoinMethod::kRtree, SpatialPredicate::kIntersects, opts,
               Collect(&one));
  one_spec.r_index = &road_idx;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown rt1,
      RunJoin(env.pool(), roads_rel.AsInput(), rail_rel.AsInput(),
              one_spec));
  EXPECT_EQ(one, expected);
  EXPECT_EQ(rt1.phases.size(), 3u);

  // INL with a pre-existing index on rail: the facade probes with roads and
  // emits pairs in the caller's (roads, rail) orientation.
  PairSet inl;
  JoinSpec inl_spec = MakeSpec(JoinMethod::kInl,
                               SpatialPredicate::kIntersects, opts,
                               Collect(&inl));
  inl_spec.s_index = &rail_idx;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown inl_cost,
      RunJoin(env.pool(), roads_rel.AsInput(), rail_rel.AsInput(),
              inl_spec));
  // Probe + refinement: INL runs as a candidate producer feeding the
  // shared refinement operator.
  ASSERT_EQ(inl_cost.phases.size(), 2u);
  EXPECT_EQ(inl_cost.phases[0].first, "probe index");
  EXPECT_EQ(inl_cost.phases[1].first, "refinement");
  EXPECT_EQ(inl, expected);
}

TEST(JoinCostTest, BreakdownPhasesAreComplete) {
  // A deliberately tiny pool (16 frames) so the join must do physical I/O.
  StorageEnv env(16 * kPageSize);
  TigerGenerator gen(TigerGenerator::Params{});
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation roads,
      LoadRelation(env.pool(), nullptr, "road", gen.GenerateRoads(400)));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation hydro,
      LoadRelation(env.pool(), nullptr, "hydro",
                   gen.GenerateHydrography(150)));
  JoinOptions opts;
  opts.memory_budget_bytes = 64 << 10;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinCostBreakdown cost,
      RunJoin(env.pool(), roads.AsInput(), hydro.AsInput(),
              MakeSpec(JoinMethod::kPbsm, SpatialPredicate::kIntersects,
                       opts)));
  ASSERT_EQ(cost.phases.size(), 4u);
  EXPECT_EQ(cost.phases[0].first, "partition road");
  EXPECT_EQ(cost.phases[1].first, "partition hydro");
  EXPECT_EQ(cost.phases[2].first, "merge partitions");
  EXPECT_EQ(cost.phases[3].first, "refinement");
  // Partitioning wrote spools: physical writes must be recorded.
  EXPECT_GT(cost.phases[0].second.io.writes + cost.phases[1].second.io.writes,
            0u);
  EXPECT_GT(cost.Total().cpu_seconds, 0.0);
  EXPECT_GT(cost.Total().io.modeled_seconds, 0.0);
  EXPECT_GT(cost.num_partitions, 0u);
  EXPECT_GE(cost.num_tiles, cost.num_partitions);
}

}  // namespace
}  // namespace pbsm
