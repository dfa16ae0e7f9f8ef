#include "core/spatial_join.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "core/index_build.h"
#include "datagen/loader.h"
#include "datagen/tiger_gen.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

ResultSink Collect(PairSet* out) {
  return [out](Oid r, Oid s) { out->emplace(r.Encode(), s.Encode()); };
}

class SpatialJoinApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TigerGenerator::Params params;
    params.seed = 1337;
    TigerGenerator gen(params);
    roads_ = gen.GenerateRoads(600);
    hydro_ = gen.GenerateHydrography(250);
  }

  JoinSpec BaseSpec(JoinMethod method) const {
    JoinSpec spec;
    spec.method = method;
    spec.options.memory_budget_bytes = 1 << 20;
    spec.options.num_tiles = 256;
    return spec;
  }

  /// Loads both relations into `env` and runs the facade.
  JoinResult RunFacade(StorageEnv* env, JoinSpec spec, PairSet* pairs) {
    auto r = LoadRelation(env->pool(), nullptr, "road", roads_);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    auto s = LoadRelation(env->pool(), nullptr, "hydro", hydro_);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    if (pairs != nullptr) spec.sink = Collect(pairs);
    auto result = SpatialJoin(env->pool(), r->AsInput(), s->AsInput(), spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(*result);
  }

  std::vector<Tuple> roads_;
  std::vector<Tuple> hydro_;
};

TEST_F(SpatialJoinApiTest, MethodNamesRoundTrip) {
  for (const JoinMethod m :
       {JoinMethod::kPbsm, JoinMethod::kParallelPbsm, JoinMethod::kInl,
        JoinMethod::kRtree, JoinMethod::kSpatialHash, JoinMethod::kZOrder}) {
    const auto parsed = ParseJoinMethod(JoinMethodName(m));
    ASSERT_TRUE(parsed.has_value()) << JoinMethodName(m);
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(ParseJoinMethod("quadtree").has_value());
}

TEST_F(SpatialJoinApiTest, AllSixMethodsAgreeOnPairSet) {
  // Ground truth: serial PBSM through the facade.
  PairSet expected;
  {
    StorageEnv env(512 * kPageSize);
    RunFacade(&env, BaseSpec(JoinMethod::kPbsm), &expected);
  }
  ASSERT_GT(expected.size(), 0u) << "seed data produces no join results";

  for (const JoinMethod m :
       {JoinMethod::kPbsm, JoinMethod::kParallelPbsm, JoinMethod::kInl,
        JoinMethod::kRtree, JoinMethod::kSpatialHash, JoinMethod::kZOrder}) {
    StorageEnv env(512 * kPageSize);
    PairSet pairs;
    const JoinResult result = RunFacade(&env, BaseSpec(m), &pairs);
    EXPECT_EQ(pairs, expected) << "method " << JoinMethodName(m);
    EXPECT_EQ(result.num_results, expected.size())
        << "method " << JoinMethodName(m);
    EXPECT_EQ(result.method, m);
    EXPECT_GT(result.wall_seconds, 0.0);
  }
}

TEST_F(SpatialJoinApiTest, ResultsAreDeterministicAcrossEnvironments) {
  // Same data, fresh storage: every method must report identical counts on
  // repeat runs (the facade owns all remaining join entry points, so this
  // pins down end-to-end reproducibility).
  for (const JoinMethod m : {JoinMethod::kRtree, JoinMethod::kInl,
                             JoinMethod::kSpatialHash}) {
    uint64_t counts[2];
    for (int i = 0; i < 2; ++i) {
      StorageEnv env(512 * kPageSize);
      counts[i] = RunFacade(&env, BaseSpec(m), nullptr).num_results;
    }
    EXPECT_EQ(counts[0], counts[1]) << "method " << JoinMethodName(m);
    EXPECT_GT(counts[0], 0u);
  }
}

TEST_F(SpatialJoinApiTest, InlSinkPairsAreOrientedRtoS) {
  // The facade indexes the smaller side (hydro == s) for kInl, but emitted
  // pairs must still be (road_oid, hydro_oid). Cross-check against PBSM.
  StorageEnv env_a(512 * kPageSize);
  PairSet pbsm_pairs;
  RunFacade(&env_a, BaseSpec(JoinMethod::kPbsm), &pbsm_pairs);
  StorageEnv env_b(512 * kPageSize);
  PairSet inl_pairs;
  RunFacade(&env_b, BaseSpec(JoinMethod::kInl), &inl_pairs);
  EXPECT_EQ(inl_pairs, pbsm_pairs);
}

TEST_F(SpatialJoinApiTest, ResultCarriesMetricsDelta) {
  StorageEnv env(512 * kPageSize);
  const JoinResult result =
      RunFacade(&env, BaseSpec(JoinMethod::kPbsm), nullptr);
  // The delta must reflect this join's own activity, not process history.
  EXPECT_GT(result.metrics.counter("storage.bufferpool.hits") +
                result.metrics.counter("storage.bufferpool.misses"),
            0u);
  EXPECT_EQ(result.metrics.counter("join.results"), result.num_results);
  EXPECT_EQ(result.metrics.counter("join.refine.true_positives"),
            result.num_results);
  EXPECT_EQ(result.metrics.counter("join.runs.pbsm"), 1u);
}

TEST_F(SpatialJoinApiTest, TraceSpansCoverJoinPhases) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  StorageEnv env(512 * kPageSize);
  RunFacade(&env, BaseSpec(JoinMethod::kPbsm), nullptr);
  bool found_join = false, found_refinement = false;
  for (const SpanRecord& span : tracer.FinishedSpans()) {
    if (span.name == "join/pbsm") found_join = true;
    if (span.name == "refinement") found_refinement = true;
  }
  EXPECT_TRUE(found_join);
  EXPECT_TRUE(found_refinement);
}

TEST_F(SpatialJoinApiTest, CancelledJoinStillFlushesRefinementSpan) {
  // Regression: a Canceller abort mid-refinement returns from inside the
  // refine loop while its span is still open; the executor must flush open
  // spans before surfacing kCancelled, or the trace loses the refinement
  // phase exactly on the runs one wants to debug.
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  StorageEnv env(512 * kPageSize);
  auto r = LoadRelation(env.pool(), nullptr, "road", roads_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto s = LoadRelation(env.pool(), nullptr, "hydro", hydro_);
  ASSERT_TRUE(s.ok()) << s.status().ToString();

  Canceller canceller;
  JoinSpec spec = BaseSpec(JoinMethod::kPbsm);
  spec.options.cancel = &canceller;
  // Cancel from the sink: the first emitted pair proves the join is inside
  // the refinement loop, so the abort lands mid-refinement.
  spec.sink = [&canceller](Oid, Oid) { canceller.Cancel(); };
  const auto result = SpatialJoin(env.pool(), r->AsInput(), s->AsInput(), spec);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  bool found_refinement = false;
  for (const SpanRecord& span : tracer.FinishedSpans()) {
    if (span.name == "refinement") found_refinement = true;
  }
  EXPECT_TRUE(found_refinement);
}

TEST_F(SpatialJoinApiTest, PreexistingIndexIsUsed) {
  StorageEnv env(512 * kPageSize);
  auto r = LoadRelation(env.pool(), nullptr, "road", roads_);
  ASSERT_TRUE(r.ok());
  auto s = LoadRelation(env.pool(), nullptr, "hydro", hydro_);
  ASSERT_TRUE(s.ok());
  JoinSpec spec = BaseSpec(JoinMethod::kInl);
  PBSM_ASSERT_OK_AND_ASSIGN(
      RStarTree index,
      BuildIndexByBulkLoad(env.pool(), r->AsInput(), "pre_r.rtree",
                           spec.options.index_fill_factor));
  spec.r_index = &index;
  PairSet with_index;
  spec.sink = Collect(&with_index);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinResult result,
      SpatialJoin(env.pool(), r->AsInput(), s->AsInput(), spec));
  EXPECT_EQ(with_index.size(), result.num_results);
  // No "build index" phase when the index is supplied.
  for (const auto& [name, cost] : result.breakdown.phases) {
    EXPECT_EQ(name.find("build index"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace pbsm
