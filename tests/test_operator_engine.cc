// Operator-engine tests: the pull-based operator tree (src/exec) must
// produce the brute-force oracle's pair set across every method and option
// axis, and the pieces only the engine provides (multi-way joins,
// mid-pipeline cancellation, per-operator metrics, explain) must hold their
// own contracts.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "datagen/tiger_gen.h"
#include "exec/basic_ops.h"
#include "exec/plan_builder.h"
#include "service/join_service.h"
#include "tests/join_test_harness.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

using IdTripleSet = std::set<std::tuple<uint64_t, uint64_t, uint64_t>>;

/// Deterministic three-relation corpus on a shrunken universe (the full
/// Wisconsin extent would make small joins near-empty and the tests
/// vacuous).
struct Corpus {
  std::vector<Tuple> roads;
  std::vector<Tuple> hydro;
  std::vector<Tuple> rail;
};

Corpus MakeCorpus(uint64_t seed, uint64_t n_roads, uint64_t n_hydro,
                  uint64_t n_rail) {
  TigerGenerator::Params params;
  params.seed = seed;
  params.universe = Rect(params.universe.xlo, params.universe.ylo,
                         params.universe.xlo + params.universe.width() / 8,
                         params.universe.ylo + params.universe.height() / 8);
  TigerGenerator gen(params);
  Corpus c;
  c.roads = gen.GenerateRoads(n_roads);
  c.hydro = gen.GenerateHydrography(n_hydro);
  c.rail = gen.GenerateRail(n_rail);
  return c;
}

/// Composes the pairwise oracle into the 3-way expectation: every base
/// pair (a, b) extended by each rail tuple matching the stage column under
/// the stage predicate — exactly the left-deep semantics of SpatialJoinOp.
IdTripleSet ComposedOracle(const Corpus& c, SpatialPredicate base_pred,
                           SpatialPredicate stage_pred,
                           uint32_t join_column) {
  IdTripleSet out;
  const IdPairSet base = BruteForceJoin(c.roads, c.hydro, base_pred);
  std::map<uint64_t, const Tuple*> roads_by_id, hydro_by_id;
  for (const Tuple& t : c.roads) roads_by_id[t.id] = &t;
  for (const Tuple& t : c.hydro) hydro_by_id[t.id] = &t;
  for (const auto& [rid, sid] : base) {
    const Tuple& col =
        join_column == 0 ? *roads_by_id.at(rid) : *hydro_by_id.at(sid);
    const Rect col_mbr = col.geometry.Mbr();
    for (const Tuple& t : c.rail) {
      if (!col_mbr.Intersects(t.geometry.Mbr())) continue;
      if (EvaluatePredicate(stage_pred, col.geometry, t.geometry,
                            SegmentTestMode::kNaive)) {
        out.emplace(rid, sid, t.id);
      }
    }
  }
  return out;
}

// The engine differential: the operator tree must produce the brute-force
// oracle's pair set for all six methods, crossed with both dedup schemes
// (PBSM family; parallel_pbsm ignores the knob and must still match).
TEST(OperatorEngineTest, TreeMatchesOracleAcrossMethodsAndModes) {
  const Corpus c = MakeCorpus(/*seed=*/20260808, 150, 120, 0);
  for (const SpatialPredicate pred :
       {SpatialPredicate::kIntersects, SpatialPredicate::kContains}) {
    SCOPED_TRACE(pred == SpatialPredicate::kIntersects ? "intersects"
                                                       : "contains");
    const IdPairSet oracle = BruteForceJoin(c.roads, c.hydro, pred);
    StorageEnv env(512 * kPageSize);
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation r,
        LoadRelation(env.pool(), nullptr, "roads", c.roads));
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation s,
        LoadRelation(env.pool(), nullptr, "hydro", c.hydro));

    for (const JoinMethod method : AllJoinMethods()) {
      SCOPED_TRACE(JoinMethodName(method));
      const bool pbsm_family = method == JoinMethod::kPbsm ||
                               method == JoinMethod::kParallelPbsm;
      std::vector<DedupMode> dedup_modes = {DedupMode::kTwoLayer};
      if (pbsm_family) dedup_modes.push_back(DedupMode::kMerge);
      for (const DedupMode dedup : dedup_modes) {
        SCOPED_TRACE(DedupModeName(dedup));
        JoinSpec spec;
        spec.method = method;
        spec.predicate = pred;
        spec.options.memory_budget_bytes = 1 << 20;
        spec.options.num_tiles = 64;
        spec.options.num_threads = 2;
        spec.options.dedup_mode = dedup;

        PBSM_ASSERT_OK_AND_ASSIGN(
            const IdPairSet tree_pairs,
            RunJoinToIdPairs(env.pool(), r, s, spec));
        EXPECT_EQ(tree_pairs, oracle);
      }
    }
  }
}

// 3-way join through nested SpatialJoinOps vs the composed pairwise
// brute-force oracle, on both joinable columns of the accumulated row.
TEST(OperatorEngineTest, MultiwayMatchesComposedOracle) {
  const Corpus c = MakeCorpus(/*seed=*/20260809, 120, 100, 90);
  StorageEnv env(512 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation roads,
      LoadRelation(env.pool(), nullptr, "roads", c.roads));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation hydro,
      LoadRelation(env.pool(), nullptr, "hydro", c.hydro));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation rail,
      LoadRelation(env.pool(), nullptr, "rail", c.rail));
  PBSM_ASSERT_OK_AND_ASSIGN(const auto roads_ids, OidToIdMap(roads.heap));
  PBSM_ASSERT_OK_AND_ASSIGN(const auto hydro_ids, OidToIdMap(hydro.heap));
  PBSM_ASSERT_OK_AND_ASSIGN(const auto rail_ids, OidToIdMap(rail.heap));

  for (const uint32_t join_column : {0u, 1u}) {
    SCOPED_TRACE("join_column=" + std::to_string(join_column));
    const IdTripleSet expected =
        ComposedOracle(c, SpatialPredicate::kIntersects,
                       SpatialPredicate::kIntersects, join_column);

    MultiwayJoinSpec spec;
    spec.first = roads.AsInput();
    spec.second = hydro.AsInput();
    spec.base.method = JoinMethod::kPbsm;
    spec.base.predicate = SpatialPredicate::kIntersects;
    spec.base.options.memory_budget_bytes = 1 << 20;
    spec.base.options.num_tiles = 64;
    MultiwayStage stage;
    stage.input = rail.AsInput();
    stage.predicate = SpatialPredicate::kIntersects;
    stage.join_column = join_column;
    spec.stages.push_back(stage);

    const std::unique_ptr<Operator> tree = BuildMultiwayTree(spec);
    ASSERT_EQ(tree->arity(), 3u);

    ExecContext ctx;
    ctx.pool = env.pool();
    IdTripleSet got;
    PBSM_ASSERT_OK(DriveTree(tree.get(), &ctx,
                             [&](const uint64_t* row, uint32_t arity) {
                               ASSERT_EQ(arity, 3u);
                               got.emplace(roads_ids.at(row[0]),
                                           hydro_ids.at(row[1]),
                                           rail_ids.at(row[2]));
                             }));
    EXPECT_EQ(got, expected);
    EXPECT_EQ(env.pool()->pinned_frames(), 0u);
  }
}

// Mid-pipeline cancellation: with tiny batches, cancel after k root
// batches for increasing k — the poll lands between batches at every
// stage of the 3-way pipeline as the operators advance through their
// streams. After the cancelled drive: no pinned frames, and the spans
// open at the moment of cancellation were flushed to finished records.
TEST(OperatorEngineTest, CancellationBetweenBatchesReleasesEverything) {
  const Corpus c = MakeCorpus(/*seed=*/20260810, 120, 100, 90);
  StorageEnv env(512 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation roads,
      LoadRelation(env.pool(), nullptr, "roads", c.roads));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation hydro,
      LoadRelation(env.pool(), nullptr, "hydro", c.hydro));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation rail,
      LoadRelation(env.pool(), nullptr, "rail", c.rail));

  MultiwayJoinSpec spec;
  spec.first = roads.AsInput();
  spec.second = hydro.AsInput();
  spec.base.method = JoinMethod::kPbsm;
  spec.base.predicate = SpatialPredicate::kIntersects;
  spec.base.options.memory_budget_bytes = 1 << 20;
  spec.base.options.num_tiles = 64;
  MultiwayStage stage;
  stage.input = rail.AsInput();
  stage.join_column = 1;
  spec.stages.push_back(stage);

  Tracer& tracer = Tracer::Global();
  const bool was_enabled = tracer.enabled();
  tracer.set_enabled(true);

  for (const size_t cancel_after : {0u, 1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("cancel_after=" + std::to_string(cancel_after));
    const std::unique_ptr<Operator> tree = BuildMultiwayTree(spec);
    Canceller cancel;
    ExecContext ctx;
    ctx.pool = env.pool();
    ctx.cancel = &cancel;
    ctx.batch_rows = 4;  // Many batch boundaries at every pipeline depth.

    tracer.Clear();
    Status drive_status;
    {
      // An open outer span: cancellation must flush it to a finished
      // record even though this scope has not exited yet.
      TraceSpan outer("test/cancel_outer");
      PBSM_ASSERT_OK(tree->Open(&ctx));
      RowBatch batch;
      size_t batches = 0;
      while (true) {
        if (batches >= cancel_after) {
          cancel.Cancel(Status::Cancelled("test cancellation"));
        }
        Result<bool> more = tree->Next(&batch);
        if (!more.ok()) {
          drive_status = more.status();
          break;
        }
        if (!more.value()) break;
        ++batches;
      }
      ASSERT_EQ(drive_status.code(), StatusCode::kCancelled)
          << drive_status.ToString();

      bool outer_flushed = false;
      for (const SpanRecord& span : tracer.FinishedSpans()) {
        if (span.name == "test/cancel_outer") outer_flushed = true;
      }
      EXPECT_TRUE(outer_flushed)
          << "open spans were not flushed at cancellation";

      PBSM_ASSERT_OK(tree->Close());
    }
    EXPECT_EQ(env.pool()->pinned_frames(), 0u);
  }
  tracer.set_enabled(was_enabled);
}

// Every operator accounts its work into exec.<op>.* counters, and the
// facade's per-join metrics delta carries them.
TEST(OperatorEngineTest, ExecMetricsAccountBatchesAndRows) {
  const Corpus c = MakeCorpus(/*seed=*/20260811, 100, 80, 0);
  StorageEnv env(512 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation r,
      LoadRelation(env.pool(), nullptr, "roads", c.roads));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation s,
      LoadRelation(env.pool(), nullptr, "hydro", c.hydro));

  JoinSpec spec;
  spec.method = JoinMethod::kPbsm;
  spec.options.memory_budget_bytes = 1 << 20;
  uint64_t sink_pairs = 0;
  spec.sink = [&sink_pairs](Oid, Oid) { ++sink_pairs; };
  PBSM_ASSERT_OK_AND_ASSIGN(
      const JoinResult result,
      SpatialJoin(env.pool(), r.AsInput(), s.AsInput(), spec));

  ASSERT_GT(result.num_results, 0u);
  EXPECT_EQ(sink_pairs, result.num_results);
  EXPECT_GE(result.metrics.counter("exec.filter_join.batches"), 1u);
  EXPECT_GE(result.metrics.counter("exec.refine.batches"), 1u);
  EXPECT_EQ(result.metrics.counter("exec.refine.rows_out"),
            result.num_results);
  EXPECT_GE(result.metrics.counter("exec.filter_join.rows_out"),
            result.num_results);
}

// The planner's costed operator tree and the service explain endpoint:
// plans are printable, line up with the exec-layer tree, and nothing
// executes (no index is built into the cache).
TEST(OperatorEngineTest, PlannerTreeAndServiceExplain) {
  const Corpus c = MakeCorpus(/*seed=*/20260812, 120, 90, 0);
  StorageEnv env(512 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation r,
      LoadRelation(env.pool(), nullptr, "roads", c.roads));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation s,
      LoadRelation(env.pool(), nullptr, "hydro", c.hydro));

  // Planner level: the tree mirrors BuildJoinTree's shape.
  PlannerSide pr{&r.info, nullptr, false};
  PlannerSide ps{&s.info, nullptr, false};
  const PlanChoice plan = PlanJoin(pr, ps);
  ASSERT_FALSE(plan.operator_tree.empty());
  if (plan.method == JoinMethod::kParallelPbsm) {
    EXPECT_EQ(plan.operator_tree[0].op, "parallel_join");
  } else {
    ASSERT_EQ(plan.operator_tree.size(), 2u);
    EXPECT_EQ(plan.operator_tree[0].op, "refine");
    EXPECT_EQ(plan.operator_tree[0].depth, 0);
    EXPECT_EQ(plan.operator_tree[1].op, "filter_join");
    EXPECT_EQ(plan.operator_tree[1].depth, 1);
    EXPECT_GT(plan.operator_tree[1].est_rows, 0.0);
  }
  EXPECT_NE(plan.TreeString().find("rows~"), std::string::npos);

  // Service level: explain plans without executing.
  JoinServiceConfig config;
  config.num_workers = 1;
  JoinService service(env.pool(), config);
  PBSM_ASSERT_OK(service.RegisterDataset("R", &r.heap, r.info));
  PBSM_ASSERT_OK(service.RegisterDataset("S", &s.heap, s.info));

  JoinRequest request;
  request.r_dataset = "R";
  request.s_dataset = "S";
  PBSM_ASSERT_OK_AND_ASSIGN(const ExplainResult planned,
                            service.Explain(request));
  EXPECT_TRUE(planned.planner_chosen);
  EXPECT_FALSE(planned.plan.empty());
  EXPECT_FALSE(planned.cost_tree.empty());
  EXPECT_FALSE(planned.tree.empty());
  EXPECT_EQ(service.cache().size(), 0u) << "explain must not build indexes";

  request.method = JoinMethod::kPbsm;
  PBSM_ASSERT_OK_AND_ASSIGN(const ExplainResult forced,
                            service.Explain(request));
  EXPECT_FALSE(forced.planner_chosen);
  EXPECT_NE(forced.tree.find("pbsm filter"), std::string::npos);

  request.window = Rect(0, 0, 1, 1);
  PBSM_ASSERT_OK_AND_ASSIGN(const ExplainResult windowed,
                            service.Explain(request));
  EXPECT_NE(windowed.tree.find("select"), std::string::npos);

  request.r_dataset = "missing";
  EXPECT_EQ(service.Explain(request).status().code(), StatusCode::kNotFound);
  service.Shutdown();
}

}  // namespace
}  // namespace pbsm
