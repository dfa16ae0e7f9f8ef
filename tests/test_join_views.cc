// Incrementally-maintained join views: after any interleaving of inserts
// and deletes, the view must equal a from-scratch recomputation over the
// live tuples — the delta joins add exactly the new pairs (duplicate-free
// via the reference-corner rule) and deletes remove exactly the dead ones.
// Plus the service endpoints that expose views (create/query/mutate/drop)
// and their index-cache invalidation hooks.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datagen/tiger_gen.h"
#include "exec/view_maintainer.h"
#include "service/join_service.h"
#include "tests/join_test_harness.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

using Side = MaterializedJoinView::Side;
using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

/// Live tuples of one side, by encoded OID.
using LiveMap = std::map<uint64_t, Tuple>;

/// From-scratch recomputation over the live tuples — the oracle every
/// incremental state must equal. OID space, not id space: the view stores
/// OID pairs.
PairSet Recompute(const LiveMap& live_r, const LiveMap& live_s,
                  SpatialPredicate pred) {
  PairSet out;
  for (const auto& [ro, tr] : live_r) {
    const Rect r_mbr = tr.geometry.Mbr();
    for (const auto& [so, ts] : live_s) {
      if (!r_mbr.Intersects(ts.geometry.Mbr())) continue;
      if (EvaluatePredicate(pred, tr.geometry, ts.geometry,
                            SegmentTestMode::kNaive)) {
        out.emplace(ro, so);
      }
    }
  }
  return out;
}

PairSet ViewPairs(const MaterializedJoinView& view) {
  PairSet out;
  for (const OidPair& p : view.Pairs()) out.emplace(p.r, p.s);
  return out;
}

/// Scans a heap into a LiveMap (initial state after LoadRelation).
Result<LiveMap> ScanLive(const HeapFile& heap) {
  LiveMap live;
  PBSM_RETURN_IF_ERROR(heap.Scan(
      [&live](Oid oid, const char* data, size_t size) -> Status {
        PBSM_ASSIGN_OR_RETURN(const Tuple tuple, Tuple::Parse(data, size));
        live.emplace(oid.Encode(), tuple);
        return Status::OK();
      }));
  return live;
}

TEST(JoinViewTest, RandomizedWorkloadMatchesRecompute) {
  TigerGenerator::Params params;
  params.seed = 20260814;
  params.universe = Rect(params.universe.xlo, params.universe.ylo,
                         params.universe.xlo + params.universe.width() / 8,
                         params.universe.ylo + params.universe.height() / 8);
  TigerGenerator gen(params);
  // The loaded base plus a reserve pool the workload draws inserts from.
  std::vector<Tuple> roads = gen.GenerateRoads(60);
  std::vector<Tuple> hydro = gen.GenerateHydrography(50);
  std::vector<Tuple> extra_r = gen.GenerateRoads(40);
  std::vector<Tuple> extra_s = gen.GenerateHydrography(40);

  StorageEnv env(512 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(StoredRelation r, LoadRelation(env.pool(),
                                                           nullptr, "roads",
                                                           roads));
  PBSM_ASSERT_OK_AND_ASSIGN(StoredRelation s, LoadRelation(env.pool(),
                                                           nullptr, "hydro",
                                                           hydro));
  PBSM_ASSERT_OK_AND_ASSIGN(LiveMap live_r, ScanLive(r.heap));
  PBSM_ASSERT_OK_AND_ASSIGN(LiveMap live_s, ScanLive(s.heap));

  const SpatialPredicate pred = SpatialPredicate::kIntersects;
  MaterializedJoinView::Config config;
  config.name = "roads_x_hydro";
  config.predicate = pred;
  config.num_tiles = 64;
  config.base.options.memory_budget_bytes = 1 << 20;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const auto view,
      MaterializedJoinView::Build(env.pool(), r.AsInput(), s.AsInput(),
                                  config));

  // The build itself must equal the oracle before any mutation.
  ASSERT_EQ(ViewPairs(*view), Recompute(live_r, live_s, pred));

  Rng rng(0xFEEDBEEF);
  size_t next_r = 0, next_s = 0;
  for (int op = 0; op < 60; ++op) {
    SCOPED_TRACE("op=" + std::to_string(op));
    const bool mutate_r = rng.Bernoulli(0.5);
    Side side = mutate_r ? Side::kR : Side::kS;
    LiveMap& live = mutate_r ? live_r : live_s;
    // Insert when the reserve has tuples left and a coin says so, or when
    // the side is empty (nothing left to delete).
    std::vector<Tuple>& reserve = mutate_r ? extra_r : extra_s;
    size_t& next = mutate_r ? next_r : next_s;
    const bool do_insert =
        live.empty() || (next < reserve.size() && rng.Bernoulli(0.55));
    if (do_insert && next < reserve.size()) {
      const Tuple& tuple = reserve[next++];
      const std::string record = tuple.Serialize();
      HeapFile& heap = mutate_r ? r.heap : s.heap;
      PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, heap.Append(record));
      PBSM_ASSERT_OK(view->Insert(side, oid, tuple));
      live.emplace(oid.Encode(), tuple);
    } else {
      // Delete a pseudo-random live tuple.
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      PBSM_ASSERT_OK(view->Delete(side, Oid::Decode(it->first)));
      live.erase(it);
    }
    ASSERT_EQ(ViewPairs(*view), Recompute(live_r, live_s, pred));
    ASSERT_EQ(view->num_r(), live_r.size());
    ASSERT_EQ(view->num_s(), live_s.size());
  }
  EXPECT_EQ(env.pool()->pinned_frames(), 0u);
}

TEST(JoinViewTest, MutationErrorsAreReported) {
  TigerGenerator::Params params;
  params.seed = 20260815;
  params.universe = Rect(params.universe.xlo, params.universe.ylo,
                         params.universe.xlo + params.universe.width() / 8,
                         params.universe.ylo + params.universe.height() / 8);
  TigerGenerator gen(params);
  StorageEnv env(256 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      StoredRelation r,
      LoadRelation(env.pool(), nullptr, "roads", gen.GenerateRoads(20)));
  PBSM_ASSERT_OK_AND_ASSIGN(
      StoredRelation s,
      LoadRelation(env.pool(), nullptr, "hydro",
                   gen.GenerateHydrography(20)));

  MaterializedJoinView::Config config;
  config.name = "v";
  PBSM_ASSERT_OK_AND_ASSIGN(
      const auto view,
      MaterializedJoinView::Build(env.pool(), r.AsInput(), s.AsInput(),
                                  config));
  PBSM_ASSERT_OK_AND_ASSIGN(const LiveMap live_r, ScanLive(r.heap));
  ASSERT_FALSE(live_r.empty());
  const Oid existing = Oid::Decode(live_r.begin()->first);

  // Re-inserting a present OID is an error, not a silent overwrite.
  EXPECT_EQ(view->Insert(Side::kR, existing, live_r.begin()->second).code(),
            StatusCode::kInvalidArgument);
  // Deleting an unknown OID reports NotFound.
  EXPECT_EQ(view->Delete(Side::kS, Oid{9999, 77}).code(),
            StatusCode::kNotFound);
  // A real delete then succeeds and a second one reports NotFound.
  PBSM_ASSERT_OK(view->Delete(Side::kR, existing));
  EXPECT_EQ(view->Delete(Side::kR, existing).code(), StatusCode::kNotFound);
}

// The service endpoints around views: create + list + query, mutation with
// index-cache invalidation, and the drop-ordering contract with datasets.
TEST(JoinViewTest, ServiceViewEndpoints) {
  TigerGenerator::Params params;
  params.seed = 20260816;
  params.universe = Rect(params.universe.xlo, params.universe.ylo,
                         params.universe.xlo + params.universe.width() / 8,
                         params.universe.ylo + params.universe.height() / 8);
  TigerGenerator gen(params);
  std::vector<Tuple> roads = gen.GenerateRoads(80);
  std::vector<Tuple> hydro = gen.GenerateHydrography(60);
  std::vector<Tuple> extra = gen.GenerateRoads(90);

  StorageEnv env(512 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      StoredRelation r, LoadRelation(env.pool(), nullptr, "roads", roads));
  PBSM_ASSERT_OK_AND_ASSIGN(
      StoredRelation s, LoadRelation(env.pool(), nullptr, "hydro", hydro));

  JoinServiceConfig config;
  config.num_workers = 1;
  JoinService service(env.pool(), config);
  PBSM_ASSERT_OK(service.RegisterDataset("R", &r.heap, r.info));
  PBSM_ASSERT_OK(service.RegisterDataset("S", &s.heap, s.info));

  // Unknown datasets and duplicate names are rejected.
  EXPECT_EQ(service.CreateView("v", "R", "nope").code(),
            StatusCode::kNotFound);
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  PBSM_ASSERT_OK(service.CreateView("v", "R", "S"));
  EXPECT_EQ(service.CreateView("v", "R", "S").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().Delta(before).counter(
                "view.builds"),
            1u);
  EXPECT_EQ(service.ListViews(), std::vector<std::string>{"v"});

  // The view equals the join the service would run.
  JoinRequest request;
  request.r_dataset = "R";
  request.s_dataset = "S";
  request.method = JoinMethod::kPbsm;
  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse joined,
                            service.Execute(request));
  PairSet view_pairs;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const uint64_t num_pairs,
      service.QueryView("v", [&view_pairs](Oid ro, Oid so) {
        view_pairs.emplace(ro.Encode(), so.Encode());
      }));
  EXPECT_EQ(num_pairs, joined.num_results);
  EXPECT_EQ(view_pairs.size(), num_pairs);
  EXPECT_EQ(service.QueryView("ghost", {}).status().code(),
            StatusCode::kNotFound);

  // Warm the index cache, then mutate through the view: the cached tree
  // over the mutated dataset must be invalidated.
  request.method = JoinMethod::kRtree;
  PBSM_ASSERT_OK(service.Execute(request).status());
  ASSERT_EQ(service.cache().size(), 2u);  // One tree per side.
  const Tuple& added = extra.front();
  PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, r.heap.Append(added.Serialize()));
  PBSM_ASSERT_OK(service.ViewInsert("v", Side::kR, oid, added));
  EXPECT_EQ(service.cache().size(), 1u)
      << "view mutation must invalidate the cached index over the mutated "
         "side (and only that side)";

  // The mutation is visible to QueryView immediately.
  PBSM_ASSERT_OK_AND_ASSIGN(const uint64_t after_insert,
                            service.QueryView("v", {}));
  PBSM_ASSERT_OK(service.ViewDelete("v", Side::kR, oid));
  PBSM_ASSERT_OK_AND_ASSIGN(const uint64_t after_delete,
                            service.QueryView("v", {}));
  EXPECT_EQ(after_delete, num_pairs);
  EXPECT_GE(after_insert, after_delete);

  // A dataset cannot be dropped out from under a view.
  EXPECT_EQ(service.DropDataset("R").code(), StatusCode::kFailedPrecondition);
  PBSM_ASSERT_OK(service.DropView("v"));
  EXPECT_EQ(service.DropView("v").code(), StatusCode::kNotFound);
  PBSM_ASSERT_OK(service.DropDataset("R"));
  service.Shutdown();
}

// QueryView must report the count of the pair set it streamed, even while
// another client inserts into and deletes from the view.
TEST(JoinViewTest, QueryViewCountMatchesStreamUnderMutation) {
  TigerGenerator::Params params;
  params.seed = 20260817;
  params.universe = Rect(params.universe.xlo, params.universe.ylo,
                         params.universe.xlo + params.universe.width() / 8,
                         params.universe.ylo + params.universe.height() / 8);
  TigerGenerator gen(params);
  StorageEnv env(512 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(
      StoredRelation r,
      LoadRelation(env.pool(), nullptr, "roads", gen.GenerateRoads(80)));
  PBSM_ASSERT_OK_AND_ASSIGN(
      StoredRelation s,
      LoadRelation(env.pool(), nullptr, "hydro", gen.GenerateHydrography(60)));

  JoinServiceConfig config;
  config.num_workers = 1;
  JoinService service(env.pool(), config);
  PBSM_ASSERT_OK(service.RegisterDataset("R", &r.heap, r.info));
  PBSM_ASSERT_OK(service.RegisterDataset("S", &s.heap, s.info));
  PBSM_ASSERT_OK(service.CreateView("v", "R", "S"));
  PBSM_ASSERT_OK_AND_ASSIGN(const uint64_t base, service.QueryView("v", {}));

  // An R tuple that adds pairs, so every insert and delete changes the
  // count a concurrent query could read.
  std::vector<std::pair<Oid, Tuple>> adders;
  for (const Tuple& t : gen.GenerateRoads(200)) {
    PBSM_ASSERT_OK_AND_ASSIGN(const Oid oid, r.heap.Append(t.Serialize()));
    PBSM_ASSERT_OK(service.ViewInsert("v", Side::kR, oid, t));
    PBSM_ASSERT_OK_AND_ASSIGN(const uint64_t n, service.QueryView("v", {}));
    PBSM_ASSERT_OK(service.ViewDelete("v", Side::kR, oid));
    if (n > base) adders.emplace_back(oid, t);
    if (adders.size() == 4) break;
  }
  ASSERT_FALSE(adders.empty()) << "no generated road joins the view";

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& [oid, tuple] : adders) {
        EXPECT_TRUE(service.ViewInsert("v", Side::kR, oid, tuple).ok());
        EXPECT_TRUE(service.ViewDelete("v", Side::kR, oid).ok());
      }
    }
  });
  for (int i = 0; i < 2000; ++i) {
    uint64_t streamed = 0;
    const Result<uint64_t> count =
        service.QueryView("v", [&streamed](Oid, Oid) { ++streamed; });
    if (!count.ok()) {
      ADD_FAILURE() << count.status().ToString();
      break;
    }
    if (*count != streamed) {
      ADD_FAILURE() << "query " << i << " reported " << *count
                    << " pairs but streamed " << streamed;
      break;
    }
  }
  stop.store(true);
  mutator.join();
  PBSM_ASSERT_OK(service.DropView("v"));
  service.Shutdown();
}

}  // namespace
}  // namespace pbsm
