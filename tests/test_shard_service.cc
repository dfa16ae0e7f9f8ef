// Sharded service tests: scatter-gather correctness against the
// single-shard oracle, concurrent multi-client traffic, mid-flight
// cancellation reaching every shard, graceful drain, whole-query
// backpressure, forced-skew partition stealing, and per-shard admission
// under an oversubscribed burst. Runs under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "datagen/loader.h"
#include "datagen/tiger_gen.h"
#include "service/join_service.h"
#include "service/shard_manager.h"
#include "tests/join_test_harness.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

class ShardServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TigerGenerator::Params params;
    params.seed = 42;
    TigerGenerator gen(params);
    roads_ = gen.GenerateRoads(1200);
    hydro_ = gen.GenerateHydrography(500);
  }

  /// Global (caller-side) relations + a ShardManager with both registered.
  struct Env {
    StorageEnv storage{4096 * kPageSize};
    std::optional<StoredRelation> road, hydro;
    std::optional<ShardManager> shards;
    std::map<uint64_t, uint64_t> road_ids, hydro_ids;  // Global OID -> id.
  };

  void Start(Env* env, uint32_t num_shards) {
    auto road = LoadRelation(env->storage.pool(), nullptr, "road", roads_);
    ASSERT_TRUE(road.ok()) << road.status().ToString();
    env->road.emplace(std::move(road).value());
    auto hydro = LoadRelation(env->storage.pool(), nullptr, "hydro", hydro_);
    ASSERT_TRUE(hydro.ok()) << hydro.status().ToString();
    env->hydro.emplace(std::move(hydro).value());

    ShardManagerConfig config;
    config.num_shards = num_shards;
    env->shards.emplace(config);
    PBSM_ASSERT_OK(env->shards->RegisterDataset("road", &env->road->heap,
                                                env->road->info));
    PBSM_ASSERT_OK(env->shards->RegisterDataset("hydro", &env->hydro->heap,
                                                env->hydro->info));

    PBSM_ASSERT_OK_AND_ASSIGN(env->road_ids, OidToIdMap(env->road->heap));
    PBSM_ASSERT_OK_AND_ASSIGN(env->hydro_ids, OidToIdMap(env->hydro->heap));
  }

  /// Executes `request` on the router with a thread-safe collecting sink
  /// (router sinks run concurrently from shard workers) and returns the
  /// pairs in tuple-id space.
  Result<IdPairSet> RunToIdPairs(JoinService* router, Env* env,
                                 JoinRequest request,
                                 JoinResponse* response_out = nullptr) {
    std::mutex mutex;
    std::vector<std::pair<Oid, Oid>> raw;
    request.sink = [&mutex, &raw](Oid ro, Oid so) {
      std::lock_guard<std::mutex> lock(mutex);
      raw.emplace_back(ro, so);
    };
    PBSM_ASSIGN_OR_RETURN(const JoinResponse response,
                          router->Execute(std::move(request)));
    if (response_out != nullptr) *response_out = response;
    IdPairSet out;
    for (const auto& [ro, so] : raw) {
      out.emplace(env->road_ids.at(ro.Encode()),
                  env->hydro_ids.at(so.Encode()));
    }
    EXPECT_EQ(out.size(), response.num_results)
        << "duplicate or dropped pairs across the gather";
    return out;
  }

  void ExpectZeroPinnedPerShard(const Env& env) {
    for (uint32_t i = 0; i < env.shards->num_shards(); ++i) {
      EXPECT_EQ(env.shards->shard(i).pool->pinned_frames(), 0u)
          << "shard " << i << " leaked pinned frames";
    }
  }

  std::vector<Tuple> roads_;
  std::vector<Tuple> hydro_;
};

TEST_F(ShardServiceTest, ScatterGatherMatchesOracleForcedAndPlanned) {
  Env env;
  Start(&env, 4);
  const IdPairSet oracle =
      BruteForceJoin(roads_, hydro_, SpatialPredicate::kIntersects);

  JoinService router(&*env.shards, {});
  JoinRequest forced;
  forced.r_dataset = "road";
  forced.s_dataset = "hydro";
  forced.method = JoinMethod::kPbsm;
  JoinResponse response;
  PBSM_ASSERT_OK_AND_ASSIGN(const IdPairSet got,
                            RunToIdPairs(&router, &env, forced, &response));
  EXPECT_EQ(got, oracle);
  EXPECT_EQ(response.shard_slices.size(), 4u);
  uint64_t slice_sum = 0;
  for (const ShardSliceStats& slice : response.shard_slices) {
    slice_sum += slice.num_results;
  }
  EXPECT_EQ(slice_sum, oracle.size());

  // Planner path: per-shard plans, same gathered pairs.
  JoinRequest planned;
  planned.r_dataset = "road";
  planned.s_dataset = "hydro";
  JoinResponse planned_response;
  PBSM_ASSERT_OK_AND_ASSIGN(
      const IdPairSet planned_got,
      RunToIdPairs(&router, &env, planned, &planned_response));
  EXPECT_EQ(planned_got, oracle);
  EXPECT_TRUE(planned_response.planner_chosen);
  EXPECT_FALSE(planned_response.plan.empty());

  router.Shutdown(/*drain=*/true);
  ExpectZeroPinnedPerShard(env);
}

TEST_F(ShardServiceTest, ConcurrentMultiClientScatterGather) {
  Env env;
  Start(&env, 4);
  const IdPairSet oracle =
      BruteForceJoin(roads_, hydro_, SpatialPredicate::kIntersects);

  JoinService router(&*env.shards, {});

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 3;
  const std::vector<JoinMethod> methods = {
      JoinMethod::kPbsm, JoinMethod::kRtree, JoinMethod::kSpatialHash};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        JoinRequest request;
        request.r_dataset = "road";
        request.s_dataset = "hydro";
        request.method = methods[(c + q) % methods.size()];
        request.priority = (c % 2 == 0) ? QueryPriority::kInteractive
                                        : QueryPriority::kBatch;
        auto response = router.Execute(std::move(request));
        // Backpressure rejections are legal under this load; anything else
        // must succeed with the oracle count.
        if (!response.ok()) {
          if (response.status().code() != StatusCode::kResourceExhausted) {
            ++failures;
          }
          continue;
        }
        if (response->num_results != oracle.size()) ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  router.Shutdown(/*drain=*/true);
  ExpectZeroPinnedPerShard(env);
}

TEST_F(ShardServiceTest, MidFlightCancellationReachesAllShards) {
  Env env;
  Start(&env, 4);
  JoinService router(&*env.shards, {});

  // The sink blocks the shard workers on their first emitted pair until the
  // main thread has cancelled — guaranteeing the cancel lands mid-flight.
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "hydro";
  request.method = JoinMethod::kPbsm;
  request.sink = [&](Oid, Oid) {
    std::unique_lock<std::mutex> lock(mutex);
    started = true;
    cv.notify_all();
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
  };

  PBSM_ASSERT_OK_AND_ASSIGN(const std::shared_ptr<JoinQuery> query,
                            router.Submit(std::move(request)));
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(
        cv.wait_for(lock, std::chrono::seconds(30), [&] { return started; }));
  }
  query->Cancel();
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
  }
  const Result<JoinResponse>& result = query->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  // Every shard worker must have unwound: no pinned frames anywhere, and
  // the router still serves new queries.
  ExpectZeroPinnedPerShard(env);
  JoinRequest after;
  after.r_dataset = "road";
  after.s_dataset = "hydro";
  after.method = JoinMethod::kPbsm;
  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse ok_response,
                            router.Execute(std::move(after)));
  EXPECT_GT(ok_response.num_results, 0u);
  router.Shutdown(/*drain=*/true);
  ExpectZeroPinnedPerShard(env);
}

TEST_F(ShardServiceTest, GracefulDrainCompletesEverythingQueued) {
  Env env;
  Start(&env, 2);
  const IdPairSet oracle =
      BruteForceJoin(roads_, hydro_, SpatialPredicate::kIntersects);

  JoinService router(&*env.shards, {});

  std::vector<std::shared_ptr<JoinQuery>> queries;
  for (int i = 0; i < 6; ++i) {
    JoinRequest request;
    request.r_dataset = "road";
    request.s_dataset = "hydro";
    request.method = JoinMethod::kPbsm;
    PBSM_ASSERT_OK_AND_ASSIGN(std::shared_ptr<JoinQuery> query,
                              router.Submit(std::move(request)));
    queries.push_back(std::move(query));
  }
  router.Shutdown(/*drain=*/true);
  for (const auto& query : queries) {
    const Result<JoinResponse>& result = query->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->num_results, oracle.size());
  }
  ExpectZeroPinnedPerShard(env);
}

TEST_F(ShardServiceTest, AbortShutdownSettlesEveryQuery) {
  Env env;
  Start(&env, 2);
  JoinService router(&*env.shards, {});

  std::vector<std::shared_ptr<JoinQuery>> queries;
  for (int i = 0; i < 8; ++i) {
    JoinRequest request;
    request.r_dataset = "road";
    request.s_dataset = "hydro";
    request.method = JoinMethod::kPbsm;
    PBSM_ASSERT_OK_AND_ASSIGN(std::shared_ptr<JoinQuery> query,
                              router.Submit(std::move(request)));
    queries.push_back(std::move(query));
  }
  router.Shutdown(/*drain=*/false);
  for (const auto& query : queries) {
    // Every ticket settles: either it ran to completion before the abort or
    // it was cancelled — but nothing hangs and nothing leaks.
    const Result<JoinResponse>& result = query->Wait();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    }
  }
  ExpectZeroPinnedPerShard(env);
  // Post-shutdown submits are refused cleanly.
  JoinRequest late;
  late.r_dataset = "road";
  late.s_dataset = "hydro";
  const auto refused = router.Submit(std::move(late));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ShardServiceTest, WindowClippedDispatchRunsOnlyOverlappingShards) {
  Env env;
  Start(&env, 4);
  const ShardLayout layout = env.shards->layout();
  ASSERT_EQ(layout.num_shards(), 4u);

  // A window strictly inside shard 2's strip: exactly one sub-join.
  const Rect strip = layout.Extent(2);
  const double margin = strip.width() / 8;
  const Rect window(strip.xlo + margin, strip.ylo, strip.xhi - margin,
                    strip.yhi);
  const IdPairSet oracle =
      WindowOracle(roads_, hydro_, SpatialPredicate::kIntersects, window);

  JoinService router(&*env.shards, {});
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "hydro";
  request.method = JoinMethod::kPbsm;
  request.window = window;
  JoinResponse response;
  PBSM_ASSERT_OK_AND_ASSIGN(const IdPairSet got,
                            RunToIdPairs(&router, &env, request, &response));
  EXPECT_EQ(got, oracle);
  ASSERT_EQ(response.shard_slices.size(), 1u);
  EXPECT_EQ(response.shard_slices[0].shard, 2u);
  router.Shutdown(/*drain=*/true);
}

TEST_F(ShardServiceTest, BackpressureRejectsWholeQueryAndRecovers) {
  Env env;
  Start(&env, 2);
  JoinServiceConfig config;
  config.queue_capacity = 2;
  JoinService router(&*env.shards, config);

  // Block both shard workers mid-query, then fill every queue.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  JoinRequest blocker;
  blocker.r_dataset = "road";
  blocker.s_dataset = "hydro";
  blocker.method = JoinMethod::kPbsm;
  blocker.sink = [&](Oid, Oid) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
  };
  PBSM_ASSERT_OK_AND_ASSIGN(const std::shared_ptr<JoinQuery> running,
                            router.Submit(std::move(blocker)));
  // Give the workers a moment to pop the blocker's sub-joins.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::vector<std::shared_ptr<JoinQuery>> queued;
  for (int i = 0; i < 2; ++i) {  // queue_capacity per shard.
    JoinRequest request;
    request.r_dataset = "road";
    request.s_dataset = "hydro";
    request.method = JoinMethod::kPbsm;
    PBSM_ASSERT_OK_AND_ASSIGN(std::shared_ptr<JoinQuery> query,
                              router.Submit(std::move(request)));
    queued.push_back(std::move(query));
  }
  JoinRequest overflow;
  overflow.r_dataset = "road";
  overflow.s_dataset = "hydro";
  overflow.method = JoinMethod::kPbsm;
  const auto rejected = router.Submit(std::move(overflow));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
  }
  EXPECT_TRUE(running->Wait().ok());
  for (const auto& query : queued) {
    EXPECT_TRUE(query->Wait().ok()) << query->Wait().status().ToString();
  }
  router.Shutdown(/*drain=*/true);
  ExpectZeroPinnedPerShard(env);
}

TEST_F(ShardServiceTest, StealingDrainsForcedSkew) {
  Env env;
  Start(&env, 4);
  const ShardLayout layout = env.shards->layout();

  // Forced skew: every query's window lives strictly inside shard 0's
  // strip, so all sub-joins land on shard 0's queue while workers 1..3
  // start idle — exactly the straggler scenario stealing exists for.
  const Rect strip = layout.Extent(0);
  const double margin = strip.width() / 8;
  const Rect window(strip.xlo + margin, strip.ylo, strip.xhi - margin,
                    strip.yhi);
  const IdPairSet oracle =
      WindowOracle(roads_, hydro_, SpatialPredicate::kIntersects, window);

  Counter* stolen =
      MetricsRegistry::Global().GetCounter("service.shard.stolen_partitions");
  const uint64_t stolen_before = stolen->Value();

  JoinService router(&*env.shards, {});

  std::vector<std::shared_ptr<JoinQuery>> queries;
  for (int i = 0; i < 16; ++i) {
    JoinRequest request;
    request.r_dataset = "road";
    request.s_dataset = "hydro";
    request.method = JoinMethod::kPbsm;
    request.window = window;
    PBSM_ASSERT_OK_AND_ASSIGN(std::shared_ptr<JoinQuery> query,
                              router.Submit(std::move(request)));
    queries.push_back(std::move(query));
  }
  for (const auto& query : queries) {
    const Result<JoinResponse>& result = query->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->num_results, oracle.size());
    ASSERT_EQ(result->shard_slices.size(), 1u);
    EXPECT_EQ(result->shard_slices[0].shard, 0u);
  }
  EXPECT_GT(stolen->Value(), stolen_before)
      << "idle sibling workers never stole from the skewed shard";

  router.Shutdown(/*drain=*/true);
  ExpectZeroPinnedPerShard(env);
}

// Per-shard admission holds under a burst that oversubscribes one shard:
// every sub-join lands on shard 0, idle workers steal them, and shard 0's
// budget admits one at a time whichever worker runs it. A road self-join
// gives every sub-join plenty of pairs to hold its sink busy.
TEST_F(ShardServiceTest, ShardAdmissionHoldsUnderOversubscribedBurst) {
  Env env;
  Start(&env, 4);
  const Rect strip = env.shards->layout().Extent(0);
  const double margin = strip.width() / 8;
  const Rect window(strip.xlo + margin, strip.ylo, strip.xhi - margin,
                    strip.yhi);
  const IdPairSet oracle =
      WindowOracle(roads_, roads_, SpatialPredicate::kIntersects, window);
  ASSERT_GT(oracle.size(), 100u);

  // A shard's budget is max(memory budget, half its pool): a memory budget
  // over half the pool admits a single sub-join per shard.
  JoinServiceConfig config;
  config.join_defaults.memory_budget_bytes =
      env.shards->shard(0).pool->pool_bytes() / 2 + 1;
  JoinService service(&*env.shards, config);
  Counter* waits =
      MetricsRegistry::Global().GetCounter("service.admission_waits");
  const uint64_t waits_before = waits->Value();

  // Sinks only run inside a sub-join, and each one sleeps, so two admitted
  // sub-joins would overlap in the sink.
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  struct Collected {
    std::mutex mutex;
    std::vector<std::pair<Oid, Oid>> pairs;
  };
  std::vector<Collected> collected(16);
  std::vector<std::shared_ptr<JoinQuery>> queries;
  for (Collected& out : collected) {
    JoinRequest request;
    request.r_dataset = "road";
    request.s_dataset = "road";
    request.method = JoinMethod::kPbsm;
    request.window = window;
    request.sink = [&active, &max_active, &out](Oid ro, Oid so) {
      const int now = ++active;
      int seen = max_active.load();
      while (now > seen && !max_active.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      --active;
      std::lock_guard<std::mutex> lock(out.mutex);
      out.pairs.emplace_back(ro, so);
    };
    PBSM_ASSERT_OK_AND_ASSIGN(std::shared_ptr<JoinQuery> query,
                              service.Submit(std::move(request)));
    queries.push_back(std::move(query));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const Result<JoinResponse>& result = queries[i]->Wait();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->shard_slices.size(), 1u);
    EXPECT_EQ(result->shard_slices[0].shard, 0u);
    IdPairSet got;
    for (const auto& [ro, so] : collected[i].pairs) {
      got.emplace(env.road_ids.at(ro.Encode()),
                  env.road_ids.at(so.Encode()));
    }
    EXPECT_EQ(got, oracle);
    EXPECT_EQ(result->num_results, oracle.size());
  }
  EXPECT_EQ(max_active.load(), 1) << "two sub-joins ran on shard 0 at once";
  EXPECT_GT(waits->Value(), waits_before)
      << "the burst never waited for shard 0's admission budget";

  service.Shutdown(/*drain=*/true);
  ExpectZeroPinnedPerShard(env);
}

TEST_F(ShardServiceTest, UnknownDatasetAndTimeoutsAreRejected) {
  Env env;
  Start(&env, 2);
  JoinService router(&*env.shards, {});

  JoinRequest unknown;
  unknown.r_dataset = "nope";
  unknown.s_dataset = "hydro";
  const auto not_found = router.Submit(std::move(unknown));
  ASSERT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.status().code(), StatusCode::kNotFound);

  JoinRequest negative;
  negative.r_dataset = "road";
  negative.s_dataset = "hydro";
  negative.timeout_seconds = -1.0;
  const auto invalid = router.Submit(std::move(negative));
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  router.Shutdown(/*drain=*/true);
}

}  // namespace
}  // namespace pbsm
