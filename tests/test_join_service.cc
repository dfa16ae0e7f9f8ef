#include "service/join_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

#include "datagen/loader.h"
#include "datagen/tiger_gen.h"
#include "tests/join_test_harness.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

/// What a service schedules over: the caller's buffer pool (one lane) or a
/// 4-shard ShardManager (one lane per shard).
enum class Backing { kPool, kShards };

void PrintTo(Backing backing, std::ostream* os) {
  *os << (backing == Backing::kPool ? "Pool" : "Shards4");
}

class JoinServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TigerGenerator::Params params;
    params.seed = 42;
    TigerGenerator gen(params);
    roads_ = gen.GenerateRoads(1500);
    hydro_ = gen.GenerateHydrography(600);
    rail_ = gen.GenerateRail(300);
  }

  /// Loads the three relations and registers them with a fresh service.
  struct Env {
    StorageEnv storage{4096 * kPageSize};
    std::optional<StoredRelation> road, hydro, rail;
    std::optional<ShardManager> shards;
    std::optional<JoinService> service;

    /// Pinned frames over every pool the service touches.
    size_t pinned_frames() {
      return storage.pool()->pinned_frames() +
             (shards.has_value() ? shards->total_pinned_frames() : 0);
    }
  };

  void Start(Env* env, JoinServiceConfig config = {},
             Backing backing = Backing::kPool) {
    auto road = LoadRelation(env->storage.pool(), nullptr, "road", roads_);
    ASSERT_TRUE(road.ok()) << road.status().ToString();
    env->road.emplace(std::move(road).value());
    auto hydro = LoadRelation(env->storage.pool(), nullptr, "hydro", hydro_);
    ASSERT_TRUE(hydro.ok()) << hydro.status().ToString();
    env->hydro.emplace(std::move(hydro).value());
    auto rail = LoadRelation(env->storage.pool(), nullptr, "rail", rail_);
    ASSERT_TRUE(rail.ok()) << rail.status().ToString();
    env->rail.emplace(std::move(rail).value());

    config.join_defaults.memory_budget_bytes = 1 << 20;
    config.join_defaults.num_tiles = 256;
    if (backing == Backing::kShards) {
      ShardManagerConfig shard_config;
      shard_config.num_shards = 4;
      env->shards.emplace(shard_config);
      for (const StoredRelation* rel : {&*env->road, &*env->hydro,
                                        &*env->rail}) {
        PBSM_ASSERT_OK(env->shards->RegisterDataset(rel->info.name,
                                                    &rel->heap, rel->info));
      }
      env->service.emplace(&*env->shards, config);
      return;
    }
    env->service.emplace(env->storage.pool(), config);
    PBSM_ASSERT_OK(env->service->RegisterDataset("road", &env->road->heap,
                                                 env->road->info));
    PBSM_ASSERT_OK(env->service->RegisterDataset("hydro", &env->hydro->heap,
                                                 env->hydro->info));
    PBSM_ASSERT_OK(env->service->RegisterDataset("rail", &env->rail->heap,
                                                 env->rail->info));
  }

  std::vector<Tuple> roads_;
  std::vector<Tuple> hydro_;
  std::vector<Tuple> rail_;
};

/// Lifecycle tests (timeouts, cancellation, backpressure, shutdown) run
/// against both backings: the sharded service is the same scheduler.
class JoinServiceLifecycleTest : public JoinServiceTest,
                                 public ::testing::WithParamInterface<Backing> {
 protected:
  void Start(Env* env, JoinServiceConfig config = {}) {
    JoinServiceTest::Start(env, config, GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(Backings, JoinServiceLifecycleTest,
                         ::testing::Values(Backing::kPool, Backing::kShards));

TEST_F(JoinServiceTest, ExecutesForcedAndPlannedQueries) {
  Env env;
  Start(&env);
  const IdPairSet oracle =
      BruteForceJoin(roads_, hydro_, SpatialPredicate::kIntersects);

  JoinRequest forced;
  forced.r_dataset = "road";
  forced.s_dataset = "hydro";
  forced.method = JoinMethod::kPbsm;
  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse a,
                            env.service->Execute(forced));
  EXPECT_EQ(a.method, JoinMethod::kPbsm);
  EXPECT_FALSE(a.planner_chosen);
  EXPECT_EQ(a.num_results, oracle.size());

  JoinRequest planned;
  planned.r_dataset = "road";
  planned.s_dataset = "hydro";
  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse b,
                            env.service->Execute(planned));
  EXPECT_TRUE(b.planner_chosen);
  EXPECT_FALSE(b.plan.empty());
  EXPECT_EQ(b.num_results, oracle.size());
  env.service->Shutdown(/*drain=*/true);
}

TEST_F(JoinServiceTest, UnknownDatasetAndBadArgsAreRejected) {
  Env env;
  Start(&env);
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "nope";
  EXPECT_EQ(env.service->Submit(request).status().code(),
            StatusCode::kNotFound);
  request.s_dataset = "hydro";
  request.timeout_seconds = -1;
  EXPECT_EQ(env.service->Submit(request).status().code(),
            StatusCode::kInvalidArgument);
  env.service->Shutdown(/*drain=*/true);
}

// Cache-hit joins must produce the exact pair set of cold joins (and of
// the brute-force oracle): a stale or mis-keyed cached index would silently
// corrupt results, which is the one failure a cache must never have.
TEST_F(JoinServiceTest, CacheHitJoinMatchesColdJoinPairSet) {
  Env env;
  Start(&env);
  const IdPairSet oracle =
      BruteForceJoin(roads_, hydro_, SpatialPredicate::kIntersects);
  PBSM_ASSERT_OK_AND_ASSIGN(const auto road_ids,
                            OidToIdMap(env.road->heap));
  PBSM_ASSERT_OK_AND_ASSIGN(const auto hydro_ids,
                            OidToIdMap(env.hydro->heap));

  auto run_rtree = [&]() -> IdPairSet {
    IdPairSet out;
    std::mutex mutex;
    JoinRequest request;
    request.r_dataset = "road";
    request.s_dataset = "hydro";
    request.method = JoinMethod::kRtree;
    request.sink = [&](Oid ro, Oid so) {
      std::lock_guard<std::mutex> lock(mutex);
      out.emplace(road_ids.at(ro.Encode()), hydro_ids.at(so.Encode()));
    };
    auto response = env.service->Execute(std::move(request));
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return out;
  };

  const uint64_t hits0 = env.service->cache().hits();
  const IdPairSet cold = run_rtree();
  const IdPairSet warm1 = run_rtree();
  const IdPairSet warm2 = run_rtree();
  EXPECT_GE(env.service->cache().hits() - hits0, 4u);  // 2 warm x 2 sides.
  EXPECT_EQ(cold, oracle);
  EXPECT_EQ(warm1, oracle);
  EXPECT_EQ(warm2, oracle);
  env.service->Shutdown(/*drain=*/true);
}

// N producer threads, mixed methods and priorities, every query correct.
// This is the primary TSan target for the scheduler/cache/admission paths.
TEST_F(JoinServiceTest, ConcurrentProducersMixedMethods) {
  Env env;
  JoinServiceConfig config;
  config.num_workers = 3;
  config.queue_capacity = 256;
  Start(&env, config);
  const uint64_t expected =
      BruteForceJoin(roads_, rail_, SpatialPredicate::kIntersects).size();

  constexpr int kProducers = 4;
  constexpr int kQueriesEach = 6;
  std::atomic<int> wrong{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int q = 0; q < kQueriesEach; ++q) {
        JoinRequest request;
        request.r_dataset = "road";
        request.s_dataset = "rail";
        switch ((p + q) % 4) {
          case 0:
            request.method = JoinMethod::kPbsm;
            break;
          case 1:
            request.method = JoinMethod::kRtree;
            break;
          case 2:
            request.method = JoinMethod::kSpatialHash;
            break;
          default:
            break;  // Planner-routed.
        }
        request.priority = (p + q) % 2 == 0 ? QueryPriority::kInteractive
                                            : QueryPriority::kBatch;
        auto response = env.service->Execute(std::move(request));
        if (!response.ok() || response->num_results != expected) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  env.service->Shutdown(/*drain=*/true);
  EXPECT_EQ(env.storage.pool()->pinned_frames(), 0u);
}

TEST_P(JoinServiceLifecycleTest, TimeoutCancelsMidFlight) {
  Env env;
  Start(&env);
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "hydro";
  request.method = JoinMethod::kPbsm;
  // Far below the join's runtime: the watchdog trips the query's canceller
  // while it executes (or before it starts — both must yield kCancelled).
  request.timeout_seconds = 1e-4;
  // The sink sleeps so the join outlives the deadline even on a one-core
  // host, where the watchdog thread needs the worker to yield before it can
  // run; the join's per-tile cancellation check then observes the cancel.
  request.sink = [](Oid, Oid) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  auto response = env.service->Execute(std::move(request));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);

  // The service keeps serving after a cancellation.
  JoinRequest again;
  again.r_dataset = "road";
  again.s_dataset = "hydro";
  again.method = JoinMethod::kPbsm;
  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse after,
                            env.service->Execute(again));
  EXPECT_GT(after.num_results, 0u);
  env.service->Shutdown(/*drain=*/true);
  EXPECT_EQ(env.pinned_frames(), 0u);
}

TEST_P(JoinServiceLifecycleTest, ClientCancelIsHonoured) {
  Env env;
  Start(&env);
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "hydro";
  PBSM_ASSERT_OK_AND_ASSIGN(const auto query,
                            env.service->Submit(std::move(request)));
  query->Cancel();
  const auto& result = query->Wait();
  // The cancel can land before, during, or (rarely) after the join's last
  // cancellation check; completed-then-cancelled is legal, mid-flight
  // cancels must surface as kCancelled.
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  env.service->Shutdown(/*drain=*/true);
}

TEST_P(JoinServiceLifecycleTest, FullQueueRejectsWithResourceExhausted) {
  Env env;
  JoinServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  Start(&env, config);

  // Flood a 1-deep queue served by one worker: submissions are orders of
  // magnitude faster than the joins, so some must bounce.
  std::vector<std::shared_ptr<JoinQuery>> accepted;
  int rejected = 0;
  for (int i = 0; i < 16; ++i) {
    JoinRequest request;
    request.r_dataset = "hydro";
    request.s_dataset = "rail";
    request.method = JoinMethod::kPbsm;
    auto query = env.service->Submit(std::move(request));
    if (query.ok()) {
      accepted.push_back(std::move(query).value());
    } else {
      EXPECT_EQ(query.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
  for (const auto& query : accepted) {
    EXPECT_TRUE(query->Wait().ok()) << query->Wait().status().ToString();
  }
  env.service->Shutdown(/*drain=*/true);
}

// Shutdown(drain) completes every accepted query and leaves the pool with
// zero pinned frames — the "graceful drain" contract.
TEST_P(JoinServiceLifecycleTest, ShutdownDrainCompletesQueuedWork) {
  Env env;
  JoinServiceConfig config;
  config.num_workers = 2;
  config.queue_capacity = 64;
  Start(&env, config);

  std::vector<std::shared_ptr<JoinQuery>> queries;
  for (int i = 0; i < 8; ++i) {
    JoinRequest request;
    request.r_dataset = i % 2 == 0 ? "road" : "hydro";
    request.s_dataset = "rail";
    if (i % 3 == 0) request.method = JoinMethod::kRtree;
    PBSM_ASSERT_OK_AND_ASSIGN(auto query,
                              env.service->Submit(std::move(request)));
    queries.push_back(std::move(query));
  }
  env.service->Shutdown(/*drain=*/true);
  for (const auto& query : queries) {
    EXPECT_TRUE(query->done());
    EXPECT_TRUE(query->Wait().ok()) << query->Wait().status().ToString();
  }
  // New work is refused after shutdown.
  JoinRequest late;
  late.r_dataset = "road";
  late.s_dataset = "rail";
  EXPECT_EQ(env.service->Submit(late).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(env.pinned_frames(), 0u);
}

TEST_P(JoinServiceLifecycleTest, AbortShutdownFailsQueuedQueries) {
  Env env;
  JoinServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 64;
  Start(&env, config);
  std::vector<std::shared_ptr<JoinQuery>> queries;
  for (int i = 0; i < 6; ++i) {
    JoinRequest request;
    request.r_dataset = "road";
    request.s_dataset = "hydro";
    PBSM_ASSERT_OK_AND_ASSIGN(auto query,
                              env.service->Submit(std::move(request)));
    queries.push_back(std::move(query));
  }
  env.service->Shutdown(/*drain=*/false);
  int cancelled = 0;
  for (const auto& query : queries) {
    EXPECT_TRUE(query->done());
    if (!query->Wait().ok()) {
      EXPECT_EQ(query->Wait().status().code(), StatusCode::kCancelled);
      ++cancelled;
    }
  }
  EXPECT_GT(cancelled, 0);  // At most one query can have finished first.
  EXPECT_EQ(env.pinned_frames(), 0u);
}

// A draining shutdown keeps enforcing deadlines: a query that passes its
// timeout while Shutdown(true) waits for it ends kCancelled instead of
// running to completion, and the drain returns promptly.
TEST_P(JoinServiceLifecycleTest, TimeoutFiresDuringDrainingShutdown) {
  Env env;
  Start(&env);
  std::atomic<bool> started{false};
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "hydro";
  request.method = JoinMethod::kPbsm;
  request.timeout_seconds = 0.2;
  // The first pair stalls the join past its deadline; the join observes
  // the cancel at its next batch boundary.
  request.sink = [&started](Oid, Oid) {
    if (!started.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  };
  PBSM_ASSERT_OK_AND_ASSIGN(const auto query,
                            env.service->Submit(std::move(request)));
  while (!started.load() && !query->done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto start = std::chrono::steady_clock::now();
  env.service->Shutdown(/*drain=*/true);
  const double shutdown_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(query->done());
  ASSERT_FALSE(query->Wait().ok()) << "the drain ran the query past its "
                                      "deadline to completion";
  EXPECT_EQ(query->Wait().status().code(), StatusCode::kCancelled);
  EXPECT_LT(shutdown_seconds, 5.0);
  EXPECT_EQ(env.pinned_frames(), 0u);
}

TEST_F(JoinServiceTest, WindowFilterRestrictsResults) {
  Env env;
  Start(&env);
  const IdPairSet oracle =
      BruteForceJoin(roads_, hydro_, SpatialPredicate::kIntersects);

  // Window = the universe -> every oracle pair qualifies.
  Rect universe = env.road->info.universe;
  universe.Expand(env.hydro->info.universe);
  JoinRequest all;
  all.r_dataset = "road";
  all.s_dataset = "hydro";
  all.method = JoinMethod::kPbsm;
  all.window = universe;
  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse everything,
                            env.service->Execute(std::move(all)));
  EXPECT_EQ(everything.num_results, oracle.size());

  // A quarter-universe window keeps only pairs whose MBRs both touch it.
  const Rect quarter(universe.xlo, universe.ylo,
                     universe.xlo + universe.width() / 2,
                     universe.ylo + universe.height() / 2);
  uint64_t expected = 0;
  for (const Tuple& a : roads_) {
    if (!a.geometry.Mbr().Intersects(quarter)) continue;
    for (const Tuple& b : hydro_) {
      if (!b.geometry.Mbr().Intersects(quarter)) continue;
      if (oracle.count({a.id, b.id}) != 0) ++expected;
    }
  }
  JoinRequest windowed;
  windowed.r_dataset = "road";
  windowed.s_dataset = "hydro";
  windowed.method = JoinMethod::kPbsm;
  windowed.window = quarter;
  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse some,
                            env.service->Execute(std::move(windowed)));
  EXPECT_EQ(some.num_results, expected);
  EXPECT_LT(some.num_results, everything.num_results);
  env.service->Shutdown(/*drain=*/true);
}

TEST_F(JoinServiceTest, DropDatasetInvalidatesCacheAndRejectsQueries) {
  Env env;
  Start(&env);
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "rail";
  request.method = JoinMethod::kRtree;
  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse warmup,
                            env.service->Execute(request));
  EXPECT_GT(warmup.num_results, 0u);
  EXPECT_EQ(env.service->cache().size(), 2u);

  PBSM_ASSERT_OK(env.service->DropDataset("rail"));
  EXPECT_EQ(env.service->cache().size(), 1u);  // Rail's tree is gone.
  EXPECT_EQ(env.service->Submit(request).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(env.service->DropDataset("rail").code(), StatusCode::kNotFound);
  env.service->Shutdown(/*drain=*/true);
}

}  // namespace
}  // namespace pbsm
