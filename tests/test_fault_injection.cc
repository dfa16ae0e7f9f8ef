// Fault-injection suite: scripted storage failures must surface as non-OK
// Status at every public entry point — never as a crash, an abort, or a
// silently wrong answer — and transient faults must be retried away without
// perturbing join results (verified against the same brute-force oracle the
// differential suite uses).
//
// Everything is deterministic: the injector derives all decisions from one
// seeded Rng, so a failing scenario replays identically from its seed.

#include "storage/fault_injector.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "datagen/tiger_gen.h"
#include "service/join_service.h"
#include "service/shard_manager.h"
#include "tests/join_test_harness.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

uint64_t GlobalCounter(const std::string& name) {
  return MetricsRegistry::Global().Snapshot().counter(name);
}

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, ParseAcceptsFullProfile) {
  PBSM_ASSERT_OK_AND_ASSIGN(
      auto injector,
      FaultInjector::Parse("seed=42;read=0.01;write=0.005,alloc=1x1;torn=0.5"));
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->injected_faults(), 0u);
}

TEST(FaultInjectorTest, ParseRejectsMalformedProfiles) {
  EXPECT_FALSE(FaultInjector::Parse("read").ok());
  EXPECT_FALSE(FaultInjector::Parse("frobnicate=0.5").ok());
  EXPECT_FALSE(FaultInjector::Parse("read=1.5").ok());
  EXPECT_FALSE(FaultInjector::Parse("read=abc").ok());
  EXPECT_FALSE(FaultInjector::Parse("read=0.5x0").ok());
  EXPECT_FALSE(FaultInjector::Parse("read=0.5junk").ok());
}

TEST(FaultInjectorTest, DecisionsAreDeterministicInSeed) {
  auto run = [] {
    FaultInjector injector(/*seed=*/99);
    FaultRule rule;
    rule.op = FaultOp::kRead;
    rule.probability = 0.3;
    injector.AddRule(rule);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(
          !injector.Decide(FaultOp::kRead, PageId{1, 0}).status.ok());
    }
    return fired;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjectorTest, AtOpFiresExactlyOnceAndBurstDisarms) {
  FaultInjector injector(/*seed=*/1);
  FaultRule at3;
  at3.op = FaultOp::kWrite;
  at3.at_op = 3;
  injector.AddRule(at3);
  for (int i = 1; i <= 6; ++i) {
    const bool failed =
        !injector.Decide(FaultOp::kWrite, PageId{1, 0}).status.ok();
    EXPECT_EQ(failed, i == 3) << "op " << i;
  }

  FaultInjector burst(/*seed=*/1);
  FaultRule two;
  two.op = FaultOp::kRead;
  two.probability = 1.0;
  two.max_faults = 2;  // Fails twice, then the "device" recovers.
  burst.AddRule(two);
  EXPECT_FALSE(burst.Decide(FaultOp::kRead, PageId{1, 0}).status.ok());
  EXPECT_FALSE(burst.Decide(FaultOp::kRead, PageId{1, 0}).status.ok());
  EXPECT_TRUE(burst.Decide(FaultOp::kRead, PageId{1, 0}).status.ok());
  EXPECT_EQ(burst.injected_faults(), 2u);
}

// ---------------------------------------------------------------------------
// DiskManager integration: errors, ENOSPC, torn writes + checksums.
// ---------------------------------------------------------------------------

TEST(DiskFaultTest, ReadFaultSurfacesAsIoError) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file,
                            env.disk()->CreateFile("fault_read"));
  PBSM_ASSERT_OK_AND_ASSIGN(const uint32_t page_no,
                            env.disk()->AllocatePage(file));
  std::vector<char> buf(kPageSize, 'x');
  PBSM_ASSERT_OK(env.disk()->WritePage(PageId{file, page_no}, buf.data()));

  auto injector = std::make_shared<FaultInjector>(7);
  FaultRule rule;
  rule.op = FaultOp::kRead;
  rule.at_op = 1;
  injector->AddRule(rule);
  env.disk()->set_fault_injector(injector);

  const Status failed = env.disk()->ReadPage(PageId{file, page_no}, buf.data());
  EXPECT_EQ(failed.code(), StatusCode::kIoError) << failed.ToString();
  // The rule fired once; the device is healthy again and data is intact.
  std::vector<char> again(kPageSize);
  PBSM_ASSERT_OK(env.disk()->ReadPage(PageId{file, page_no}, again.data()));
  EXPECT_EQ(std::memcmp(again.data(), buf.data(), kPageSize), 0);
  EXPECT_EQ(injector->injected_faults(), 1u);
}

TEST(DiskFaultTest, AllocationFaultSurfacesAsResourceExhausted) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file,
                            env.disk()->CreateFile("fault_alloc"));
  auto injector = std::make_shared<FaultInjector>(7);
  FaultRule rule;
  rule.op = FaultOp::kAllocate;
  rule.probability = 1.0;
  injector->AddRule(rule);
  env.disk()->set_fault_injector(injector);

  const auto alloc = env.disk()->AllocatePage(file);
  ASSERT_FALSE(alloc.ok());
  EXPECT_EQ(alloc.status().code(), StatusCode::kResourceExhausted);
  // A failed allocation must not grow the file.
  PBSM_ASSERT_OK_AND_ASSIGN(const uint32_t pages, env.disk()->NumPages(file));
  EXPECT_EQ(pages, 0u);
}

TEST(DiskFaultTest, TornWriteIsDetectedByChecksumOnRead) {
  StorageEnv env;
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file,
                            env.disk()->CreateFile("fault_torn"));
  PBSM_ASSERT_OK_AND_ASSIGN(const uint32_t page_no,
                            env.disk()->AllocatePage(file));

  auto injector = std::make_shared<FaultInjector>(7);
  FaultRule rule;
  rule.op = FaultOp::kWrite;
  rule.kind = FaultKind::kTornWrite;
  rule.at_op = 1;
  injector->AddRule(rule);
  env.disk()->set_fault_injector(injector);

  const uint64_t torn_before = GlobalCounter("io.torn_pages_detected");
  std::vector<char> buf(kPageSize);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<char>(i * 31);
  // The torn write *reports success* — that is the failure mode: a crash
  // mid-write that nobody notices until the page is read back.
  PBSM_ASSERT_OK(env.disk()->WritePage(PageId{file, page_no}, buf.data()));

  std::vector<char> read_buf(kPageSize);
  const Status corrupt =
      env.disk()->ReadPage(PageId{file, page_no}, read_buf.data());
  EXPECT_EQ(corrupt.code(), StatusCode::kCorruption) << corrupt.ToString();
  EXPECT_EQ(GlobalCounter("io.torn_pages_detected"), torn_before + 1);

  // A full rewrite heals the page.
  PBSM_ASSERT_OK(env.disk()->WritePage(PageId{file, page_no}, buf.data()));
  PBSM_ASSERT_OK(env.disk()->ReadPage(PageId{file, page_no}, read_buf.data()));
  EXPECT_EQ(std::memcmp(read_buf.data(), buf.data(), kPageSize), 0);
}

TEST(DiskFaultTest, BitRotIsDetectedByChecksumOnRead) {
  // One flipped byte on the medium, written around the DiskManager, at the
  // first and at the last byte of the page: the second case fails if a
  // checksum kernel drops the page's final word.
  for (const off_t byte : {off_t{0}, off_t{kPageSize - 1}}) {
    SCOPED_TRACE("byte " + std::to_string(byte));
    StorageEnv env;
    const std::string name = "fault_bitrot";
    PBSM_ASSERT_OK_AND_ASSIGN(const FileId file,
                              env.disk()->CreateFile(name));
    PBSM_ASSERT_OK(env.disk()->AllocatePage(file).status());
    PBSM_ASSERT_OK_AND_ASSIGN(const uint32_t page_no,
                              env.disk()->AllocatePage(file));
    std::vector<char> buf(kPageSize);
    for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<char>(i * 7);
    PBSM_ASSERT_OK(env.disk()->WritePage(PageId{file, page_no}, buf.data()));

    const int fd = ::open((env.disk()->directory() + "/" + name).c_str(),
                          O_WRONLY);
    ASSERT_GE(fd, 0);
    const char flipped = static_cast<char>(buf[byte] ^ 0x01);
    const off_t offset = static_cast<off_t>(page_no) * kPageSize + byte;
    ASSERT_EQ(::pwrite(fd, &flipped, 1, offset), 1);
    ::close(fd);

    const uint64_t torn_before = GlobalCounter("io.torn_pages_detected");
    std::vector<char> read_buf(kPageSize);
    const Status corrupt =
        env.disk()->ReadPage(PageId{file, page_no}, read_buf.data());
    EXPECT_EQ(corrupt.code(), StatusCode::kCorruption) << corrupt.ToString();
    EXPECT_EQ(GlobalCounter("io.torn_pages_detected"), torn_before + 1);
  }
}

// ---------------------------------------------------------------------------
// BufferPool integration: bounded retry, clean unpin on failure.
// ---------------------------------------------------------------------------

TEST(BufferPoolFaultTest, TransientReadFaultIsRetriedTransparently) {
  StorageEnv env(/*pool_bytes=*/4 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file,
                            env.disk()->CreateFile("retry_read"));
  {
    PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page, env.pool()->NewPage(file));
    std::memset(page.mutable_data(), 0x5a, kPageSize);
  }
  PBSM_ASSERT_OK(env.pool()->FlushAll());
  // Force the page out of the pool by cycling other pages through it, so
  // the fetch below performs a real disk read.
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId filler,
                            env.disk()->CreateFile("filler"));
  for (int i = 0; i < 8; ++i) {
    PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page, env.pool()->NewPage(filler));
    std::memset(page.mutable_data(), 0, kPageSize);
  }

  auto injector = std::make_shared<FaultInjector>(7);
  FaultRule rule;
  rule.op = FaultOp::kRead;
  rule.probability = 1.0;
  rule.max_faults = 2;  // Two failures, then recovery: within retry budget.
  injector->AddRule(rule);
  env.disk()->set_fault_injector(injector);

  const uint64_t retries_before = GlobalCounter("io.retries");
  PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page,
                            env.pool()->FetchPage(PageId{file, 0}));
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ(page.data()[i], 0x5a) << "byte " << i;
  }
  EXPECT_GE(GlobalCounter("io.retries"), retries_before + 2);
  EXPECT_EQ(injector->injected_faults(), 2u);
}

TEST(BufferPoolFaultTest, PermanentReadFaultFailsFetchAndLeavesNoPins) {
  StorageEnv env(/*pool_bytes=*/4 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId file,
                            env.disk()->CreateFile("perm_read"));
  PBSM_ASSERT_OK_AND_ASSIGN(const uint32_t page_no,
                            env.disk()->AllocatePage(file));

  auto injector = std::make_shared<FaultInjector>(7);
  FaultRule rule;
  rule.op = FaultOp::kRead;
  rule.probability = 1.0;  // Permanent: every attempt fails, retries included.
  injector->AddRule(rule);
  env.disk()->set_fault_injector(injector);

  const auto fetch = env.pool()->FetchPage(PageId{file, page_no});
  ASSERT_FALSE(fetch.ok());
  EXPECT_EQ(fetch.status().code(), StatusCode::kIoError);
  // The failed fetch must not leak its frame: nothing pinned, and the pool
  // still has room for other work.
  EXPECT_EQ(env.pool()->pinned_frames(), 0u);
  env.disk()->set_fault_injector(nullptr);
  PBSM_ASSERT_OK_AND_ASSIGN(const FileId other,
                            env.disk()->CreateFile("healthy"));
  PBSM_ASSERT_OK_AND_ASSIGN(PageHandle page, env.pool()->NewPage(other));
  std::memset(page.mutable_data(), 1, kPageSize);
}

// ---------------------------------------------------------------------------
// End-to-end: all six join methods under injected faults.
// ---------------------------------------------------------------------------

class JoinFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TigerGenerator::Params params;
    params.seed = 7;
    // An eighth of the default universe: denser features, so the join has a
    // few hundred genuine result pairs for the bit-identical comparison.
    params.universe = Rect(params.universe.xlo, params.universe.ylo,
                           params.universe.xlo + params.universe.width() / 8,
                           params.universe.ylo + params.universe.height() / 8);
    TigerGenerator gen(params);
    roads_ = gen.GenerateRoads(400);
    hydro_ = gen.GenerateHydrography(180);
    expected_ = BruteForceJoin(roads_, hydro_, SpatialPredicate::kIntersects);
    ASSERT_GT(expected_.size(), 0u);
  }

  JoinSpec Spec(JoinMethod method, uint32_t threads,
                SimdMode simd = SimdMode::kAuto) const {
    JoinSpec spec;
    spec.method = method;
    spec.options.memory_budget_bytes = 1 << 20;
    spec.options.num_tiles = 64;
    spec.options.num_threads = threads;
    spec.options.simd = simd;
    return spec;
  }

  std::vector<Tuple> roads_;
  std::vector<Tuple> hydro_;
  IdPairSet expected_;
};

TEST_F(JoinFaultTest, TransientReadFaultsPreserveResultsOnEveryMethod) {
  // Acceptance criterion: under >= 1% transient read faults every method
  // completes with bit-identical results and zero aborts. A generous retry
  // budget (8 attempts at 5% per-attempt failure) makes an unrecovered read
  // a ~4e-11 event per I/O — and the seeded injector makes whatever happens
  // replay identically.
  IoRetryPolicy retry;
  retry.max_attempts = 8;
  retry.backoff_us = 1;
  // Both filter kernels must stay bit-identical with faults armed (kAvx2
  // resolves to scalar on hosts without AVX2).
  for (const SimdMode simd : {SimdMode::kScalar, SimdMode::kAvx2}) {
    SCOPED_TRACE(simd == SimdMode::kScalar ? "simd=scalar" : "simd=avx2");
    for (const JoinMethod method : AllJoinMethods()) {
      SCOPED_TRACE(JoinMethodName(method));
      // A tiny pool forces real disk reads (and hence injector hits) instead
      // of serving the whole join from cache.
      StorageEnv env(/*pool_bytes=*/8 * kPageSize, DiskModel(), retry);
      PBSM_ASSERT_OK_AND_ASSIGN(
          const StoredRelation r,
          LoadRelation(env.pool(), nullptr, "road", roads_));
      PBSM_ASSERT_OK_AND_ASSIGN(
          const StoredRelation s,
          LoadRelation(env.pool(), nullptr, "hydro", hydro_));
      PBSM_ASSERT_OK_AND_ASSIGN(const auto r_ids, OidToIdMap(r.heap));
      PBSM_ASSERT_OK_AND_ASSIGN(const auto s_ids, OidToIdMap(s.heap));

      PBSM_ASSERT_OK_AND_ASSIGN(auto injector,
                                FaultInjector::Parse("seed=11;read=0.05"));
      env.disk()->set_fault_injector(injector);

      const uint64_t faults_before = GlobalCounter("io.injected_faults");
      PBSM_ASSERT_OK_AND_ASSIGN(
          const IdPairSet got,
          RunJoinToIdPairs(env.pool(), r, s,
                           Spec(method, /*threads=*/3, simd), &r_ids,
                           &s_ids));
      EXPECT_EQ(got, expected_);
      // The scenario must actually have exercised the fault path.
      EXPECT_GT(GlobalCounter("io.injected_faults"), faults_before);
      EXPECT_EQ(env.pool()->pinned_frames(), 0u);
    }
  }
}

TEST_F(JoinFaultTest, PermanentReadFaultFailsEveryMethodWithoutLeaks) {
  for (const JoinMethod method : AllJoinMethods()) {
    SCOPED_TRACE(JoinMethodName(method));
    StorageEnv env(/*pool_bytes=*/8 * kPageSize);
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation r,
        LoadRelation(env.pool(), nullptr, "road", roads_));
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation s,
        LoadRelation(env.pool(), nullptr, "hydro", hydro_));
    PBSM_ASSERT_OK_AND_ASSIGN(const auto r_ids, OidToIdMap(r.heap));
    PBSM_ASSERT_OK_AND_ASSIGN(const auto s_ids, OidToIdMap(s.heap));

    PBSM_ASSERT_OK_AND_ASSIGN(auto injector,
                              FaultInjector::Parse("seed=11;read=1"));
    env.disk()->set_fault_injector(injector);

    const auto got = RunJoinToIdPairs(
        env.pool(), r, s, Spec(method, /*threads=*/4), &r_ids, &s_ids);
    ASSERT_FALSE(got.ok()) << "method survived a dead disk";
    // The first real error wins — never the siblings' kCancelled noise.
    EXPECT_EQ(got.status().code(), StatusCode::kIoError)
        << got.status().ToString();
    EXPECT_EQ(env.pool()->pinned_frames(), 0u);
    // The facade records the failure per method.
    EXPECT_GT(GlobalCounter("join.failures." +
                            std::string(JoinMethodName(method))),
              0u);
  }
}

TEST_F(JoinFaultTest, EnospcDuringJoinSurfacesAsResourceExhausted) {
  // Allocation failures hit methods that spool intermediates (temp files,
  // index builds). Methods that never allocate during the join legitimately
  // succeed — but none may crash or mis-answer.
  for (const JoinMethod method : AllJoinMethods()) {
    SCOPED_TRACE(JoinMethodName(method));
    StorageEnv env(/*pool_bytes=*/8 * kPageSize);
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation r,
        LoadRelation(env.pool(), nullptr, "road", roads_));
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation s,
        LoadRelation(env.pool(), nullptr, "hydro", hydro_));
    PBSM_ASSERT_OK_AND_ASSIGN(const auto r_ids, OidToIdMap(r.heap));
    PBSM_ASSERT_OK_AND_ASSIGN(const auto s_ids, OidToIdMap(s.heap));

    PBSM_ASSERT_OK_AND_ASSIGN(auto injector,
                              FaultInjector::Parse("seed=11;alloc=1"));
    env.disk()->set_fault_injector(injector);

    const auto got = RunJoinToIdPairs(
        env.pool(), r, s, Spec(method, /*threads=*/2), &r_ids, &s_ids);
    if (got.ok()) {
      EXPECT_EQ(*got, expected_);
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
          << got.status().ToString();
    }
    EXPECT_EQ(env.pool()->pinned_frames(), 0u);
  }
}

TEST_F(JoinFaultTest, TornWriteDuringJoinSurfacesAsCorruption) {
  // One torn page among the join's own writes (spool runs, index pages):
  // the checksum catches it on read-back and the join fails with
  // Corruption instead of emitting pairs computed from garbage. The tiny
  // pool guarantees the torn page is written out and read back.
  for (const JoinMethod method :
       {JoinMethod::kPbsm, JoinMethod::kParallelPbsm, JoinMethod::kRtree}) {
    SCOPED_TRACE(JoinMethodName(method));
    StorageEnv env(/*pool_bytes=*/8 * kPageSize);
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation r,
        LoadRelation(env.pool(), nullptr, "road", roads_));
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation s,
        LoadRelation(env.pool(), nullptr, "hydro", hydro_));
    PBSM_ASSERT_OK_AND_ASSIGN(const auto r_ids, OidToIdMap(r.heap));
    PBSM_ASSERT_OK_AND_ASSIGN(const auto s_ids, OidToIdMap(s.heap));

    auto injector = std::make_shared<FaultInjector>(11);
    FaultRule rule;
    rule.op = FaultOp::kWrite;
    rule.kind = FaultKind::kTornWrite;
    rule.at_op = 3;  // Tear the third write after the join starts.
    injector->AddRule(rule);
    env.disk()->set_fault_injector(injector);

    const uint64_t torn_before = GlobalCounter("io.torn_pages_detected");
    const auto got = RunJoinToIdPairs(
        env.pool(), r, s, Spec(method, /*threads=*/2), &r_ids, &s_ids);
    if (got.ok()) {
      // The torn page happened never to be read back (it was rewritten
      // first); the answer must still be exact.
      EXPECT_EQ(*got, expected_);
    } else {
      EXPECT_EQ(got.status().code(), StatusCode::kCorruption)
          << got.status().ToString();
      EXPECT_GT(GlobalCounter("io.torn_pages_detected"), torn_before);
    }
    EXPECT_EQ(env.pool()->pinned_frames(), 0u);
  }
}

TEST_F(JoinFaultTest, ParallelJoinReportsFirstRealErrorNotCancellation) {
  StorageEnv env(/*pool_bytes=*/8 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(const StoredRelation r,
                            LoadRelation(env.pool(), nullptr, "road", roads_));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation s,
      LoadRelation(env.pool(), nullptr, "hydro", hydro_));
  PBSM_ASSERT_OK_AND_ASSIGN(const auto r_ids, OidToIdMap(r.heap));
  PBSM_ASSERT_OK_AND_ASSIGN(const auto s_ids, OidToIdMap(s.heap));

  auto injector = std::make_shared<FaultInjector>(11);
  FaultRule rule;
  rule.op = FaultOp::kRead;
  rule.probability = 1.0;
  injector->AddRule(rule);
  env.disk()->set_fault_injector(injector);

  const auto got = RunJoinToIdPairs(env.pool(), r, s,
                                    Spec(JoinMethod::kParallelPbsm,
                                         /*threads=*/4),
                                    &r_ids, &s_ids);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError)
      << got.status().ToString();
  EXPECT_NE(got.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(env.pool()->pinned_frames(), 0u);
}

// ---------------------------------------------------------------------------
// Sharded service: faults on one shard's private DiskManager. The service
// must surface the faulty shard's real error (cancelling siblings without
// letting their kCancelled mask it), retry transient faults away, and keep
// dead shards outside a window's dispatch set from affecting the query.
// ---------------------------------------------------------------------------

/// Global relations plus a ShardManager with both registered, mirroring the
/// service tests' environment.
struct ShardedEnv {
  StorageEnv storage{512 * kPageSize};
  std::optional<StoredRelation> road, hydro;
  std::optional<ShardManager> shards;
  std::map<uint64_t, uint64_t> road_ids, hydro_ids;  // Global OID -> id.
};

/// Loads the fixture relations and registers them into `num_shards` shards.
/// Small per-shard pools force sub-joins to perform real disk reads (so an
/// armed injector actually fires); callers arm injectors AFTER this returns,
/// so registration I/O is never faulted.
void StartSharded(ShardedEnv* env, const std::vector<Tuple>& roads,
                  const std::vector<Tuple>& hydro, uint32_t num_shards,
                  size_t shard_pool_bytes,
                  IoRetryPolicy retry = IoRetryPolicy()) {
  auto road = LoadRelation(env->storage.pool(), nullptr, "road", roads);
  ASSERT_TRUE(road.ok()) << road.status().ToString();
  env->road.emplace(std::move(road).value());
  auto hydro_rel = LoadRelation(env->storage.pool(), nullptr, "hydro", hydro);
  ASSERT_TRUE(hydro_rel.ok()) << hydro_rel.status().ToString();
  env->hydro.emplace(std::move(hydro_rel).value());

  ShardManagerConfig config;
  config.num_shards = num_shards;
  config.shard_pool_bytes = shard_pool_bytes;
  config.io_retry = retry;
  env->shards.emplace(config);
  PBSM_ASSERT_OK(env->shards->RegisterDataset("road", &env->road->heap,
                                              env->road->info));
  PBSM_ASSERT_OK(env->shards->RegisterDataset("hydro", &env->hydro->heap,
                                              env->hydro->info));
  PBSM_ASSERT_OK_AND_ASSIGN(env->road_ids, OidToIdMap(env->road->heap));
  PBSM_ASSERT_OK_AND_ASSIGN(env->hydro_ids, OidToIdMap(env->hydro->heap));
}

/// Thread-safe collecting sink (router sinks fire concurrently from shard
/// workers) that translates global-OID pairs back into tuple-id space.
struct CollectingSink {
  std::mutex mutex;
  std::vector<std::pair<uint64_t, uint64_t>> raw;

  ResultSink Sink() {
    return [this](Oid ro, Oid so) {
      std::lock_guard<std::mutex> lock(mutex);
      raw.emplace_back(ro.Encode(), so.Encode());
    };
  }

  IdPairSet ToIds(const ShardedEnv& env) {
    std::lock_guard<std::mutex> lock(mutex);
    IdPairSet out;
    for (const auto& [ro, so] : raw) {
      out.emplace(env.road_ids.at(ro), env.hydro_ids.at(so));
    }
    return out;
  }
};

TEST_F(JoinFaultTest, ShardedPermanentFaultOnOneShardCancelsSiblings) {
  ShardedEnv env;
  StartSharded(&env, roads_, hydro_, /*num_shards=*/4,
               /*shard_pool_bytes=*/8 * kPageSize);
  ASSERT_TRUE(env.shards.has_value());

  PBSM_ASSERT_OK_AND_ASSIGN(auto injector,
                            FaultInjector::Parse("seed=11;read=1"));
  env.shards->shard(1).disk->set_fault_injector(injector);

  JoinService router(&*env.shards, JoinServiceConfig());
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "hydro";
  request.method = JoinMethod::kPbsm;

  const auto got = router.Execute(request);
  ASSERT_FALSE(got.ok()) << "query survived a dead shard disk";
  // The faulty shard's real error wins the gather; the sibling sub-joins it
  // cancelled must not mask it with kCancelled.
  EXPECT_EQ(got.status().code(), StatusCode::kIoError)
      << got.status().ToString();
  EXPECT_GT(injector->injected_faults(), 0u);
  // The failed scatter leaks nothing: every shard pool fully unpinned.
  EXPECT_EQ(env.shards->total_pinned_frames(), 0u);

  // Heal the disk: the same router must now answer exactly.
  env.shards->shard(1).disk->set_fault_injector(nullptr);
  CollectingSink sink;
  JoinRequest healthy = request;
  healthy.sink = sink.Sink();
  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse response,
                            router.Execute(healthy));
  EXPECT_EQ(sink.ToIds(env), expected_);
  EXPECT_EQ(response.num_results, expected_.size());
  EXPECT_EQ(env.shards->total_pinned_frames(), 0u);
  router.Shutdown();
}

TEST_F(JoinFaultTest, ShardedTransientFaultsAreRetriedTransparently) {
  IoRetryPolicy retry;
  retry.max_attempts = 8;
  retry.backoff_us = 1;
  ShardedEnv env;
  StartSharded(&env, roads_, hydro_, /*num_shards=*/4,
               /*shard_pool_bytes=*/8 * kPageSize, retry);
  ASSERT_TRUE(env.shards.has_value());

  // A shard slice reads far fewer pages than a whole-relation join, so the
  // per-read rate is higher than the unsharded test's 5%; 8 retry attempts
  // still make an unrecovered read a ~1.5e-5 event per I/O.
  PBSM_ASSERT_OK_AND_ASSIGN(auto injector,
                            FaultInjector::Parse("seed=11;read=0.25"));
  env.shards->shard(1).disk->set_fault_injector(injector);

  JoinService router(&*env.shards, JoinServiceConfig());
  CollectingSink sink;
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "hydro";
  request.method = JoinMethod::kPbsm;
  request.sink = sink.Sink();

  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse response,
                            router.Execute(request));
  EXPECT_EQ(sink.ToIds(env), expected_);
  EXPECT_EQ(response.num_results, expected_.size());
  // The scenario must actually have exercised the fault + retry path.
  EXPECT_GT(injector->injected_faults(), 0u);
  EXPECT_EQ(env.shards->total_pinned_frames(), 0u);
  router.Shutdown();
}

TEST_F(JoinFaultTest, ShardedFaultOutsideWindowDispatchDoesNotAffectQuery) {
  ShardedEnv env;
  StartSharded(&env, roads_, hydro_, /*num_shards=*/4,
               /*shard_pool_bytes=*/8 * kPageSize);
  ASSERT_TRUE(env.shards.has_value());

  // Kill shard 0's disk outright, then query a window strictly inside
  // shard 2's strip: the scatter must never dispatch to (or read from) the
  // dead shard.
  PBSM_ASSERT_OK_AND_ASSIGN(auto injector,
                            FaultInjector::Parse("seed=11;read=1"));
  env.shards->shard(0).disk->set_fault_injector(injector);

  const ShardLayout layout = env.shards->layout();
  const Rect strip = layout.Extent(2);
  const double margin = strip.width() / 4.0;
  const Rect window(strip.xlo + margin, strip.ylo, strip.xhi - margin,
                    strip.yhi);

  JoinService router(&*env.shards, JoinServiceConfig());
  CollectingSink sink;
  JoinRequest request;
  request.r_dataset = "road";
  request.s_dataset = "hydro";
  request.method = JoinMethod::kPbsm;
  request.window = window;
  request.sink = sink.Sink();

  PBSM_ASSERT_OK_AND_ASSIGN(const JoinResponse response,
                            router.Execute(request));
  ASSERT_EQ(response.shard_slices.size(), 1u);
  EXPECT_EQ(response.shard_slices[0].shard, 2u);

  const IdPairSet expected =
      WindowOracle(roads_, hydro_, SpatialPredicate::kIntersects, window);
  EXPECT_GT(expected.size(), 0u) << "degenerate window; widen the strip";
  EXPECT_EQ(sink.ToIds(env), expected);
  EXPECT_EQ(response.num_results, expected.size());
  EXPECT_EQ(injector->injected_faults(), 0u)
      << "the dead shard's disk was read";
  EXPECT_EQ(env.shards->total_pinned_frames(), 0u);
  router.Shutdown();
}

}  // namespace
}  // namespace pbsm
