#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/canceller.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/join_methods_internal.h"
#include "core/spatial_join.h"
#include "datagen/loader.h"
#include "datagen/tiger_gen.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

using PairSet = std::set<std::pair<uint64_t, uint64_t>>;

constexpr DedupMode kDedupModes[] = {DedupMode::kTwoLayer, DedupMode::kMerge};

/// `n` short random segments inside [origin, origin + 100]^2.
std::vector<Tuple> Segments(Rng* rng, size_t n, double origin) {
  std::vector<Tuple> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = origin + rng->UniformDouble(0, 100);
    const double y = origin + rng->UniformDouble(0, 100);
    out[i].id = i;
    out[i].geometry = Geometry::MakePolyline(
        {{x, y},
         {x + rng->UniformDouble(1, 10), y + rng->UniformDouble(1, 10)}});
  }
  return out;
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool tp(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    tp.Submit([&count] { count.fetch_add(1); });
  }
  tp.Wait();
  EXPECT_EQ(count.load(), 1000);
  // The pool is reusable for a second batch.
  tp.ParallelFor(64, [&count](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1064);
}

TEST(ThreadPoolTest, WorkStealingDrainsImbalancedQueues) {
  // One long task + many short ones: the short ones must finish via steals
  // while the long task's home worker is busy.
  ThreadPool tp(4);
  std::atomic<int> done{0};
  tp.Submit([&] {
    // Busy-wait until the short tasks are done (steals make this finite).
    while (done.load() < 100) std::this_thread::yield();
  });
  for (int i = 0; i < 100; ++i) {
    tp.Submit([&done] { done.fetch_add(1); });
  }
  tp.Wait();
  EXPECT_EQ(done.load(), 100);
}

class ParallelPbsmExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<StorageEnv>(1024 * kPageSize);
    TigerGenerator gen(TigerGenerator::Params{});
    PBSM_ASSERT_OK_AND_ASSIGN(
        StoredRelation roads,
        LoadRelation(env_->pool(), nullptr, "road", gen.GenerateRoads(1500)));
    PBSM_ASSERT_OK_AND_ASSIGN(
        StoredRelation hydro,
        LoadRelation(env_->pool(), nullptr, "hydro",
                     gen.GenerateHydrography(500)));
    roads_ = std::make_unique<StoredRelation>(std::move(roads));
    hydro_ = std::make_unique<StoredRelation>(std::move(hydro));
  }

  /// Runs the parallel executor through the facade.
  Result<JoinResult> RunParallel(const JoinOptions& opts,
                                 PairSet* pairs = nullptr,
                                 ParallelJoinStats* stats = nullptr) {
    JoinSpec spec;
    spec.method = JoinMethod::kParallelPbsm;
    spec.options = opts;
    spec.parallel_stats = stats;
    if (pairs != nullptr) {
      spec.sink = [pairs](Oid r, Oid s) {
        pairs->emplace(r.Encode(), s.Encode());
      };
    }
    return SpatialJoin(env_->pool(), roads_->AsInput(), hydro_->AsInput(),
                       spec);
  }

  /// Joins `r` x `s` with `method`, collecting the sink's pairs.
  PairSet JoinPairs(JoinMethod method, const StoredRelation& r,
                    const StoredRelation& s, const JoinOptions& opts) {
    JoinSpec spec;
    spec.method = method;
    spec.options = opts;
    PairSet pairs;
    spec.sink = [&pairs](Oid a, Oid b) {
      pairs.emplace(a.Encode(), b.Encode());
    };
    auto result = SpatialJoin(env_->pool(), r.AsInput(), s.AsInput(), spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return pairs;
  }

  PairSet SerialReference(size_t budget) {
    JoinSpec spec;
    spec.options.memory_budget_bytes = budget;
    PairSet expected;
    spec.sink = [&](Oid r, Oid s) {
      expected.emplace(r.Encode(), s.Encode());
    };
    auto result = SpatialJoin(env_->pool(), roads_->AsInput(),
                              hydro_->AsInput(), spec);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(expected.size(), 0u);
    return expected;
  }

  std::unique_ptr<StorageEnv> env_;
  std::unique_ptr<StoredRelation> roads_, hydro_;
};

// The sweep axis is the filter kernel the per-partition sweeps run on.
TEST_F(ParallelPbsmExecTest, MatchesSerialAcrossThreadCountsAndSweeps) {
  const PairSet expected = SerialReference(1 << 20);
  for (const SimdMode simd : {SimdMode::kScalar, SimdMode::kAuto}) {
    for (const uint32_t threads : {1u, 2u, 8u}) {
      JoinOptions opts;
      opts.memory_budget_bytes = 1 << 20;
      opts.simd = simd;
      opts.num_threads = threads;
      PairSet got;
      ParallelJoinStats stats;
      auto result = RunParallel(opts, &got, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(got, expected)
          << threads << " threads, simd " << static_cast<int>(simd);
      // The sink saw each de-duplicated pair exactly once.
      EXPECT_EQ(result->num_results, got.size());
      EXPECT_EQ(stats.num_threads, threads);
      EXPECT_EQ(stats.worker_busy_seconds.size(), threads);
      EXPECT_GT(stats.TotalBusySeconds(), 0.0);
      // TotalBusySeconds sums per-task timings while the denominator is
      // per-worker busy time, which also covers timer and queue overhead
      // between tasks — so the ratio can land epsilon below 1.0.
      EXPECT_GE(stats.CriticalPathSpeedup(), 0.95);
    }
  }
}

TEST_F(ParallelPbsmExecTest, DefaultThreadCountUsesHardwareConcurrency) {
  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_threads = 0;  // Hardware concurrency.
  ParallelJoinStats stats;
  auto result = RunParallel(opts, nullptr, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(stats.num_threads, ThreadPool::DefaultThreads());
  EXPECT_GT(result->num_results, 0u);
}

TEST_F(ParallelPbsmExecTest, PartitionOverrideIsRespected) {
  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_threads = 2;
  opts.num_partitions_override = 3;
  auto result = RunParallel(opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->breakdown.num_partitions, 3u);
}

TEST_F(ParallelPbsmExecTest, CostBreakdownHasAllPhases) {
  // Default (two-layer) mode: no merge phase exists — its absence from the
  // breakdown is the observable contract of duplicate-free filtering.
  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_threads = 2;
  ParallelJoinStats stats;
  auto result = RunParallel(opts, nullptr, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JoinCostBreakdown& cost = result->breakdown;
  ASSERT_EQ(cost.phases.size(), 3u);
  EXPECT_EQ(cost.phases[0].first, "partition inputs");
  EXPECT_EQ(cost.phases[1].first, "filter partitions");
  EXPECT_EQ(cost.phases[2].first, "refinement");
  EXPECT_GT(cost.candidates, 0u);
  EXPECT_EQ(cost.duplicates_removed, 0u);
  EXPECT_GT(cost.Total().cpu_seconds, 0.0);
}

TEST_F(ParallelPbsmExecTest, MergeDedupModeRunsTheSamePhases) {
  // The executor always runs two-layer: asking for the paper's merge dedup
  // changes nothing about its phases.
  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_threads = 2;
  auto two_layer = RunParallel(opts);
  ASSERT_TRUE(two_layer.ok()) << two_layer.status().ToString();
  opts.dedup_mode = DedupMode::kMerge;
  auto merge = RunParallel(opts);
  ASSERT_TRUE(merge.ok()) << merge.status().ToString();
  ASSERT_EQ(merge->breakdown.phases.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(merge->breakdown.phases[i].first,
              two_layer->breakdown.phases[i].first);
  }
  EXPECT_EQ(merge->breakdown.candidates, two_layer->breakdown.candidates);
  EXPECT_EQ(merge->breakdown.duplicates_removed, 0u);
}

TEST_F(ParallelPbsmExecTest, EmitsExactlyTheCandidatesMergeDedupKeeps) {
  // Duplicate-freedom: on the same partition grid, serial PBSM under the
  // paper's replicate-then-dedup scheme sweeps replicated candidates and
  // removes them; the parallel two-layer filter emits only the survivors.
  JoinOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  opts.num_partitions_override = 7;
  opts.dedup_mode = DedupMode::kMerge;
  JoinSpec spec;
  spec.method = JoinMethod::kPbsm;
  spec.options = opts;
  PairSet serial_pairs;
  spec.sink = [&serial_pairs](Oid r, Oid s) {
    serial_pairs.emplace(r.Encode(), s.Encode());
  };
  auto serial = SpatialJoin(env_->pool(), roads_->AsInput(),
                            hydro_->AsInput(), spec);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  const JoinCostBreakdown& merge = serial->breakdown;
  ASSERT_GT(merge.duplicates_removed, 0u);

  opts.num_threads = 4;
  PairSet parallel_pairs;
  auto parallel = RunParallel(opts, &parallel_pairs);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->breakdown.candidates,
            merge.candidates - merge.duplicates_removed);
  EXPECT_EQ(parallel->breakdown.duplicates_removed, 0u);
  EXPECT_EQ(parallel_pairs, serial_pairs);
}

TEST_F(ParallelPbsmExecTest, RelationWithFewerPagesThanBuckets) {
  // One R page and 8 threads: 31 of the 32 refinement buckets are empty.
  Rng rng(7);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation r,
      LoadRelation(env_->pool(), nullptr, "one_page", Segments(&rng, 40, 0.0)));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation s,
      LoadRelation(env_->pool(), nullptr, "many", Segments(&rng, 400, 0.0)));
  ASSERT_EQ(r.heap.num_pages(), 1u);
  for (const DedupMode mode : kDedupModes) {
    JoinOptions opts;
    opts.memory_budget_bytes = 1 << 20;
    opts.dedup_mode = mode;
    const PairSet expected = JoinPairs(JoinMethod::kPbsm, r, s, opts);
    EXPECT_FALSE(expected.empty());
    opts.num_threads = 8;
    EXPECT_EQ(JoinPairs(JoinMethod::kParallelPbsm, r, s, opts), expected)
        << "dedup " << static_cast<int>(mode);
  }
}

TEST_F(ParallelPbsmExecTest, SkewedCandidatesAllInOneBucket) {
  // Only R's first tuples lie near S, so every candidate has an OID_R on
  // page 0 and one refinement task does all the work.
  Rng rng(12);
  std::vector<Tuple> r_tuples = Segments(&rng, 40, 0.0);
  for (Tuple& t : Segments(&rng, 3000, 10000.0)) {
    r_tuples.push_back(std::move(t));
  }
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation r,
      LoadRelation(env_->pool(), nullptr, "skew_r", std::move(r_tuples)));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation s,
      LoadRelation(env_->pool(), nullptr, "skew_s", Segments(&rng, 400, 0.0)));
  ASSERT_GT(r.heap.num_pages(), 16u);  // More pages than buckets.
  for (const DedupMode mode : kDedupModes) {
    JoinOptions opts;
    opts.memory_budget_bytes = 1 << 20;
    opts.dedup_mode = mode;
    const PairSet expected = JoinPairs(JoinMethod::kPbsm, r, s, opts);
    ASSERT_FALSE(expected.empty());
    for (const auto& pair : expected) {
      EXPECT_EQ(Oid::Decode(pair.first).page_no, 0u);
    }
    opts.num_threads = 4;
    EXPECT_EQ(JoinPairs(JoinMethod::kParallelPbsm, r, s, opts), expected)
        << "dedup " << static_cast<int>(mode);
  }
}

TEST_F(ParallelPbsmExecTest, SinkIsNeverEnteredConcurrently) {
  for (const DedupMode mode : kDedupModes) {
    JoinOptions opts;
    opts.memory_budget_bytes = 1 << 20;
    opts.dedup_mode = mode;
    const PairSet expected = JoinPairs(JoinMethod::kPbsm, *roads_, *hydro_,
                                       opts);
    opts.num_threads = 4;
    std::atomic<int> inside{0};
    std::atomic<int> overlaps{0};
    PairSet got;  // Unlocked: the executor must serialize sink calls.
    const ResultSink sink = [&](Oid r, Oid s) {
      if (inside.fetch_add(1) != 0) overlaps.fetch_add(1);
      got.emplace(r.Encode(), s.Encode());
      std::this_thread::yield();
      inside.fetch_sub(1);
    };
    // The executor itself, not the facade: the operator tree would buffer
    // the pairs and call the sink from the driving thread alone.
    auto result = ParallelPbsmJoin(env_->pool(), roads_->AsInput(),
                                   hydro_->AsInput(),
                                   SpatialPredicate::kIntersects, opts, sink);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(overlaps.load(), 0);
    EXPECT_EQ(got, expected) << "dedup " << static_cast<int>(mode);
    EXPECT_EQ(result->results, got.size());
  }
}

TEST_F(ParallelPbsmExecTest, CancelMidRefinementReleasesPageRunPins) {
  // Dense enough that a refinement task fills a sink batch mid-stream.
  Rng rng(5);
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation r,
      LoadRelation(env_->pool(), nullptr, "dense_r",
                   Segments(&rng, 2000, 0.0)));
  PBSM_ASSERT_OK_AND_ASSIGN(
      const StoredRelation s,
      LoadRelation(env_->pool(), nullptr, "dense_s",
                   Segments(&rng, 2000, 0.0)));
  for (const DedupMode mode : kDedupModes) {
    Canceller cancel;
    JoinOptions opts;
    opts.memory_budget_bytes = 1 << 20;
    opts.dedup_mode = mode;
    opts.num_threads = 1;
    opts.cancel = &cancel;
    // The first batch reaches the sink from inside a refinement stream that
    // still holds its R and S page-run pins; cancel right there.
    size_t pinned_at_cancel = 0;
    const ResultSink sink = [&](Oid, Oid) {
      if (cancel.is_cancelled()) return;
      pinned_at_cancel = env_->pool()->pinned_frames();
      cancel.Cancel();
    };
    auto result = ParallelPbsmJoin(env_->pool(), r.AsInput(), s.AsInput(),
                                   SpatialPredicate::kIntersects, opts, sink);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    EXPECT_GE(pinned_at_cancel, 2u) << "dedup " << static_cast<int>(mode);
    EXPECT_EQ(env_->pool()->pinned_frames(), 0u);
  }
}

}  // namespace
}  // namespace pbsm
