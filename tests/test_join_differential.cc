// Differential join correctness: every SpatialJoin method, across a seeded
// randomized sweep of datasets, tile counts, thread counts and predicates,
// must produce exactly the pair set of a brute-force O(n^2) oracle that
// shares nothing with the join machinery beyond the geometry kernels.
//
// This harness (tests/join_test_harness.h) is also what the fault-injection
// tests replay under injected I/O errors, so keeping it oracle-exact here is
// what gives the fault suite its "bit-identical results" baseline.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "datagen/tiger_gen.h"
#include "service/join_service.h"
#include "service/shard_manager.h"
#include "tests/join_test_harness.h"
#include "tests/test_util.h"

namespace pbsm {
namespace {

struct SweepCase {
  uint64_t dataset_seed;
  uint64_t r_count;
  uint64_t s_count;
  uint32_t num_tiles;
  uint32_t num_threads;
  SpatialPredicate pred;
  bool clustered;

  std::string Describe() const {
    return "seed=" + std::to_string(dataset_seed) +
           " r=" + std::to_string(r_count) + " s=" + std::to_string(s_count) +
           " tiles=" + std::to_string(num_tiles) +
           " threads=" + std::to_string(num_threads) +
           " pred=" + (pred == SpatialPredicate::kIntersects ? "intersects"
                                                             : "contains") +
           (clustered ? " clustered" : "");
  }
};

/// Draws the sweep from one fixed seed so every run tests the identical
/// configurations; bump kSweepSeed deliberately to rotate the corpus.
std::vector<SweepCase> MakeSweep() {
  constexpr uint64_t kSweepSeed = 20260806;
  Rng rng(kSweepSeed);
  std::vector<SweepCase> cases;
  for (int i = 0; i < 6; ++i) {
    SweepCase c;
    c.dataset_seed = rng.Next();
    c.r_count = 80 + rng.Uniform(220);   // 80..299 tuples.
    c.s_count = 40 + rng.Uniform(160);   // 40..199 tuples.
    c.num_tiles = 16u << rng.Uniform(5); // 16..256.
    c.num_threads = 1 + static_cast<uint32_t>(rng.Uniform(4));  // 1..4.
    c.pred = rng.Bernoulli(0.5) ? SpatialPredicate::kIntersects
                                : SpatialPredicate::kContains;
    c.clustered = rng.Bernoulli(0.3);
    cases.push_back(c);
  }
  return cases;
}

class JoinDifferentialTest : public ::testing::Test {};

TEST_F(JoinDifferentialTest, AllMethodsMatchBruteForceOracleAcrossSweep) {
  for (const SweepCase& c : MakeSweep()) {
    SCOPED_TRACE(c.Describe());
    TigerGenerator::Params params;
    params.seed = c.dataset_seed;
    // An eighth of the default universe: at sweep-sized cardinalities the
    // full Wisconsin extent yields near-empty joins, which would make the
    // differential comparison vacuous.
    params.universe = Rect(params.universe.xlo, params.universe.ylo,
                           params.universe.xlo + params.universe.width() / 8,
                           params.universe.ylo + params.universe.height() / 8);
    TigerGenerator gen(params);
    std::vector<Tuple> roads = gen.GenerateRoads(c.r_count);
    std::vector<Tuple> hydro = gen.GenerateHydrography(c.s_count);

    const IdPairSet expected = BruteForceJoin(roads, hydro, c.pred);

    // Every method must match the oracle under the scalar filter kernel AND
    // the vector kernel (kAvx2 resolves to scalar on hosts without AVX2, so
    // the second pass is never vacuous — just redundant there).
    for (const SimdMode simd : {SimdMode::kScalar, SimdMode::kAvx2}) {
      SCOPED_TRACE(simd == SimdMode::kScalar ? "simd=scalar" : "simd=avx2");
      for (const JoinMethod method : AllJoinMethods()) {
        SCOPED_TRACE(JoinMethodName(method));
        // The dedup knob belongs to the PBSM methods: exercise both the
        // two-layer (duplicate-free) and merge-dedup filters there; the
        // other methods ignore it and run once.
        const bool pbsm_family = method == JoinMethod::kPbsm ||
                                 method == JoinMethod::kParallelPbsm;
        std::vector<DedupMode> modes = {DedupMode::kTwoLayer};
        if (pbsm_family) modes.push_back(DedupMode::kMerge);
        for (const DedupMode mode : modes) {
          SCOPED_TRACE(DedupModeName(mode));
          StorageEnv env(512 * kPageSize);
          PBSM_ASSERT_OK_AND_ASSIGN(
              const StoredRelation r,
              LoadRelation(env.pool(), nullptr, "road", roads, c.clustered));
          PBSM_ASSERT_OK_AND_ASSIGN(
              const StoredRelation s,
              LoadRelation(env.pool(), nullptr, "hydro", hydro, c.clustered));

          JoinSpec spec;
          spec.method = method;
          spec.predicate = c.pred;
          spec.options.memory_budget_bytes = 1 << 20;
          spec.options.num_tiles = c.num_tiles;
          spec.options.num_threads = c.num_threads;
          spec.options.simd = simd;
          spec.options.dedup_mode = mode;
          PBSM_ASSERT_OK_AND_ASSIGN(const IdPairSet got,
                                    RunJoinToIdPairs(env.pool(), r, s, spec));
          EXPECT_EQ(got, expected);
        }
      }
    }
  }
}

// The node-layout axis for the index-based methods: INL probes and the
// BKS93 tree join must be oracle-exact under every in-memory node layout
// (AoS page scans, quantized uint16 ribbons) crossed with both filter
// kernels. This is the end-to-end check that the
// quantized prefilter's re-verification step loses nothing and invents
// nothing — through real trees, real candidates, real refinement.
TEST_F(JoinDifferentialTest, IndexMethodsMatchOracleAcrossNodeLayouts) {
  const std::vector<SweepCase> sweep = MakeSweep();
  // Three cases give predicate/clustering variety; layouts are orthogonal
  // to dataset shape, so the full six would only add runtime.
  for (size_t ci = 0; ci < 3 && ci < sweep.size(); ++ci) {
    const SweepCase& c = sweep[ci];
    SCOPED_TRACE(c.Describe());
    TigerGenerator::Params params;
    params.seed = c.dataset_seed;
    params.universe = Rect(params.universe.xlo, params.universe.ylo,
                           params.universe.xlo + params.universe.width() / 8,
                           params.universe.ylo + params.universe.height() / 8);
    TigerGenerator gen(params);
    std::vector<Tuple> roads = gen.GenerateRoads(c.r_count);
    std::vector<Tuple> hydro = gen.GenerateHydrography(c.s_count);
    const IdPairSet expected = BruteForceJoin(roads, hydro, c.pred);

    StorageEnv env(512 * kPageSize);
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation r,
        LoadRelation(env.pool(), nullptr, "road", roads, c.clustered));
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation s,
        LoadRelation(env.pool(), nullptr, "hydro", hydro, c.clustered));

    for (const NodeLayout layout :
         {NodeLayout::kAos, NodeLayout::kSoaQuantized}) {
      SCOPED_TRACE(std::string("layout=") +
                   std::string(NodeLayoutName(layout)));
      for (const SimdMode simd : {SimdMode::kScalar, SimdMode::kAvx2}) {
        SCOPED_TRACE(simd == SimdMode::kScalar ? "simd=scalar" : "simd=avx2");
        for (const JoinMethod method :
             {JoinMethod::kInl, JoinMethod::kRtree}) {
          SCOPED_TRACE(JoinMethodName(method));
          JoinSpec spec;
          spec.method = method;
          spec.predicate = c.pred;
          spec.options.memory_budget_bytes = 1 << 20;
          spec.options.num_threads = c.num_threads;
          spec.options.simd = simd;
          spec.options.rtree_layout = layout;
          PBSM_ASSERT_OK_AND_ASSIGN(const IdPairSet got,
                                    RunJoinToIdPairs(env.pool(), r, s, spec));
          EXPECT_EQ(got, expected);
        }
      }
    }
  }
}

/// Runs one request through the router with a thread-safe collecting sink
/// (router sinks fire concurrently from shard workers) and translates the
/// emitted GLOBAL oids back into tuple-id space.
Result<IdPairSet> RunShardedToIdPairs(JoinService* router,
                                      JoinRequest request,
                                      const std::map<uint64_t, uint64_t>& r_ids,
                                      const std::map<uint64_t, uint64_t>& s_ids,
                                      uint64_t* num_results = nullptr) {
  std::mutex mutex;
  std::vector<std::pair<Oid, Oid>> raw;
  request.sink = [&mutex, &raw](Oid ro, Oid so) {
    std::lock_guard<std::mutex> lock(mutex);
    raw.emplace_back(ro, so);
  };
  PBSM_ASSIGN_OR_RETURN(const JoinResponse response,
                        router->Execute(std::move(request)));
  if (num_results != nullptr) *num_results = response.num_results;
  IdPairSet out;
  for (const auto& [ro, so] : raw) {
    out.emplace(r_ids.at(ro.Encode()), s_ids.at(so.Encode()));
  }
  return out;
}

// The sharded scatter-gather axis: for every shard count, every method, and
// both dedup schemes, the gathered pair MULTISET must equal the single-shard
// oracle — no pair lost at a shard border, none emitted twice (the sink
// count equals the set size, so duplicates cannot hide).
TEST_F(JoinDifferentialTest, ShardedScatterGatherMatchesOracleAcrossShardCounts) {
  const std::vector<SweepCase> sweep = MakeSweep();
  // The first three sweep cases give predicate/clustering variety; the full
  // six would double runtime without new border geometry.
  for (size_t ci = 0; ci < 3 && ci < sweep.size(); ++ci) {
    const SweepCase& c = sweep[ci];
    SCOPED_TRACE(c.Describe());
    TigerGenerator::Params params;
    params.seed = c.dataset_seed;
    params.universe = Rect(params.universe.xlo, params.universe.ylo,
                           params.universe.xlo + params.universe.width() / 8,
                           params.universe.ylo + params.universe.height() / 8);
    TigerGenerator gen(params);
    const std::vector<Tuple> roads = gen.GenerateRoads(c.r_count);
    const std::vector<Tuple> hydro = gen.GenerateHydrography(c.s_count);
    const IdPairSet expected = BruteForceJoin(roads, hydro, c.pred);

    StorageEnv env(1024 * kPageSize);
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation r,
        LoadRelation(env.pool(), nullptr, "road", roads, c.clustered));
    PBSM_ASSERT_OK_AND_ASSIGN(
        const StoredRelation s,
        LoadRelation(env.pool(), nullptr, "hydro", hydro, c.clustered));
    PBSM_ASSERT_OK_AND_ASSIGN(const auto r_ids, OidToIdMap(r.heap));
    PBSM_ASSERT_OK_AND_ASSIGN(const auto s_ids, OidToIdMap(s.heap));

    for (const uint32_t num_shards : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards));
      ShardManagerConfig shard_config;
      shard_config.num_shards = num_shards;
      ShardManager shards(shard_config);
      PBSM_ASSERT_OK(shards.RegisterDataset("road", &r.heap, r.info));
      PBSM_ASSERT_OK(shards.RegisterDataset("hydro", &s.heap, s.info));

      for (const DedupMode dedup : {DedupMode::kTwoLayer, DedupMode::kMerge}) {
        SCOPED_TRACE(DedupModeName(dedup));
        JoinServiceConfig router_config;
        router_config.join_defaults.memory_budget_bytes = 1 << 20;
        router_config.join_defaults.num_tiles = c.num_tiles;
        router_config.join_defaults.num_threads = c.num_threads;
        router_config.join_defaults.dedup_mode = dedup;
        JoinService router(&shards, router_config);
        for (const JoinMethod method : AllJoinMethods()) {
          SCOPED_TRACE(JoinMethodName(method));
          JoinRequest request;
          request.r_dataset = "road";
          request.s_dataset = "hydro";
          request.predicate = c.pred;
          request.method = method;
          uint64_t num_results = 0;
          PBSM_ASSERT_OK_AND_ASSIGN(
              const IdPairSet got,
              RunShardedToIdPairs(&router, std::move(request), r_ids, s_ids,
                                  &num_results));
          EXPECT_EQ(got, expected);
          EXPECT_EQ(num_results, expected.size())
              << "sink count != distinct pairs: a border pair was duplicated";
        }
        router.Shutdown(/*drain=*/true);
      }
    }
  }
}

// Windows centered ON the shard boundaries — the adversarial case for
// window-clipped dispatch: pairs whose unclamped reference corner lies in a
// strip the window does not cover must still be emitted exactly once, by an
// overlapping shard (the clamped-corner ownership rule).
TEST_F(JoinDifferentialTest, ShardedBorderStraddlingWindowsMatchOracle) {
  const SweepCase c = MakeSweep()[0];
  TigerGenerator::Params params;
  params.seed = c.dataset_seed;
  params.universe = Rect(params.universe.xlo, params.universe.ylo,
                         params.universe.xlo + params.universe.width() / 8,
                         params.universe.ylo + params.universe.height() / 8);
  TigerGenerator gen(params);
  const std::vector<Tuple> roads = gen.GenerateRoads(250);
  const std::vector<Tuple> hydro = gen.GenerateHydrography(150);

  StorageEnv env(1024 * kPageSize);
  PBSM_ASSERT_OK_AND_ASSIGN(const StoredRelation r,
                            LoadRelation(env.pool(), nullptr, "road", roads));
  PBSM_ASSERT_OK_AND_ASSIGN(const StoredRelation s,
                            LoadRelation(env.pool(), nullptr, "hydro", hydro));
  PBSM_ASSERT_OK_AND_ASSIGN(const auto r_ids, OidToIdMap(r.heap));
  PBSM_ASSERT_OK_AND_ASSIGN(const auto s_ids, OidToIdMap(s.heap));

  for (const uint32_t num_shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardManagerConfig shard_config;
    shard_config.num_shards = num_shards;
    ShardManager shards(shard_config);
    PBSM_ASSERT_OK(shards.RegisterDataset("road", &r.heap, r.info));
    PBSM_ASSERT_OK(shards.RegisterDataset("hydro", &s.heap, s.info));
    const ShardLayout layout = shards.layout();
    JoinService router(&shards, {});

    // One window straddling each interior boundary, plus the full universe
    // as a degenerate "window that clips nothing".
    std::vector<Rect> windows;
    const double half_w = layout.universe().width() / (4.0 * num_shards);
    for (const double b : layout.boundaries()) {
      windows.emplace_back(b - half_w, layout.universe().ylo, b + half_w,
                           layout.universe().yhi);
    }
    windows.push_back(layout.universe());

    for (const Rect& window : windows) {
      SCOPED_TRACE("window.x=[" + std::to_string(window.xlo) + ", " +
                   std::to_string(window.xhi) + "]");
      const IdPairSet expected =
          WindowOracle(roads, hydro, SpatialPredicate::kIntersects, window);
      JoinRequest request;
      request.r_dataset = "road";
      request.s_dataset = "hydro";
      request.method = JoinMethod::kPbsm;
      request.window = window;
      uint64_t num_results = 0;
      PBSM_ASSERT_OK_AND_ASSIGN(
          const IdPairSet got,
          RunShardedToIdPairs(&router, std::move(request), r_ids, s_ids,
                              &num_results));
      EXPECT_EQ(got, expected);
      EXPECT_EQ(num_results, expected.size());
    }
    router.Shutdown(/*drain=*/true);
  }
}

TEST_F(JoinDifferentialTest, OracleIsNonTrivialOnSweep) {
  // Guards the sweep against degenerating into empty joins (which would
  // vacuously pass the differential comparison above).
  uint64_t total = 0;
  for (const SweepCase& c : MakeSweep()) {
    TigerGenerator::Params params;
    params.seed = c.dataset_seed;
    TigerGenerator gen(params);
    total += BruteForceJoin(gen.GenerateRoads(c.r_count),
                            gen.GenerateHydrography(c.s_count), c.pred)
                 .size();
  }
  EXPECT_GT(total, 0u);
}

TEST_F(JoinDifferentialTest, TinyAndEmptyInputs) {
  // Edge cardinalities the randomized sweep never hits: 0 and 1 tuples.
  TigerGenerator::Params params;
  params.seed = 7;
  TigerGenerator gen(params);
  const std::vector<Tuple> one = gen.GenerateRoads(1);
  const std::vector<Tuple> none;
  const std::vector<Tuple> few = gen.GenerateHydrography(12);

  struct Shape {
    std::vector<Tuple> r, s;
  };
  const Shape shapes[] = {{one, few}, {few, one}, {one, one}, {none, few}};
  for (const Shape& shape : shapes) {
    const IdPairSet expected =
        BruteForceJoin(shape.r, shape.s, SpatialPredicate::kIntersects);
    for (const JoinMethod method : AllJoinMethods()) {
      SCOPED_TRACE(JoinMethodName(method));
      StorageEnv env(512 * kPageSize);
      PBSM_ASSERT_OK_AND_ASSIGN(
          const StoredRelation r,
          LoadRelation(env.pool(), nullptr, "r", shape.r));
      PBSM_ASSERT_OK_AND_ASSIGN(
          const StoredRelation s,
          LoadRelation(env.pool(), nullptr, "s", shape.s));
      JoinSpec spec;
      spec.method = method;
      spec.options.num_tiles = 32;
      auto got = RunJoinToIdPairs(env.pool(), r, s, spec);
      if (shape.r.empty() || shape.s.empty()) {
        // An empty side may be rejected (empty universe) or yield an empty
        // result; either way it must not produce pairs or crash.
        if (got.ok()) {
          EXPECT_TRUE(got->empty());
        }
        continue;
      }
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, expected);
    }
  }
}

}  // namespace
}  // namespace pbsm
