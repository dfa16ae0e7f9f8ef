#include "service/join_planner.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/logging.h"
#include "service/shard_manager.h"

namespace pbsm {

namespace {

double Log2Safe(double n) { return std::log2(std::max(n, 2.0)); }

/// Index-build cost of one side: n*log2(n) for the Hilbert sort that
/// dominates bulk loading. Zero when the service cache already holds the
/// tree — that term vanishing is exactly what makes warm R-tree joins win.
double BuildCost(const PlannerSide& side, const PlannerCosts& c) {
  if (side.index_cached) return 0.0;
  const double n = static_cast<double>(side.info->cardinality);
  return c.index_build_per_tuple_log * n * Log2Safe(n);
}

}  // namespace

std::string PlanChoice::TreeString() const {
  std::string out;
  for (const PlanOpEstimate& node : operator_tree) {
    out.append(static_cast<size_t>(node.depth) * 2, ' ');
    char buf[96];
    std::snprintf(buf, sizeof(buf), " (rows~%.0f, est=%.4fs)\n",
                  node.est_rows, node.est_seconds);
    out += node.op + ": " + node.detail + buf;
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

std::string PlanChoice::ToString() const {
  std::string out;
  for (size_t i = 0; i < alternatives.size(); ++i) {
    if (i > 0) out += " > ";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s(%.3fs)",
                  std::string(JoinMethodName(alternatives[i].method)).c_str(),
                  alternatives[i].estimated_seconds);
    out += buf;
  }
  return out;
}

PlanChoice PlanJoin(const PlannerSide& r, const PlannerSide& s,
                    uint32_t num_threads, const PlannerCosts& c) {
  PBSM_CHECK(r.info != nullptr && s.info != nullptr);
  const double n_r = static_cast<double>(r.info->cardinality);
  const double n_s = static_cast<double>(s.info->cardinality);
  const double n_total = n_r + n_s;

  // Candidate estimate: histogram when both sides have one (sharper on
  // clustered data), catalog density fallback otherwise.
  double candidates;
  if (r.histogram != nullptr && s.histogram != nullptr &&
      r.histogram->nx() == s.histogram->nx() &&
      r.histogram->ny() == s.histogram->ny()) {
    candidates = r.histogram->EstimateJoinCandidates(*s.histogram);
  } else {
    candidates = EstimateCandidatePairs(*r.info, *s.info);
  }

  // Refinement cost is common to every method (they all verify the same
  // candidate set, modulo each method's false-positive rate) and scales
  // with geometry complexity: segment intersection work grows with the
  // combined vertex count of a pair.
  const double complexity =
      std::max(1.0, (r.info->avg_points() + s.info->avg_points()) / 30.0);
  const double refine = c.refine_per_candidate * complexity * candidates;

  uint32_t threads = num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }

  PlanChoice choice;
  choice.estimated_candidates = candidates;
  auto add = [&choice](JoinMethod m, double sec) {
    choice.alternatives.push_back({m, sec});
  };

  const double pbsm_filter = c.pbsm_per_tuple * n_total;
  // The candidate merge-dedup only exists in serial PBSM under
  // DedupMode::kMerge; the default two-layer filter emits each candidate
  // exactly once and has no such phase.
  const double merge_dedup = c.dedup_mode == DedupMode::kMerge
                                 ? c.merge_dedup_per_candidate * candidates
                                 : 0.0;
  add(JoinMethod::kPbsm, pbsm_filter + merge_dedup + refine);

  // Parallel PBSM: near-linear filter+refine speedup minus a per-tuple
  // coordination tax. At threads == 1 this is strictly pbsm + overhead, so
  // the serial executor wins on a single-core host. The executor always
  // runs two-layer, so no merge-dedup term applies.
  const double speedup = 1.0 + c.parallel_scaling * (threads - 1);
  add(JoinMethod::kParallelPbsm,
      (pbsm_filter + refine) / speedup +
          c.parallel_overhead_per_tuple * n_total);

  // Index scans run ~2x faster on the in-memory SoA ribbons (the bulk-load
  // default) than on AoS page parsing; discount the traversal/probe terms
  // accordingly so the index methods are not overcosted on warm caches.
  const double node_scan =
      ResolveNodeLayout(c.node_layout) != NodeLayout::kAos
          ? c.simd_node_scan_factor
          : 1.0;

  // R-tree join: build whatever is not cached, then synchronized traversal.
  add(JoinMethod::kRtree,
      BuildCost(r, c) + BuildCost(s, c) +
          c.rtree_traverse_per_tuple * node_scan * n_total + refine);

  // INL: index the smaller side (matching the facade), probe with the
  // larger. The per-probe log term deliberately overestimates — INL only
  // ever wins when one input is tiny, and overcosting it is the safe error.
  const PlannerSide& small = n_r <= n_s ? r : s;
  const double n_probe = std::max(n_r, n_s);
  const double n_indexed = std::min(n_r, n_s);
  add(JoinMethod::kInl,
      BuildCost(small, c) +
          c.inl_probe_log * node_scan * n_probe * Log2Safe(n_indexed) +
          refine);

  add(JoinMethod::kSpatialHash, c.hash_per_tuple * n_total + refine);

  // Z-order: cheap transform but the z-cell approximation inflates the
  // candidate set, so refinement pays a constant factor.
  add(JoinMethod::kZOrder,
      c.zorder_per_tuple * n_total + refine * c.zorder_candidate_inflation);

  std::stable_sort(choice.alternatives.begin(), choice.alternatives.end(),
                   [](const MethodCost& a, const MethodCost& b) {
                     return a.estimated_seconds < b.estimated_seconds;
                   });
  choice.method = choice.alternatives.front().method;
  choice.estimated_seconds = choice.alternatives.front().estimated_seconds;

  // Render the chosen method as the operator tree BuildJoinTree will
  // construct, splitting that method's total onto the operator that pays
  // each term. `est_rows` out of the filter is the candidate estimate; the
  // planner has no output-selectivity model, so refine reuses it as an
  // upper bound.
  const std::string pair_name = r.info->name + " x " + s.info->name;
  const double filter_cost =
      choice.estimated_seconds -
      (choice.method == JoinMethod::kZOrder
           ? refine * c.zorder_candidate_inflation
           : refine);
  switch (choice.method) {
    case JoinMethod::kParallelPbsm:
      choice.operator_tree.push_back({0, "parallel_join",
                                      "parallel_pbsm " + pair_name, candidates,
                                      choice.estimated_seconds});
      break;
    case JoinMethod::kZOrder:
      choice.operator_tree.push_back({0, "refine", "refine " + pair_name,
                                      candidates,
                                      refine * c.zorder_candidate_inflation});
      choice.operator_tree.push_back(
          {1, "filter_join",
           std::string(JoinMethodName(choice.method)) + " filter " + pair_name,
           candidates * c.zorder_candidate_inflation, filter_cost});
      break;
    default:
      choice.operator_tree.push_back(
          {0, "refine", "refine " + pair_name, candidates, refine});
      choice.operator_tree.push_back(
          {1, "filter_join",
           std::string(JoinMethodName(choice.method)) + " filter " + pair_name,
           candidates, filter_cost});
      break;
  }
  return choice;
}

std::string ShardedPlan::ToString() const {
  std::string out;
  for (const ShardSlicePlan& slice : slices) {
    char line[160];
    if (slice.r_cardinality == 0 || slice.s_cardinality == 0) {
      std::snprintf(line, sizeof(line), "shard%u: empty slice (%llu x %llu)\n",
                    slice.shard,
                    static_cast<unsigned long long>(slice.r_cardinality),
                    static_cast<unsigned long long>(slice.s_cardinality));
    } else {
      std::snprintf(
          line, sizeof(line), "shard%u: %s est=%.3fs (%llu x %llu)\n",
          slice.shard,
          std::string(JoinMethodName(slice.choice.method)).c_str(),
          slice.choice.estimated_seconds,
          static_cast<unsigned long long>(slice.r_cardinality),
          static_cast<unsigned long long>(slice.s_cardinality));
    }
    out += line;
  }
  char totals[96];
  std::snprintf(totals, sizeof(totals),
                "critical path %.3fs, serial %.3fs over %zu shards",
                critical_path_seconds, serial_seconds, slices.size());
  out += totals;
  return out;
}

Result<ShardedPlan> PlanShardedJoin(const ShardManager& shards,
                                    const std::string& r_dataset,
                                    const std::string& s_dataset,
                                    uint32_t num_threads,
                                    const PlannerCosts& costs,
                                    double index_fill_factor) {
  ShardedPlan plan;
  plan.slices.reserve(shards.num_shards());
  for (uint32_t i = 0; i < shards.num_shards(); ++i) {
    PBSM_ASSIGN_OR_RETURN(const ShardManager::ShardDatasetRef r,
                          shards.FindDataset(i, r_dataset));
    PBSM_ASSIGN_OR_RETURN(const ShardManager::ShardDatasetRef s,
                          shards.FindDataset(i, s_dataset));
    ShardSlicePlan slice;
    slice.shard = i;
    slice.r_cardinality = r->info.cardinality;
    slice.s_cardinality = s->info.cardinality;
    if (r->info.cardinality > 0 && s->info.cardinality > 0) {
      const ShardManager::Shard& shard = shards.shard(i);
      PlannerSide pr{&r->info,
                     r->histogram.has_value() ? &*r->histogram : nullptr,
                     shard.cache->Contains(JoinInput{r->heap.get(), r->info},
                                           index_fill_factor)};
      PlannerSide ps{&s->info,
                     s->histogram.has_value() ? &*s->histogram : nullptr,
                     shard.cache->Contains(JoinInput{s->heap.get(), s->info},
                                           index_fill_factor)};
      slice.choice = PlanJoin(pr, ps, num_threads, costs);
      plan.critical_path_seconds = std::max(plan.critical_path_seconds,
                                            slice.choice.estimated_seconds);
      plan.serial_seconds += slice.choice.estimated_seconds;
    }
    plan.slices.push_back(std::move(slice));
  }
  return plan;
}

}  // namespace pbsm
