// The SpatialJoin facade (declared in core/spatial_join.h). It lives in
// the exec library because every join runs as an operator tree.

#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/spatial_join.h"
#include "exec/plan_builder.h"

namespace pbsm {

namespace {

/// Bumps "join.cancelled.<method>" for kCancelled statuses and
/// "join.failures.<method>" for every other non-OK status.
void CountJoinFailure(JoinMethod method, const Status& status) {
  // Cancellations are not failures: they are the service tearing down
  // work on purpose, and alerting on them as errors would be noise.
  const bool cancelled = status.code() == StatusCode::kCancelled;
  MetricsRegistry::Global()
      .GetCounter((cancelled ? "join.cancelled." : "join.failures.") +
                  std::string(JoinMethodName(method)))
      ->Add();
}

/// Builds the pairwise operator tree and drives it, forwarding
/// (row[0], row[1]) to the user sink.
Result<JoinCostBreakdown> RunOperatorTree(BufferPool* pool,
                                          const JoinInput& r,
                                          const JoinInput& s,
                                          const JoinSpec& spec) {
  JoinCostBreakdown breakdown;
  const std::unique_ptr<Operator> tree = BuildJoinTree(r, s, spec);
  ExecContext ctx;
  ctx.pool = pool;
  ctx.cancel = spec.options.cancel;
  ctx.breakdown = &breakdown;
  RowSink sink;
  if (spec.sink) {
    sink = [&spec](const uint64_t* row, uint32_t arity) {
      (void)arity;
      spec.sink(Oid::Decode(row[0]), Oid::Decode(row[1]));
    };
  }
  PBSM_RETURN_IF_ERROR(DriveTree(tree.get(), &ctx, sink));
  return breakdown;
}

}  // namespace

Result<JoinResult> SpatialJoin(BufferPool* pool, const JoinInput& r,
                               const JoinInput& s, const JoinSpec& spec) {
  MetricsRegistry& metrics = MetricsRegistry::Global();
  const MetricsSnapshot before = metrics.Snapshot();
  const std::string span_name =
      "join/" + std::string(JoinMethodName(spec.method));
  Stopwatch watch;

  JoinResult result;
  result.method = spec.method;
  {
    TraceSpan span(span_name);
    // A query cancelled while queued (service timeout before dispatch)
    // never starts executing.
    if (spec.options.cancel != nullptr &&
        spec.options.cancel->is_cancelled()) {
      metrics
          .GetCounter("join.cancelled." +
                      std::string(JoinMethodName(spec.method)))
          ->Add();
      return spec.options.cancel->CancellationStatus();
    }
    Result<JoinCostBreakdown> dispatched = RunOperatorTree(pool, r, s, spec);
    if (!dispatched.ok()) {
      CountJoinFailure(spec.method, dispatched.status());
      return dispatched.status();
    }
    result.breakdown = std::move(dispatched).value();
  }
  result.wall_seconds = watch.ElapsedSeconds();
  result.num_results = result.breakdown.results;

  // Mirror the breakdown's filter/refinement counters into the registry so
  // metrics consumers see them without holding a JoinResult.
  metrics.GetCounter("join.candidates")->Add(result.breakdown.candidates);
  metrics.GetCounter("join.results")->Add(result.breakdown.results);
  metrics.GetCounter("join.duplicates_removed")
      ->Add(result.breakdown.duplicates_removed);
  metrics.GetCounter("join.replicated")->Add(result.breakdown.replicated);
  metrics.GetCounter("join.repartitioned_pairs")
      ->Add(result.breakdown.repartitioned_pairs);
  metrics.GetCounter(
      "join.runs." + std::string(JoinMethodName(spec.method)))->Add();

  result.metrics = metrics.Snapshot().Delta(before);
  return result;
}

}  // namespace pbsm
