#ifndef PBSM_EXEC_JOIN_OPS_H_
#define PBSM_EXEC_JOIN_OPS_H_

// The join operators of the exec layer:
//
//  * FilterJoinOp — leaf producing the sorted, de-duplicated candidate
//    pair stream of one method's filter step (the five serial methods;
//    §3.1 and its competitors);
//  * RefineOp — the shared §3.2 refinement step over any candidate stream;
//  * ParallelJoinOp — the threaded PBSM executor, wrapped whole (its
//    filter and refinement interleave across workers and cannot sit on
//    opposite sides of a pull boundary);
//  * SpatialJoinOp — joins one column of an arbitrary row stream against a
//    stored relation, the building block of left-deep multi-way joins.

#include <memory>
#include <optional>
#include <vector>

#include "core/join_methods_internal.h"
#include "core/refinement.h"
#include "core/spatial_join.h"
#include "exec/operator.h"

namespace pbsm {

/// Candidate producer (arity 2: encoded OID_R, OID_S). Runs the method's
/// filter on the first Next — into a private external sorter — then
/// streams the sorted pairs with inline duplicate elimination, so
/// downstream operators always see each candidate exactly once, in
/// (OID_R, OID_S) order. Filter phase costs land in the shared breakdown
/// under the phase names the XxxFilter functions record.
///
/// Handles kPbsm, kInl, kRtree, kSpatialHash, kZOrder; kParallelPbsm goes
/// through ParallelJoinOp instead.
class FilterJoinOp : public Operator {
 public:
  FilterJoinOp(JoinInput r, JoinInput s, const JoinSpec& spec);

  uint32_t arity() const override { return 2; }

 protected:
  Status OpenImpl() override { return Status::OK(); }
  Result<bool> NextImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  Status RunFilter();
  JoinCostBreakdown* bd();

  const JoinInput r_;
  const JoinInput s_;
  const JoinSpec spec_;  // sink/window ignored; method + options + indexes.
  JoinCostBreakdown local_bd_;
  std::optional<CandidateSorter> sorter_;
  bool filtered_ = false;
  OidPair last_{};
  bool has_last_ = false;
};

/// The refinement step (arity 2) over a sorted de-duplicated candidate
/// stream: fetches tuples block-wise, evaluates the exact predicate and
/// streams the result pairs. The child's first batch is pulled *before*
/// the "refinement" phase timer starts, so a lazy filter child is costed
/// under its own phases.
class RefineOp : public Operator {
 public:
  RefineOp(std::unique_ptr<Operator> child, JoinInput r, JoinInput s,
           SpatialPredicate pred, const JoinOptions& opts);

  uint32_t arity() const override { return 2; }

 protected:
  Status OpenImpl() override { return Status::OK(); }
  Result<bool> NextImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  Status Refine();
  JoinCostBreakdown* bd();

  const JoinInput r_;
  const JoinInput s_;
  const SpatialPredicate pred_;
  JoinOptions opts_;
  JoinCostBreakdown local_bd_;
  RowBatch in_;
  std::vector<OidPair> results_;
  size_t pos_ = 0;
  bool refined_ = false;
};

/// The shared-memory parallel PBSM executor as one operator (arity 2).
/// Filter and refinement run inside the first Next — they interleave
/// across worker threads, so there is no batch boundary to split them at —
/// and the result pairs are buffered and re-emitted in batches.
class ParallelJoinOp : public Operator {
 public:
  ParallelJoinOp(JoinInput r, JoinInput s, const JoinSpec& spec);

  uint32_t arity() const override { return 2; }

 protected:
  Status OpenImpl() override { return Status::OK(); }
  Result<bool> NextImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  JoinCostBreakdown* bd();

  const JoinInput r_;
  const JoinInput s_;
  const JoinSpec spec_;
  JoinCostBreakdown local_bd_;
  std::vector<OidPair> results_;
  size_t pos_ = 0;
  bool joined_ = false;
};

/// Multi-way join step: joins column `left_column` of the child's rows
/// against stored relation `right` under `pred`, emitting each child row
/// extended by one matching `right` OID column (arity = child arity + 1).
///
/// Execution (on the first Next): the child is drained and its rows
/// buffered in memory — the pipelining win over materialize-between-joins
/// is that only the *rows* (encoded OIDs) are held, never intermediate
/// heap files; the distinct values of the join column become key-pointers
/// (MBRs fetched from `left_input`, the relation the column refers to),
/// `right` is scanned into key-pointers, the two sets are plane-swept, and
/// the candidates run through the shared refinement. Matches are grouped
/// per left OID, then the buffered rows are expanded batch by batch.
class SpatialJoinOp : public Operator {
 public:
  SpatialJoinOp(std::unique_ptr<Operator> child, uint32_t left_column,
                JoinInput left_input, JoinInput right,
                SpatialPredicate pred, const JoinOptions& opts);

  uint32_t arity() const override { return child_arity_ + 1; }

 protected:
  Status OpenImpl() override { return Status::OK(); }
  Result<bool> NextImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  Status BuildMatches();
  JoinCostBreakdown* bd();

  const uint32_t left_column_;
  const JoinInput left_input_;
  const JoinInput right_;
  const SpatialPredicate pred_;
  JoinOptions opts_;
  uint32_t child_arity_ = 0;
  JoinCostBreakdown local_bd_;
  RowBatch in_;
  /// Buffered child rows, flat (child_arity_ columns per row).
  std::vector<uint64_t> left_rows_;
  /// left OID -> sorted matching right OIDs.
  std::unordered_map<uint64_t, std::vector<uint64_t>> matches_;
  size_t row_idx_ = 0;
  size_t match_idx_ = 0;
  bool built_ = false;
};

}  // namespace pbsm

#endif  // PBSM_EXEC_JOIN_OPS_H_
