#include "exec/join_ops.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"
#include "core/sweep_kernel.h"
#include "storage/tuple.h"

namespace pbsm {

// ---- FilterJoinOp ----

FilterJoinOp::FilterJoinOp(JoinInput r, JoinInput s, const JoinSpec& spec)
    : Operator("filter_join", std::string(JoinMethodName(spec.method)) +
                                  " filter " + r.info.name + " x " +
                                  s.info.name),
      r_(r),
      s_(s),
      spec_(spec) {
  PBSM_CHECK(spec.method != JoinMethod::kParallelPbsm)
      << "kParallelPbsm runs through ParallelJoinOp";
}

JoinCostBreakdown* FilterJoinOp::bd() {
  return ctx_->breakdown != nullptr ? ctx_->breakdown : &local_bd_;
}

Status FilterJoinOp::RunFilter() {
  JoinOptions opts = spec_.options;
  opts.cancel = ctx_->cancel;
  sorter_.emplace(ctx_->pool, opts.memory_budget_bytes, OidPairLess{});
  switch (spec_.method) {
    case JoinMethod::kPbsm:
      PBSM_RETURN_IF_ERROR(
          PbsmFilter(ctx_->pool, r_, s_, opts, &*sorter_, bd()));
      break;

    case JoinMethod::kInl: {
      // Prefer a side with a pre-existing index, else index the smaller
      // input (the paper's choice); emit_indexed_first restores the
      // caller's (r, s) orientation.
      const bool index_s = spec_.s_index != nullptr ||
                           (spec_.r_index == nullptr &&
                            s_.info.cardinality < r_.info.cardinality);
      const JoinInput& indexed = index_s ? s_ : r_;
      const JoinInput& probing = index_s ? r_ : s_;
      const RStarTree* index = index_s ? spec_.s_index : spec_.r_index;
      PBSM_RETURN_IF_ERROR(InlFilter(ctx_->pool, indexed, probing, opts,
                                     &*sorter_, bd(), index,
                                     /*emit_indexed_first=*/!index_s));
      break;
    }

    case JoinMethod::kRtree:
      PBSM_RETURN_IF_ERROR(RtreeFilter(ctx_->pool, r_, s_, opts, &*sorter_,
                                       bd(), spec_.r_index, spec_.s_index));
      break;

    case JoinMethod::kSpatialHash: {
      SpatialHashJoinOptions options;
      options.num_buckets = spec_.hash.num_buckets;
      options.sample_fraction = spec_.hash.sample_fraction;
      options.join = opts;
      PBSM_RETURN_IF_ERROR(
          SpatialHashFilter(ctx_->pool, r_, s_, options, &*sorter_, bd()));
      break;
    }

    case JoinMethod::kZOrder: {
      ZOrderJoinOptions options;
      options.max_level = spec_.zorder.max_level;
      options.max_cells_per_object = spec_.zorder.max_cells_per_object;
      options.join = opts;
      PBSM_RETURN_IF_ERROR(
          ZOrderFilter(ctx_->pool, r_, s_, options, &*sorter_, bd()));
      break;
    }

    case JoinMethod::kParallelPbsm:
      PBSM_CHECK(false) << "unreachable";
  }
  return sorter_->Finish();
}

Result<bool> FilterJoinOp::NextImpl(RowBatch* out) {
  if (!filtered_) {
    PBSM_RETURN_IF_ERROR(RunFilter());
    filtered_ = true;
  }
  out->Reset(2);
  OidPair pair;
  while (out->num_rows() < ctx_->batch_rows) {
    PBSM_ASSIGN_OR_RETURN(const bool has, sorter_->Next(&pair));
    if (!has) break;
    // The sorter streams in (OID_R, OID_S) order, so replicated candidates
    // are adjacent — the same inline dedup RefineCandidates performs.
    if (has_last_ && pair == last_) {
      ++bd()->duplicates_removed;
      continue;
    }
    last_ = pair;
    has_last_ = true;
    out->AppendRow2(pair.r, pair.s);
  }
  return !out->empty();
}

Status FilterJoinOp::CloseImpl() {
  sorter_.reset();  // Drops any spilled runs.
  return Status::OK();
}

// ---- RefineOp ----

RefineOp::RefineOp(std::unique_ptr<Operator> child, JoinInput r, JoinInput s,
                   SpatialPredicate pred, const JoinOptions& opts)
    : Operator("refine", "refine " + r.info.name + " x " + s.info.name),
      r_(r),
      s_(s),
      pred_(pred),
      opts_(opts) {
  AddChild(std::move(child));
}

JoinCostBreakdown* RefineOp::bd() {
  return ctx_->breakdown != nullptr ? ctx_->breakdown : &local_bd_;
}

Status RefineOp::Refine() {
  // Prefetch the child's first batch BEFORE the refinement timer starts: a
  // lazy filter child does its whole filter inside that first Next, and
  // that work must be costed under the filter phases, not refinement.
  PBSM_ASSIGN_OR_RETURN(bool has, child(0)->Next(&in_));
  bool child_done = !has;
  size_t in_pos = 0;

  opts_.cancel = ctx_->cancel;
  PhaseCost& cost = bd()->AddPhase("refinement");
  PhaseTimer timer(ctx_->pool->disk(), &cost, "refinement");

  const SortedPairStream next = [&](OidPair* out) -> Result<bool> {
    while (true) {
      if (in_pos < in_.num_rows()) {
        out->r = in_.At(in_pos, 0);
        out->s = in_.At(in_pos, 1);
        ++in_pos;
        return true;
      }
      if (child_done) return false;
      PBSM_ASSIGN_OR_RETURN(const bool more, child(0)->Next(&in_));
      in_pos = 0;
      if (!more) child_done = true;
    }
  };
  const ResultSink sink = [this](Oid a, Oid b) {
    results_.push_back(OidPair{a.Encode(), b.Encode()});
  };
  return RefinePairStream(next, r_, s_, pred_, opts_, sink, bd());
}

Result<bool> RefineOp::NextImpl(RowBatch* out) {
  if (!refined_) {
    PBSM_RETURN_IF_ERROR(Refine());
    refined_ = true;
  }
  out->Reset(2);
  while (out->num_rows() < ctx_->batch_rows && pos_ < results_.size()) {
    out->AppendRow2(results_[pos_].r, results_[pos_].s);
    ++pos_;
  }
  return !out->empty();
}

Status RefineOp::CloseImpl() {
  results_.clear();
  results_.shrink_to_fit();
  return Status::OK();
}

// ---- ParallelJoinOp ----

ParallelJoinOp::ParallelJoinOp(JoinInput r, JoinInput s, const JoinSpec& spec)
    : Operator("parallel_join", "parallel_pbsm " + r.info.name + " x " +
                                    s.info.name),
      r_(r),
      s_(s),
      spec_(spec) {}

JoinCostBreakdown* ParallelJoinOp::bd() {
  return ctx_->breakdown != nullptr ? ctx_->breakdown : &local_bd_;
}

Result<bool> ParallelJoinOp::NextImpl(RowBatch* out) {
  if (!joined_) {
    JoinOptions opts = spec_.options;
    opts.cancel = ctx_->cancel;
    const ResultSink sink = [this](Oid a, Oid b) {
      results_.push_back(OidPair{a.Encode(), b.Encode()});
    };
    PBSM_ASSIGN_OR_RETURN(
        JoinCostBreakdown inner,
        ParallelPbsmJoin(ctx_->pool, r_, s_, spec_.predicate, opts, sink,
                         spec_.parallel_stats));
    JoinCostBreakdown* dst = bd();
    for (auto& phase : inner.phases) dst->phases.push_back(std::move(phase));
    dst->candidates += inner.candidates;
    dst->duplicates_removed += inner.duplicates_removed;
    dst->results += inner.results;
    dst->num_partitions = inner.num_partitions;
    dst->num_tiles = inner.num_tiles;
    dst->replicated += inner.replicated;
    dst->repartitioned_pairs += inner.repartitioned_pairs;
    joined_ = true;
  }
  out->Reset(2);
  while (out->num_rows() < ctx_->batch_rows && pos_ < results_.size()) {
    out->AppendRow2(results_[pos_].r, results_[pos_].s);
    ++pos_;
  }
  return !out->empty();
}

Status ParallelJoinOp::CloseImpl() {
  results_.clear();
  results_.shrink_to_fit();
  return Status::OK();
}

// ---- SpatialJoinOp ----

SpatialJoinOp::SpatialJoinOp(std::unique_ptr<Operator> child,
                             uint32_t left_column, JoinInput left_input,
                             JoinInput right, SpatialPredicate pred,
                             const JoinOptions& opts)
    : Operator("spatial_join", "join col" + std::to_string(left_column) +
                                   " (" + left_input.info.name + ") x " +
                                   right.info.name),
      left_column_(left_column),
      left_input_(left_input),
      right_(right),
      pred_(pred),
      opts_(opts),
      child_arity_(child->arity()) {
  PBSM_CHECK(left_column < child_arity_) << "join column out of range";
  AddChild(std::move(child));
}

JoinCostBreakdown* SpatialJoinOp::bd() {
  return ctx_->breakdown != nullptr ? ctx_->breakdown : &local_bd_;
}

Status SpatialJoinOp::BuildMatches() {
  opts_.cancel = ctx_->cancel;

  // Drain the child, buffering rows (encoded OIDs only — the pipelining
  // point: no intermediate relation is materialized to disk) and noting
  // the distinct join-column values.
  while (true) {
    PBSM_ASSIGN_OR_RETURN(const bool has, child(0)->Next(&in_));
    if (!has) break;
    left_rows_.insert(left_rows_.end(), in_.data.begin(), in_.data.end());
    for (size_t row = 0; row < in_.num_rows(); ++row) {
      matches_.try_emplace(in_.At(row, left_column_));
    }
  }

  DiskManager* disk = ctx_->pool->disk();
  CandidateSorter sorter(ctx_->pool, opts_.memory_budget_bytes,
                         OidPairLess{});
  {
    const std::string phase = "multiway filter " + right_.info.name;
    PhaseCost& cost = bd()->AddPhase(phase);
    PhaseTimer timer(disk, &cost, phase);

    // Key-pointers of the distinct join-column tuples...
    std::vector<KeyPointer> l_kps;
    l_kps.reserve(matches_.size());
    std::string record;
    for (const auto& [oid, unused] : matches_) {
      PBSM_RETURN_IF_ERROR(
          left_input_.heap->Fetch(Oid::Decode(oid), &record));
      PBSM_ASSIGN_OR_RETURN(const Rect mbr,
                            ParseTupleMbr(record.data(), record.size()));
      l_kps.push_back(KeyPointer{mbr, oid});
    }

    // ...and of the whole right relation, with periodic cancel polls (a
    // big scan should not ride on batch boundaries alone).
    std::vector<KeyPointer> r_kps;
    r_kps.reserve(right_.heap->num_records());
    uint64_t scanned = 0;
    PBSM_RETURN_IF_ERROR(right_.heap->Scan(
        [&](Oid oid, const char* data, size_t size) -> Status {
          if ((++scanned & 4095) == 0 && ctx_->cancel != nullptr &&
              ctx_->cancel->is_cancelled()) {
            Tracer::Global().FlushOpenSpans();
            return ctx_->cancel->CancellationStatus();
          }
          PBSM_ASSIGN_OR_RETURN(const Rect mbr, ParseTupleMbr(data, size));
          r_kps.push_back(KeyPointer{mbr, oid.Encode()});
          return Status::OK();
        }));

    Status append_status;
    bd()->candidates += PlaneSweepJoinBatch(
        &l_kps, &r_kps,
        SorterBatchSink<CandidateSorter>{&sorter, &append_status},
        opts_.simd);
    PBSM_RETURN_IF_ERROR(append_status);
  }

  {
    PhaseCost& cost = bd()->AddPhase("refinement");
    PhaseTimer timer(disk, &cost, "refinement");
    const ResultSink sink = [this](Oid l, Oid r) {
      matches_[l.Encode()].push_back(r.Encode());
    };
    PBSM_RETURN_IF_ERROR(RefineCandidates(&sorter, left_input_, right_,
                                          pred_, opts_, sink, bd()));
  }
  return Status::OK();
}

Result<bool> SpatialJoinOp::NextImpl(RowBatch* out) {
  if (!built_) {
    PBSM_RETURN_IF_ERROR(BuildMatches());
    built_ = true;
  }
  out->Reset(arity());
  const size_t n_rows =
      child_arity_ == 0 ? 0 : left_rows_.size() / child_arity_;
  std::vector<uint64_t> row(arity());
  while (out->num_rows() < ctx_->batch_rows && row_idx_ < n_rows) {
    const uint64_t* src = left_rows_.data() + row_idx_ * child_arity_;
    const auto it = matches_.find(src[left_column_]);
    if (it == matches_.end() || match_idx_ >= it->second.size()) {
      ++row_idx_;
      match_idx_ = 0;
      continue;
    }
    std::copy(src, src + child_arity_, row.begin());
    row[child_arity_] = it->second[match_idx_++];
    out->AppendRow(row.data());
  }
  return !out->empty();
}

Status SpatialJoinOp::CloseImpl() {
  left_rows_.clear();
  left_rows_.shrink_to_fit();
  matches_.clear();
  return Status::OK();
}

}  // namespace pbsm
