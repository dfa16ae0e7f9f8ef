#include "exec/operator.h"

#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace pbsm {

Operator::Operator(std::string op, std::string detail)
    : op_(std::move(op)),
      detail_(std::move(detail)),
      span_name_("exec/" + op_),
      batches_(MetricsRegistry::Global().GetCounter("exec." + op_ +
                                                    ".batches")),
      rows_out_(MetricsRegistry::Global().GetCounter("exec." + op_ +
                                                     ".rows_out")),
      ns_(MetricsRegistry::Global().GetCounter("exec." + op_ + ".ns")) {}

Operator* Operator::AddChild(std::unique_ptr<Operator> child) {
  children_.push_back(std::move(child));
  return children_.back().get();
}

Status Operator::Open(ExecContext* ctx) {
  PBSM_CHECK(!opened_) << "operator " << op_ << " opened twice";
  PBSM_CHECK(ctx != nullptr && ctx->pool != nullptr);
  ctx_ = ctx;
  for (auto& child : children_) {
    PBSM_RETURN_IF_ERROR(child->Open(ctx));
  }
  PBSM_RETURN_IF_ERROR(OpenImpl());
  opened_ = true;
  return Status::OK();
}

Result<bool> Operator::Next(RowBatch* out) {
  PBSM_CHECK(opened_ && !closed_) << "Next on unopened/closed " << op_;
  if (exhausted_) return false;
  // Cancellation boundary: one poll per batch at every tree depth. Open
  // spans are materialized so a span-tree export after the abort sees a
  // complete tree (the same contract as the filter phases).
  if (ctx_->cancel != nullptr && ctx_->cancel->is_cancelled()) {
    Tracer::Global().FlushOpenSpans();
    return ctx_->cancel->CancellationStatus();
  }
  TraceSpan span(span_name_);
  Stopwatch watch;
  Result<bool> has = NextImpl(out);
  ns_->Add(static_cast<uint64_t>(watch.ElapsedSeconds() * 1e9));
  if (has.ok()) {
    if (*has) {
      batches_->Add();
      rows_out_->Add(out->num_rows());
    } else {
      exhausted_ = true;
    }
  }
  return has;
}

Status Operator::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  // Close self first (children may back resources the parent still holds
  // views into — parent teardown must run while they are alive), children
  // after; the first error wins but every Close still runs.
  Status status = opened_ ? CloseImpl() : Status::OK();
  for (auto& child : children_) {
    const Status child_status = child->Close();
    if (status.ok()) status = child_status;
  }
  return status;
}

}  // namespace pbsm
