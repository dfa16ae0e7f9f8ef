#include "exec/basic_ops.h"

#include <utility>

#include "common/logging.h"
#include "storage/tuple.h"

namespace pbsm {

// ---- ScanOp ----

ScanOp::ScanOp(JoinInput input, std::optional<Rect> window)
    : Operator("scan", "scan " + input.info.name +
                           (window.has_value() ? " (windowed)" : "")),
      input_(input),
      window_(window) {}

Status ScanOp::OpenImpl() {
  PBSM_CHECK(input_.heap != nullptr) << "ScanOp over a null heap";
  cursor_.emplace(input_.heap->NewCursor());
  return Status::OK();
}

Result<bool> ScanOp::NextImpl(RowBatch* out) {
  out->Reset(1);
  Oid oid;
  while (out->num_rows() < ctx_->batch_rows) {
    PBSM_ASSIGN_OR_RETURN(const bool has, cursor_->Next(&oid, &record_));
    if (!has) break;
    if (window_.has_value()) {
      PBSM_ASSIGN_OR_RETURN(const Rect mbr,
                            ParseTupleMbr(record_.data(), record_.size()));
      if (!mbr.Intersects(*window_)) continue;
    }
    out->AppendRow1(oid.Encode());
  }
  return !out->empty();
}

Status ScanOp::CloseImpl() {
  cursor_.reset();  // Unpins the cursor's page.
  return Status::OK();
}

// ---- SelectOp ----

SelectOp::SelectOp(std::unique_ptr<Operator> child, Rect window,
                   std::vector<MbrSource> sources)
    : Operator("select", "select window"),
      window_(window),
      sources_(std::move(sources)) {
  PBSM_CHECK(sources_.size() == child->arity())
      << "SelectOp needs one MbrSource per child column";
  AddChild(std::move(child));
}

Status SelectOp::OpenImpl() { return Status::OK(); }

Result<bool> SelectOp::RowPasses(const uint64_t* row) {
  for (size_t col = 0; col < sources_.size(); ++col) {
    const MbrSource& src = sources_[col];
    Rect mbr;
    if (src.mbrs != nullptr) {
      const auto it = src.mbrs->find(row[col]);
      if (it == src.mbrs->end()) return false;
      mbr = it->second;
    } else if (src.heap != nullptr) {
      PBSM_RETURN_IF_ERROR(
          src.heap->Fetch(Oid::Decode(row[col]), &record_));
      PBSM_ASSIGN_OR_RETURN(mbr, ParseTupleMbr(record_.data(), record_.size()));
    } else {
      continue;  // Unconstrained column.
    }
    if (!mbr.Intersects(window_)) return false;
  }
  return true;
}

Result<bool> SelectOp::NextImpl(RowBatch* out) {
  out->Reset(arity());
  // Keep pulling child batches until one row survives (or EOS) so an
  // all-filtered batch is not mistaken for end of stream.
  while (out->empty()) {
    PBSM_ASSIGN_OR_RETURN(const bool has, child(0)->Next(&in_));
    if (!has) break;
    for (size_t row = 0; row < in_.num_rows(); ++row) {
      PBSM_ASSIGN_OR_RETURN(const bool pass, RowPasses(in_.Row(row)));
      if (pass) out->AppendRow(in_.Row(row));
    }
  }
  return !out->empty();
}

// ---- ProjectOp ----

ProjectOp::ProjectOp(std::unique_ptr<Operator> child,
                     std::vector<uint32_t> columns)
    : Operator("project", "project"), columns_(std::move(columns)) {
  for (const uint32_t col : columns_) {
    PBSM_CHECK(col < child->arity()) << "projected column out of range";
  }
  AddChild(std::move(child));
}

Status ProjectOp::OpenImpl() { return Status::OK(); }

Result<bool> ProjectOp::NextImpl(RowBatch* out) {
  out->Reset(arity());
  PBSM_ASSIGN_OR_RETURN(const bool has, child(0)->Next(&in_));
  if (!has) return false;
  for (size_t row = 0; row < in_.num_rows(); ++row) {
    const uint64_t* src = in_.Row(row);
    for (const uint32_t col : columns_) out->AppendRow1(src[col]);
  }
  return true;
}

// ---- CountAggOp ----

CountAggOp::CountAggOp(std::unique_ptr<Operator> child)
    : Operator("count_agg", "count(*)") {
  AddChild(std::move(child));
}

Result<bool> CountAggOp::NextImpl(RowBatch* out) {
  if (emitted_) return false;
  while (true) {
    PBSM_ASSIGN_OR_RETURN(const bool has, child(0)->Next(&in_));
    if (!has) break;
    count_ += in_.num_rows();
  }
  emitted_ = true;
  out->Reset(1);
  out->AppendRow1(count_);
  return true;
}

}  // namespace pbsm
