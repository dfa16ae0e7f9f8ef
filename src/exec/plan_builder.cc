#include "exec/plan_builder.h"

#include <utility>

#include "exec/basic_ops.h"
#include "exec/join_ops.h"

namespace pbsm {

std::unique_ptr<Operator> BuildJoinTree(const JoinInput& r,
                                        const JoinInput& s,
                                        const JoinSpec& spec) {
  std::unique_ptr<Operator> tree;
  if (spec.method == JoinMethod::kParallelPbsm) {
    tree = std::make_unique<ParallelJoinOp>(r, s, spec);
  } else {
    auto filter = std::make_unique<FilterJoinOp>(r, s, spec);
    tree = std::make_unique<RefineOp>(std::move(filter), r, s,
                                      spec.predicate, spec.options);
  }
  if (spec.window.has_value()) {
    std::vector<MbrSource> sources(2);
    sources[0] = MbrSource{spec.window->r_mbrs, r.heap};
    sources[1] = MbrSource{spec.window->s_mbrs, s.heap};
    tree = std::make_unique<SelectOp>(std::move(tree), spec.window->window,
                                      std::move(sources));
  }
  return tree;
}

std::unique_ptr<Operator> BuildMultiwayTree(const MultiwayJoinSpec& spec) {
  JoinSpec base = spec.base;
  base.sink = {};
  base.window.reset();
  std::unique_ptr<Operator> tree =
      BuildJoinTree(spec.first, spec.second, base);

  // Relations in row-column order; stage k's output column is 2 + k.
  std::vector<JoinInput> columns = {spec.first, spec.second};
  for (const MultiwayStage& stage : spec.stages) {
    tree = std::make_unique<SpatialJoinOp>(
        std::move(tree), stage.join_column, columns[stage.join_column],
        stage.input, stage.predicate, base.options);
    columns.push_back(stage.input);
  }
  return tree;
}

Status DriveTree(Operator* root, ExecContext* ctx, const RowSink& sink) {
  Status status = root->Open(ctx);
  if (status.ok()) {
    RowBatch batch;
    while (true) {
      Result<bool> has = root->Next(&batch);
      if (!has.ok()) {
        status = has.status();
        break;
      }
      if (!*has) break;
      if (sink) {
        for (size_t row = 0; row < batch.num_rows(); ++row) {
          sink(batch.Row(row), batch.arity);
        }
      }
    }
  }
  const Status close_status = root->Close();
  return status.ok() ? close_status : status;
}

std::string DescribeTree(const Operator& root, int indent) {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += root.op() + ": " + root.detail() + "\n";
  for (size_t i = 0; i < root.num_children(); ++i) {
    out += DescribeTree(*root.child(i), indent + 1);
  }
  return out;
}

}  // namespace pbsm
