#include "physical/fused_pipeline.h"

#include <utility>

#include "common/arena.h"
#include "common/clock.h"
#include "common/logging.h"

namespace sstreaming {

namespace {

// Survivor indices of `mask_col` (logical length n) written through `idx`;
// returns the count. NULL predicate results drop the row (SQL semantics).
int64_t CollectSurvivors(const Column& mask_col, int64_t n, int32_t* idx) {
  int64_t kept = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (!mask_col.IsNull(i) && mask_col.BoolAt(i)) {
      idx[kept++] = static_cast<int32_t>(i);
    }
  }
  return kept;
}

}  // namespace

RecordBatchPtr GatherReferenced(const RecordBatchPtr& batch,
                                const std::vector<int>& referenced) {
  if (!batch->has_selection()) return batch;
  const int64_t k = batch->num_rows();
  std::vector<uint8_t> want(static_cast<size_t>(batch->num_columns()), 0);
  for (int c : referenced) want[static_cast<size_t>(c)] = 1;
  std::vector<ColumnPtr> cols;
  cols.reserve(static_cast<size_t>(batch->num_columns()));
  for (int c = 0; c < batch->num_columns(); ++c) {
    const ColumnPtr& in = batch->column(c);
    ColumnPtr out = Column::Make(in->type());
    if (want[static_cast<size_t>(c)]) {
      out->Reserve(k);
      for (int64_t i = 0; i < k; ++i) {
        out->AppendFrom(*in, batch->PhysIndex(i));
      }
    } else {
      // Unreferenced columns only pad the batch to length k so ordinals
      // keep their meaning; their values are never read.
      for (int64_t i = 0; i < k; ++i) out->AppendNull();
    }
    cols.push_back(std::move(out));
  }
  auto out = RecordBatch::Make(batch->schema(), std::move(cols));
  out->set_ingest_micros(batch->ingest_micros());
  return out;
}

FusedPipelineExec::Stage FusedPipelineExec::Stage::Filter(int op_id,
                                                          ExprPtr predicate) {
  Stage stage;
  stage.kind = Kind::kFilter;
  stage.op_id = op_id;
  stage.name = "Filter " + predicate->ToString();
  predicate->CollectColumnIndices(&stage.referenced);
  stage.predicate = std::move(predicate);
  return stage;
}

FusedPipelineExec::Stage FusedPipelineExec::Stage::Project(
    int op_id, SchemaPtr schema, std::vector<NamedExpr> exprs) {
  Stage stage;
  stage.kind = Kind::kProject;
  stage.op_id = op_id;
  stage.name = "Project";
  for (const NamedExpr& e : exprs) {
    e.expr->CollectColumnIndices(&stage.referenced);
  }
  stage.exprs = std::move(exprs);
  stage.schema = std::move(schema);
  return stage;
}

FusedPipelineExec::Stage FusedPipelineExec::Stage::Watermark(
    int op_id, int column_index, int64_t delay_micros) {
  Stage stage;
  stage.kind = Kind::kWatermark;
  stage.op_id = op_id;
  stage.name = "Watermark";
  stage.column_index = column_index;
  stage.delay_micros = delay_micros;
  stage.referenced.push_back(column_index);
  return stage;
}

FusedPipelineExec::FusedPipelineExec(int op_id, PhysOpPtr child,
                                     std::vector<Stage> stages)
    : PhysOp(op_id, child->schema(), {child}) {
  SS_CHECK(!stages.empty()) << "a fused pipeline needs at least one stage";
  for (Stage& stage : stages) AppendStage(std::move(stage));
}

void FusedPipelineExec::AppendStage(Stage stage) {
  // The topmost projection sets the output schema; filters and watermarks
  // keep their input's.
  if (stage.kind == Stage::Kind::kProject) schema_ = stage.schema;
  stages_.push_back(std::move(stage));
}

std::string FusedPipelineExec::name() const {
  std::string out = "FusedPipeline[";
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i > 0) out += " -> ";
    out += stages_[i].name;
  }
  out += "]";
  return out;
}

void FusedPipelineExec::CollectProfileNodes(
    std::vector<OpProfileNode>* out) const {
  OpProfileNode fused;
  fused.op_id = op_id_;
  fused.name = name();
  fused.child_ids.push_back(stages_.back().op_id);
  out->push_back(std::move(fused));
  // Stages top to bottom, each fed by the stage below; the bottom stage is
  // fed by the fused node's actual child. Each stage thus appears as its
  // own operator, and rows_in/rows_out tie out per stage.
  for (size_t i = stages_.size(); i-- > 0;) {
    OpProfileNode node;
    node.op_id = stages_[i].op_id;
    node.name = stages_[i].name;
    node.child_ids.push_back(i > 0 ? stages_[i - 1].op_id
                                   : children_[0]->op_id());
    out->push_back(std::move(node));
  }
}

Result<RecordBatchPtr> FusedPipelineExec::RunStages(ExecContext* ctx,
                                                    RecordBatchPtr cur,
                                                    StageStats* stats) const {
  for (size_t s = 0; s < stages_.size(); ++s) {
    const Stage& stage = stages_[s];
    const int64_t t0 = MonotonicNanos();
    switch (stage.kind) {
      case Stage::Kind::kFilter: {
        const int64_t n = cur->num_rows();
        // Evaluate over the current logical rows only: a view's referenced
        // columns are gathered compactly first (EvalBatch needs
        // selection-free storage).
        RecordBatchPtr eval_in = GatherReferenced(cur, stage.referenced);
        SS_ASSIGN_OR_RETURN(ColumnPtr mask,
                            stage.predicate->EvalBatch(*eval_in));
        int32_t* idx = nullptr;
        std::shared_ptr<const void> keepalive;
        std::vector<int32_t> heap_idx;
        if (ctx->arena != nullptr) {
          auto span = ctx->arena->AllocSpan<int32_t>(static_cast<size_t>(n));
          idx = span.first;
          keepalive = std::move(span.second);
        } else {
          heap_idx.resize(static_cast<size_t>(n));
          idx = heap_idx.data();
        }
        const int64_t kept = CollectSurvivors(*mask, n, idx);
        if (kept < n) {
          // Indices are logical rows of `cur`; MakeView composes them with
          // any selection already in force.
          SelectionVector sel =
              keepalive != nullptr
                  ? SelectionVector::FromOwned(idx, kept, std::move(keepalive))
                  : SelectionVector::FromVector(std::vector<int32_t>(
                        heap_idx.begin(), heap_idx.begin() + kept));
          cur = RecordBatch::MakeView(cur, std::move(sel));
        }
        break;
      }
      case Stage::Kind::kProject: {
        RecordBatchPtr eval_in = GatherReferenced(cur, stage.referenced);
        std::vector<ColumnPtr> columns;
        columns.reserve(stage.exprs.size());
        for (const NamedExpr& e : stage.exprs) {
          SS_ASSIGN_OR_RETURN(ColumnPtr col, e.expr->EvalBatch(*eval_in));
          columns.push_back(std::move(col));
        }
        auto projected = RecordBatch::Make(stage.schema, std::move(columns));
        projected->set_ingest_micros(cur->ingest_micros());
        cur = std::move(projected);
        break;
      }
      case Stage::Kind::kWatermark: {
        const Column& col = *cur->column(stage.column_index);
        int64_t max_ts = INT64_MIN;
        for (int64_t li = 0; li < cur->num_rows(); ++li) {
          const int64_t i = cur->PhysIndex(li);
          if (!col.IsNull(i) && col.Int64At(i) > max_ts) {
            max_ts = col.Int64At(i);
          }
        }
        if (max_ts != INT64_MIN) {
          ctx->ObserveEventTime(stage.op_id, max_ts - stage.delay_micros);
        }
        break;
      }
    }
    stats[s] = {cur->num_rows(), cur->ApproxBytes(), MonotonicNanos() - t0};
  }
  return cur;
}

Result<std::vector<RecordBatchPtr>> FusedPipelineExec::ExecuteImpl(
    ExecContext* ctx) {
  const int64_t t_child0 = MonotonicNanos();
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  const int64_t child_nanos = MonotonicNanos() - t_child0;

  const size_t parts = in.size();
  const size_t n_stages = stages_.size();
  // Per-partition, per-stage accounting filled lock-free inside the tasks
  // and folded into ctx->op_progress afterwards.
  std::vector<std::vector<StageStats>> cells(
      parts, std::vector<StageStats>(n_stages));

  std::vector<RecordBatchPtr> out(parts);
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(parts);
  for (size_t p = 0; p < parts; ++p) {
    tasks.push_back([this, ctx, &in, &out, &cells, p]() -> Status {
      SS_ASSIGN_OR_RETURN(out[p], RunStages(ctx, in[p], cells[p].data()));
      return Status::OK();
    });
  }
  SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));

  // Fold per-stage stats under the stages' own op_ids. Walls are inclusive:
  // child time plus the cumulative stage time up to and including this
  // stage.
  {
    std::lock_guard<std::mutex> lock(ctx->metrics_mu);
    int64_t cumulative = 0;
    for (size_t s = 0; s < n_stages; ++s) {
      OperatorProgress& op = ctx->op_progress[stages_[s].op_id];
      for (size_t p = 0; p < parts; ++p) {
        const StageStats& cell = cells[p][s];
        op.rows_out += cell.rows;
        op.output_bytes += cell.bytes;
        ++op.batches;
        cumulative += cell.nanos;
      }
      ctx->op_wall_nanos[stages_[s].op_id] += child_nanos + cumulative;
    }
  }
  return out;
}

}  // namespace sstreaming
