#include "physical/operators.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/profiler.h"
#include "physical/fused_pipeline.h"

namespace sstreaming {

SourceExec::SourceExec(int op_id, SourcePtr source)
    : PhysOp(op_id, source->schema(), {}), source_(std::move(source)) {}

SourceExec::SourceExec(int op_id, SourcePtr source, std::vector<int> columns,
                       SchemaPtr schema)
    : PhysOp(op_id, std::move(schema), {}),
      source_(std::move(source)),
      columns_(std::move(columns)) {}

Result<RecordBatchPtr> SourceExec::ReadPartition(ExecContext* ctx,
                                                 int partition, int64_t start,
                                                 int64_t end) const {
  RecordBatchPtr batch;
  if (columns_.empty()) {
    SS_ASSIGN_OR_RETURN(batch, source_->ReadPartition(partition, start, end));
  } else {
    SS_ASSIGN_OR_RETURN(batch, source_->ReadPartitionProjected(
                                   partition, start, end, columns_));
  }
  ctx->CountSourceRows(source_->name(), batch->num_rows());
  if (batch->num_rows() > 0) {
    // Stamp e2e-latency provenance: when the source can't date its
    // records, the read time is the best (conservative, deterministic
    // under ManualClock) ingest approximation.
    int64_t ingest = source_->OldestIngestMicros(partition, start, end);
    if (ingest <= 0 && ctx->clock != nullptr) ingest = ctx->clock->NowMicros();
    batch->set_ingest_micros(ingest);
    ctx->ObserveIngest(ingest);
  }
  return batch;
}

Result<std::vector<RecordBatchPtr>> SourceExec::ExecuteImpl(ExecContext* ctx) {
  auto it = ctx->offsets.find(source_->name());
  if (it == ctx->offsets.end()) {
    return Status::Internal("no offsets planned for source " +
                            source_->name());
  }
  const auto& [starts, ends] = it->second;
  const int parts = source_->num_partitions();
  if (static_cast<int>(starts.size()) != parts) {
    return Status::Internal("offset arity mismatch for " + source_->name());
  }
  std::vector<RecordBatchPtr> out(static_cast<size_t>(parts));
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) {
    tasks.push_back([this, ctx, p, &starts, &ends, &out]() -> Status {
      const size_t i = static_cast<size_t>(p);
      SS_ASSIGN_OR_RETURN(out[i], ReadPartition(ctx, p, starts[i], ends[i]));
      return Status::OK();
    });
  }
  SS_RETURN_IF_ERROR(ctx->RunStage(op_id_, name(), std::move(tasks)));
  return out;
}

StaticSourceExec::StaticSourceExec(int op_id, SchemaPtr schema,
                                   std::vector<RecordBatchPtr> batches,
                                   int num_partitions)
    : PhysOp(op_id, schema, {}),
      batches_(std::move(batches)),
      num_partitions_(num_partitions) {}

Result<std::vector<RecordBatchPtr>> StaticSourceExec::ExecuteImpl(
    ExecContext* ctx) {
  std::vector<RecordBatchPtr> out;
  if (!ctx->is_batch) {
    // In a streaming epoch static data contributes nothing new after epoch
    // 1; joins against static data materialize the table separately, so a
    // bare static source in a streaming plan emits only in the first epoch.
    if (ctx->epoch > 1) {
      for (int p = 0; p < num_partitions_; ++p) {
        out.push_back(RecordBatch::Empty(schema_));
      }
      return out;
    }
  }
  // Round-robin row split across partitions.
  RecordBatchPtr all = RecordBatch::Concat(schema_, batches_);
  std::vector<std::vector<uint8_t>> masks(
      static_cast<size_t>(num_partitions_),
      std::vector<uint8_t>(static_cast<size_t>(all->num_rows()), 0));
  for (int64_t i = 0; i < all->num_rows(); ++i) {
    masks[static_cast<size_t>(i % num_partitions_)]
         [static_cast<size_t>(i)] = 1;
  }
  for (int p = 0; p < num_partitions_; ++p) {
    out.push_back(all->Filter(masks[static_cast<size_t>(p)]));
  }
  return out;
}

ShuffleExec::ShuffleExec(int op_id, PhysOpPtr child, std::vector<ExprPtr> keys,
                         int num_partitions)
    : PhysOp(op_id, child->schema(), {child}),
      keys_(std::move(keys)),
      num_partitions_(num_partitions) {}

Result<std::vector<std::vector<RecordBatchPtr>>> ShuffleExec::Exchange(
    ExecContext* ctx) {
  const auto* pipeline =
      dynamic_cast<const FusedPipelineExec*>(children_[0].get());
  const PhysOpPtr& input = pipeline != nullptr ? pipeline->children()[0]
                                               : children_[0];
  const int64_t t_child0 = MonotonicNanos();
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in, input->Execute(ctx));
  const int64_t child_nanos = MonotonicNanos() - t_child0;
  const size_t in_parts = in.size();
  const size_t out_parts = static_cast<size_t>(num_partitions_);
  FusedPipelineExec::StageCells cells(
      in_parts, std::vector<FusedPipelineExec::StageStats>(
                    pipeline != nullptr ? pipeline->stages().size() : 0));
  // Map stage: each input partition runs the pipeline, then splits into
  // one piece per output partition by key hash.
  std::vector<std::vector<RecordBatchPtr>> pieces(
      out_parts, std::vector<RecordBatchPtr>(in_parts));
  std::vector<int64_t> task_nanos(in_parts, 0);
  std::vector<std::function<Status()>> map_tasks;
  map_tasks.reserve(in_parts);
  for (size_t p = 0; p < in_parts; ++p) {
    map_tasks.push_back([this, ctx, pipeline, &in, &cells, &pieces,
                         &task_nanos, p, out_parts]() -> Status {
      const int64_t t0 = MonotonicNanos();
      RecordBatchPtr batch = std::move(in[p]);
      if (pipeline != nullptr) {
        SS_ASSIGN_OR_RETURN(batch,
                            pipeline->RunStages(ctx, batch, cells[p].data()));
      }
      // Materialize-on-demand boundary: key hashing evaluates expressions
      // over the whole batch, so selection views compact here.
      batch = RecordBatch::Materialize(batch);
      const int64_t n = batch->num_rows();
      std::vector<uint64_t> hashes(static_cast<size_t>(n), 0x811C9DC5ULL);
      for (const ExprPtr& key : keys_) {
        SS_ASSIGN_OR_RETURN(ColumnPtr col, key->EvalBatch(*batch));
        col->HashInto(&hashes);
      }
      // Single pass: bucket row indices, then one typed gather per bucket.
      std::vector<std::vector<int32_t>> indices(out_parts);
      for (int64_t i = 0; i < n; ++i) {
        indices[hashes[static_cast<size_t>(i)] % out_parts].push_back(
            static_cast<int32_t>(i));
      }
      for (size_t op = 0; op < out_parts; ++op) {
        pieces[op][p] = batch->Gather(indices[op]);
      }
      task_nanos[p] = MonotonicNanos() - t0;
      return Status::OK();
    });
  }
  const int64_t t_map0 = MonotonicNanos();
  SS_RETURN_IF_ERROR(
      ctx->RunStage(op_id_, name() + "/map", std::move(map_tasks)));
  if (pipeline != nullptr) {
    int64_t summed = 0;
    for (int64_t nanos : task_nanos) summed += nanos;
    pipeline->RecordInTaskRun(ctx, child_nanos, cells,
                              MonotonicNanos() - t_map0, summed);
  }
  return pieces;
}

Result<std::vector<std::vector<RecordBatchPtr>>> ShuffleExec::ExecuteExchange(
    ExecContext* ctx) {
  ProfileOpScope prof(ProfileLabel(), op_id_);
  const int64_t t0 = MonotonicNanos();
  auto pieces = Exchange(ctx);
  int64_t rows = 0;
  int64_t bytes = 0;
  if (pieces.ok()) {
    for (const std::vector<RecordBatchPtr>& partition : *pieces) {
      for (const RecordBatchPtr& piece : partition) {
        rows += piece->num_rows();
        bytes += piece->ApproxBytes();
      }
    }
  }
  FinishRun(ctx, t0, rows, pieces.ok() ? num_partitions_ : 0, bytes);
  return pieces;
}

Result<std::vector<RecordBatchPtr>> ShuffleExec::ExecuteImpl(ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<std::vector<RecordBatchPtr>> pieces,
                      Exchange(ctx));
  std::vector<RecordBatchPtr> out;
  out.reserve(pieces.size());
  for (const std::vector<RecordBatchPtr>& partition : pieces) {
    out.push_back(RecordBatch::Concat(schema_, partition));
  }
  return out;
}

SortExec::SortExec(int op_id, PhysOpPtr child, std::vector<Key> keys)
    : PhysOp(op_id, child->schema(), {child}),
      keys_(std::move(keys)) {}

Result<std::vector<RecordBatchPtr>> SortExec::ExecuteImpl(ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  // Concat's single-batch fast path can pass a selection view through;
  // sort-key evaluation needs compact storage.
  RecordBatchPtr all = RecordBatch::Materialize(RecordBatch::Concat(schema_, in));
  // Evaluate the sort keys once, then order row indices.
  std::vector<ColumnPtr> key_cols;
  for (const Key& k : keys_) {
    SS_ASSIGN_OR_RETURN(ColumnPtr col, k.expr->EvalBatch(*all));
    key_cols.push_back(std::move(col));
  }
  std::vector<int32_t> order(static_cast<size_t>(all->num_rows()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int32_t>(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](int32_t a, int32_t b) {
                     for (size_t k = 0; k < key_cols.size(); ++k) {
                       int c = SqlCompare(key_cols[k]->ValueAt(a),
                                          key_cols[k]->ValueAt(b));
                       if (c != 0) return keys_[k].ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return std::vector<RecordBatchPtr>{all->Gather(order)};
}

LimitExec::LimitExec(int op_id, PhysOpPtr child, int64_t n)
    : PhysOp(op_id, child->schema(), {child}), n_(n) {}

Result<std::vector<RecordBatchPtr>> LimitExec::ExecuteImpl(ExecContext* ctx) {
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  RecordBatchPtr all = RecordBatch::Concat(schema_, in);
  int64_t keep = std::min(n_, all->num_rows());
  return std::vector<RecordBatchPtr>{all->Slice(0, keep)};
}

}  // namespace sstreaming
