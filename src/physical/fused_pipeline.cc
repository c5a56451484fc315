#include "physical/fused_pipeline.h"

#include <array>
#include <utility>

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
      out->AppendGather(*in, batch->selection().data, k);
    } else {
      // Unreferenced columns only pad the batch to length k so ordinals
      // keep their meaning; their values are never read.
      out->AppendNulls(k);
    }
    cols.push_back(std::move(out));
  }
  auto out = RecordBatch::Make(batch->schema(), std::move(cols));
  out->set_ingest_micros(batch->ingest_micros());
  return out;
}

bool HasNullKey(const std::vector<ColumnPtr>& keys, int64_t i) {
  for (const ColumnPtr& col : keys) {
    if (col->IsNull(i)) return true;
  }
  return false;
}

namespace {

// One key of a join: the indexed side's key column and the probing side's,
// of one TypeId.
struct KeyPair {
  const Column* indexed;
  const Column* probe;
};
// A join's keys grouped by physical kind (indexed by PhysicalKind). The
// grouping is the batch's one kind dispatch: the row loop runs each
// group's typed compare over its keys.
using JoinKeyGroups = std::array<std::vector<KeyPair>, 5>;

// Groups the key pairs of `indexed` and `probe`. False when some pair's
// TypeIds differ: such keys never compare equal, so no row matches.
bool GroupJoinKeys(const std::vector<ColumnPtr>& indexed,
                   const std::vector<ColumnPtr>& probe,
                   JoinKeyGroups* groups) {
  for (size_t k = 0; k < indexed.size(); ++k) {
    const TypeId type = indexed[k]->type();
    if (type != probe[k]->type()) return false;
    (*groups)[static_cast<size_t>(PhysicalKindOf(type))].push_back(
        KeyPair{indexed[k].get(), probe[k].get()});
  }
  return true;
}

// Join-key equality over the kind groups Ks (the others are empty) of
// indexed row i and probing row j, keys non-null: the encoded bytes'
// identity (Column::CellEquals), except that float64 keys compare by value,
// so -0.0 equals 0.0 (a NaN equals only a NaN of the same bits).
// Column::HashInto hashes such equal keys alike.
template <PhysicalKind... Ks>
struct JoinKeyKernels {
  [[gnu::always_inline]] static bool Equal(const JoinKeyGroups& groups,
                                           int64_t i, int64_t j) {
    auto group = [&](auto kind) {
      constexpr PhysicalKind K = decltype(kind)::value;
      for (const KeyPair& p : groups[static_cast<size_t>(K)]) {
        if constexpr (K == PhysicalKind::kFloat64) {
          if (p.indexed->Float64At(i) == p.probe->Float64At(j)) continue;
        }
        if (!p.indexed->CellEquals<K>(i, *p.probe, j, false)) return false;
      }
      return true;
    };
    return (group(std::integral_constant<PhysicalKind, Ks>()) && ...);
  }
};

// Calls f(kernels) with the JoinKeyKernels for `groups`: those of the one
// kind when every key has it (the common case), else those of all kinds.
template <typename F>
void WithJoinKeyKernels(const JoinKeyGroups& groups, const F& f) {
  int kinds = 0;
  auto only = PhysicalKind::kNone;
  for (size_t k = 0; k < groups.size(); ++k) {
    if (!groups[k].empty()) {
      ++kinds;
      only = static_cast<PhysicalKind>(k);
    }
  }
  if (kinds == 1) {
    DispatchKind(only, [&](auto kind) {
      f(JoinKeyKernels<decltype(kind)::value>());
    });
  } else {
    f(JoinKeyKernels<PhysicalKind::kBool, PhysicalKind::kInt64,
                     PhysicalKind::kFloat64, PhysicalKind::kString>());
  }
}

// Appends static column `src` at `static_rows` to `dst`. An unmatched entry
// (-1, a preserved stream row) takes `coalesce`'s value at its stream row
// (a USING key), or a null when `coalesce` is null. Each run of matched or
// unmatched entries is one gather.
void AppendStaticSide(const Column& src, const Column* coalesce,
                      const std::vector<int32_t>& static_rows,
                      const std::vector<int32_t>& stream_rows, Column* dst) {
  const size_t n = static_rows.size();
  for (size_t lo = 0; lo < n;) {
    const bool matched = static_rows[lo] >= 0;
    size_t hi = lo + 1;
    while (hi < n && (static_rows[hi] >= 0) == matched) ++hi;
    const auto len = static_cast<int64_t>(hi - lo);
    if (matched) {
      dst->AppendGather(src, static_rows.data() + lo, len);
    } else if (coalesce != nullptr) {
      dst->AppendGather(*coalesce, stream_rows.data() + lo, len);
    } else {
      dst->AppendNulls(len);
    }
    lo = hi;
  }
}

}  // namespace

Result<std::shared_ptr<const StreamStaticJoin>> StreamStaticJoin::Make(
    SchemaPtr out_schema, std::vector<ExprPtr> stream_keys,
    RecordBatchPtr static_side, const std::vector<ExprPtr>& static_keys,
    std::vector<int> stream_output_indices,
    std::vector<int> static_output_indices, bool stream_first,
    bool preserve_stream, std::vector<std::pair<int, int>> static_from_stream) {
  std::shared_ptr<StreamStaticJoin> join(new StreamStaticJoin());
  join->schema_ = std::move(out_schema);
  join->stream_keys_ = std::move(stream_keys);
  join->stream_output_indices_ = std::move(stream_output_indices);
  join->static_output_indices_ = std::move(static_output_indices);
  join->stream_first_ = stream_first;
  join->preserve_stream_ = preserve_stream;
  join->static_from_stream_ = std::move(static_from_stream);
  join->static_ = std::move(static_side);
  std::vector<ColumnPtr>& keys = join->static_keys_;
  keys.resize(static_keys.size());
  for (size_t k = 0; k < static_keys.size(); ++k) {
    SS_ASSIGN_OR_RETURN(keys[k], static_keys[k]->EvalBatch(*join->static_));
  }
  // Index each distinct non-null key's first row; a later row with the
  // same key is chained after the last one, so matches come out in row
  // order.
  const size_t n = static_cast<size_t>(join->static_->num_rows());
  std::vector<uint64_t> hashes(n, 0);
  for (const ColumnPtr& col : keys) col->HashInto(&hashes);
  join->next_.assign(n, -1);
  std::vector<int32_t> last(n);  // by a key's first row
  join->index_.Reserve(n);
  JoinKeyGroups groups;
  GroupJoinKeys(keys, keys, &groups);
  WithJoinKeyKernels(groups, [&](auto kernels) {
    using Kernels = decltype(kernels);
    for (size_t r = 0; r < n; ++r) {
      const auto row = static_cast<int64_t>(r);
      if (HasNullKey(keys, row)) continue;
      auto same_key = [&](uint32_t pos) {
        return Kernels::Equal(groups, pos, row);
      };
      size_t slot;
      const uint32_t first = join->index_.Find(hashes[r], same_key, &slot);
      if (first == KeyIndex::kAbsent) {
        join->index_.Insert(slot, hashes[r], static_cast<uint32_t>(r));
        last[r] = static_cast<int32_t>(r);
      } else {
        join->next_[static_cast<size_t>(last[first])] =
            static_cast<int32_t>(r);
        last[first] = static_cast<int32_t>(r);
      }
    }
  });
  return std::shared_ptr<const StreamStaticJoin>(std::move(join));
}

std::vector<int> StreamStaticJoin::Referenced() const {
  std::vector<int> referenced = stream_output_indices_;
  for (const ExprPtr& key : stream_keys_) key->CollectColumnIndices(&referenced);
  for (const auto& [static_idx, stream_idx] : static_from_stream_) {
    referenced.push_back(stream_idx);
  }
  return referenced;
}

Result<RecordBatchPtr> StreamStaticJoin::Probe(const RecordBatch& input) const {
  const int64_t n = input.num_rows();
  std::vector<ColumnPtr> keys(stream_keys_.size());
  for (size_t k = 0; k < stream_keys_.size(); ++k) {
    SS_ASSIGN_OR_RETURN(keys[k], stream_keys_[k]->EvalBatch(input));
  }
  std::vector<uint64_t> hashes(static_cast<size_t>(n), 0);
  for (const ColumnPtr& col : keys) col->HashInto(&hashes);
  // One probe per stream row: each static match emits (stream row, static
  // row); an unmatched row of a preserved stream emits (stream row, -1).
  std::vector<int32_t> stream_rows;
  std::vector<int32_t> static_rows;
  stream_rows.reserve(static_cast<size_t>(n));
  static_rows.reserve(static_cast<size_t>(n));
  JoinKeyGroups groups;
  const bool comparable = GroupJoinKeys(static_keys_, keys, &groups);
  WithJoinKeyKernels(groups, [&](auto kernels) {
    using Kernels = decltype(kernels);
    for (int64_t i = 0; i < n; ++i) {
      uint32_t first = KeyIndex::kAbsent;
      if (comparable && !HasNullKey(keys, i)) {
        size_t slot;
        auto same_key = [&](uint32_t pos) {
          return Kernels::Equal(groups, pos, i);
        };
        first = index_.Find(hashes[static_cast<size_t>(i)], same_key, &slot);
      }
      if (first == KeyIndex::kAbsent) {
        if (preserve_stream_) {
          stream_rows.push_back(static_cast<int32_t>(i));
          static_rows.push_back(-1);
        }
        continue;
      }
      for (int32_t r = static_cast<int32_t>(first); r >= 0;
           r = next_[static_cast<size_t>(r)]) {
        stream_rows.push_back(static_cast<int32_t>(i));
        static_rows.push_back(r);
      }
    }
  });

  // Gather the output columns typed, one gather per column (per run of
  // matched or unmatched rows on the static side).
  std::vector<ColumnPtr> columns;
  for (int idx : static_output_indices_) {
    // USING-join key coalescing: an unmatched stream row's key fills the
    // static key column (see Make's comment).
    const Column* coalesce = nullptr;
    for (const auto& [static_idx, stream_idx] : static_from_stream_) {
      if (static_idx == idx) coalesce = input.column(stream_idx).get();
    }
    const Column& src = *static_->column(idx);
    ColumnPtr dst = Column::Make(src.type());
    dst->Reserve(static_cast<int64_t>(stream_rows.size()));
    AppendStaticSide(src, coalesce, static_rows, stream_rows, dst.get());
    columns.push_back(std::move(dst));
  }
  const RecordBatchPtr stream_side =
      input.SelectColumns(stream_output_indices_)->Gather(stream_rows);
  columns.insert(stream_first_ ? columns.begin() : columns.end(),
                 stream_side->columns().begin(), stream_side->columns().end());
  return RecordBatch::Make(schema_, std::move(columns));
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

FusedPipelineExec::Stage FusedPipelineExec::Stage::StaticJoin(
    int op_id, std::shared_ptr<const StreamStaticJoin> join) {
  Stage stage;
  stage.kind = Kind::kStaticJoin;
  stage.op_id = op_id;
  stage.name = "StreamStaticJoin";
  stage.schema = join->schema();
  stage.referenced = join->Referenced();
  stage.join = std::move(join);
  return stage;
}

FusedPipelineExec::FusedPipelineExec(int op_id, PhysOpPtr child,
                                     std::vector<Stage> stages)
    : PhysOp(op_id, child->schema(), {child}) {
  SS_CHECK(!stages.empty()) << "a fused pipeline needs at least one stage";
  for (Stage& stage : stages) AppendStage(std::move(stage));
}

void FusedPipelineExec::AppendStage(Stage stage) {
  // The topmost projection or join sets the output schema; filters and
  // watermarks keep their input's.
  if (stage.schema != nullptr) schema_ = stage.schema;
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
        std::vector<int32_t> idx(static_cast<size_t>(n));
        const int64_t kept = CollectSurvivors(*mask, n, idx.data());
        if (kept < n) {
          // Indices are logical rows of `cur`; MakeView composes them with
          // any selection already in force.
          idx.resize(static_cast<size_t>(kept));
          cur = RecordBatch::MakeView(
              cur, SelectionVector::FromVector(std::move(idx)));
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
      case Stage::Kind::kStaticJoin: {
        RecordBatchPtr probe_in = GatherReferenced(cur, stage.referenced);
        SS_ASSIGN_OR_RETURN(cur, stage.join->Probe(*probe_in));
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

int64_t FusedPipelineExec::RecordStages(ExecContext* ctx,
                                        int64_t child_nanos,
                                        const StageCells& cells) const {
  std::lock_guard<std::mutex> lock(ctx->metrics_mu);
  int64_t cumulative = 0;
  for (size_t s = 0; s < stages_.size(); ++s) {
    OperatorProgress& op = ctx->op_progress[stages_[s].op_id];
    for (const std::vector<StageStats>& partition : cells) {
      const StageStats& cell = partition[s];
      op.rows_out += cell.rows;
      op.output_bytes += cell.bytes;
      ++op.batches;
      cumulative += cell.nanos;
    }
    ctx->op_wall_nanos[stages_[s].op_id] += child_nanos + cumulative;
  }
  return cumulative;
}

void FusedPipelineExec::RecordInTaskRun(ExecContext* ctx, int64_t child_nanos,
                                        const StageCells& cells,
                                        int64_t stage_nanos,
                                        int64_t task_nanos) const {
  const int64_t pipeline_nanos = RecordStages(ctx, child_nanos, cells);
  // The stage's wall splits between the pipeline and the operator that
  // ran it, so each reports a self time of its own part (the stages are
  // timed inside the tasks, so pipeline_nanos <= task_nanos).
  const int64_t share =
      task_nanos > 0 ? static_cast<int64_t>(static_cast<double>(stage_nanos) *
                                            static_cast<double>(pipeline_nanos) /
                                            static_cast<double>(task_nanos))
                     : 0;
  std::lock_guard<std::mutex> lock(ctx->metrics_mu);
  ctx->op_wall_nanos[op_id_] += child_nanos + share;
  OperatorProgress& op = ctx->op_progress[op_id_];
  for (const std::vector<StageStats>& partition : cells) {
    op.rows_out += partition.back().rows;
    op.output_bytes += partition.back().bytes;
    ++op.batches;
  }
}

Result<std::vector<RecordBatchPtr>> FusedPipelineExec::ExecuteImpl(
    ExecContext* ctx) {
  const int64_t t_child0 = MonotonicNanos();
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> in,
                      children_[0]->Execute(ctx));
  const int64_t child_nanos = MonotonicNanos() - t_child0;

  const size_t parts = in.size();
  StageCells cells(parts, std::vector<StageStats>(stages_.size()));
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
  RecordStages(ctx, child_nanos, cells);
  return out;
}

}  // namespace sstreaming
