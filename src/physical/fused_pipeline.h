#ifndef SSTREAMING_PHYSICAL_FUSED_PIPELINE_H_
#define SSTREAMING_PHYSICAL_FUSED_PIPELINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/key_index.h"
#include "expr/expression.h"
#include "physical/phys_op.h"

namespace sstreaming {

/// True when row i has a NULL in any key column: SQL's NULL never equals
/// anything, so such a row joins nothing (both join kinds).
bool HasNullKey(const std::vector<ColumnPtr>& keys, int64_t i);

/// The static side of a stream-static equi-join (paper §2.2's "join a
/// stream with static data"), built once at plan time: one RecordBatch, its
/// distinct non-null keys indexed by a KeyIndex that every partition probes
/// read-only (DESIGN.md §9). Inner or stream-preserving outer; keys compare
/// typed, and a NULL key never matches. The probe runs as a stage of a
/// fused pipeline.
class StreamStaticJoin {
 public:
  /// `static_side` is the static input, a batch without a selection.
  /// `static_from_stream`: (static column index -> stream column index)
  /// pairs used to coalesce USING-join keys: when a preserved stream row has
  /// no static match, the dropped duplicate key column takes the stream's
  /// key value instead of NULL. Fails when a static key does not evaluate.
  static Result<std::shared_ptr<const StreamStaticJoin>> Make(
      SchemaPtr out_schema, std::vector<ExprPtr> stream_keys,
      RecordBatchPtr static_side, const std::vector<ExprPtr>& static_keys,
      std::vector<int> stream_output_indices,
      std::vector<int> static_output_indices, bool stream_first,
      bool preserve_stream,
      std::vector<std::pair<int, int>> static_from_stream);

  const SchemaPtr& schema() const { return schema_; }
  /// Column ordinals of the stream input that the probe reads.
  std::vector<int> Referenced() const;

  /// Joins one selection-free stream batch against the static side.
  Result<RecordBatchPtr> Probe(const RecordBatch& input) const;

 private:
  StreamStaticJoin() = default;

  SchemaPtr schema_;
  std::vector<ExprPtr> stream_keys_;
  std::vector<int> stream_output_indices_;
  std::vector<int> static_output_indices_;
  bool stream_first_ = true;
  bool preserve_stream_ = false;
  std::vector<std::pair<int, int>> static_from_stream_;
  RecordBatchPtr static_;
  std::vector<ColumnPtr> static_keys_;  // evaluated over static_
  KeyIndex index_;                      // distinct non-null key -> first row
  std::vector<int32_t> next_;  // static row -> next row with its key, or -1
};

/// The one execution path of narrow (partition-local) operators: a chain of
/// Filter / Project / Watermark / stream-static join stages (length >= 1)
/// run as one pass per batch (docs/VECTORIZED_EXEC.md). Instead of each
/// operator materializing an intermediate batch, the pipeline carries a
/// selection vector through the filter stages and, at a projection or a
/// join probe, gathers only the columns the stage actually references.
/// Under a ShuffleExec the stages run inside the shuffle's map tasks, so a
/// stage of the epoch's job ends only at a shuffle (paper §6.2).
///
/// Observability contract: the fused node has its own op_id, but every
/// stage carries the op_id the incrementalizer gave that operator — per-stage
/// counters are recorded under those ids and CollectProfileNodes exposes the
/// stages as chained profile nodes, so EXPLAIN ANALYZE row accounting and
/// the sstreaming_operator_rows_* counters report each operator separately.
/// Watermark stages likewise observe event times under their own op_id,
/// which keys the engine's watermark map.
class FusedPipelineExec : public PhysOp {
 public:
  struct Stage {
    enum class Kind { kFilter, kProject, kWatermark, kStaticJoin };
    Kind kind;
    /// The operator's own op_id (stats + watermark key).
    int op_id = 0;
    /// Operator name (profile rendering).
    std::string name;
    // kFilter
    ExprPtr predicate;
    // kProject
    std::vector<NamedExpr> exprs;
    SchemaPtr schema;  // output schema of the projection or the join
    // kWatermark
    int column_index = 0;
    int64_t delay_micros = 0;
    // kStaticJoin
    std::shared_ptr<const StreamStaticJoin> join;
    /// Column ordinals of the stage's input that its expressions read.
    std::vector<int> referenced;

    /// Keeps the rows for which `predicate` is true (NULL drops the row).
    static Stage Filter(int op_id, ExprPtr predicate);
    /// Evaluates `exprs` into a batch of `schema`.
    static Stage Project(int op_id, SchemaPtr schema,
                         std::vector<NamedExpr> exprs);
    /// Records the max event time of `column_index`, less `delay_micros`,
    /// so the engine can advance the query watermark (paper §4.3.1).
    static Stage Watermark(int op_id, int column_index, int64_t delay_micros);
    /// Probes `join`'s static side with each row.
    static Stage StaticJoin(int op_id,
                            std::shared_ptr<const StreamStaticJoin> join);
  };

  /// `stages` are ordered bottom (nearest `child`) to top.
  FusedPipelineExec(int op_id, PhysOpPtr child, std::vector<Stage> stages);

  /// One stage's accounting for one batch: output rows and bytes, and the
  /// stage's own time.
  struct StageStats {
    int64_t rows = 0;
    int64_t bytes = 0;
    int64_t nanos = 0;
  };
  /// One epoch's accounting, [partition][stage], filled lock-free inside
  /// the tasks.
  using StageCells = std::vector<std::vector<StageStats>>;

  std::string name() const override;
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;
  void CollectProfileNodes(std::vector<OpProfileNode>* out) const override;

  /// Runs the stage chain over one partition's batch, writing one entry per
  /// stage to `stats`: the body of each epoch task, and of each continuous
  /// worker's chunk. Safe to call concurrently.
  Result<RecordBatchPtr> RunStages(ExecContext* ctx, RecordBatchPtr batch,
                                   StageStats* stats) const;

  /// Records an epoch the pipeline ran inside another operator's tasks (a
  /// shuffle's map stage of `stage_nanos` wall time and `task_nanos`
  /// summed task time), from `cells` and its child's wall time: each
  /// stage's counters as ExecuteImpl records them, and for the pipeline
  /// node its output and a wall of its child's plus the pipeline's share of
  /// the stage's wall, by summed task time.
  void RecordInTaskRun(ExecContext* ctx, int64_t child_nanos,
                       const StageCells& cells, int64_t stage_nanos,
                       int64_t task_nanos) const;

  const std::vector<Stage>& stages() const { return stages_; }

  /// Plan construction only, before execution starts: adds a stage on top
  /// of the chain, and gives the node its final op_id once the rest of the
  /// plan is numbered.
  void AppendStage(Stage stage);
  void set_op_id(int op_id) { op_id_ = op_id; }

 private:
  /// Folds `cells` into ctx->op_progress under the stages' op_ids. Walls
  /// are inclusive: `child_nanos` plus the summed task time of the stages
  /// up to and including each one. Returns all stages' summed task time.
  int64_t RecordStages(ExecContext* ctx, int64_t child_nanos,
                       const StageCells& cells) const;

  std::vector<Stage> stages_;
};

/// Gathers the logical rows of `batch` (through its selection, if any) for
/// just the column ordinals in `referenced`; the remaining columns are
/// null-filled to the same length so ordinals keep their meaning. Returns
/// `batch` unchanged when it has no selection. Preserves ingest_micros.
RecordBatchPtr GatherReferenced(const RecordBatchPtr& batch,
                                const std::vector<int>& referenced);

}  // namespace sstreaming

#endif  // SSTREAMING_PHYSICAL_FUSED_PIPELINE_H_
