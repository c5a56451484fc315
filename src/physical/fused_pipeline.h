#ifndef SSTREAMING_PHYSICAL_FUSED_PIPELINE_H_
#define SSTREAMING_PHYSICAL_FUSED_PIPELINE_H_

#include <string>
#include <vector>

#include "expr/expression.h"
#include "physical/phys_op.h"

namespace sstreaming {

/// The one execution path of stateless row-shape operators: a chain of
/// Filter / Project / Watermark stages (length >= 1) run as one pass per
/// batch (docs/VECTORIZED_EXEC.md). Instead of each operator materializing
/// an intermediate batch, the pipeline carries a selection vector through
/// the filter stages and, at a projection, gathers only the columns the
/// projection actually references.
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
    enum class Kind { kFilter, kProject, kWatermark };
    Kind kind;
    /// The operator's own op_id (stats + watermark key).
    int op_id = 0;
    /// Operator name (profile rendering).
    std::string name;
    // kFilter
    ExprPtr predicate;
    // kProject
    std::vector<NamedExpr> exprs;
    SchemaPtr schema;  // output schema of the projection
    // kWatermark
    int column_index = 0;
    int64_t delay_micros = 0;
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

  std::string name() const override;
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;
  void CollectProfileNodes(std::vector<OpProfileNode>* out) const override;

  /// Runs the stage chain over one partition's batch, writing one entry per
  /// stage to `stats`: the body of each epoch task, and of each continuous
  /// worker's chunk. Safe to call concurrently.
  Result<RecordBatchPtr> RunStages(ExecContext* ctx, RecordBatchPtr batch,
                                   StageStats* stats) const;

  const std::vector<Stage>& stages() const { return stages_; }

  /// Plan construction only, before execution starts: adds a stage on top
  /// of the chain, and gives the node its final op_id once the rest of the
  /// plan is numbered.
  void AppendStage(Stage stage);
  void set_op_id(int op_id) { op_id_ = op_id; }

 private:
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
