#ifndef SSTREAMING_PHYSICAL_OPERATORS_H_
#define SSTREAMING_PHYSICAL_OPERATORS_H_

#include <string>
#include <vector>

#include "connectors/source.h"
#include "expr/expression.h"
#include "physical/phys_op.h"

namespace sstreaming {

/// Reads this epoch's offset range from a streaming source, one task per
/// partition. When a projection is set (pushed down by the incrementalizer
/// from a pure column projection above the scan, §5.3), only those columns
/// are materialized.
class SourceExec : public PhysOp {
 public:
  SourceExec(int op_id, SourcePtr source);
  /// Projected read: `schema` describes `columns` of the source schema.
  SourceExec(int op_id, SourcePtr source, std::vector<int> columns,
             SchemaPtr schema);

  std::string name() const override { return "Source[" + source_->name() + "]"; }
  bool is_source_scan() const override { return true; }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;

  /// Reads records [start, end) of `partition` (only the projected columns
  /// when projected), counts them into `ctx` and stamps the batch's ingest
  /// time: the body of each epoch task, and each continuous worker's read.
  Result<RecordBatchPtr> ReadPartition(ExecContext* ctx, int partition,
                                       int64_t start, int64_t end) const;

  const SourcePtr& source() const { return source_; }
  bool projected() const { return !columns_.empty(); }

 private:
  SourcePtr source_;
  std::vector<int> columns_;  // empty = all
};

/// Emits a static dataset, split round-robin into `num_partitions` — used
/// when a batch plan runs through the streaming operator pipeline
/// (paper §7.3, batch/stream unification).
class StaticSourceExec : public PhysOp {
 public:
  StaticSourceExec(int op_id, SchemaPtr schema,
                   std::vector<RecordBatchPtr> batches, int num_partitions);

  std::string name() const override { return "StaticSource"; }
  bool is_source_scan() const override { return true; }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;

 private:
  std::vector<RecordBatchPtr> batches_;
  int num_partitions_;
};

/// Hash repartitioning on key expressions: the "exchange" between map and
/// reduce stages of the microbatch job (paper §6.2). A stage of the job
/// ends only at a shuffle: when the child is a fused pipeline, its stages
/// run inside the map tasks, and the keyed operator above concatenates
/// each partition's pieces in its own task (ExecuteExchange).
class ShuffleExec : public PhysOp {
 public:
  ShuffleExec(int op_id, PhysOpPtr child, std::vector<ExprPtr> keys,
              int num_partitions);

  std::string name() const override {
    return "Shuffle p=" + std::to_string(num_partitions_);
  }
  /// The exchange, then each output partition's pieces concatenated on the
  /// calling thread.
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;

  /// The exchange, instrumented as Execute is: stage `<name>/map` runs one
  /// task per input partition that runs the child pipeline's stages (if
  /// the child is a FusedPipelineExec, whose own child runs first), hashes
  /// the keys and gathers one piece per output partition. Returns the
  /// pieces, [output partition][input partition].
  Result<std::vector<std::vector<RecordBatchPtr>>> ExecuteExchange(
      ExecContext* ctx);

  int num_partitions() const { return num_partitions_; }

 private:
  Result<std::vector<std::vector<RecordBatchPtr>>> Exchange(ExecContext* ctx);

  std::vector<ExprPtr> keys_;
  int num_partitions_;
};

/// Gathers all partitions into one and sorts (complete mode only).
class SortExec : public PhysOp {
 public:
  struct Key {
    ExprPtr expr;
    bool ascending;
  };

  SortExec(int op_id, PhysOpPtr child, std::vector<Key> keys);

  std::string name() const override { return "Sort"; }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;

 private:
  std::vector<Key> keys_;
};

/// Keeps the first n rows of partition 0 (used after SortExec).
class LimitExec : public PhysOp {
 public:
  LimitExec(int op_id, PhysOpPtr child, int64_t n);

  std::string name() const override { return "Limit " + std::to_string(n_); }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;

 private:
  int64_t n_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_PHYSICAL_OPERATORS_H_
