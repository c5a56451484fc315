#ifndef SSTREAMING_PHYSICAL_STATEFUL_OPS_H_
#define SSTREAMING_PHYSICAL_STATEFUL_OPS_H_

#include <optional>
#include <string>
#include <vector>

#include "expr/aggregate.h"
#include "expr/expression.h"
#include "logical/plan.h"
#include "physical/phys_op.h"

namespace sstreaming {

/// State-store-backed incremental aggregation (paper §5.2's
/// StatefulAggregate). Input must already be hash-partitioned by the group
/// key (ShuffleExec). Per-key aggregation state lives in the state store and
/// is updated in time proportional to the epoch's new rows. Emission depends
/// on the sink output mode:
///  - update:   finalized rows for keys changed this epoch;
///  - complete: all keys every epoch;
///  - append:   only groups whose event-time window has closed under the
///    watermark (emitted exactly once, then evicted).
/// With a watermark, rows for already-closed windows are dropped as late
/// data, and closed windows are evicted from state (paper §4.3.1).
class StatefulAggExec : public PhysOp {
 public:
  StatefulAggExec(int op_id, PhysOpPtr child, SchemaPtr out_schema,
                  std::vector<NamedExpr> group_exprs,
                  std::vector<AggSpec> aggregates);
  ~StatefulAggExec() override;

  std::string name() const override { return "StatefulAggregate"; }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;

  /// Number of leading key columns in the output (window keys count as 2:
  /// start and end) — what the sink needs for update-mode upserts.
  int num_output_key_columns() const;

 private:
  std::vector<NamedExpr> group_exprs_;
  std::vector<AggSpec> aggregates_;
  // Set when one group key is a window() expression.
  int window_key_index_ = -1;  // position within group_exprs_
  const WindowExpr* window_expr_ = nullptr;
  // Fold scratch and routed-row buckets per [partition][shard], kept
  // across epochs so a warm fold reuses its buffers instead of allocating
  // per key (see the .cc).
  struct ShardFold;
  std::vector<std::vector<ShardFold>> folds_;
};

/// Streaming SELECT DISTINCT: emits each row the first time it is seen,
/// remembering seen keys in the state store.
class DedupExec : public PhysOp {
 public:
  DedupExec(int op_id, PhysOpPtr child);

  std::string name() const override { return "Dedup"; }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;
};

/// Symmetric-hash stream-stream equi-join with state on both sides. Inputs
/// must be co-partitioned by key (two ShuffleExecs with equal partition
/// counts). A side's rows live only in the state store: under 'L' or 'R'
/// plus the encoded join key, one value of [matched byte][EncodeRow bytes]
/// records in arrival order. A new row is encoded once from its columns,
/// probes the other side's value in place (output cells are decoded from
/// both encoded rows, never boxed), sets the flag of each stored row it
/// matches for the first time, and is appended to its own side. With
/// watermarked event-time columns, state older than the watermark is
/// evicted, and outer-join null-padded results are emitted once the
/// unmatched row can no longer find a partner (paper §5.2: outer joins
/// require a watermarked column).
class StreamStreamJoinExec : public PhysOp {
 public:
  /// `shape` names the kept right columns, the USING keys an unmatched
  /// right row coalesces into the left columns, and the preserved sides.
  StreamStreamJoinExec(int op_id, PhysOpPtr left, PhysOpPtr right,
                       SchemaPtr out_schema, std::vector<ExprPtr> left_keys,
                       std::vector<ExprPtr> right_keys, JoinShape shape,
                       int left_time_index, int right_time_index);

  std::string name() const override { return "StreamStreamJoin"; }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;

 private:
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  JoinShape shape_;
  // Event-time column index per side for watermark eviction; -1 = none.
  int left_time_index_;
  int right_time_index_;
};

/// (flat)mapGroupsWithState (paper §4.3.2): arbitrary per-key user state
/// with timeouts. Input must be hash-partitioned by key.
class FlatMapGroupsWithStateExec : public PhysOp {
 public:
  FlatMapGroupsWithStateExec(int op_id, PhysOpPtr child, SchemaPtr out_schema,
                             std::vector<NamedExpr> key_exprs,
                             GroupUpdateFn update_fn,
                             GroupStateTimeout timeout,
                             bool require_single_output);

  std::string name() const override { return "FlatMapGroupsWithState"; }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext* ctx) override;

 private:
  std::vector<NamedExpr> key_exprs_;
  GroupUpdateFn update_fn_;
  GroupStateTimeout timeout_;
  bool require_single_output_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_PHYSICAL_STATEFUL_OPS_H_
