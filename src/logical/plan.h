#ifndef SSTREAMING_LOGICAL_PLAN_H_
#define SSTREAMING_LOGICAL_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "connectors/source.h"
#include "expr/aggregate.h"
#include "expr/expression.h"
#include "types/record_batch.h"
#include "types/schema.h"

namespace sstreaming {

class LogicalPlan;
using PlanPtr = std::shared_ptr<const LogicalPlan>;

enum class JoinType { kInner, kLeftOuter, kRightOuter };
const char* JoinTypeName(JoinType type);

/// Timeout semantics for stateful operators (paper §4.3.2).
enum class GroupStateTimeout { kNone, kProcessingTime, kEventTime };

/// Per-key mutable state handle passed to a stateful operator's update
/// function. Mirrors Spark's GroupState[S]: get/update/remove plus timeout
/// control. State values are Rows of a user-chosen shape.
class GroupState {
 public:
  GroupState(std::optional<Row> value, int64_t watermark_micros,
             int64_t processing_time_micros, bool timed_out)
      : value_(std::move(value)),
        watermark_micros_(watermark_micros),
        processing_time_micros_(processing_time_micros),
        timed_out_(timed_out) {}

  bool exists() const { return value_.has_value(); }
  /// Precondition: exists().
  const Row& get() const { return *value_; }
  void update(Row value) {
    value_ = std::move(value);
    updated_ = true;
    removed_ = false;
  }
  void remove() {
    value_.reset();
    removed_ = true;
    updated_ = false;
    timeout_at_micros_ = INT64_MAX;
  }

  /// Arms a processing-time timeout `duration` from now, or an event-time
  /// timeout at `timestamp` (must exceed the current watermark). Which clock
  /// applies is fixed per operator by its GroupStateTimeout configuration.
  void SetTimeoutDuration(int64_t duration_micros) {
    timeout_at_micros_ = processing_time_micros_ + duration_micros;
  }
  void SetTimeoutTimestamp(int64_t timestamp_micros) {
    timeout_at_micros_ = timestamp_micros;
  }

  /// True when this invocation is due to a timeout, not new data.
  bool HasTimedOut() const { return timed_out_; }

  /// The current event-time watermark (INT64_MIN before any watermark).
  int64_t watermark_micros() const { return watermark_micros_; }
  int64_t processing_time_micros() const { return processing_time_micros_; }

  // --- engine-side accessors ---
  bool updated() const { return updated_; }
  bool removed() const { return removed_; }
  int64_t timeout_at_micros() const { return timeout_at_micros_; }

 private:
  std::optional<Row> value_;
  int64_t watermark_micros_;
  int64_t processing_time_micros_;
  bool timed_out_;
  bool updated_ = false;
  bool removed_ = false;
  int64_t timeout_at_micros_ = INT64_MAX;
};

/// User update function for (flat)mapGroupsWithState: receives the group
/// key, the new values for that key this trigger (empty on timeout), and the
/// state handle; returns zero or more output rows (paper Figure 3). The
/// engine may call it concurrently for different keys (across partitions
/// and across a partition's state shards) and visits keys in unspecified
/// order, so it must be safe to call from several threads at once.
using GroupUpdateFn = std::function<Result<std::vector<Row>>(
    const Row& key, const std::vector<Row>& values, GroupState* state)>;

/// An unresolved relational query tree. Built by the DataFrame API, then
/// analyzed (name/type resolution + streaming validation), optimized, and
/// incrementalized into physical operators. Nodes are immutable and shared.
class LogicalPlan {
 public:
  enum class Kind {
    kScan,          // static, fully materialized data
    kStreamScan,    // a replayable streaming source
    kFilter,
    kProject,
    kAggregate,
    kJoin,
    kDistinct,
    kSort,
    kLimit,
    kWithWatermark,
    kFlatMapGroupsWithState,
  };
  /// "Scan", "StreamScan", "Filter", ... Persisted in plan manifests
  /// (docs/UPGRADES.md), so a name never changes.
  static const char* KindName(Kind kind);

  virtual ~LogicalPlan() = default;

  Kind kind() const { return kind_; }
  const std::vector<PlanPtr>& children() const { return children_; }

  /// Output schema; only set on analyzed plans.
  const SchemaPtr& schema() const { return schema_; }
  bool analyzed() const { return schema_ != nullptr; }

  /// True if any descendant reads a streaming source.
  bool IsStreaming() const;

  /// One-line description of this node (children not included).
  virtual std::string ToString() const = 0;

  /// Multi-line indented rendering of the whole tree.
  std::string TreeString() const;

 protected:
  LogicalPlan(Kind kind, std::vector<PlanPtr> children)
      : kind_(kind), children_(std::move(children)) {}

  friend class Analyzer;

  Kind kind_;
  std::vector<PlanPtr> children_;
  SchemaPtr schema_;
};

/// Static data (a fully materialized table).
class ScanNode : public LogicalPlan {
 public:
  ScanNode(SchemaPtr schema, std::vector<RecordBatchPtr> batches);

  const SchemaPtr& data_schema() const { return data_schema_; }
  const std::vector<RecordBatchPtr>& batches() const { return batches_; }

  std::string ToString() const override;

 private:
  SchemaPtr data_schema_;
  std::vector<RecordBatchPtr> batches_;
};

/// A streaming source scan.
class StreamScanNode : public LogicalPlan {
 public:
  explicit StreamScanNode(SourcePtr source);

  const SourcePtr& source() const { return source_; }

  std::string ToString() const override;

 private:
  SourcePtr source_;
};

class FilterNode : public LogicalPlan {
 public:
  FilterNode(PlanPtr child, ExprPtr predicate);

  const ExprPtr& predicate() const { return predicate_; }

  std::string ToString() const override;

 private:
  ExprPtr predicate_;
};

class ProjectNode : public LogicalPlan {
 public:
  /// With include_star, all child columns are implicitly projected first and
  /// `exprs` appended/overridden by name (the withColumn form). The analyzer
  /// expands the star.
  ProjectNode(PlanPtr child, std::vector<NamedExpr> exprs,
              bool include_star = false);

  const std::vector<NamedExpr>& exprs() const { return exprs_; }
  bool include_star() const { return include_star_; }

  std::string ToString() const override;

 private:
  std::vector<NamedExpr> exprs_;
  bool include_star_;
};

/// groupBy(...).agg(...). Group keys that are window() expressions produce
/// two output columns, `<name>_start` and `<name>_end`.
class AggregateNode : public LogicalPlan {
 public:
  AggregateNode(PlanPtr child, std::vector<NamedExpr> group_exprs,
                std::vector<AggSpec> aggregates);

  const std::vector<NamedExpr>& group_exprs() const { return group_exprs_; }
  const std::vector<AggSpec>& aggregates() const { return aggregates_; }

  std::string ToString() const override;

 private:
  std::vector<NamedExpr> group_exprs_;
  std::vector<AggSpec> aggregates_;
};

/// The shape of a join's output (DESIGN.md §4, item 5): every left
/// column, then the kept right columns. The analyzer's output schema, the
/// optimizer's pruning and filter pushdown, watermark propagation and the
/// planner all read it from JoinNode::Shape, so they agree on it.
struct JoinShape {
  /// The right input columns the output keeps, in order, and their output
  /// names. A right USING key (a key column named like the left key it is
  /// paired with) is dropped; a kept right column named like a left column
  /// is renamed `<name>_r`.
  std::vector<int> kept_right;
  std::vector<std::string> kept_right_names;
  /// (left column, right column) of each USING key: a preserved right row
  /// with no match coalesces its key into the kept left column.
  std::vector<std::pair<int, int>> using_keys;
  /// A preserved side's unmatched rows are emitted null-padded; a side
  /// that is not preserved only supplies matches.
  bool preserves_left = false;
  bool preserves_right = false;
};

/// Equi-join. left_keys[i] pairs with right_keys[i].
class JoinNode : public LogicalPlan {
 public:
  JoinNode(PlanPtr left, PlanPtr right, JoinType join_type,
           std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys);

  JoinType join_type() const { return join_type_; }
  const std::vector<ExprPtr>& left_keys() const { return left_keys_; }
  const std::vector<ExprPtr>& right_keys() const { return right_keys_; }

  /// The join's shape over inputs with these column names; needs no
  /// analysis. A USING key missing from either input is not one (the
  /// analyzer rejects the key).
  JoinShape Shape(const std::vector<std::string>& left_columns,
                  const std::vector<std::string>& right_columns) const;
  /// The shape of an analyzed join, over its children's schemas.
  JoinShape Shape() const;

  std::string ToString() const override;

 private:
  JoinType join_type_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
};

class DistinctNode : public LogicalPlan {
 public:
  explicit DistinctNode(PlanPtr child);
  std::string ToString() const override;
};

struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

class SortNode : public LogicalPlan {
 public:
  SortNode(PlanPtr child, std::vector<SortKey> keys);

  const std::vector<SortKey>& keys() const { return keys_; }

  std::string ToString() const override;

 private:
  std::vector<SortKey> keys_;
};

class LimitNode : public LogicalPlan {
 public:
  LimitNode(PlanPtr child, int64_t n);

  int64_t n() const { return n_; }

  std::string ToString() const override;

 private:
  int64_t n_;
};

/// withWatermark(column, delay): declares `column` as event time with a
/// lateness bound (paper §4.3.1). Watermark = max(column) - delay.
class WithWatermarkNode : public LogicalPlan {
 public:
  WithWatermarkNode(PlanPtr child, std::string column, int64_t delay_micros);

  const std::string& column() const { return column_; }
  int64_t delay_micros() const { return delay_micros_; }

  std::string ToString() const override;

 private:
  std::string column_;
  int64_t delay_micros_;
};

/// groupByKey(...).flatMapGroupsWithState(...) (paper §4.3.2).
class FlatMapGroupsWithStateNode : public LogicalPlan {
 public:
  FlatMapGroupsWithStateNode(PlanPtr child, std::vector<NamedExpr> key_exprs,
                             GroupUpdateFn update_fn, SchemaPtr output_schema,
                             GroupStateTimeout timeout,
                             bool require_single_output);

  const std::vector<NamedExpr>& key_exprs() const { return key_exprs_; }
  const GroupUpdateFn& update_fn() const { return update_fn_; }
  const SchemaPtr& output_schema() const { return output_schema_; }
  GroupStateTimeout timeout() const { return timeout_; }
  /// True for mapGroupsWithState (exactly one output row per invocation).
  bool require_single_output() const { return require_single_output_; }

  std::string ToString() const override;

 private:
  std::vector<NamedExpr> key_exprs_;
  GroupUpdateFn update_fn_;
  SchemaPtr output_schema_;
  GroupStateTimeout timeout_;
  bool require_single_output_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_LOGICAL_PLAN_H_
