#ifndef SSTREAMING_LOGICAL_DATAFRAME_H_
#define SSTREAMING_LOGICAL_DATAFRAME_H_

#include <string>
#include <vector>

#include "logical/plan.h"

namespace sstreaming {

class GroupedData;
class KeyedData;

/// The user-facing query builder, modeled on Spark's DataFrame (paper §4.1):
/// a table-valued view defined by a relational plan. The same DataFrame can
/// be executed as a batch job (BatchExecutor) or incrementalized into a
/// streaming query (StreamingQuery) — the API is agnostic to execution
/// strategy, which is what enables both microbatch and continuous modes
/// (paper §6.3).
///
/// DataFrames are immutable values; every transformation returns a new one.
class DataFrame {
 public:
  explicit DataFrame(PlanPtr plan) : plan_(std::move(plan)) {}

  /// A static (batch) table from materialized data.
  static DataFrame FromBatch(RecordBatchPtr batch);
  static Result<DataFrame> FromRows(SchemaPtr schema, std::vector<Row> rows);

  /// A streaming table over a replayable source (readStream in the paper).
  static DataFrame ReadStream(SourcePtr source);

  const PlanPtr& plan() const { return plan_; }
  bool IsStreaming() const { return plan_->IsStreaming(); }

  /// Row filter; where() and filter() are synonyms as in Spark.
  DataFrame Where(ExprPtr predicate) const;
  DataFrame Filter(ExprPtr predicate) const { return Where(std::move(predicate)); }

  /// Projection.
  DataFrame Select(std::vector<NamedExpr> exprs) const;
  /// Projection by column name.
  DataFrame SelectColumns(const std::vector<std::string>& names) const;
  /// Adds (or replaces) one column, keeping the rest.
  DataFrame WithColumn(const std::string& name, ExprPtr expr) const;

  /// Declares an event-time column with a lateness bound (paper §4.3.1).
  DataFrame WithWatermark(const std::string& column,
                          int64_t delay_micros) const;

  /// Starts an aggregation: groupBy(...).agg/count/...
  GroupedData GroupBy(std::vector<NamedExpr> group_exprs) const;
  GroupedData GroupBy(const std::vector<std::string>& names) const;

  /// Starts a stateful-operator pipeline: groupByKey(...).mapGroupsWithState.
  KeyedData GroupByKey(std::vector<NamedExpr> key_exprs) const;

  /// Equi-join on same-named columns.
  DataFrame Join(const DataFrame& right, const std::vector<std::string>& on,
                 JoinType type = JoinType::kInner) const;
  /// Equi-join on explicit key expressions.
  DataFrame Join(const DataFrame& right, std::vector<ExprPtr> left_keys,
                 std::vector<ExprPtr> right_keys,
                 JoinType type = JoinType::kInner) const;

  DataFrame Distinct() const;
  DataFrame OrderBy(std::vector<SortKey> keys) const;
  DataFrame Limit(int64_t n) const;

  std::string TreeString() const { return plan_->TreeString(); }

 private:
  PlanPtr plan_;
};

/// Result of groupBy(); terminates in an aggregation.
class GroupedData {
 public:
  GroupedData(PlanPtr child, std::vector<NamedExpr> group_exprs)
      : child_(std::move(child)), group_exprs_(std::move(group_exprs)) {}

  DataFrame Agg(std::vector<AggSpec> aggregates) const;
  DataFrame Count() const { return Agg({CountAll("count")}); }
  DataFrame Avg(const std::string& column, std::string name = "avg") const {
    return Agg({AvgOf(Col(column), std::move(name))});
  }
  DataFrame Sum(const std::string& column, std::string name = "sum") const {
    return Agg({SumOf(Col(column), std::move(name))});
  }

 private:
  PlanPtr child_;
  std::vector<NamedExpr> group_exprs_;
};

/// Result of groupByKey(); terminates in a stateful operator (paper §4.3.2).
class KeyedData {
 public:
  KeyedData(PlanPtr child, std::vector<NamedExpr> key_exprs)
      : child_(std::move(child)), key_exprs_(std::move(key_exprs)) {}

  /// The update function must return exactly one row per invocation.
  DataFrame MapGroupsWithState(
      GroupUpdateFn update_fn, SchemaPtr output_schema,
      GroupStateTimeout timeout = GroupStateTimeout::kNone) const;

  /// The update function may return zero or more rows per invocation.
  DataFrame FlatMapGroupsWithState(
      GroupUpdateFn update_fn, SchemaPtr output_schema,
      GroupStateTimeout timeout = GroupStateTimeout::kNone) const;

 private:
  PlanPtr child_;
  std::vector<NamedExpr> key_exprs_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_LOGICAL_DATAFRAME_H_
