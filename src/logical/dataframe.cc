#include "logical/dataframe.h"

namespace sstreaming {

DataFrame DataFrame::FromBatch(RecordBatchPtr batch) {
  SchemaPtr schema = batch->schema();
  return DataFrame(std::make_shared<ScanNode>(
      std::move(schema), std::vector<RecordBatchPtr>{std::move(batch)}));
}

Result<DataFrame> DataFrame::FromRows(SchemaPtr schema,
                                      std::vector<Row> rows) {
  SS_ASSIGN_OR_RETURN(RecordBatchPtr batch,
                      RecordBatch::FromRows(schema, rows));
  return FromBatch(std::move(batch));
}

DataFrame DataFrame::ReadStream(SourcePtr source) {
  return DataFrame(std::make_shared<StreamScanNode>(std::move(source)));
}

DataFrame DataFrame::Where(ExprPtr predicate) const {
  return DataFrame(std::make_shared<FilterNode>(plan_, std::move(predicate)));
}

DataFrame DataFrame::Select(std::vector<NamedExpr> exprs) const {
  return DataFrame(std::make_shared<ProjectNode>(plan_, std::move(exprs)));
}

DataFrame DataFrame::SelectColumns(
    const std::vector<std::string>& names) const {
  std::vector<NamedExpr> exprs;
  exprs.reserve(names.size());
  for (const std::string& name : names) {
    exprs.push_back(NamedExpr{Col(name), name});
  }
  return Select(std::move(exprs));
}

DataFrame DataFrame::WithColumn(const std::string& name, ExprPtr expr) const {
  return DataFrame(std::make_shared<ProjectNode>(
      plan_, std::vector<NamedExpr>{NamedExpr{std::move(expr), name}},
      /*include_star=*/true));
}

DataFrame DataFrame::WithWatermark(const std::string& column,
                                   int64_t delay_micros) const {
  return DataFrame(
      std::make_shared<WithWatermarkNode>(plan_, column, delay_micros));
}

GroupedData DataFrame::GroupBy(std::vector<NamedExpr> group_exprs) const {
  return GroupedData(plan_, std::move(group_exprs));
}

GroupedData DataFrame::GroupBy(const std::vector<std::string>& names) const {
  std::vector<NamedExpr> exprs;
  exprs.reserve(names.size());
  for (const std::string& name : names) {
    exprs.push_back(NamedExpr{Col(name), name});
  }
  return GroupBy(std::move(exprs));
}

KeyedData DataFrame::GroupByKey(std::vector<NamedExpr> key_exprs) const {
  return KeyedData(plan_, std::move(key_exprs));
}

DataFrame DataFrame::Join(const DataFrame& right,
                          const std::vector<std::string>& on,
                          JoinType type) const {
  std::vector<ExprPtr> left_keys;
  std::vector<ExprPtr> right_keys;
  for (const std::string& name : on) {
    left_keys.push_back(Col(name));
    right_keys.push_back(Col(name));
  }
  return Join(right, std::move(left_keys), std::move(right_keys), type);
}

DataFrame DataFrame::Join(const DataFrame& right,
                          std::vector<ExprPtr> left_keys,
                          std::vector<ExprPtr> right_keys,
                          JoinType type) const {
  return DataFrame(std::make_shared<JoinNode>(plan_, right.plan(), type,
                                              std::move(left_keys),
                                              std::move(right_keys)));
}

DataFrame DataFrame::Distinct() const {
  return DataFrame(std::make_shared<DistinctNode>(plan_));
}

DataFrame DataFrame::OrderBy(std::vector<SortKey> keys) const {
  return DataFrame(std::make_shared<SortNode>(plan_, std::move(keys)));
}

DataFrame DataFrame::Limit(int64_t n) const {
  return DataFrame(std::make_shared<LimitNode>(plan_, n));
}

DataFrame GroupedData::Agg(std::vector<AggSpec> aggregates) const {
  return DataFrame(std::make_shared<AggregateNode>(child_, group_exprs_,
                                                   std::move(aggregates)));
}

DataFrame KeyedData::MapGroupsWithState(GroupUpdateFn update_fn,
                                        SchemaPtr output_schema,
                                        GroupStateTimeout timeout) const {
  return DataFrame(std::make_shared<FlatMapGroupsWithStateNode>(
      child_, key_exprs_, std::move(update_fn), std::move(output_schema),
      timeout, /*require_single_output=*/true));
}

DataFrame KeyedData::FlatMapGroupsWithState(GroupUpdateFn update_fn,
                                            SchemaPtr output_schema,
                                            GroupStateTimeout timeout) const {
  return DataFrame(std::make_shared<FlatMapGroupsWithStateNode>(
      child_, key_exprs_, std::move(update_fn), std::move(output_schema),
      timeout, /*require_single_output=*/false));
}

}  // namespace sstreaming
