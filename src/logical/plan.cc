#include "logical/plan.h"

#include <algorithm>

#include "common/logging.h"

namespace sstreaming {

const char* JoinTypeName(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeftOuter:
      return "left_outer";
    case JoinType::kRightOuter:
      return "right_outer";
  }
  return "?";
}

const char* LogicalPlan::KindName(Kind kind) {
  switch (kind) {
    case Kind::kScan:
      return "Scan";
    case Kind::kStreamScan:
      return "StreamScan";
    case Kind::kFilter:
      return "Filter";
    case Kind::kProject:
      return "Project";
    case Kind::kAggregate:
      return "Aggregate";
    case Kind::kJoin:
      return "Join";
    case Kind::kDistinct:
      return "Distinct";
    case Kind::kSort:
      return "Sort";
    case Kind::kLimit:
      return "Limit";
    case Kind::kWithWatermark:
      return "WithWatermark";
    case Kind::kFlatMapGroupsWithState:
      return "FlatMapGroupsWithState";
  }
  return "?";
}

bool LogicalPlan::IsStreaming() const {
  if (kind_ == Kind::kStreamScan) return true;
  for (const PlanPtr& child : children_) {
    if (child->IsStreaming()) return true;
  }
  return false;
}

namespace {
void TreeStringRec(const LogicalPlan& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.ToString();
  *out += "\n";
  for (const PlanPtr& child : node.children()) {
    TreeStringRec(*child, depth + 1, out);
  }
}
}  // namespace

std::string LogicalPlan::TreeString() const {
  std::string out;
  TreeStringRec(*this, 0, &out);
  return out;
}

ScanNode::ScanNode(SchemaPtr schema, std::vector<RecordBatchPtr> batches)
    : LogicalPlan(Kind::kScan, {}),
      data_schema_(std::move(schema)),
      batches_(std::move(batches)) {
  for (const RecordBatchPtr& b : batches_) {
    SS_CHECK(b->schema()->Equals(*data_schema_)) << "scan batch schema drift";
  }
}

std::string ScanNode::ToString() const {
  int64_t rows = 0;
  for (const RecordBatchPtr& b : batches_) rows += b->num_rows();
  return "Scan" + data_schema_->ToString() + " rows=" + std::to_string(rows);
}

StreamScanNode::StreamScanNode(SourcePtr source)
    : LogicalPlan(Kind::kStreamScan, {}), source_(std::move(source)) {
  SS_CHECK(source_ != nullptr);
}

std::string StreamScanNode::ToString() const {
  return "StreamScan[" + source_->name() + "]" +
         source_->schema()->ToString();
}

FilterNode::FilterNode(PlanPtr child, ExprPtr predicate)
    : LogicalPlan(Kind::kFilter, {std::move(child)}),
      predicate_(std::move(predicate)) {}

std::string FilterNode::ToString() const {
  return "Filter " + predicate_->ToString();
}

ProjectNode::ProjectNode(PlanPtr child, std::vector<NamedExpr> exprs,
                         bool include_star)
    : LogicalPlan(Kind::kProject, {std::move(child)}),
      exprs_(std::move(exprs)),
      include_star_(include_star) {}

std::string ProjectNode::ToString() const {
  std::string out = include_star_ ? "Project [*, " : "Project [";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i].expr->ToString();
    out += " AS " + exprs_[i].OutputName();
  }
  out += "]";
  return out;
}

AggregateNode::AggregateNode(PlanPtr child, std::vector<NamedExpr> group_exprs,
                             std::vector<AggSpec> aggregates)
    : LogicalPlan(Kind::kAggregate, {std::move(child)}),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)) {}

std::string AggregateNode::ToString() const {
  std::string out = "Aggregate keys=[";
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_exprs_[i].expr->ToString();
  }
  out += "] aggs=[";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggregates_[i].ToString();
  }
  out += "]";
  return out;
}

JoinNode::JoinNode(PlanPtr left, PlanPtr right, JoinType join_type,
                   std::vector<ExprPtr> left_keys,
                   std::vector<ExprPtr> right_keys)
    : LogicalPlan(Kind::kJoin, {std::move(left), std::move(right)}),
      join_type_(join_type),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)) {
  SS_CHECK(left_keys_.size() == right_keys_.size());
}

JoinShape JoinNode::Shape(const std::vector<std::string>& left_columns,
                          const std::vector<std::string>& right_columns) const {
  auto index_of = [](const std::vector<std::string>& names,
                     const std::string& name) {
    auto it = std::find(names.begin(), names.end(), name);
    return it == names.end() ? -1 : static_cast<int>(it - names.begin());
  };
  JoinShape shape;
  std::vector<bool> dropped(right_columns.size(), false);
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (left_keys_[i]->kind() != Expr::Kind::kColumnRef ||
        right_keys_[i]->kind() != Expr::Kind::kColumnRef) {
      continue;
    }
    const std::string& name =
        static_cast<const ColumnRefExpr&>(*left_keys_[i]).name();
    if (static_cast<const ColumnRefExpr&>(*right_keys_[i]).name() != name) {
      continue;
    }
    const int l = index_of(left_columns, name);
    const int r = index_of(right_columns, name);
    if (l < 0 || r < 0) continue;
    shape.using_keys.emplace_back(l, r);
    dropped[static_cast<size_t>(r)] = true;
  }
  for (size_t r = 0; r < right_columns.size(); ++r) {
    if (dropped[r]) continue;
    const std::string& name = right_columns[r];
    shape.kept_right.push_back(static_cast<int>(r));
    shape.kept_right_names.push_back(
        index_of(left_columns, name) >= 0 ? name + "_r" : name);
  }
  shape.preserves_left = join_type_ == JoinType::kLeftOuter;
  shape.preserves_right = join_type_ == JoinType::kRightOuter;
  return shape;
}

JoinShape JoinNode::Shape() const {
  return Shape(children_[0]->schema()->names(),
               children_[1]->schema()->names());
}

std::string JoinNode::ToString() const {
  std::string out = std::string("Join ") + JoinTypeName(join_type_) + " on [";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += left_keys_[i]->ToString() + " = " + right_keys_[i]->ToString();
  }
  out += "]";
  return out;
}

DistinctNode::DistinctNode(PlanPtr child)
    : LogicalPlan(Kind::kDistinct, {std::move(child)}) {}

std::string DistinctNode::ToString() const { return "Distinct"; }

SortNode::SortNode(PlanPtr child, std::vector<SortKey> keys)
    : LogicalPlan(Kind::kSort, {std::move(child)}), keys_(std::move(keys)) {}

std::string SortNode::ToString() const {
  std::string out = "Sort [";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].expr->ToString();
    out += keys_[i].ascending ? " ASC" : " DESC";
  }
  out += "]";
  return out;
}

LimitNode::LimitNode(PlanPtr child, int64_t n)
    : LogicalPlan(Kind::kLimit, {std::move(child)}), n_(n) {}

std::string LimitNode::ToString() const {
  return "Limit " + std::to_string(n_);
}

WithWatermarkNode::WithWatermarkNode(PlanPtr child, std::string column,
                                     int64_t delay_micros)
    : LogicalPlan(Kind::kWithWatermark, {std::move(child)}),
      column_(std::move(column)),
      delay_micros_(delay_micros) {}

std::string WithWatermarkNode::ToString() const {
  return "WithWatermark " + column_ + " delay=" +
         std::to_string(delay_micros_) + "us";
}

FlatMapGroupsWithStateNode::FlatMapGroupsWithStateNode(
    PlanPtr child, std::vector<NamedExpr> key_exprs, GroupUpdateFn update_fn,
    SchemaPtr output_schema, GroupStateTimeout timeout,
    bool require_single_output)
    : LogicalPlan(Kind::kFlatMapGroupsWithState, {std::move(child)}),
      key_exprs_(std::move(key_exprs)),
      update_fn_(std::move(update_fn)),
      output_schema_(std::move(output_schema)),
      timeout_(timeout),
      require_single_output_(require_single_output) {}

std::string FlatMapGroupsWithStateNode::ToString() const {
  std::string out = require_single_output_ ? "MapGroupsWithState"
                                           : "FlatMapGroupsWithState";
  out += " keys=[";
  for (size_t i = 0; i < key_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += key_exprs_[i].expr->ToString();
  }
  out += "]";
  return out;
}

}  // namespace sstreaming
