#include "analysis/analyzer.h"

#include <map>
#include <set>

#include "analysis/plan_analyzer.h"
#include "common/logging.h"

namespace sstreaming {

namespace {

Status CheckNoDuplicateNames(const Schema& schema, const char* where) {
  std::set<std::string> seen;
  for (const Field& f : schema.fields()) {
    if (!seen.insert(f.name).second) {
      return Status::AnalysisError(std::string(where) +
                                   ": duplicate output column '" + f.name +
                                   "'");
    }
  }
  return Status::OK();
}

}  // namespace

// Definitions live outside the anonymous namespace because Analyzer is a
// friend of LogicalPlan (needed to set schema_ on the rebuilt nodes).
Result<PlanPtr> Analyzer::Analyze(const PlanPtr& plan) {
  switch (plan->kind()) {
    case LogicalPlan::Kind::kScan: {
      const auto& node = static_cast<const ScanNode&>(*plan);
      auto out = std::make_shared<ScanNode>(node.data_schema(),
                                            node.batches());
      out->schema_ = node.data_schema();
      return PlanPtr(out);
    }
    case LogicalPlan::Kind::kStreamScan: {
      const auto& node = static_cast<const StreamScanNode&>(*plan);
      auto out = std::make_shared<StreamScanNode>(node.source());
      out->schema_ = node.source()->schema();
      return PlanPtr(out);
    }
    case LogicalPlan::Kind::kFilter: {
      const auto& node = static_cast<const FilterNode&>(*plan);
      SS_ASSIGN_OR_RETURN(PlanPtr child, Analyze(node.children()[0]));
      SS_ASSIGN_OR_RETURN(ExprPtr pred,
                          node.predicate()->Resolve(*child->schema()));
      if (pred->type() != TypeId::kBool && pred->type() != TypeId::kNull) {
        return Status::AnalysisError(
            "filter predicate must be boolean, got " +
            std::string(TypeName(pred->type())) + " in " +
            node.predicate()->ToString());
      }
      auto out = std::make_shared<FilterNode>(child, std::move(pred));
      out->schema_ = child->schema();
      return PlanPtr(out);
    }
    case LogicalPlan::Kind::kProject: {
      const auto& node = static_cast<const ProjectNode&>(*plan);
      SS_ASSIGN_OR_RETURN(PlanPtr child, Analyze(node.children()[0]));
      const Schema& in = *child->schema();
      std::vector<NamedExpr> items;
      if (node.include_star()) {
        // Expand '*': all child columns, with same-named items overriding.
        for (const Field& f : in.fields()) {
          const NamedExpr* override_item = nullptr;
          for (const NamedExpr& e : node.exprs()) {
            if (e.OutputName() == f.name) override_item = &e;
          }
          items.push_back(override_item
                              ? *override_item
                              : NamedExpr{Col(f.name), f.name});
        }
        for (const NamedExpr& e : node.exprs()) {
          if (in.IndexOf(e.OutputName()) < 0) items.push_back(e);
        }
      } else {
        items = node.exprs();
      }
      std::vector<NamedExpr> resolved;
      std::vector<Field> fields;
      for (const NamedExpr& item : items) {
        SS_ASSIGN_OR_RETURN(ExprPtr e, item.expr->Resolve(in));
        std::string name =
            item.name.empty() ? item.expr->output_name() : item.name;
        fields.push_back(Field{name, e->type(), /*nullable=*/true});
        resolved.push_back(NamedExpr{std::move(e), std::move(name)});
      }
      Schema schema(std::move(fields));
      SS_RETURN_IF_ERROR(CheckNoDuplicateNames(schema, "project"));
      auto out = std::make_shared<ProjectNode>(child, std::move(resolved));
      out->schema_ = std::make_shared<Schema>(std::move(schema));
      return PlanPtr(out);
    }
    case LogicalPlan::Kind::kAggregate: {
      const auto& node = static_cast<const AggregateNode&>(*plan);
      SS_ASSIGN_OR_RETURN(PlanPtr child, Analyze(node.children()[0]));
      const Schema& in = *child->schema();
      std::vector<NamedExpr> group_resolved;
      std::vector<Field> fields;
      int window_keys = 0;
      for (const NamedExpr& g : node.group_exprs()) {
        SS_ASSIGN_OR_RETURN(ExprPtr e, g.expr->Resolve(in));
        std::string name = g.name.empty() ? g.expr->output_name() : g.name;
        if (e->kind() == Expr::Kind::kWindow) {
          ++window_keys;
          if (window_keys > 1) {
            return Status::AnalysisError(
                "at most one window() group key is supported");
          }
          fields.push_back(Field{name + "_start", TypeId::kTimestamp, false});
          fields.push_back(Field{name + "_end", TypeId::kTimestamp, false});
        } else {
          fields.push_back(Field{name, e->type(), /*nullable=*/true});
        }
        group_resolved.push_back(NamedExpr{std::move(e), std::move(name)});
      }
      std::vector<AggSpec> aggs_resolved;
      for (const AggSpec& spec : node.aggregates()) {
        AggSpec r = spec;
        TypeId arg_type = TypeId::kNull;
        if (spec.func != AggFunc::kCountAll) {
          if (spec.arg == nullptr) {
            return Status::AnalysisError("aggregate " +
                                         std::string(AggFuncName(spec.func)) +
                                         " needs an argument");
          }
          SS_ASSIGN_OR_RETURN(ExprPtr a, spec.arg->Resolve(in));
          arg_type = a->type();
          r.arg = std::move(a);
        }
        SS_ASSIGN_OR_RETURN(TypeId out_type,
                            AggOutputType(spec.func, arg_type));
        fields.push_back(Field{r.name, out_type, /*nullable=*/true});
        aggs_resolved.push_back(std::move(r));
      }
      if (aggs_resolved.empty()) {
        return Status::AnalysisError("aggregation requires at least one "
                                     "aggregate function");
      }
      Schema schema(std::move(fields));
      SS_RETURN_IF_ERROR(CheckNoDuplicateNames(schema, "aggregate"));
      auto out = std::make_shared<AggregateNode>(
          child, std::move(group_resolved), std::move(aggs_resolved));
      out->schema_ = std::make_shared<Schema>(std::move(schema));
      return PlanPtr(out);
    }
    case LogicalPlan::Kind::kJoin: {
      const auto& node = static_cast<const JoinNode&>(*plan);
      SS_ASSIGN_OR_RETURN(PlanPtr left, Analyze(node.children()[0]));
      SS_ASSIGN_OR_RETURN(PlanPtr right, Analyze(node.children()[1]));
      if (node.left_keys().empty()) {
        return Status::AnalysisError("join requires at least one key");
      }
      for (size_t i = 0; i < node.left_keys().size(); ++i) {
        SS_ASSIGN_OR_RETURN(ExprPtr lk,
                            node.left_keys()[i]->Resolve(*left->schema()));
        SS_ASSIGN_OR_RETURN(ExprPtr rk,
                            node.right_keys()[i]->Resolve(*right->schema()));
        bool compatible = lk->type() == rk->type() ||
                          (IsNumeric(lk->type()) && IsNumeric(rk->type()));
        if (!compatible) {
          return Status::AnalysisError(
              std::string("join key type mismatch: ") + TypeName(lk->type()) +
              " vs " + TypeName(rk->type()));
        }
      }
      const JoinShape shape =
          node.Shape(left->schema()->names(), right->schema()->names());
      // The kept USING column holds either side's key (a preserved right
      // row coalesces its key into it), so a USING pair of two numeric
      // types is cast to their common type on both inputs before the join.
      std::map<std::string, TypeId> using_types;
      for (const auto& [l, r] : shape.using_keys) {
        const Field& lf = left->schema()->field(l);
        const TypeId rt = right->schema()->field(r).type;
        if (lf.type != rt) {
          using_types[lf.name] = CommonNumericType(lf.type, rt);
        }
      }
      // A projection over `side` that keeps every column in place and casts
      // the USING columns named in using_types to their common type.
      auto cast_using = [&using_types](PlanPtr* side) -> Status {
        std::vector<NamedExpr> exprs;
        std::vector<Field> fields = (*side)->schema()->fields();
        for (Field& f : fields) {
          ExprPtr e = Col(f.name);
          auto it = using_types.find(f.name);
          if (it != using_types.end() && it->second != f.type) {
            e = Cast(std::move(e), it->second);
            f.type = it->second;
          }
          SS_ASSIGN_OR_RETURN(ExprPtr resolved, e->Resolve(*(*side)->schema()));
          exprs.push_back(NamedExpr{std::move(resolved), f.name});
        }
        auto out = std::make_shared<ProjectNode>(*side, std::move(exprs));
        out->schema_ = std::make_shared<Schema>(std::move(fields));
        *side = std::move(out);
        return Status::OK();
      };
      if (!using_types.empty()) {
        SS_RETURN_IF_ERROR(cast_using(&left));
        SS_RETURN_IF_ERROR(cast_using(&right));
      }
      std::vector<ExprPtr> lkeys;
      std::vector<ExprPtr> rkeys;
      for (size_t i = 0; i < node.left_keys().size(); ++i) {
        SS_ASSIGN_OR_RETURN(ExprPtr lk,
                            node.left_keys()[i]->Resolve(*left->schema()));
        SS_ASSIGN_OR_RETURN(ExprPtr rk,
                            node.right_keys()[i]->Resolve(*right->schema()));
        lkeys.push_back(std::move(lk));
        rkeys.push_back(std::move(rk));
      }
      std::vector<Field> fields = left->schema()->fields();
      if (shape.preserves_right) {
        // A preserved right row without a match null-pads the left
        // columns, except a USING key, which takes the right row's key.
        std::vector<bool> coalesced(fields.size(), false);
        for (const auto& [l, r] : shape.using_keys) {
          coalesced[static_cast<size_t>(l)] =
              !right->schema()->field(r).nullable;
        }
        for (size_t c = 0; c < fields.size(); ++c) {
          if (!coalesced[c]) fields[c].nullable = true;
        }
      }
      for (size_t i = 0; i < shape.kept_right.size(); ++i) {
        Field out_field = right->schema()->field(shape.kept_right[i]);
        out_field.name = shape.kept_right_names[i];
        // Outer joins make the non-preserved side nullable.
        out_field.nullable = true;
        fields.push_back(std::move(out_field));
      }
      Schema schema(std::move(fields));
      SS_RETURN_IF_ERROR(CheckNoDuplicateNames(schema, "join"));
      auto out = std::make_shared<JoinNode>(left, right, node.join_type(),
                                            std::move(lkeys),
                                            std::move(rkeys));
      out->schema_ = std::make_shared<Schema>(std::move(schema));
      return PlanPtr(out);
    }
    case LogicalPlan::Kind::kDistinct: {
      const auto& node = static_cast<const DistinctNode&>(*plan);
      SS_ASSIGN_OR_RETURN(PlanPtr child, Analyze(node.children()[0]));
      auto out = std::make_shared<DistinctNode>(child);
      out->schema_ = child->schema();
      return PlanPtr(out);
    }
    case LogicalPlan::Kind::kSort: {
      const auto& node = static_cast<const SortNode&>(*plan);
      SS_ASSIGN_OR_RETURN(PlanPtr child, Analyze(node.children()[0]));
      std::vector<SortKey> keys;
      for (const SortKey& k : node.keys()) {
        SS_ASSIGN_OR_RETURN(ExprPtr e, k.expr->Resolve(*child->schema()));
        keys.push_back(SortKey{std::move(e), k.ascending});
      }
      auto out = std::make_shared<SortNode>(child, std::move(keys));
      out->schema_ = child->schema();
      return PlanPtr(out);
    }
    case LogicalPlan::Kind::kLimit: {
      const auto& node = static_cast<const LimitNode&>(*plan);
      SS_ASSIGN_OR_RETURN(PlanPtr child, Analyze(node.children()[0]));
      if (node.n() < 0) {
        return Status::AnalysisError("limit must be non-negative");
      }
      auto out = std::make_shared<LimitNode>(child, node.n());
      out->schema_ = child->schema();
      return PlanPtr(out);
    }
    case LogicalPlan::Kind::kWithWatermark: {
      const auto& node = static_cast<const WithWatermarkNode&>(*plan);
      SS_ASSIGN_OR_RETURN(PlanPtr child, Analyze(node.children()[0]));
      int idx = child->schema()->IndexOf(node.column());
      if (idx < 0) {
        return Status::AnalysisError("withWatermark: no column '" +
                                     node.column() + "'");
      }
      if (child->schema()->field(idx).type != TypeId::kTimestamp) {
        return Status::AnalysisError(
            "withWatermark: column '" + node.column() +
            "' must be a timestamp, is " +
            TypeName(child->schema()->field(idx).type));
      }
      if (node.delay_micros() < 0) {
        return Status::AnalysisError("withWatermark: negative delay");
      }
      auto out = std::make_shared<WithWatermarkNode>(child, node.column(),
                                                     node.delay_micros());
      out->schema_ = child->schema();
      return PlanPtr(out);
    }
    case LogicalPlan::Kind::kFlatMapGroupsWithState: {
      const auto& node =
          static_cast<const FlatMapGroupsWithStateNode&>(*plan);
      SS_ASSIGN_OR_RETURN(PlanPtr child, Analyze(node.children()[0]));
      if (node.key_exprs().empty()) {
        return Status::AnalysisError("groupByKey requires at least one key");
      }
      std::vector<NamedExpr> keys;
      for (const NamedExpr& k : node.key_exprs()) {
        SS_ASSIGN_OR_RETURN(ExprPtr e, k.expr->Resolve(*child->schema()));
        std::string name = k.name.empty() ? k.expr->output_name() : k.name;
        keys.push_back(NamedExpr{std::move(e), std::move(name)});
      }
      if (node.output_schema() == nullptr ||
          node.output_schema()->num_fields() == 0) {
        return Status::AnalysisError(
            "mapGroupsWithState requires a non-empty output schema");
      }
      auto out = std::make_shared<FlatMapGroupsWithStateNode>(
          child, std::move(keys), node.update_fn(), node.output_schema(),
          node.timeout(), node.require_single_output());
      out->schema_ = node.output_schema();
      return PlanPtr(out);
    }
  }
  return Status::Internal("unknown plan node");
}

Status ValidateStreamingQuery(const PlanPtr& plan, OutputMode mode) {
  // The yes/no contract is now a view over the full static plan analysis:
  // run every pass, keep the first error (warnings never block a query).
  // Callers that want the complete report — all violations, provenance,
  // unbounded-state warnings — use PlanAnalyzer::Analyze directly.
  return PlanAnalyzer::Analyze(plan, mode).FirstErrorStatus();
}

}  // namespace sstreaming
