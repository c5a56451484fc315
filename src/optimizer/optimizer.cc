#include "optimizer/optimizer.h"

#include <map>
#include <optional>
#include <set>

#include "common/logging.h"
#include "types/schema.h"

namespace sstreaming {

namespace {

// ---------------------------------------------------------------------------
// Expression utilities
// ---------------------------------------------------------------------------

bool HasColumnRefs(const ExprPtr& e) {
  std::vector<std::string> refs;
  e->CollectColumnRefs(&refs);
  return !refs.empty();
}

bool ContainsUdf(const ExprPtr& e) {
  switch (e->kind()) {
    case Expr::Kind::kUdf:
      return true;
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(*e);
      return ContainsUdf(b.left()) || ContainsUdf(b.right());
    }
    case Expr::Kind::kUnary:
      return ContainsUdf(static_cast<const UnaryExpr&>(*e).child());
    case Expr::Kind::kCast:
      return ContainsUdf(static_cast<const CastExpr&>(*e).child());
    case Expr::Kind::kWindow:
      return ContainsUdf(static_cast<const WindowExpr&>(*e).time());
    default:
      return false;
  }
}

// Rewrites column references through a name->expression substitution map.
// References not in the map are kept as-is.
ExprPtr Substitute(const ExprPtr& e,
                   const std::map<std::string, ExprPtr>& subst) {
  switch (e->kind()) {
    case Expr::Kind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(*e);
      auto it = subst.find(ref.name());
      return it == subst.end() ? e : it->second;
    }
    case Expr::Kind::kLiteral:
      return e;
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(*e);
      return std::make_shared<BinaryExpr>(b.op(), Substitute(b.left(), subst),
                                          Substitute(b.right(), subst));
    }
    case Expr::Kind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(*e);
      return std::make_shared<UnaryExpr>(u.op(),
                                         Substitute(u.child(), subst));
    }
    case Expr::Kind::kCast: {
      const auto& c = static_cast<const CastExpr&>(*e);
      return std::make_shared<CastExpr>(Substitute(c.child(), subst),
                                        c.target());
    }
    case Expr::Kind::kWindow: {
      const auto& w = static_cast<const WindowExpr&>(*e);
      return std::make_shared<WindowExpr>(Substitute(w.time(), subst),
                                          w.size_micros(), w.slide_micros());
    }
    case Expr::Kind::kUdf:
      // UDF argument substitution is possible but we conservatively leave
      // UDFs in place (they block pushdown anyway).
      return e;
  }
  return e;
}

// ---------------------------------------------------------------------------
// Plan utilities
// ---------------------------------------------------------------------------

// Output column names when derivable without analysis; nullopt = unknown.
std::optional<std::vector<std::string>> OutputColumns(const PlanPtr& plan) {
  switch (plan->kind()) {
    case LogicalPlan::Kind::kScan: {
      const auto& s = static_cast<const ScanNode&>(*plan);
      std::vector<std::string> out;
      for (const Field& f : s.data_schema()->fields()) out.push_back(f.name);
      return out;
    }
    case LogicalPlan::Kind::kStreamScan: {
      const auto& s = static_cast<const StreamScanNode&>(*plan);
      std::vector<std::string> out;
      for (const Field& f : s.source()->schema()->fields()) {
        out.push_back(f.name);
      }
      return out;
    }
    case LogicalPlan::Kind::kFilter:
    case LogicalPlan::Kind::kDistinct:
    case LogicalPlan::Kind::kSort:
    case LogicalPlan::Kind::kLimit:
    case LogicalPlan::Kind::kWithWatermark:
      return OutputColumns(plan->children()[0]);
    case LogicalPlan::Kind::kProject: {
      const auto& p = static_cast<const ProjectNode&>(*plan);
      if (p.include_star()) return std::nullopt;  // needs analysis to expand
      std::vector<std::string> out;
      for (const NamedExpr& e : p.exprs()) out.push_back(e.OutputName());
      return out;
    }
    default:
      return std::nullopt;
  }
}

bool AllRefsIn(const ExprPtr& pred, const std::vector<std::string>& cols) {
  std::vector<std::string> refs;
  pred->CollectColumnRefs(&refs);
  std::set<std::string> available(cols.begin(), cols.end());
  for (const std::string& r : refs) {
    if (!available.count(r)) return false;
  }
  return true;
}

bool AnyRefIn(const ExprPtr& pred, const std::vector<std::string>& cols) {
  std::vector<std::string> refs;
  pred->CollectColumnRefs(&refs);
  std::set<std::string> available(cols.begin(), cols.end());
  for (const std::string& r : refs) {
    if (available.count(r)) return true;
  }
  return false;
}

class RuleRunner {
 public:
  explicit RuleRunner(Optimizer::Stats* stats) : stats_(stats) {}

  PlanPtr Rewrite(const PlanPtr& plan) {
    // Rewrite children first.
    PlanPtr node = RebuildWithChildren(plan);
    // Then apply node-local rules until none fires.
    bool changed = true;
    while (changed) {
      changed = false;
      PlanPtr next = ApplyRules(node);
      if (next != node) {
        node = next;
        changed = true;
      }
    }
    return node;
  }

 private:
  PlanPtr RebuildWithChildren(const PlanPtr& plan) {
    std::vector<PlanPtr> new_children;
    bool any_changed = false;
    for (const PlanPtr& c : plan->children()) {
      PlanPtr nc = Rewrite(c);
      if (nc != c) any_changed = true;
      new_children.push_back(std::move(nc));
    }
    if (!any_changed) return plan;
    return CloneWith(plan, std::move(new_children));
  }

  static PlanPtr CloneWith(const PlanPtr& plan,
                           std::vector<PlanPtr> children) {
    switch (plan->kind()) {
      case LogicalPlan::Kind::kScan:
      case LogicalPlan::Kind::kStreamScan:
        return plan;
      case LogicalPlan::Kind::kFilter: {
        const auto& n = static_cast<const FilterNode&>(*plan);
        return std::make_shared<FilterNode>(children[0], n.predicate());
      }
      case LogicalPlan::Kind::kProject: {
        const auto& n = static_cast<const ProjectNode&>(*plan);
        return std::make_shared<ProjectNode>(children[0], n.exprs(),
                                             n.include_star());
      }
      case LogicalPlan::Kind::kAggregate: {
        const auto& n = static_cast<const AggregateNode&>(*plan);
        return std::make_shared<AggregateNode>(children[0], n.group_exprs(),
                                               n.aggregates());
      }
      case LogicalPlan::Kind::kJoin: {
        const auto& n = static_cast<const JoinNode&>(*plan);
        return std::make_shared<JoinNode>(children[0], children[1],
                                          n.join_type(), n.left_keys(),
                                          n.right_keys());
      }
      case LogicalPlan::Kind::kDistinct:
        return std::make_shared<DistinctNode>(children[0]);
      case LogicalPlan::Kind::kSort: {
        const auto& n = static_cast<const SortNode&>(*plan);
        return std::make_shared<SortNode>(children[0], n.keys());
      }
      case LogicalPlan::Kind::kLimit: {
        const auto& n = static_cast<const LimitNode&>(*plan);
        return std::make_shared<LimitNode>(children[0], n.n());
      }
      case LogicalPlan::Kind::kWithWatermark: {
        const auto& n = static_cast<const WithWatermarkNode&>(*plan);
        return std::make_shared<WithWatermarkNode>(children[0], n.column(),
                                                   n.delay_micros());
      }
      case LogicalPlan::Kind::kFlatMapGroupsWithState: {
        const auto& n =
            static_cast<const FlatMapGroupsWithStateNode&>(*plan);
        return std::make_shared<FlatMapGroupsWithStateNode>(
            children[0], n.key_exprs(), n.update_fn(), n.output_schema(),
            n.timeout(), n.require_single_output());
      }
    }
    return plan;
  }

  PlanPtr ApplyRules(const PlanPtr& plan) {
    if (plan->kind() == LogicalPlan::Kind::kFilter) {
      return ApplyFilterRules(plan);
    }
    if (plan->kind() == LogicalPlan::Kind::kProject) {
      return ApplyProjectRules(plan);
    }
    return plan;
  }

  PlanPtr ApplyFilterRules(const PlanPtr& plan) {
    const auto& filter = static_cast<const FilterNode&>(*plan);
    // Rule: constant folding in the predicate.
    int folded = 0;
    ExprPtr pred = FoldConstants(filter.predicate(), &folded);
    if (stats_) stats_->constants_folded += folded;
    // Rule: drop `WHERE true`.
    if (pred->kind() == Expr::Kind::kLiteral) {
      const auto& lit = static_cast<const LiteralExpr&>(*pred);
      if (lit.value().type() == TypeId::kBool && lit.value().bool_value()) {
        if (stats_) ++stats_->trivial_filters_removed;
        return filter.children()[0];
      }
    }
    const PlanPtr& child = filter.children()[0];
    switch (child->kind()) {
      case LogicalPlan::Kind::kFilter: {
        // Rule: merge adjacent filters.
        const auto& inner = static_cast<const FilterNode&>(*child);
        if (stats_) ++stats_->filters_merged;
        return std::make_shared<FilterNode>(
            inner.children()[0], And(inner.predicate(), pred));
      }
      case LogicalPlan::Kind::kProject: {
        // Rule: push the filter below a projection when every referenced
        // column is a pass-through (possibly renamed) or a UDF-free
        // expression we can substitute.
        const auto& proj = static_cast<const ProjectNode&>(*child);
        if (proj.include_star()) break;
        std::vector<std::string> refs;
        pred->CollectColumnRefs(&refs);
        std::map<std::string, ExprPtr> subst;
        bool pushable = true;
        for (const std::string& r : refs) {
          const NamedExpr* item = nullptr;
          for (const NamedExpr& e : proj.exprs()) {
            if (e.OutputName() == r) item = &e;
          }
          if (item == nullptr || ContainsUdf(item->expr)) {
            pushable = false;
            break;
          }
          subst[r] = item->expr;
        }
        if (!pushable) break;
        if (stats_) ++stats_->predicates_pushed;
        ExprPtr pushed = Substitute(pred, subst);
        auto new_filter = std::make_shared<FilterNode>(proj.children()[0],
                                                       std::move(pushed));
        return std::make_shared<ProjectNode>(PlanPtr(new_filter),
                                             proj.exprs(),
                                             proj.include_star());
      }
      case LogicalPlan::Kind::kWithWatermark: {
        // Rule: filters commute with watermark declarations.
        const auto& wm = static_cast<const WithWatermarkNode&>(*child);
        if (stats_) ++stats_->predicates_pushed;
        auto new_filter =
            std::make_shared<FilterNode>(wm.children()[0], pred);
        return std::make_shared<WithWatermarkNode>(PlanPtr(new_filter),
                                                   wm.column(),
                                                   wm.delay_micros());
      }
      case LogicalPlan::Kind::kJoin: {
        // Rule: push a filter into the join input that exclusively owns its
        // columns (unambiguous by name), if that input is an inner join's
        // or a preserved one. Below an input that only supplies matches,
        // the filter would turn the other side's matches into null-padded
        // rows instead of dropping them.
        const auto& join = static_cast<const JoinNode&>(*child);
        auto lcols = OutputColumns(join.children()[0]);
        auto rcols = OutputColumns(join.children()[1]);
        if (!lcols || !rcols) break;
        const JoinShape shape = join.Shape(*lcols, *rcols);
        const bool inner = join.join_type() == JoinType::kInner;
        const bool in_left = AnyRefIn(pred, *lcols);
        const bool in_right = AnyRefIn(pred, *rcols);
        int side = -1;
        if (in_left && !in_right && AllRefsIn(pred, *lcols) &&
            (inner || shape.preserves_left)) {
          side = 0;
        } else if (in_right && !in_left && AllRefsIn(pred, *rcols) &&
                   (inner || shape.preserves_right)) {
          side = 1;
        }
        if (side < 0) break;
        if (stats_) ++stats_->predicates_pushed;
        std::vector<PlanPtr> inputs = join.children();
        inputs[static_cast<size_t>(side)] =
            std::make_shared<FilterNode>(inputs[static_cast<size_t>(side)],
                                         pred);
        return CloneWith(child, std::move(inputs));
      }
      default:
        break;
    }
    if (pred != filter.predicate()) {
      return std::make_shared<FilterNode>(child, pred);
    }
    return plan;
  }

  PlanPtr ApplyProjectRules(const PlanPtr& plan) {
    const auto& proj = static_cast<const ProjectNode&>(*plan);
    // Rule: fold constants in projection items.
    int folded = 0;
    std::vector<NamedExpr> items;
    bool item_changed = false;
    for (const NamedExpr& e : proj.exprs()) {
      ExprPtr ne = FoldConstants(e.expr, &folded);
      if (ne != e.expr) item_changed = true;
      items.push_back(NamedExpr{std::move(ne), e.OutputName()});
    }
    if (stats_) stats_->constants_folded += folded;
    // Rule: collapse Project(Project(x)) by substituting inner expressions
    // into the outer items (when UDF-free).
    const PlanPtr& child = proj.children()[0];
    if (!proj.include_star() && child->kind() == LogicalPlan::Kind::kProject) {
      const auto& inner = static_cast<const ProjectNode&>(*child);
      if (!inner.include_star()) {
        std::map<std::string, ExprPtr> subst;
        bool collapsible = true;
        for (const NamedExpr& e : inner.exprs()) {
          if (ContainsUdf(e.expr)) {
            collapsible = false;
            break;
          }
          subst[e.OutputName()] = e.expr;
        }
        if (collapsible) {
          std::vector<NamedExpr> merged;
          for (const NamedExpr& e : items) {
            merged.push_back(
                NamedExpr{Substitute(e.expr, subst), e.OutputName()});
          }
          if (stats_) ++stats_->projects_collapsed;
          return std::make_shared<ProjectNode>(inner.children()[0],
                                               std::move(merged));
        }
      }
    }
    if (item_changed) {
      return std::make_shared<ProjectNode>(child, std::move(items),
                                           proj.include_star());
    }
    return plan;
  }

  Optimizer::Stats* stats_;
};

}  // namespace

ExprPtr FoldConstants(const ExprPtr& expr, int* folded) {
  // Fold children first.
  ExprPtr e = expr;
  switch (expr->kind()) {
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(*expr);
      ExprPtr l = FoldConstants(b.left(), folded);
      ExprPtr r = FoldConstants(b.right(), folded);
      if (l != b.left() || r != b.right()) {
        e = std::make_shared<BinaryExpr>(b.op(), std::move(l), std::move(r));
      }
      break;
    }
    case Expr::Kind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(*expr);
      ExprPtr c = FoldConstants(u.child(), folded);
      if (c != u.child()) {
        e = std::make_shared<UnaryExpr>(u.op(), std::move(c));
      }
      break;
    }
    case Expr::Kind::kCast: {
      const auto& cast = static_cast<const CastExpr&>(*expr);
      ExprPtr c = FoldConstants(cast.child(), folded);
      if (c != cast.child()) {
        e = std::make_shared<CastExpr>(std::move(c), cast.target());
      }
      break;
    }
    default:
      break;
  }
  if (e->kind() == Expr::Kind::kLiteral ||
      e->kind() == Expr::Kind::kColumnRef) {
    return e;
  }
  if (HasColumnRefs(e) || ContainsUdf(e)) return e;
  // Literal-only subtree: evaluate it once against an empty row.
  auto resolved = e->Resolve(Schema(std::vector<Field>{}));
  if (!resolved.ok()) return e;
  auto value = (*resolved)->EvalRow({});
  if (!value.ok()) return e;
  if (folded) ++*folded;
  return Lit(*value);
}


namespace {

// ---------------------------------------------------------------------------
// Required-column pruning (projection pushdown toward the scans, paper
// Â§5.3). `required` is the set of column names the parent consumes;
// nullopt means "all". When a scan provides more columns than required, a
// pure projection is inserted directly above it, which the incrementalizer
// later fuses into the source read.
// ---------------------------------------------------------------------------

using Required = std::optional<std::set<std::string>>;

void AddRefs(const ExprPtr& e, std::set<std::string>* out) {
  std::vector<std::string> refs;
  e->CollectColumnRefs(&refs);
  out->insert(refs.begin(), refs.end());
}

PlanPtr PruneScanColumns(const PlanPtr& plan, const Required& required,
                         int* pruned) {
  switch (plan->kind()) {
    case LogicalPlan::Kind::kScan:
    case LogicalPlan::Kind::kStreamScan: {
      if (!required.has_value()) return plan;
      auto cols = OutputColumns(plan);
      if (!cols.has_value()) return plan;
      std::vector<NamedExpr> keep;
      for (const std::string& name : *cols) {
        if (required->count(name)) {
          keep.push_back(NamedExpr{Col(name), name});
        }
      }
      if (keep.empty()) {
        // Keep one column so the row count survives (e.g. bare count(*)).
        keep.push_back(NamedExpr{Col((*cols)[0]), (*cols)[0]});
      }
      if (keep.size() == cols->size()) return plan;
      if (pruned) ++*pruned;
      return std::make_shared<ProjectNode>(plan, std::move(keep));
    }
    case LogicalPlan::Kind::kFilter: {
      const auto& node = static_cast<const FilterNode&>(*plan);
      Required child_req = required;
      if (child_req.has_value()) AddRefs(node.predicate(), &*child_req);
      PlanPtr child = PruneScanColumns(node.children()[0], child_req, pruned);
      if (child == node.children()[0]) return plan;
      return std::make_shared<FilterNode>(child, node.predicate());
    }
    case LogicalPlan::Kind::kProject: {
      const auto& node = static_cast<const ProjectNode&>(*plan);
      if (node.include_star()) {
        PlanPtr child =
            PruneScanColumns(node.children()[0], std::nullopt, pruned);
        if (child == node.children()[0]) return plan;
        return std::make_shared<ProjectNode>(child, node.exprs(), true);
      }
      std::set<std::string> child_req;
      for (const NamedExpr& e : node.exprs()) AddRefs(e.expr, &child_req);
      PlanPtr child = PruneScanColumns(node.children()[0],
                                       Required(std::move(child_req)),
                                       pruned);
      if (child == node.children()[0]) return plan;
      return std::make_shared<ProjectNode>(child, node.exprs());
    }
    case LogicalPlan::Kind::kWithWatermark: {
      const auto& node = static_cast<const WithWatermarkNode&>(*plan);
      Required child_req = required;
      if (child_req.has_value()) child_req->insert(node.column());
      PlanPtr child = PruneScanColumns(node.children()[0], child_req, pruned);
      if (child == node.children()[0]) return plan;
      return std::make_shared<WithWatermarkNode>(child, node.column(),
                                                 node.delay_micros());
    }
    case LogicalPlan::Kind::kAggregate: {
      const auto& node = static_cast<const AggregateNode&>(*plan);
      std::set<std::string> child_req;
      for (const NamedExpr& g : node.group_exprs()) {
        AddRefs(g.expr, &child_req);
      }
      for (const AggSpec& a : node.aggregates()) {
        if (a.arg != nullptr) AddRefs(a.arg, &child_req);
      }
      PlanPtr child = PruneScanColumns(node.children()[0],
                                       Required(std::move(child_req)),
                                       pruned);
      if (child == node.children()[0]) return plan;
      return std::make_shared<AggregateNode>(child, node.group_exprs(),
                                             node.aggregates());
    }
    case LogicalPlan::Kind::kJoin: {
      const auto& node = static_cast<const JoinNode&>(*plan);
      auto lcols = OutputColumns(node.children()[0]);
      auto rcols = OutputColumns(node.children()[1]);
      Required lreq;
      Required rreq;
      if (required.has_value() && lcols.has_value() && rcols.has_value()) {
        const JoinShape shape = node.Shape(*lcols, *rcols);
        std::set<std::string> lwant;
        std::set<std::string> rwant;
        for (const std::string& name : *lcols) {
          if (required->count(name)) lwant.insert(name);
        }
        // A right column is wanted when its output name is required, and
        // also when its input name is (the same-named left column's): a
        // stream-stream join stores whole input rows, and this keeps the
        // row layout of join state already checkpointed. A wanted `_r`
        // column keeps the left column its output name depends on.
        for (size_t i = 0; i < shape.kept_right.size(); ++i) {
          const std::string& name =
              (*rcols)[static_cast<size_t>(shape.kept_right[i])];
          const std::string& out = shape.kept_right_names[i];
          if (required->count(out) || required->count(name)) {
            rwant.insert(name);
            if (out != name) lwant.insert(name);
          }
        }
        for (const ExprPtr& k : node.left_keys()) AddRefs(k, &lwant);
        for (const ExprPtr& k : node.right_keys()) AddRefs(k, &rwant);
        lreq = Required(std::move(lwant));
        rreq = Required(std::move(rwant));
      }
      PlanPtr left = PruneScanColumns(node.children()[0], lreq, pruned);
      PlanPtr right = PruneScanColumns(node.children()[1], rreq, pruned);
      if (left == node.children()[0] && right == node.children()[1]) {
        return plan;
      }
      return std::make_shared<JoinNode>(left, right, node.join_type(),
                                        node.left_keys(), node.right_keys());
    }
    case LogicalPlan::Kind::kSort: {
      const auto& node = static_cast<const SortNode&>(*plan);
      Required child_req = required;
      if (child_req.has_value()) {
        for (const SortKey& k : node.keys()) AddRefs(k.expr, &*child_req);
      }
      PlanPtr child = PruneScanColumns(node.children()[0], child_req, pruned);
      if (child == node.children()[0]) return plan;
      return std::make_shared<SortNode>(child, node.keys());
    }
    case LogicalPlan::Kind::kLimit: {
      const auto& node = static_cast<const LimitNode&>(*plan);
      PlanPtr child = PruneScanColumns(node.children()[0], required, pruned);
      if (child == node.children()[0]) return plan;
      return std::make_shared<LimitNode>(child, node.n());
    }
    case LogicalPlan::Kind::kDistinct:
    case LogicalPlan::Kind::kFlatMapGroupsWithState: {
      // Distinct compares whole rows; stateful update functions receive the
      // full child row - neither may lose columns.
      PlanPtr child =
          PruneScanColumns(plan->children()[0], std::nullopt, pruned);
      if (child == plan->children()[0]) return plan;
      if (plan->kind() == LogicalPlan::Kind::kDistinct) {
        return std::make_shared<DistinctNode>(child);
      }
      const auto& node =
          static_cast<const FlatMapGroupsWithStateNode&>(*plan);
      return std::make_shared<FlatMapGroupsWithStateNode>(
          child, node.key_exprs(), node.update_fn(), node.output_schema(),
          node.timeout(), node.require_single_output());
    }
  }
  return plan;
}

}  // namespace

PlanPtr Optimizer::Optimize(const PlanPtr& plan, Stats* stats) {
  RuleRunner runner(stats);
  PlanPtr current = plan;
  // The runner already iterates node-locally; a few global passes reach a
  // fixed point for rule interactions (e.g. merge-then-push).
  for (int pass = 0; pass < 4; ++pass) {
    PlanPtr next = runner.Rewrite(current);
    if (next == current) break;
    current = next;
  }
  int pruned = 0;
  current = PruneScanColumns(current, std::nullopt, &pruned);
  if (stats) stats->scans_pruned = pruned;
  return current;
}

}  // namespace sstreaming
