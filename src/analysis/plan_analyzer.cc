#include "analysis/plan_analyzer.h"

#include <functional>
#include <memory>
#include <vector>

namespace sstreaming {

namespace {

// Root-to-node provenance, e.g. "Sort > Aggregate > StreamScan".
std::string PathString(const std::vector<const LogicalPlan*>& ancestors,
                       const LogicalPlan& node) {
  std::string out;
  for (const LogicalPlan* a : ancestors) {
    out += LogicalPlan::KindName(a->kind());
    out += " > ";
  }
  out += LogicalPlan::KindName(node.kind());
  return out;
}

// ---------------------------------------------------------------------------
// Watermark propagation (pass 1's derivation; memoized per analysis run)
// ---------------------------------------------------------------------------

/// Derives, bottom-up, the set of output columns of each node that still
/// carry a watermark: a projection that drops or fails to forward the
/// event-time column loses the watermark, and a join names its right
/// columns by its JoinShape (USING-key drop, `_r` collision suffix).
class WatermarkDerivation {
 public:
  const std::set<std::string>& Get(const PlanPtr& plan) {
    auto it = memo_.find(plan.get());
    if (it != memo_.end()) return it->second;
    return memo_.emplace(plan.get(), Compute(plan)).first->second;
  }

 private:
  std::set<std::string> Compute(const PlanPtr& plan) {
    switch (plan->kind()) {
      case LogicalPlan::Kind::kScan:
      case LogicalPlan::Kind::kStreamScan:
        return {};
      case LogicalPlan::Kind::kWithWatermark: {
        const auto& node = static_cast<const WithWatermarkNode&>(*plan);
        std::set<std::string> out = Get(plan->children()[0]);
        out.insert(node.column());
        return out;
      }
      case LogicalPlan::Kind::kFilter:
      case LogicalPlan::Kind::kDistinct:
      case LogicalPlan::Kind::kSort:
      case LogicalPlan::Kind::kLimit:
        return Get(plan->children()[0]);
      case LogicalPlan::Kind::kProject: {
        // Only a direct column reference forwards the watermark: any
        // computed expression (cast, arithmetic) yields a new value whose
        // lateness bound is unknown.
        const auto& node = static_cast<const ProjectNode&>(*plan);
        const std::set<std::string>& in = Get(plan->children()[0]);
        std::set<std::string> out;
        for (const NamedExpr& e : node.exprs()) {
          if (e.expr->kind() != Expr::Kind::kColumnRef) continue;
          const auto& ref = static_cast<const ColumnRefExpr&>(*e.expr);
          if (in.count(ref.name())) out.insert(e.OutputName());
        }
        return out;
      }
      case LogicalPlan::Kind::kAggregate: {
        // A window over a watermarked column emits watermarked
        // `<name>_start`/`<name>_end` bounds; any other group key is a
        // value, not an event-time bound.
        const auto& node = static_cast<const AggregateNode&>(*plan);
        const std::set<std::string>& in = Get(plan->children()[0]);
        std::set<std::string> out;
        for (const NamedExpr& g : node.group_exprs()) {
          if (g.expr->kind() != Expr::Kind::kWindow) continue;
          std::vector<std::string> refs;
          g.expr->CollectColumnRefs(&refs);
          for (const std::string& r : refs) {
            if (in.count(r)) {
              out.insert(g.OutputName() + "_start");
              out.insert(g.OutputName() + "_end");
              break;
            }
          }
        }
        return out;
      }
      case LogicalPlan::Kind::kJoin: {
        // Right columns carry their watermark under their output names.
        const auto& node = static_cast<const JoinNode&>(*plan);
        std::set<std::string> out = Get(plan->children()[0]);
        const std::set<std::string>& right = Get(plan->children()[1]);
        const Schema& right_schema = *plan->children()[1]->schema();
        const JoinShape shape = node.Shape();
        for (size_t i = 0; i < shape.kept_right.size(); ++i) {
          if (right.count(right_schema.field(shape.kept_right[i]).name)) {
            out.insert(shape.kept_right_names[i]);
          }
        }
        return out;
      }
      case LogicalPlan::Kind::kFlatMapGroupsWithState:
        // The output schema is user-defined; no column provably carries
        // the input's lateness bound.
        return {};
    }
    return {};
  }

  std::map<const LogicalPlan*, std::set<std::string>> memo_;
};

// ---------------------------------------------------------------------------
// Pass framework (mirrors the optimizer's rule structure)
// ---------------------------------------------------------------------------

struct PassContext {
  PlanPtr root;
  OutputMode mode;
  WatermarkDerivation* watermarks;
};

class AnalysisPass {
 public:
  virtual ~AnalysisPass() = default;
  virtual const char* name() const = 0;
  virtual void Run(const PassContext& ctx, PlanAnalysis* report) = 0;
};

Diagnostic MakeDiag(DiagCode code, DiagSeverity severity,
                    const LogicalPlan& node,
                    const std::vector<const LogicalPlan*>& ancestors,
                    std::string message, std::string state_growth = "") {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.message = std::move(message);
  d.node = node.ToString();
  d.path = PathString(ancestors, node);
  d.state_growth = std::move(state_growth);
  return d;
}

// True if the subtree contains a streaming aggregation.
bool HasStreamingAggregate(const PlanPtr& plan) {
  if (plan->kind() == LogicalPlan::Kind::kAggregate && plan->IsStreaming()) {
    return true;
  }
  for (const PlanPtr& child : plan->children()) {
    if (HasStreamingAggregate(child)) return true;
  }
  return false;
}

// True when the aggregate groups by an event-time window over a column that
// still carries a watermark at its input — the condition for groups to
// close (and state to be pruned) as the watermark advances.
bool AggregateHasWatermarkBound(const AggregateNode& agg,
                                const std::set<std::string>& input_wm) {
  for (const NamedExpr& g : agg.group_exprs()) {
    if (g.expr->kind() != Expr::Kind::kWindow) continue;
    std::vector<std::string> refs;
    g.expr->CollectColumnRefs(&refs);
    for (const std::string& r : refs) {
      if (input_wm.count(r)) return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Pass 2: output-mode validation (§5.1/§5.2), all violations reported
// ---------------------------------------------------------------------------

class OutputModeValidationPass : public AnalysisPass {
 public:
  const char* name() const override { return "output-mode-validation"; }

  void Run(const PassContext& ctx, PlanAnalysis* report) override {
    streaming_aggregates_ = 0;
    Walk(ctx, *ctx.root, report);
    if (ctx.mode == OutputMode::kComplete && streaming_aggregates_ == 0) {
      report->Add(MakeDiag(
          DiagCode::kCompleteNoAggregation, DiagSeverity::kError, *ctx.root,
          {},
          std::string("complete output mode requires an aggregation: the "
                      "engine only retains state proportional to the number "
                      "of result keys (paper §5.1); this query's root "
                      "operator is ") +
              LogicalPlan::KindName(ctx.root->kind())));
    }
  }

 private:
  void Walk(const PassContext& ctx, const LogicalPlan& node,
            PlanAnalysis* report) {
    ancestors_.push_back(&node);
    for (const PlanPtr& child : node.children()) {
      Walk(ctx, *child, report);
    }
    ancestors_.pop_back();
    const char* mode = OutputModeName(ctx.mode);
    switch (node.kind()) {
      case LogicalPlan::Kind::kAggregate: {
        if (!node.IsStreaming()) break;
        ++streaming_aggregates_;
        if (streaming_aggregates_ > 1) {
          report->Add(MakeDiag(
              DiagCode::kMultipleAggregations, DiagSeverity::kError, node,
              ancestors_,
              std::string("Aggregate: streaming queries support at most one "
                          "aggregation on the streaming path regardless of "
                          "output mode (here: ") +
                  mode +
                  "; paper §5.2); use mapGroupsWithState for custom "
                  "multi-level logic"));
        }
        if (ctx.mode == OutputMode::kAppend) {
          const auto& agg = static_cast<const AggregateNode&>(node);
          const std::set<std::string>& wm =
              ctx.watermarks->Get(node.children()[0]);
          if (!AggregateHasWatermarkBound(agg, wm)) {
            report->Add(MakeDiag(
                DiagCode::kAppendAggregateNoWatermark, DiagSeverity::kError,
                node, ancestors_,
                "Aggregate: append output mode requires the aggregation to "
                "group by an event-time window over a watermarked column — "
                "without one the engine can never know it has stopped "
                "receiving records for a group (paper §4.2)"));
          }
        }
        break;
      }
      case LogicalPlan::Kind::kJoin: {
        const auto& join = static_cast<const JoinNode&>(node);
        bool left_stream = join.children()[0]->IsStreaming();
        bool right_stream = join.children()[1]->IsStreaming();
        if (!left_stream && !right_stream) break;
        if (left_stream && right_stream) {
          if (join.join_type() == JoinType::kInner) break;
          bool lwm = !ctx.watermarks->Get(join.children()[0]).empty();
          bool rwm = !ctx.watermarks->Get(join.children()[1]).empty();
          if (!lwm || !rwm) {
            std::string side = !lwm && !rwm ? "either input"
                               : !lwm       ? "the left input"
                                            : "the right input";
            report->Add(MakeDiag(
                DiagCode::kStreamStreamOuterNoWatermark, DiagSeverity::kError,
                node, ancestors_,
                std::string(JoinTypeName(join.join_type())) +
                    " Join: stream-stream outer joins in " + mode +
                    " output mode require watermarks on both inputs so the "
                    "unmatched side can eventually be emitted (paper §5.2); "
                    "no watermark reaches " +
                    side));
          }
        } else {
          const JoinShape shape = join.Shape();
          bool bad_left = shape.preserves_left && !left_stream;
          bool bad_right = shape.preserves_right && !right_stream;
          if (bad_left || bad_right) {
            report->Add(MakeDiag(
                DiagCode::kStaticSidePreserved, DiagSeverity::kError, node,
                ancestors_,
                std::string(JoinTypeName(join.join_type())) +
                    " Join: the preserved side is the static " +
                    (bad_left ? "left" : "right") +
                    " input, which is not incrementalizable in " + mode +
                    " output mode (the static side would need re-emission "
                    "as the stream grows); preserve the streaming side "
                    "instead"));
          }
        }
        break;
      }
      case LogicalPlan::Kind::kSort: {
        if (!node.IsStreaming()) break;
        if (ctx.mode != OutputMode::kComplete) {
          report->Add(MakeDiag(
              DiagCode::kSortNotComplete, DiagSeverity::kError, node,
              ancestors_,
              std::string("Sort: sorting a streaming query is only "
                          "supported in complete output mode, not ") +
                  mode + " (paper §5.2)"));
        }
        if (!HasStreamingAggregate(node.children()[0])) {
          report->Add(MakeDiag(
              DiagCode::kSortBeforeAggregation, DiagSeverity::kError, node,
              ancestors_,
              "Sort: sorting a streaming query is only supported after an "
              "aggregation (paper §5.2); this Sort's input is the raw "
              "stream"));
        }
        break;
      }
      case LogicalPlan::Kind::kLimit: {
        if (!node.IsStreaming()) break;
        if (ctx.mode != OutputMode::kComplete) {
          report->Add(MakeDiag(
              DiagCode::kLimitNotComplete, DiagSeverity::kError, node,
              ancestors_,
              std::string("Limit: limit on a streaming query is only "
                          "supported in complete output mode, not ") +
                  mode));
        }
        break;
      }
      case LogicalPlan::Kind::kFlatMapGroupsWithState: {
        if (!node.IsStreaming()) break;
        const auto& fm = static_cast<const FlatMapGroupsWithStateNode&>(node);
        if (fm.timeout() == GroupStateTimeout::kEventTime &&
            ctx.watermarks->Get(node.children()[0]).empty()) {
          report->Add(MakeDiag(
              DiagCode::kEventTimeTimeoutNoWatermark, DiagSeverity::kError,
              node, ancestors_,
              std::string("FlatMapGroupsWithState: event-time timeouts "
                          "require a watermark on the input (in any output "
                          "mode, here ") +
                  mode + ") — without one timeouts can never fire"));
        }
        break;
      }
      default:
        break;
    }
  }

  int streaming_aggregates_ = 0;
  std::vector<const LogicalPlan*> ancestors_;
};

// ---------------------------------------------------------------------------
// Pass 1: unbounded-state analysis (watermark propagation, SS2001-SS2003,
// SS2006)
// ---------------------------------------------------------------------------

class UnboundedStatePass : public AnalysisPass {
 public:
  const char* name() const override { return "unbounded-state"; }

  void Run(const PassContext& ctx, PlanAnalysis* report) override {
    Walk(ctx, ctx.root, report);
  }

 private:
  void Walk(const PassContext& ctx, const PlanPtr& plan,
            PlanAnalysis* report) {
    ancestors_.push_back(plan.get());
    for (const PlanPtr& child : plan->children()) {
      Walk(ctx, child, report);
    }
    ancestors_.pop_back();
    if (!plan->IsStreaming()) return;
    const LogicalPlan& node = *plan;
    switch (node.kind()) {
      case LogicalPlan::Kind::kAggregate: {
        // In append mode this is already the SS1003 *error*; the warning
        // covers update/complete, where the query runs but state for every
        // group is retained forever.
        if (ctx.mode == OutputMode::kAppend) break;
        const auto& agg = static_cast<const AggregateNode&>(node);
        const std::set<std::string>& wm =
            ctx.watermarks->Get(node.children()[0]);
        if (!AggregateHasWatermarkBound(agg, wm)) {
          report->Add(MakeDiag(
              DiagCode::kUnboundedAggregationState, DiagSeverity::kWarning,
              node, ancestors_,
              std::string("Aggregate: streaming aggregation in ") +
                  OutputModeName(ctx.mode) +
                  " output mode has no event-time window over a watermarked "
                  "column, so no group ever closes and its state is never "
                  "pruned; add withWatermark() and group by window() to "
                  "bound it",
              "O(distinct group keys)"));
        }
        break;
      }
      case LogicalPlan::Kind::kDistinct:
        // DedupExec never evicts, so a watermark does not bound it either.
        report->Add(MakeDiag(
            DiagCode::kUnboundedDistinctState, DiagSeverity::kWarning, node,
            ancestors_,
            std::string("Distinct: deduplicating a stream in ") +
                OutputModeName(ctx.mode) +
                " output mode retains every row key seen forever, with or "
                "without a watermark; to bound the state, group by an "
                "event-time window() over a watermarked column instead",
            "O(distinct rows observed)"));
        break;
      case LogicalPlan::Kind::kJoin: {
        const auto& join = static_cast<const JoinNode&>(node);
        if (!join.children()[0]->IsStreaming() ||
            !join.children()[1]->IsStreaming()) {
          break;
        }
        // Outer joins without watermarks are the SS1004 error; the warning
        // covers inner stream-stream joins, which are legal but buffer the
        // unbounded side(s) forever.
        if (join.join_type() != JoinType::kInner) break;
        bool lwm = !ctx.watermarks->Get(join.children()[0]).empty();
        bool rwm = !ctx.watermarks->Get(join.children()[1]).empty();
        if (lwm && rwm) break;
        std::string side = !lwm && !rwm ? "both inputs"
                           : !lwm       ? "the left input"
                                        : "the right input";
        report->Add(MakeDiag(
            DiagCode::kUnboundedJoinState, DiagSeverity::kWarning, node,
            ancestors_,
            std::string("inner Join: stream-stream join in ") +
                OutputModeName(ctx.mode) +
                " output mode buffers every input row to match against "
                "future arrivals; no watermark reaches " + side +
                ", so that buffer is never pruned — add withWatermark() on "
                "both inputs to bound it",
            "O(rows retained on the unwatermarked side)"));
        break;
      }
      case LogicalPlan::Kind::kFlatMapGroupsWithState: {
        const auto& fm = static_cast<const FlatMapGroupsWithStateNode&>(node);
        if (fm.timeout() == GroupStateTimeout::kNone) {
          report->Add(MakeDiag(
              DiagCode::kStateWithoutTimeout, DiagSeverity::kWarning, node,
              ancestors_,
              std::string("FlatMapGroupsWithState: no timeout is "
                          "configured (in ") +
                  OutputModeName(ctx.mode) +
                  " output mode), so per-key state lives until the user "
                  "function removes it — keys that go quiet leak state; "
                  "configure a processing-time or event-time timeout",
              "O(distinct keys ever seen)"));
        }
        break;
      }
      default:
        break;
    }
  }

  std::vector<const LogicalPlan*> ancestors_;
};

// ---------------------------------------------------------------------------
// Pass 3: sanity (SS2004 dropped watermark, SS2005 complete-mode memory)
// ---------------------------------------------------------------------------

class SanityPass : public AnalysisPass {
 public:
  const char* name() const override { return "sanity"; }

  void Run(const PassContext& ctx, PlanAnalysis* report) override {
    Walk(ctx, ctx.root, /*under_stateful=*/false, report);
    if (ctx.mode == OutputMode::kComplete &&
        HasStreamingAggregate(ctx.root)) {
      report->Add(MakeDiag(
          DiagCode::kCompleteModeMemory, DiagSeverity::kWarning, *ctx.root,
          {},
          "complete output mode rewrites the entire result table on every "
          "trigger; driver memory and sink write volume are proportional "
          "to the total number of result keys, not to the new data (paper "
          "§5.1) — prefer update mode for high-cardinality keys"));
    }
  }

 private:
  // Streaming operators whose state a watermark bounds. Not Distinct:
  // DedupExec never evicts, watermark or not.
  static bool IsStatefulConsumer(const LogicalPlan& node) {
    switch (node.kind()) {
      case LogicalPlan::Kind::kAggregate:
      case LogicalPlan::Kind::kFlatMapGroupsWithState:
        return node.IsStreaming();
      case LogicalPlan::Kind::kJoin:
        return node.children()[0]->IsStreaming() &&
               node.children()[1]->IsStreaming();
      default:
        return false;
    }
  }

  void Walk(const PassContext& ctx, const PlanPtr& plan, bool under_stateful,
            PlanAnalysis* report) {
    const LogicalPlan& node = *plan;
    if (under_stateful && node.kind() == LogicalPlan::Kind::kProject) {
      const std::set<std::string>& in =
          ctx.watermarks->Get(node.children()[0]);
      if (!in.empty() && ctx.watermarks->Get(plan).empty()) {
        std::string cols;
        for (const std::string& c : in) {
          if (!cols.empty()) cols += ", ";
          cols += "'" + c + "'";
        }
        report->Add(MakeDiag(
            DiagCode::kWatermarkDroppedByProjection, DiagSeverity::kWarning,
            node, ancestors_,
            "Project: this projection drops every watermarked event-time "
            "column (" + cols +
                ") while a stateful operator above it needs the watermark "
                "to bound its state; forward the column (or re-declare "
                "withWatermark above the projection)"));
      }
    }
    ancestors_.push_back(plan.get());
    bool child_under = under_stateful || IsStatefulConsumer(node);
    for (const PlanPtr& child : node.children()) {
      Walk(ctx, child, child_under, report);
    }
    ancestors_.pop_back();
  }

  std::vector<const LogicalPlan*> ancestors_;
};

}  // namespace

PlanAnalysis PlanAnalyzer::Analyze(const PlanPtr& plan, OutputMode mode) {
  PlanAnalysis report;
  if (!plan->IsStreaming()) {
    Diagnostic d;
    d.code = DiagCode::kNotStreaming;
    d.severity = DiagSeverity::kError;
    d.message =
        std::string("not a streaming query (no streaming source) in ") +
        OutputModeName(mode) +
        " output mode; run it with the batch executor instead";
    d.node = plan->ToString();
    d.path = LogicalPlan::KindName(plan->kind());
    report.Add(std::move(d));
    // The remaining passes reason about incremental execution; none of
    // their conclusions are meaningful for a batch plan.
    return report;
  }
  WatermarkDerivation watermarks;
  PassContext ctx{plan, mode, &watermarks};
  // Error passes run before warning passes so FirstErrorStatus() (and the
  // rendered report) lead with what actually blocks the query.
  OutputModeValidationPass output_mode;
  UnboundedStatePass unbounded;
  SanityPass sanity;
  AnalysisPass* passes[] = {&output_mode, &unbounded, &sanity};
  for (AnalysisPass* pass : passes) {
    pass->Run(ctx, &report);
  }
  return report;
}

std::set<std::string> PropagatedWatermarkColumns(const PlanPtr& plan) {
  WatermarkDerivation derivation;
  return derivation.Get(plan);
}

}  // namespace sstreaming
