#include "incremental/incrementalizer.h"

#include <numeric>
#include <set>

#include "analysis/plan_analyzer.h"
#include "common/logging.h"
#include "physical/fused_pipeline.h"
#include "physical/operators.h"
#include "physical/stateful_ops.h"

namespace sstreaming {

namespace {

class Builder {
 public:
  explicit Builder(int num_partitions) : num_partitions_(num_partitions) {}

  Result<PhysOpPtr> Build(const PlanPtr& plan) {
    switch (plan->kind()) {
      case LogicalPlan::Kind::kScan: {
        const auto& node = static_cast<const ScanNode&>(*plan);
        return PhysOpPtr(std::make_shared<StaticSourceExec>(
            NextId(), node.schema(), node.batches(), num_partitions_));
      }
      case LogicalPlan::Kind::kStreamScan: {
        const auto& node = static_cast<const StreamScanNode&>(*plan);
        sources_.push_back(node.source());
        return PhysOpPtr(
            std::make_shared<SourceExec>(NextId(), node.source()));
      }
      case LogicalPlan::Kind::kFilter: {
        const auto& node = static_cast<const FilterNode&>(*plan);
        SS_ASSIGN_OR_RETURN(PhysOpPtr child, Build(node.children()[0]));
        return AppendStage(child, FusedPipelineExec::Stage::Filter(
                                      NextId(), node.predicate()));
      }
      case LogicalPlan::Kind::kProject: {
        const auto& node = static_cast<const ProjectNode&>(*plan);
        // Pure column projection directly above a stream scan: push the
        // column subset into the source read itself (§5.3).
        if (node.children()[0]->kind() == LogicalPlan::Kind::kStreamScan) {
          bool pure = true;
          std::vector<int> indices;
          for (const NamedExpr& e : node.exprs()) {
            if (e.expr->kind() != Expr::Kind::kColumnRef) {
              pure = false;
              break;
            }
            indices.push_back(
                static_cast<const ColumnRefExpr&>(*e.expr).index());
          }
          if (pure && !indices.empty()) {
            const auto& scan =
                static_cast<const StreamScanNode&>(*node.children()[0]);
            sources_.push_back(scan.source());
            return PhysOpPtr(std::make_shared<SourceExec>(
                NextId(), scan.source(), std::move(indices), node.schema()));
          }
        }
        SS_ASSIGN_OR_RETURN(PhysOpPtr child, Build(node.children()[0]));
        return AppendStage(child, FusedPipelineExec::Stage::Project(
                                      NextId(), node.schema(), node.exprs()));
      }
      case LogicalPlan::Kind::kWithWatermark: {
        const auto& node = static_cast<const WithWatermarkNode&>(*plan);
        SS_ASSIGN_OR_RETURN(PhysOpPtr child, Build(node.children()[0]));
        int idx = node.schema()->IndexOf(node.column());
        SS_CHECK(idx >= 0);
        return AppendStage(child, FusedPipelineExec::Stage::Watermark(
                                      NextId(), idx, node.delay_micros()));
      }
      case LogicalPlan::Kind::kDistinct: {
        const auto& node = static_cast<const DistinctNode&>(*plan);
        SS_ASSIGN_OR_RETURN(PhysOpPtr child, Build(node.children()[0]));
        // Co-locate equal rows: shuffle on every column.
        std::vector<ExprPtr> keys;
        for (const Field& f : node.schema()->fields()) {
          SS_ASSIGN_OR_RETURN(ExprPtr key,
                              Col(f.name)->Resolve(*node.schema()));
          keys.push_back(std::move(key));
        }
        auto shuffle = std::make_shared<ShuffleExec>(
            NextId(), child, std::move(keys), num_partitions_);
        has_stateful_ = true;
        return PhysOpPtr(
            std::make_shared<DedupExec>(NextId(), PhysOpPtr(shuffle)));
      }
      case LogicalPlan::Kind::kAggregate:
        return BuildAggregate(static_cast<const AggregateNode&>(*plan));
      case LogicalPlan::Kind::kJoin:
        return BuildJoin(static_cast<const JoinNode&>(*plan));
      case LogicalPlan::Kind::kSort: {
        const auto& node = static_cast<const SortNode&>(*plan);
        SS_ASSIGN_OR_RETURN(PhysOpPtr child, Build(node.children()[0]));
        std::vector<SortExec::Key> keys;
        for (const SortKey& k : node.keys()) {
          keys.push_back(SortExec::Key{k.expr, k.ascending});
        }
        return PhysOpPtr(
            std::make_shared<SortExec>(NextId(), child, std::move(keys)));
      }
      case LogicalPlan::Kind::kLimit: {
        const auto& node = static_cast<const LimitNode&>(*plan);
        SS_ASSIGN_OR_RETURN(PhysOpPtr child, Build(node.children()[0]));
        return PhysOpPtr(
            std::make_shared<LimitExec>(NextId(), child, node.n()));
      }
      case LogicalPlan::Kind::kFlatMapGroupsWithState: {
        const auto& node =
            static_cast<const FlatMapGroupsWithStateNode&>(*plan);
        SS_ASSIGN_OR_RETURN(PhysOpPtr child, Build(node.children()[0]));
        std::vector<ExprPtr> shuffle_keys;
        for (const NamedExpr& k : node.key_exprs()) {
          shuffle_keys.push_back(k.expr);
        }
        auto shuffle = std::make_shared<ShuffleExec>(
            NextId(), child, std::move(shuffle_keys), num_partitions_);
        has_stateful_ = true;
        return PhysOpPtr(std::make_shared<FlatMapGroupsWithStateExec>(
            NextId(), PhysOpPtr(shuffle), node.output_schema(),
            node.key_exprs(), node.update_fn(), node.timeout(),
            node.require_single_output()));
      }
    }
    return Status::Internal("unknown logical node");
  }

  const std::vector<SourcePtr>& sources() const { return sources_; }
  bool has_stateful() const { return has_stateful_; }
  int top_level_key_columns() const { return top_level_key_columns_; }

  /// Gives every fused pipeline an op_id above the range Build handed out,
  /// in creation order, so operators keep the ids they would have without
  /// fusion nodes in the plan: checkpoint state directories (op<N>/p<M>),
  /// watermark maps and per-operator metrics depend on them.
  void NumberFusedPipelines() {
    for (const auto& fused : fused_) fused->set_op_id(NextId());
  }

 private:
  int NextId() { return next_id_++; }

  /// Stateless operators become stages of a fused pipeline: a new one over
  /// `child`, or, when `child` is the pipeline built just before, one more
  /// stage on top of it. A pipeline's child is never itself a pipeline.
  PhysOpPtr AppendStage(const PhysOpPtr& child,
                        FusedPipelineExec::Stage stage) {
    if (!fused_.empty() && fused_.back() == child) {
      fused_.back()->AppendStage(std::move(stage));
    } else {
      fused_.push_back(std::make_shared<FusedPipelineExec>(
          /*op_id=*/-1, child,
          std::vector<FusedPipelineExec::Stage>{std::move(stage)}));
    }
    return fused_.back();
  }

  Result<PhysOpPtr> BuildAggregate(const AggregateNode& node) {
    SS_ASSIGN_OR_RETURN(PhysOpPtr child, Build(node.children()[0]));
    // Shuffle so equal group keys land in the same partition. Tumbling
    // windows hash by window start; sliding windows rely on the scalar keys
    // (or collapse to one partition if the window is the only key, since a
    // record's windows would otherwise span partitions).
    std::vector<ExprPtr> shuffle_keys;
    for (const NamedExpr& g : node.group_exprs()) {
      if (g.expr->kind() == Expr::Kind::kWindow) {
        const auto& w = static_cast<const WindowExpr&>(*g.expr);
        if (w.is_tumbling()) shuffle_keys.push_back(g.expr);
      } else {
        shuffle_keys.push_back(g.expr);
      }
    }
    if (shuffle_keys.empty()) {
      SS_ASSIGN_OR_RETURN(
          ExprPtr zero,
          Lit(0)->Resolve(*node.children()[0]->schema()));
      shuffle_keys.push_back(std::move(zero));
    }
    auto shuffle = std::make_shared<ShuffleExec>(
        NextId(), child, std::move(shuffle_keys), num_partitions_);
    has_stateful_ = true;
    auto agg = std::make_shared<StatefulAggExec>(
        NextId(), PhysOpPtr(shuffle), node.schema(), node.group_exprs(),
        node.aggregates());
    top_level_key_columns_ = agg->num_output_key_columns();
    return PhysOpPtr(agg);
  }

  Result<PhysOpPtr> BuildJoin(const JoinNode& node) {
    const PlanPtr& left = node.children()[0];
    const PlanPtr& right = node.children()[1];
    const bool left_stream = left->IsStreaming();
    const bool right_stream = right->IsStreaming();
    const JoinShape shape = node.Shape();
    // One key rule for both join kinds: a numeric key pair of two types
    // compares in their common type, so each operator (and the shuffles
    // that co-locate its keys) sees same-typed keys.
    std::vector<ExprPtr> left_keys = node.left_keys();
    std::vector<ExprPtr> right_keys = node.right_keys();
    for (size_t i = 0; i < left_keys.size(); ++i) {
      const TypeId lt = left_keys[i]->type();
      const TypeId rt = right_keys[i]->type();
      if (lt == rt || !IsNumeric(lt) || !IsNumeric(rt)) continue;
      // Exactly one side differs from the common type.
      const TypeId common = CommonNumericType(lt, rt);
      const bool cast_left = lt != common;
      ExprPtr& key = cast_left ? left_keys[i] : right_keys[i];
      SS_ASSIGN_OR_RETURN(key, Cast(key, common)->Resolve(
                                   *(cast_left ? left : right)->schema()));
    }

    if (left_stream && right_stream) {
      SS_ASSIGN_OR_RETURN(PhysOpPtr lchild, Build(left));
      SS_ASSIGN_OR_RETURN(PhysOpPtr rchild, Build(right));
      auto lshuffle = std::make_shared<ShuffleExec>(
          NextId(), lchild, left_keys, num_partitions_);
      auto rshuffle = std::make_shared<ShuffleExec>(
          NextId(), rchild, right_keys, num_partitions_);
      // Each side evicts state by an event-time column that still carries
      // its watermark, under the name that column has at the join.
      auto time_index = [](const PlanPtr& side) {
        std::set<std::string> wm = PropagatedWatermarkColumns(side);
        return wm.empty() ? -1 : side->schema()->IndexOf(*wm.begin());
      };
      has_stateful_ = true;
      return PhysOpPtr(std::make_shared<StreamStreamJoinExec>(
          NextId(), PhysOpPtr(lshuffle), PhysOpPtr(rshuffle), node.schema(),
          left_keys, right_keys, shape, time_index(left), time_index(right)));
    }

    // Stream-static (or static-static in batch runs): materialize the
    // static side once and probe it with each row of the other side, as a
    // stage of the probe side's pipeline. A batch run probes with the side
    // it preserves, whose unmatched rows the probe null-pads.
    const bool probe_left =
        left_stream || (!right_stream && !shape.preserves_right);
    SS_ASSIGN_OR_RETURN(RecordBatchPtr static_batch,
                        RunStaticPlan(probe_left ? right : left,
                                      num_partitions_));
    SS_ASSIGN_OR_RETURN(PhysOpPtr probe_child,
                        Build(probe_left ? left : right));
    std::vector<int> all_left(
        static_cast<size_t>(left->schema()->num_fields()));
    std::iota(all_left.begin(), all_left.end(), 0);
    // Coalescing applies when the probe is the right side: its dropped key
    // columns come back from the static (left) column positions.
    SS_ASSIGN_OR_RETURN(
        std::shared_ptr<const StreamStaticJoin> join,
        StreamStaticJoin::Make(
            node.schema(), probe_left ? left_keys : right_keys,
            std::move(static_batch), probe_left ? right_keys : left_keys,
            probe_left ? all_left : shape.kept_right,
            probe_left ? shape.kept_right : all_left,
            /*stream_first=*/probe_left,
            probe_left ? shape.preserves_left : shape.preserves_right,
            probe_left ? std::vector<std::pair<int, int>>()
                       : shape.using_keys));
    return AppendStage(probe_child, FusedPipelineExec::Stage::StaticJoin(
                                        NextId(), std::move(join)));
  }

  int num_partitions_;
  int next_id_ = 0;
  std::vector<std::shared_ptr<FusedPipelineExec>> fused_;
  std::vector<SourcePtr> sources_;
  bool has_stateful_ = false;
  int top_level_key_columns_ = 0;
};

}  // namespace

Result<PhysicalPlan> Incrementalize(const PlanPtr& analyzed,
                                    int num_partitions) {
  if (!analyzed->analyzed()) {
    return Status::InvalidArgument("plan must be analyzed first");
  }
  Builder builder(num_partitions);
  SS_ASSIGN_OR_RETURN(PhysOpPtr root, builder.Build(analyzed));
  builder.NumberFusedPipelines();
  PhysicalPlan plan;
  plan.root = std::move(root);
  plan.sources = builder.sources();
  plan.has_stateful = builder.has_stateful();
  plan.num_key_columns = builder.top_level_key_columns();
  return plan;
}

Result<RecordBatchPtr> RunStaticPlan(const PlanPtr& analyzed,
                                     int num_partitions) {
  if (analyzed->IsStreaming()) {
    return Status::InvalidArgument("RunStaticPlan needs a static plan");
  }
  SS_ASSIGN_OR_RETURN(PhysicalPlan plan,
                      Incrementalize(analyzed, num_partitions));
  InlineScheduler scheduler;
  StateManager state("", 0, ShardedStateStore::Options());
  SystemClock clock;
  ExecContext ctx;
  ctx.epoch = 1;
  ctx.mode = OutputMode::kAppend;
  ctx.is_batch = true;
  ctx.scheduler = &scheduler;
  ctx.state = &state;
  ctx.clock = &clock;
  SS_ASSIGN_OR_RETURN(std::vector<RecordBatchPtr> batches,
                      plan.root->Execute(&ctx));
  return RecordBatch::Materialize(
      RecordBatch::Concat(analyzed->schema(), batches));
}

}  // namespace sstreaming
