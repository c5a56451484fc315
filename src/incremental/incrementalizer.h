#ifndef SSTREAMING_INCREMENTAL_INCREMENTALIZER_H_
#define SSTREAMING_INCREMENTAL_INCREMENTALIZER_H_

#include <vector>

#include "logical/plan.h"
#include "physical/phys_op.h"

namespace sstreaming {

/// The incrementalized form of a query (paper §5.2): a DAG of physical
/// operators that updates the result in time proportional to new data, plus
/// the metadata the engine needs to run it.
struct PhysicalPlan {
  PhysOpPtr root;
  /// Streaming sources in the plan (the engine plans offsets for each).
  std::vector<SourcePtr> sources;
  /// Leading output columns identifying a result row for update-mode
  /// upserts (the aggregation's group key); 0 when the query has no
  /// aggregation at the top.
  int num_key_columns = 0;
  /// True if any operator keeps state (drives state checkpointing).
  bool has_stateful = false;
};

/// Maps an *analyzed* logical plan to physical operators. `num_partitions`
/// is the shuffle fan-out for stateful stages. Works for both streaming
/// plans (incremental operators over the state store) and static plans (the
/// same operators in one-shot batch mode — the paper's batch/stream
/// unification, §7.3).
///
/// Static subtrees under a join are evaluated eagerly here (the broadcast
/// side of a stream-static join is materialized once per query start).
Result<PhysicalPlan> Incrementalize(const PlanPtr& analyzed,
                                    int num_partitions);

/// Fully evaluates a static (non-streaming) analyzed plan by running its
/// physical form once in batch mode, into one batch without a selection.
Result<RecordBatchPtr> RunStaticPlan(const PlanPtr& analyzed,
                                     int num_partitions);

}  // namespace sstreaming

#endif  // SSTREAMING_INCREMENTAL_INCREMENTALIZER_H_
