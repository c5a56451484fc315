#include "exec/batch_executor.h"

#include <algorithm>

#include "analysis/analyzer.h"
#include "incremental/incrementalizer.h"
#include "optimizer/optimizer.h"

namespace sstreaming {

Result<std::vector<Row>> RunBatch(const DataFrame& df, int num_partitions) {
  if (df.IsStreaming()) {
    return Status::InvalidArgument(
        "RunBatch requires static inputs; start a StreamingQuery for "
        "streaming sources");
  }
  PlanPtr optimized = Optimizer::Optimize(df.plan());
  SS_ASSIGN_OR_RETURN(PlanPtr analyzed, Analyzer::Analyze(optimized));
  SS_ASSIGN_OR_RETURN(RecordBatchPtr result,
                      RunStaticPlan(analyzed, num_partitions));
  return result->ToRows();
}

Result<std::vector<Row>> RunBatchSorted(const DataFrame& df,
                                        int num_partitions) {
  SS_ASSIGN_OR_RETURN(std::vector<Row> rows, RunBatch(df, num_partitions));
  std::sort(rows.begin(), rows.end(), RowLess());
  return rows;
}

}  // namespace sstreaming
