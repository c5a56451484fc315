#ifndef SSTREAMING_ANALYSIS_ANALYZER_H_
#define SSTREAMING_ANALYSIS_ANALYZER_H_

#include "logical/output_mode.h"
#include "logical/plan.h"

namespace sstreaming {

/// Query analysis (paper §5.1): resolves names and types bottom-up, computes
/// output schemas, and rejects invalid queries with AnalysisError. Produces a
/// new, fully resolved plan tree; the input is unchanged.
class Analyzer {
 public:
  static Result<PlanPtr> Analyze(const PlanPtr& plan);
};

/// Checks that an *analyzed* streaming query is incrementalizable (§5.2) and
/// that the chosen sink output mode is valid for it (§5.1). A thin wrapper
/// over PlanAnalyzer::Analyze (analysis/plan_analyzer.h) that keeps the
/// legacy single-Status contract: the first SS1xxx error diagnostic is
/// returned as UnsupportedOperation / AnalysisError with the paper's
/// semantics:
///  - at most one aggregation on the streaming path;
///  - append mode requires monotonic output: aggregations must group by an
///    event-time window over a watermarked column;
///  - complete mode requires an aggregation (bounded result state);
///  - sorting only after aggregation, only in complete mode;
///  - limit only in complete mode;
///  - stream-stream outer joins require watermarks on both sides;
///  - stream-static outer joins must preserve the stream side;
///  - mapGroupsWithState event-time timeouts require a watermark.
Status ValidateStreamingQuery(const PlanPtr& analyzed_plan, OutputMode mode);

}  // namespace sstreaming

#endif  // SSTREAMING_ANALYSIS_ANALYZER_H_
