#ifndef SSTREAMING_ANALYSIS_DIAGNOSTICS_H_
#define SSTREAMING_ANALYSIS_DIAGNOSTICS_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace sstreaming {

/// Stable diagnostic codes emitted by the static plan analyzer (see
/// docs/PLAN_DIAGNOSTICS.md for the catalogue with examples and fixes).
/// SS1xxx are errors: the query cannot run incrementally as written.
/// SS2xxx are warnings: the query runs, but with a property the operator
/// almost certainly wants to know about (unbounded state, lost watermark).
/// SS3xxx are checkpoint-compatibility findings: the restarted plan's
/// canonical fingerprint diverges from the manifest persisted in the
/// checkpoint directory (see docs/UPGRADES.md). Errors in that family block
/// recovery unless QueryOptions::allow_checkpoint_incompatibility is set,
/// in which case they are downgraded to warnings with the same code.
/// Codes are append-only — never renumber a shipped code.
enum class DiagCode {
  // --- errors ---
  kNotStreaming = 1001,             // plan has no streaming source
  kMultipleAggregations = 1002,     // >1 aggregation on the streaming path
  kAppendAggregateNoWatermark = 1003,  // append-mode agg lacks watermarked
                                       // event-time window
  kStreamStreamOuterNoWatermark = 1004,  // outer join needs both watermarks
  kStaticSidePreserved = 1005,      // stream-static outer preserves static
  kSortNotComplete = 1006,          // sort outside complete mode
  kSortBeforeAggregation = 1007,    // sort without a preceding aggregation
  kLimitNotComplete = 1008,         // limit outside complete mode
  kEventTimeTimeoutNoWatermark = 1009,  // mapGroupsWithState event-time
                                        // timeout without a watermark
  kCompleteNoAggregation = 1010,    // complete mode needs bounded state

  // --- warnings ---
  kUnboundedAggregationState = 2001,  // aggregate w/o watermark: state grows
  kUnboundedDistinctState = 2002,     // streaming dedup: state grows
  kUnboundedJoinState = 2003,         // stream-stream join w/o watermark
  kWatermarkDroppedByProjection = 2004,  // projection drops the watermarked
                                         // column a stateful op needs
  kCompleteModeMemory = 2005,       // complete mode rewrites whole result
  kStateWithoutTimeout = 2006,      // mapGroupsWithState never expires state

  // --- checkpoint compatibility (errors unless overridden) ---
  kCheckpointKeySchemaChanged = 3001,   // stateful op's state key changed
  kCheckpointStatefulOpRemoved = 3002,  // manifest op missing from new plan
  kCheckpointOutputModeChanged = 3003,  // append/update/complete flipped
  kCheckpointShardCountChanged = 3004,  // num_state_shards vs on-disk layout
  kCheckpointPartitionCountChanged = 3005,  // state is laid out per partition
  kCheckpointStateDetailChanged = 3006,  // agg funcs / join type / timeout
  kCheckpointManifestCorrupt = 3007,    // parseable but semantically invalid

  // --- checkpoint compatibility (always warnings) ---
  kCheckpointStatefulOpAdded = 3008,    // new stateful op starts empty
  kCheckpointPlanShapeChanged = 3009,   // stateless-only divergence
  kCheckpointWatermarkChanged = 3010,   // watermark column/delay changed
  kCheckpointManifestTorn = 3011,       // torn manifest truncated on open
};

/// Every shipped code, in numeric order — the doc↔code parity test walks
/// this to keep docs/PLAN_DIAGNOSTICS.md from drifting. Extend it whenever
/// a code is added to DiagCode (the parity test fails loudly if you don't,
/// as the new code's doc heading will have no enum twin to match).
const std::vector<DiagCode>& AllDiagCodes();

/// True for the SS3xxx checkpoint-compatibility family.
bool IsCheckpointCode(DiagCode code);

enum class DiagSeverity { kError, kWarning };

const char* DiagSeverityName(DiagSeverity severity);

/// "SS1003"-style stable identifier for a code.
std::string DiagCodeString(DiagCode code);

/// One finding of the static plan analyzer: what rule fired (code), how bad
/// it is, where in the plan (node provenance: the offending node's one-line
/// rendering plus its path from the root), and a human-readable message
/// that names the offending operator and the output mode involved. For
/// unbounded-state findings, `state_growth` carries the asymptotic estimate
/// (e.g. "O(distinct group keys)").
struct Diagnostic {
  DiagCode code;
  DiagSeverity severity = DiagSeverity::kError;
  std::string message;
  /// One-line rendering of the plan node the finding anchors to.
  std::string node;
  /// Root-to-node path, e.g. "Aggregate > Project > StreamScan".
  std::string path;
  /// Asymptotic state-growth estimate; empty when not applicable.
  std::string state_growth;

  /// "SS2001 warning [Aggregate(...)]: message (state grows O(...))".
  std::string Render() const;
  Json ToJson() const;
};

/// The analyzer's report: every rule violation and advisory in one place
/// (never first-error-wins). `FirstErrorStatus()` converts the report back
/// into the legacy single-Status contract: each error code maps to the
/// Status kind callers match on (AnalysisError, UnsupportedOperation,
/// InvalidArgument).
class PlanAnalysis {
 public:
  void Add(Diagnostic diag) { diagnostics_.push_back(std::move(diag)); }

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  std::vector<Diagnostic> errors() const;
  std::vector<Diagnostic> warnings() const;
  bool has_errors() const;

  /// True when `code` fired at least once (test helper).
  bool Has(DiagCode code) const;

  /// OK when there are no errors (warnings never fail a query); otherwise
  /// the first error rendered as the Status kind its code maps to.
  Status FirstErrorStatus() const;

  /// Multi-line human rendering: a summary header then one line per
  /// diagnostic, errors first.
  std::string Explain() const;

  /// {"errors": [...], "warnings": [...]} of Diagnostic::ToJson().
  Json ToJson() const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace sstreaming

#endif  // SSTREAMING_ANALYSIS_DIAGNOSTICS_H_
