#ifndef SSTREAMING_OBS_PLAN_PROFILE_H_
#define SSTREAMING_OBS_PLAN_PROFILE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/thread_annotations.h"
#include "obs/progress.h"

namespace sstreaming {

/// EXPLAIN ANALYZE for a running query: the physical plan tree annotated
/// with cumulative per-operator actuals (rows in/out, batches, self CPU,
/// output bytes, scheduler stages, live/peak state size). The skeleton is
/// registered once at query start (AddNode, root first, plan pre-order);
/// every completed epoch folds its OperatorProgress in via RecordEpoch.
/// Thread-safe: the epoch loop records while HTTP scrape threads render, so
/// all node state is mutex-guarded and Render()/ToJson() work from a
/// consistent snapshot.
///
/// The cumulative rows_in/rows_out per node are fed from the same
/// OperatorProgress values as the `sstreaming_operator_rows_{in,out}_total`
/// counters, so a profile and a metrics scrape taken while the query is
/// quiescent agree exactly (tested).
class PlanProfile {
 public:
  struct Node {
    OpProfileNode op;  // the skeleton: id, name, source flag, children
    /// Cumulative actuals across recorded epochs: every epoch's
    /// OperatorProgress folded in with MergeFrom (so the state size is the
    /// most recent epoch's).
    OperatorProgress totals;
    /// Largest live state size after any recorded epoch (0 for stateless
    /// operators).
    int64_t peak_state_rows = 0;
    int64_t peak_state_bytes = 0;
  };

  PlanProfile() = default;
  PlanProfile(const PlanProfile&) = delete;
  PlanProfile& operator=(const PlanProfile&) = delete;

  /// Registers one plan node. Call in plan pre-order (root first) before the
  /// first RecordEpoch; nodes registered twice (shared subtrees) are kept
  /// once.
  void AddNode(const OpProfileNode& node);

  /// Folds one completed epoch's per-operator summaries into the totals.
  void RecordEpoch(const QueryProgress& progress);

  std::vector<Node> Snapshot() const;

  /// Multi-line EXPLAIN ANALYZE rendering: the plan tree, one node per line,
  /// annotated with cumulative actuals.
  std::string Render() const;

  /// {"epochs": N, "root": {...}} — the payload of the /queries/<id>/plan
  /// endpoint. Each node is its totals' OperatorProgress::ToJson() plus
  /// "isSource", "peakStateRows", "peakStateBytes" and "children".
  Json ToJson() const;

 private:
  const Node* FindLocked(int op_id) const SS_REQUIRES(mu_);
  void RenderNodeLocked(const Node& node, int depth, std::string* out) const
      SS_REQUIRES(mu_);
  Json NodeJsonLocked(const Node& node) const SS_REQUIRES(mu_);

  mutable std::mutex mu_;
  std::vector<Node> nodes_ SS_GUARDED_BY(mu_);  // pre-order, root first
  std::map<int, size_t> index_ SS_GUARDED_BY(mu_);
  int64_t epochs_ SS_GUARDED_BY(mu_) = 0;
};

}  // namespace sstreaming

#endif  // SSTREAMING_OBS_PLAN_PROFILE_H_
