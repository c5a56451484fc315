#include "obs/plan_profile.h"

#include <algorithm>
#include <cstdio>

namespace sstreaming {

void PlanProfile::AddNode(const OpProfileNode& op) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(op.op_id)) return;
  Node node;
  node.op = op;
  node.totals.op_id = op.op_id;
  node.totals.name = op.name;
  index_[op.op_id] = nodes_.size();
  nodes_.push_back(std::move(node));
}

void PlanProfile::RecordEpoch(const QueryProgress& progress) {
  std::lock_guard<std::mutex> lock(mu_);
  ++epochs_;
  for (const OperatorProgress& op : progress.operators) {
    auto it = index_.find(op.op_id);
    if (it == index_.end()) continue;
    Node& node = nodes_[it->second];
    node.totals.MergeFrom(op);
    node.peak_state_rows = std::max(node.peak_state_rows, op.state_rows);
    node.peak_state_bytes = std::max(node.peak_state_bytes, op.state_bytes);
  }
}

std::vector<PlanProfile::Node> PlanProfile::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return nodes_;
}

const PlanProfile::Node* PlanProfile::FindLocked(int op_id) const {
  auto it = index_.find(op_id);
  return it == index_.end() ? nullptr : &nodes_[it->second];
}

void PlanProfile::RenderNodeLocked(const Node& node, int depth,
                                   std::string* out) const {
  const OperatorProgress& t = node.totals;
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.op.name;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                " [op %d]  rows_in=%lld rows_out=%lld batches=%lld "
                "self_cpu_ms=%.3f queue_ms=%.3f output_bytes=%lld",
                node.op.op_id, static_cast<long long>(t.rows_in),
                static_cast<long long>(t.rows_out),
                static_cast<long long>(t.batches),
                static_cast<double>(t.cpu_nanos) / 1e6,
                static_cast<double>(t.queue_wait_nanos) / 1e6,
                static_cast<long long>(t.output_bytes));
  *out += buf;
  if (node.peak_state_rows > 0 || node.peak_state_bytes > 0) {
    std::snprintf(buf, sizeof(buf),
                  " state_rows=%lld state_bytes=%lld (peak %lld/%lld)",
                  static_cast<long long>(t.state_rows),
                  static_cast<long long>(t.state_bytes),
                  static_cast<long long>(node.peak_state_rows),
                  static_cast<long long>(node.peak_state_bytes));
    *out += buf;
    if (!t.shard_state.empty()) {
      *out += " shards=[";
      for (size_t s = 0; s < t.shard_state.size(); ++s) {
        if (s > 0) *out += " ";
        std::snprintf(buf, sizeof(buf), "%lld/%lld",
                      static_cast<long long>(t.shard_state[s].first),
                      static_cast<long long>(t.shard_state[s].second));
        *out += buf;
      }
      *out += "]";
    }
  }
  *out += "\n";
  for (int child_id : node.op.child_ids) {
    const Node* child = FindLocked(child_id);
    if (child != nullptr) RenderNodeLocked(*child, depth + 1, out);
  }
}

std::string PlanProfile::Render() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "== EXPLAIN ANALYZE (epochs=" + std::to_string(epochs_) +
                    ") ==\n";
  if (!nodes_.empty()) RenderNodeLocked(nodes_.front(), 0, &out);
  return out;
}

Json PlanProfile::NodeJsonLocked(const Node& node) const {
  Json obj = node.totals.ToJson();
  obj.Set("isSource", Json::Bool(node.op.is_source));
  obj.Set("peakStateRows", Json::Int(node.peak_state_rows));
  obj.Set("peakStateBytes", Json::Int(node.peak_state_bytes));
  Json children = Json::Array();
  for (int child_id : node.op.child_ids) {
    const Node* child = FindLocked(child_id);
    if (child != nullptr) children.Append(NodeJsonLocked(*child));
  }
  obj.Set("children", std::move(children));
  return obj;
}

Json PlanProfile::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json obj = Json::Object();
  obj.Set("epochs", Json::Int(epochs_));
  if (!nodes_.empty()) obj.Set("root", NodeJsonLocked(nodes_.front()));
  return obj;
}

}  // namespace sstreaming
