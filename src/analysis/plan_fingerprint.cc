#include "analysis/plan_fingerprint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "analysis/plan_analyzer.h"
#include "types/data_type.h"

namespace sstreaming {

namespace {

const char* TimeoutName(GroupStateTimeout timeout) {
  switch (timeout) {
    case GroupStateTimeout::kNone:
      return "none";
    case GroupStateTimeout::kProcessingTime:
      return "processing-time";
    case GroupStateTimeout::kEventTime:
      return "event-time";
  }
  return "?";
}

uint64_t Fnv1a(const std::string& data, uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

std::string HashHex(uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// One group/join key entry: "name: type", with window geometry inlined
/// because changing it re-keys every state row.
std::string KeyEntry(const NamedExpr& e) {
  if (e.expr->kind() == Expr::Kind::kWindow) {
    const auto& w = static_cast<const WindowExpr&>(*e.expr);
    std::vector<std::string> refs;
    w.time()->CollectColumnRefs(&refs);
    std::string cols;
    for (const std::string& r : refs) {
      if (!cols.empty()) cols += ",";
      cols += r;
    }
    return e.OutputName() + ": window[" + std::to_string(w.size_micros()) +
           "/" + std::to_string(w.slide_micros()) + "](" + cols + ")";
  }
  return e.OutputName() + ": " + TypeName(e.expr->type());
}

std::string KeyList(const std::vector<NamedExpr>& exprs) {
  std::string out = "(";
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (i > 0) out += ", ";
    out += KeyEntry(exprs[i]);
  }
  out += ")";
  return out;
}

std::string JoinKeyList(const std::vector<ExprPtr>& keys) {
  std::string out = "(";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys[i]->ToString();
    out += ": ";
    out += TypeName(keys[i]->type());
  }
  out += ")";
  return out;
}

std::vector<std::string> SortedWatermarks(const PlanPtr& plan,
                                          const std::string& prefix = "") {
  std::vector<std::string> out;
  for (const std::string& col : PropagatedWatermarkColumns(plan)) {
    out.push_back(prefix + col);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CollectWatermarkDecls(const PlanPtr& plan,
                           std::vector<std::string>* out) {
  if (plan->kind() == LogicalPlan::Kind::kWithWatermark) {
    const auto& node = static_cast<const WithWatermarkNode&>(*plan);
    out->push_back(node.column() + "@" +
                   std::to_string(node.delay_micros()));
  }
  for (const PlanPtr& child : plan->children()) {
    CollectWatermarkDecls(child, out);
  }
}

}  // namespace

uint64_t OperatorFingerprint::IdentityHash() const {
  uint64_t h = Fnv1a(kind, kFnvBasis);
  h = Fnv1a(stateful ? "|s|" : "|-|", h);
  h = Fnv1a(key_schema, h);
  h = Fnv1a("|", h);
  h = Fnv1a(detail, h);
  for (const std::string& col : watermark_columns) {
    h = Fnv1a("|wm:" + col, h);
  }
  return h;
}

std::string OperatorFingerprint::Render() const {
  std::string out = kind;
  if (stateful) out += "*";
  if (!key_schema.empty()) out += " key=" + key_schema;
  if (!detail.empty()) out += " [" + detail + "]";
  if (!watermark_columns.empty()) {
    out += " wm={";
    for (size_t i = 0; i < watermark_columns.size(); ++i) {
      if (i > 0) out += ",";
      out += watermark_columns[i];
    }
    out += "}";
  }
  return out;
}

Json OperatorFingerprint::ToJson() const {
  Json obj = Json::Object();
  obj.Set("kind", Json::Str(kind));
  obj.Set("stateful", Json::Bool(stateful));
  obj.Set("keySchema", Json::Str(key_schema));
  obj.Set("detail", Json::Str(detail));
  Json wm = Json::Array();
  for (const std::string& col : watermark_columns) {
    wm.Append(Json::Str(col));
  }
  obj.Set("watermarkColumns", std::move(wm));
  obj.Set("path", Json::Str(path));
  obj.Set("hash", Json::Str(HashHex(IdentityHash())));
  return obj;
}

Result<OperatorFingerprint> OperatorFingerprint::FromJson(const Json& json) {
  if (!json.is_object() || !json.Get("kind").is_string() ||
      !json.Get("stateful").is_bool()) {
    return Status::InvalidArgument("operator fingerprint entry is malformed");
  }
  OperatorFingerprint op;
  op.kind = json.Get("kind").string_value();
  op.stateful = json.Get("stateful").bool_value();
  op.key_schema = json.Get("keySchema").string_value();
  op.detail = json.Get("detail").string_value();
  for (const Json& col : json.Get("watermarkColumns").array_items()) {
    if (col.is_string()) op.watermark_columns.push_back(col.string_value());
  }
  op.path = json.Get("path").string_value();
  if (json.Get("hash").is_string() &&
      json.Get("hash").string_value() != HashHex(op.IdentityHash())) {
    return Status::InvalidArgument(
        "operator fingerprint hash does not match its fields (manifest "
        "edited or corrupted): " + op.Render());
  }
  return op;
}

uint64_t PlanFingerprint::PlanHash() const {
  uint64_t h = Fnv1a(output_mode, kFnvBasis);
  h = Fnv1a("|p" + std::to_string(num_partitions), h);
  h = Fnv1a("|s" + std::to_string(num_state_shards), h);
  for (const std::string& wm : watermarks) h = Fnv1a("|wm:" + wm, h);
  for (const OperatorFingerprint& op : operators) {
    h = Fnv1a("|op:" + HashHex(op.IdentityHash()) + "@" + op.path, h);
  }
  return h;
}

uint64_t PlanFingerprint::StatefulHash() const {
  uint64_t h = kFnvBasis;
  for (const OperatorFingerprint& op : operators) {
    if (!op.stateful) continue;
    h = Fnv1a("|op:" + HashHex(op.IdentityHash()), h);
  }
  return h;
}

std::vector<const OperatorFingerprint*> PlanFingerprint::StatefulOps() const {
  std::vector<const OperatorFingerprint*> out;
  for (const OperatorFingerprint& op : operators) {
    if (op.stateful) out.push_back(&op);
  }
  return out;
}

std::string PlanFingerprint::Render() const {
  std::string out = "plan fingerprint (v" + std::to_string(format_version) +
                    "): mode=" + output_mode +
                    " partitions=" + std::to_string(num_partitions) +
                    " shards=" + std::to_string(num_state_shards) + "\n";
  out += "  plan hash " + HashHex(PlanHash()) + ", stateful hash " +
         HashHex(StatefulHash()) + "\n";
  if (!watermarks.empty()) {
    out += "  watermarks:";
    for (const std::string& wm : watermarks) out += " " + wm;
    out += "\n";
  }
  for (const OperatorFingerprint& op : operators) {
    out += op.stateful ? "  [S] " : "      ";
    out += op.Render();
    out += "\n";
  }
  return out;
}

Json PlanFingerprint::ToJson() const {
  Json obj = Json::Object();
  obj.Set("formatVersion", Json::Int(format_version));
  obj.Set("outputMode", Json::Str(output_mode));
  obj.Set("numPartitions", Json::Int(num_partitions));
  obj.Set("numStateShards", Json::Int(num_state_shards));
  Json wms = Json::Array();
  for (const std::string& wm : watermarks) wms.Append(Json::Str(wm));
  obj.Set("watermarks", std::move(wms));
  Json ops = Json::Array();
  for (const OperatorFingerprint& op : operators) ops.Append(op.ToJson());
  obj.Set("operators", std::move(ops));
  obj.Set("planHash", Json::Str(HashHex(PlanHash())));
  obj.Set("statefulHash", Json::Str(HashHex(StatefulHash())));
  return obj;
}

Result<PlanFingerprint> PlanFingerprint::FromJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("plan manifest is not a JSON object");
  }
  if (!json.Get("formatVersion").is_int()) {
    return Status::InvalidArgument("plan manifest lacks formatVersion");
  }
  PlanFingerprint fp;
  fp.format_version =
      static_cast<int>(json.Get("formatVersion").int_value());
  if (fp.format_version < 1 || fp.format_version > kFormatVersion) {
    return Status::InvalidArgument(
        "plan manifest formatVersion " + std::to_string(fp.format_version) +
        " is not supported (this build reads up to v" +
        std::to_string(kFormatVersion) + ")");
  }
  if (!json.Get("outputMode").is_string() ||
      !json.Get("numPartitions").is_int() ||
      !json.Get("numStateShards").is_int() ||
      !json.Get("operators").is_array()) {
    return Status::InvalidArgument("plan manifest lacks required fields");
  }
  fp.output_mode = json.Get("outputMode").string_value();
  fp.num_partitions =
      static_cast<int>(json.Get("numPartitions").int_value());
  fp.num_state_shards =
      static_cast<int>(json.Get("numStateShards").int_value());
  for (const Json& wm : json.Get("watermarks").array_items()) {
    if (wm.is_string()) fp.watermarks.push_back(wm.string_value());
  }
  for (const Json& op : json.Get("operators").array_items()) {
    SS_ASSIGN_OR_RETURN(OperatorFingerprint parsed,
                        OperatorFingerprint::FromJson(op));
    fp.operators.push_back(std::move(parsed));
  }
  if (json.Get("planHash").is_string() &&
      json.Get("planHash").string_value() != HashHex(fp.PlanHash())) {
    return Status::InvalidArgument(
        "plan manifest planHash does not match its operators (manifest "
        "edited or corrupted)");
  }
  return fp;
}

namespace {

/// Pre-order fingerprint walk mirroring PathString provenance.
void FingerprintNode(const PlanPtr& plan, std::string path,
                     std::vector<OperatorFingerprint>* out) {
  OperatorFingerprint op;
  op.kind = LogicalPlan::KindName(plan->kind());
  op.path = path.empty() ? op.kind : path + " > " + op.kind;

  switch (plan->kind()) {
    case LogicalPlan::Kind::kAggregate: {
      const auto& node = static_cast<const AggregateNode&>(*plan);
      op.stateful = plan->IsStreaming();
      op.key_schema = KeyList(node.group_exprs());
      std::string aggs;
      for (const AggSpec& spec : node.aggregates()) {
        if (!aggs.empty()) aggs += ", ";
        aggs += spec.ToString();
      }
      op.detail = aggs;
      op.watermark_columns = SortedWatermarks(plan->children()[0]);
      break;
    }
    case LogicalPlan::Kind::kJoin: {
      const auto& node = static_cast<const JoinNode&>(*plan);
      // Only a stream-stream join retains durable state: a static side is
      // rebuilt from its scan every epoch.
      op.stateful = plan->children()[0]->IsStreaming() &&
                    plan->children()[1]->IsStreaming();
      op.key_schema = "l" + JoinKeyList(node.left_keys()) + " = r" +
                      JoinKeyList(node.right_keys());
      op.detail = JoinTypeName(node.join_type());
      op.watermark_columns = SortedWatermarks(plan->children()[0], "l:");
      for (const std::string& wm :
           SortedWatermarks(plan->children()[1], "r:")) {
        op.watermark_columns.push_back(wm);
      }
      break;
    }
    case LogicalPlan::Kind::kDistinct: {
      // Dedup keys on the whole input row; the child schema IS the key.
      op.stateful = plan->IsStreaming();
      const SchemaPtr& child_schema = plan->children()[0]->schema();
      op.key_schema =
          child_schema != nullptr ? child_schema->ToString() : "(?)";
      op.watermark_columns = SortedWatermarks(plan->children()[0]);
      break;
    }
    case LogicalPlan::Kind::kFlatMapGroupsWithState: {
      const auto& node =
          static_cast<const FlatMapGroupsWithStateNode&>(*plan);
      op.stateful = true;
      op.key_schema = KeyList(node.key_exprs());
      // The update function itself cannot be fingerprinted (it is code, and
      // swapping it between restarts is the paper's §7.1 code-update
      // feature) — only the key, timeout clock, and output shape are pinned.
      op.detail = std::string("timeout=") + TimeoutName(node.timeout()) +
                  ", out=" +
                  (node.output_schema() != nullptr
                       ? node.output_schema()->ToString()
                       : "(?)");
      op.watermark_columns = SortedWatermarks(plan->children()[0]);
      break;
    }
    case LogicalPlan::Kind::kWithWatermark: {
      const auto& node = static_cast<const WithWatermarkNode&>(*plan);
      op.detail = node.column() + "@" + std::to_string(node.delay_micros());
      break;
    }
    default:
      break;
  }
  std::string child_path = op.path;
  out->push_back(std::move(op));
  for (const PlanPtr& child : plan->children()) {
    FingerprintNode(child, child_path, out);
  }
}

}  // namespace

PlanFingerprint ComputePlanFingerprint(const PlanPtr& analyzed,
                                       OutputMode mode, int num_partitions,
                                       int num_state_shards) {
  PlanFingerprint fp;
  fp.output_mode = OutputModeName(mode);
  fp.num_partitions = num_partitions;
  fp.num_state_shards = num_state_shards;
  CollectWatermarkDecls(analyzed, &fp.watermarks);
  std::sort(fp.watermarks.begin(), fp.watermarks.end());
  FingerprintNode(analyzed, "", &fp.operators);
  return fp;
}

}  // namespace sstreaming
