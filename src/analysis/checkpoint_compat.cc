#include "analysis/checkpoint_compat.h"

#include <algorithm>
#include <filesystem>
#include <vector>

#include "state/sharded_state_store.h"
#include "storage/fs.h"
#include "testing/failpoints.h"

namespace sstreaming {

namespace {

constexpr char kManifestFile[] = "plan_manifest.json";

Diagnostic CompatDiag(DiagCode code, DiagSeverity severity,
                      std::string message, std::string node = "",
                      std::string path = "") {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.message = std::move(message);
  d.node = std::move(node);
  d.path = std::move(path);
  return d;
}

std::string JoinList(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out.empty() ? "(none)" : out;
}

/// Compares one aligned pair of stateful operators.
void DiffStatefulPair(const OperatorFingerprint& old_op,
                      const OperatorFingerprint& new_op, size_t position,
                      PlanAnalysis* report) {
  const std::string where = "stateful operator #" +
                            std::to_string(position + 1);
  if (old_op.kind != new_op.kind) {
    report->Add(CompatDiag(
        DiagCode::kCheckpointStatefulOpRemoved, DiagSeverity::kError,
        where + " changed kind: checkpoint holds " + old_op.kind +
            " state but the plan now has " + new_op.kind +
            " there; its state cannot be adopted",
        new_op.Render(), new_op.path));
    return;  // further field diffs on mismatched kinds are noise
  }
  if (old_op.key_schema != new_op.key_schema) {
    report->Add(CompatDiag(
        DiagCode::kCheckpointKeySchemaChanged, DiagSeverity::kError,
        where + " (" + old_op.kind + ") changed its state key from " +
            old_op.key_schema + " to " + new_op.key_schema +
            "; checkpointed rows are keyed and routed by the old encoding",
        new_op.Render(), new_op.path));
  }
  if (old_op.detail != new_op.detail) {
    report->Add(CompatDiag(
        DiagCode::kCheckpointStateDetailChanged, DiagSeverity::kError,
        where + " (" + old_op.kind + ") changed its state encoding from [" +
            old_op.detail + "] to [" + new_op.detail +
            "]; checkpointed values would be folded with the wrong "
            "functions",
        new_op.Render(), new_op.path));
  }
  if (old_op.watermark_columns != new_op.watermark_columns) {
    report->Add(CompatDiag(
        DiagCode::kCheckpointWatermarkChanged, DiagSeverity::kWarning,
        where + " (" + old_op.kind + ") is now bounded by watermarks {" +
            JoinList(new_op.watermark_columns) + "} instead of {" +
            JoinList(old_op.watermark_columns) +
            "}; eviction timing changes, state layout does not",
        new_op.Render(), new_op.path));
  }
}

}  // namespace

std::string PlanManifestPath(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/" + kManifestFile;
}

Result<ManifestLoadResult> LoadPlanManifest(
    const std::string& checkpoint_dir) {
  ManifestLoadResult result;
  const std::string path = PlanManifestPath(checkpoint_dir);
  if (!FileExists(path)) return result;
  SS_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  Result<Json> json = Json::Parse(text);
  if (!json.ok()) {
    // Unparseable bytes under the final name = a torn atomic write (crash
    // between publish and durability). Truncate-on-open like the history
    // log: remove it so the new run's manifest replaces it cleanly.
    (void)RemoveFile(path);
    result.torn_repaired = true;
    return result;
  }
  SS_ASSIGN_OR_RETURN(PlanFingerprint fp, PlanFingerprint::FromJson(*json));
  result.fingerprint = std::move(fp);
  return result;
}

Status StorePlanManifest(const std::string& checkpoint_dir,
                         const PlanFingerprint& fingerprint) {
  SS_FAILPOINT("manifest.write");
  SS_RETURN_IF_ERROR(EnsureDir(checkpoint_dir));
  return WriteFileAtomic(PlanManifestPath(checkpoint_dir),
                         fingerprint.ToJson().DumpPretty() + "\n");
}

PlanAnalysis DiffFingerprints(const PlanFingerprint& on_disk,
                              const PlanFingerprint& proposed) {
  PlanAnalysis report;
  if (on_disk.output_mode != proposed.output_mode) {
    report.Add(CompatDiag(
        DiagCode::kCheckpointOutputModeChanged, DiagSeverity::kError,
        "output mode changed from " + on_disk.output_mode + " to " +
            proposed.output_mode +
            "; the sink's contract and the aggregates' emission rules "
            "differ between modes"));
  }
  if (on_disk.num_state_shards != proposed.num_state_shards) {
    report.Add(CompatDiag(
        DiagCode::kCheckpointShardCountChanged, DiagSeverity::kError,
        "num_state_shards changed from " +
            std::to_string(on_disk.num_state_shards) + " to " +
            std::to_string(proposed.num_state_shards) +
            "; durable keys are routed hash % " +
            std::to_string(on_disk.num_state_shards) +
            " (resharding is not supported)"));
  }
  if (on_disk.num_partitions != proposed.num_partitions) {
    report.Add(CompatDiag(
        DiagCode::kCheckpointPartitionCountChanged, DiagSeverity::kError,
        "num_partitions changed from " +
            std::to_string(on_disk.num_partitions) + " to " +
            std::to_string(proposed.num_partitions) +
            "; state directories are laid out per (operator, partition)"));
  }

  std::vector<const OperatorFingerprint*> old_ops = on_disk.StatefulOps();
  std::vector<const OperatorFingerprint*> new_ops = proposed.StatefulOps();
  const size_t common = std::min(old_ops.size(), new_ops.size());
  for (size_t i = 0; i < common; ++i) {
    DiffStatefulPair(*old_ops[i], *new_ops[i], i, &report);
  }
  for (size_t i = common; i < old_ops.size(); ++i) {
    report.Add(CompatDiag(
        DiagCode::kCheckpointStatefulOpRemoved, DiagSeverity::kError,
        "stateful operator #" + std::to_string(i + 1) + " (" +
            old_ops[i]->Render() +
            ") was removed from the plan; its checkpointed state would be "
            "silently orphaned",
        old_ops[i]->Render(), old_ops[i]->path));
  }
  for (size_t i = common; i < new_ops.size(); ++i) {
    report.Add(CompatDiag(
        DiagCode::kCheckpointStatefulOpAdded, DiagSeverity::kWarning,
        "stateful operator #" + std::to_string(i + 1) + " (" +
            new_ops[i]->Render() +
            ") is new; it starts with empty state and will not see rows "
            "from before this restart",
        new_ops[i]->Render(), new_ops[i]->path));
  }

  if (on_disk.watermarks != proposed.watermarks) {
    report.Add(CompatDiag(
        DiagCode::kCheckpointWatermarkChanged, DiagSeverity::kWarning,
        "watermark declarations changed from {" +
            JoinList(on_disk.watermarks) + "} to {" +
            JoinList(proposed.watermarks) +
            "}; lateness bounds shift but checkpointed state stays valid"));
  }

  if (report.diagnostics().empty() &&
      on_disk.PlanHash() != proposed.PlanHash()) {
    report.Add(CompatDiag(
        DiagCode::kCheckpointPlanShapeChanged, DiagSeverity::kWarning,
        "the plan changed shape (stateless operators added, removed, or "
        "edited) but every stateful operator is compatible; recovery "
        "proceeds against the existing state"));
  }
  return report;
}

Result<CompatCheck> CheckCheckpointCompatibility(
    const std::string& checkpoint_dir, const PlanFingerprint& proposed) {
  CompatCheck check;
  auto loaded = LoadPlanManifest(checkpoint_dir);
  if (!loaded.ok()) {
    if (!loaded.status().IsInvalidArgument()) return loaded.status();
    // Parseable-but-invalid: real corruption or a manifest from a newer
    // build, never a torn write. Surface it as a blocking diagnostic the
    // override flag can still force past.
    check.had_manifest = true;
    check.analysis.Add(CompatDiag(
        DiagCode::kCheckpointManifestCorrupt, DiagSeverity::kError,
        "checkpoint manifest at " + PlanManifestPath(checkpoint_dir) +
            " is invalid: " + loaded.status().message()));
    return check;
  }
  if (loaded->torn_repaired) {
    check.analysis.Add(CompatDiag(
        DiagCode::kCheckpointManifestTorn, DiagSeverity::kWarning,
        "checkpoint manifest at " + PlanManifestPath(checkpoint_dir) +
            " was torn (crash during write); it was truncated away and "
            "will be rewritten — this start is not compatibility-checked"));
    return check;
  }
  if (!loaded->fingerprint.has_value()) return check;  // fresh checkpoint
  check.had_manifest = true;
  check.analysis = DiffFingerprints(*loaded->fingerprint, proposed);
  return check;
}

Result<PlanAnalysis> LintCheckpoint(const std::string& checkpoint_dir,
                                    const PlanFingerprint* against) {
  if (!FileExists(checkpoint_dir)) {
    return Status::NotFound("no checkpoint directory at " + checkpoint_dir);
  }
  PlanAnalysis report;
  auto loaded = LoadPlanManifest(checkpoint_dir);
  if (!loaded.ok()) {
    if (!loaded.status().IsInvalidArgument()) return loaded.status();
    report.Add(CompatDiag(
        DiagCode::kCheckpointManifestCorrupt, DiagSeverity::kError,
        "checkpoint manifest at " + PlanManifestPath(checkpoint_dir) +
            " is invalid: " + loaded.status().message()));
    return report;
  }
  if (loaded->torn_repaired) {
    report.Add(CompatDiag(
        DiagCode::kCheckpointManifestTorn, DiagSeverity::kWarning,
        "checkpoint manifest at " + PlanManifestPath(checkpoint_dir) +
            " was torn (crash during write); it has been truncated away"));
    return report;
  }
  if (!loaded->fingerprint.has_value()) {
    return Status::NotFound("checkpoint at " + checkpoint_dir +
                            " has no plan manifest (written by runs of "
                            "this version at query start)");
  }
  const PlanFingerprint& manifest = *loaded->fingerprint;

  // Cross-check the manifest's shard count against every SHARDS meta file
  // the state tree actually holds (layout: state/op<N>/p<M>/SHARDS).
  std::error_code ec;
  const std::string state_root = checkpoint_dir + "/state";
  for (const auto& op_entry :
       std::filesystem::directory_iterator(state_root, ec)) {
    if (!op_entry.is_directory()) continue;
    std::error_code ec2;
    for (const auto& part_entry :
         std::filesystem::directory_iterator(op_entry.path(), ec2)) {
      if (!part_entry.is_directory()) continue;
      const std::string part_dir = part_entry.path().string();
      if (!FileExists(part_dir + "/SHARDS")) continue;
      SS_ASSIGN_OR_RETURN(const int on_disk,
                          ShardedStateStore::ReadShardCount(part_dir));
      if (on_disk != manifest.num_state_shards) {
        report.Add(CompatDiag(
            DiagCode::kCheckpointShardCountChanged, DiagSeverity::kError,
            "state at " + part_entry.path().string() + " is laid out with " +
                std::to_string(on_disk) +
                " shards but the manifest records " +
                std::to_string(manifest.num_state_shards)));
      }
    }
  }

  if (against != nullptr) {
    PlanAnalysis diff = DiffFingerprints(manifest, *against);
    for (const Diagnostic& d : diff.diagnostics()) report.Add(d);
  }
  return report;
}

}  // namespace sstreaming
