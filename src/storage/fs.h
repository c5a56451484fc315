#ifndef SSTREAMING_STORAGE_FS_H_
#define SSTREAMING_STORAGE_FS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sstreaming {

/// Durable-directory primitives used by the write-ahead log and state store.
/// Stands in for HDFS/S3 in the paper (§6.1): the engine only requires
/// durable, atomically-visible file writes, which we provide via
/// write-to-temp + rename.

/// Creates `path` (and parents) if absent.
Status EnsureDir(const std::string& path);

/// Atomically creates/replaces `path` with `data`: temp file → fsync →
/// rename → parent-directory fsync. The temp file's data is durable before
/// the rename publishes the name, so a crash never exposes a partially
/// written file under its final name, and the directory fsync makes the
/// entry itself survive power failure. Every failure before the rename
/// removes the temp file. Failpoint seams, in order: "fs.open",
/// "fs.write.torn", "fs.write", "fs.rename", "fs.dirsync".
Status WriteFileAtomic(const std::string& path, const std::string& data);

/// Reads the whole file.
Result<std::string> ReadFile(const std::string& path);

/// Names (not paths) of regular files directly under `path`, sorted.
Result<std::vector<std::string>> ListDir(const std::string& path);

bool FileExists(const std::string& path);

Status RemoveFile(const std::string& path);

/// Recursively removes `path` if it exists.
Status RemoveDirRecursive(const std::string& path);

/// Parses a decimal number out of a durable name: the index in a state
/// directory name (`op<N>`, `p<M>`, `s<K>`), a version file's stem, or the
/// SHARDS count. Accepts digits only (no sign, space or trailing text) and
/// values up to `max`; anything else, overflow included, is nullopt, so a
/// caller can skip a stray name instead of misreading it.
std::optional<int64_t> ParseDecimal(std::string_view text,
                                    int64_t max = INT64_MAX);

/// Creates a fresh unique temp directory for tests/examples.
Result<std::string> MakeTempDir(const std::string& prefix);

}  // namespace sstreaming

#endif  // SSTREAMING_STORAGE_FS_H_
