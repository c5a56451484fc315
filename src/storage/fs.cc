#include "storage/fs.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "testing/failpoints.h"

namespace sstreaming {

namespace fs = std::filesystem;

Status EnsureDir(const std::string& path) {
  SS_FAILPOINT("fs.ensure_dir");
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IOError("create_directories(" + path + "): " +
                           ec.message());
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, const std::string& data) {
  SS_FAILPOINT("fs.open");
  // Torn-write injection: models a filesystem that publishes the file name
  // before all data blocks are durable (a crash between write and fsync on
  // a real FS). The caller sees a failure — the "process" died — but a
  // truncated file is left visible under the final name for recovery code
  // to cope with.
  static FailpointSite torn_site("fs.write.torn");
  const bool torn =
      torn_site.armed() && Failpoints::Instance().EvaluateTorn(&torn_site);
  const size_t write_len = torn ? data.size() / 2 : data.size();

  static std::atomic<uint64_t> counter{0};
  std::string tmp = path + ".tmp." + std::to_string(counter.fetch_add(1));
  auto cleanup_tmp = [&tmp] {
    std::error_code ec;
    fs::remove(tmp, ec);
  };
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError("cannot open temp file " + tmp);
  // write() may stop short (signals, quotas): loop until every byte is
  // down, then fsync so the data is durable before the rename publishes
  // the name.
  const char* p = data.data();
  size_t left = write_len;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      cleanup_tmp();
      return Status::IOError("short write to " + tmp);
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    cleanup_tmp();
    return Status::IOError("fsync of " + tmp + " failed");
  }
  {
    // Injected write/sync failure: the temp file must not leak.
    static FailpointSite write_site("fs.write");
    if (write_site.armed()) {
      Status s = Failpoints::Instance().Evaluate(&write_site);
      if (!s.ok()) {
        cleanup_tmp();
        return s;
      }
    }
  }
  {
    static FailpointSite rename_site("fs.rename");
    if (rename_site.armed()) {
      Status s = Failpoints::Instance().Evaluate(&rename_site);
      if (!s.ok()) {
        cleanup_tmp();
        return s;
      }
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    cleanup_tmp();
    return Status::IOError("rename to " + path + " failed");
  }
  // The rename publishes the name, but only an fsync of the parent
  // directory makes the directory entry itself durable — without it a
  // power failure can forget small single-write files (manifest, SHARDS
  // meta) that no later append would resurrect.
  {
    static FailpointSite dirsync_site("fs.dirsync");
    if (dirsync_site.armed()) {
      Status s = Failpoints::Instance().Evaluate(&dirsync_site);
      if (!s.ok()) return s;  // file is visible; only durability was lost
    }
  }
  const fs::path parent_dir = fs::path(path).parent_path();
  const std::string parent =
      parent_dir.empty() ? std::string(".") : parent_dir.string();
  int dir_fd = ::open(parent.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    // Surface fsync failures (a dying disk), but tolerate filesystems that
    // refuse to open directories at all.
    int rc = ::fsync(dir_fd);
    ::close(dir_fd);
    if (rc != 0) {
      return Status::IOError("fsync of directory " + parent + " failed");
    }
  }
  if (torn) {
    return Status::IOError("failpoint: fs.write.torn (injected torn write to " +
                           path + ")");
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  SS_FAILPOINT("fs.read");
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in.good() && !in.eof()) return Status::IOError("read error on " + path);
  return ss.str();
}

Result<std::vector<std::string>> ListDir(const std::string& path) {
  SS_FAILPOINT("fs.list");
  std::error_code ec;
  std::vector<std::string> names;
  fs::directory_iterator it(path, ec);
  if (ec) return Status::IOError("cannot list " + path + ": " + ec.message());
  for (const auto& entry : fs::directory_iterator(path)) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

Status RemoveFile(const std::string& path) {
  SS_FAILPOINT("fs.remove");
  std::error_code ec;
  if (!fs::remove(path, ec) || ec) {
    return Status::IOError("cannot remove " + path);
  }
  return Status::OK();
}

Status RemoveDirRecursive(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) return Status::IOError("cannot remove " + path + ": " + ec.message());
  return Status::OK();
}

std::optional<int64_t> ParseDecimal(std::string_view text, int64_t max) {
  // from_chars on an unsigned type takes no sign and no leading space.
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v > static_cast<uint64_t>(max)) {
    return std::nullopt;
  }
  return static_cast<int64_t>(v);
}

Result<std::string> MakeTempDir(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  std::string base = fs::temp_directory_path().string();
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string path = base + "/" + prefix + "." +
                       std::to_string(::getpid()) + "." +
                       std::to_string(counter.fetch_add(1));
    std::error_code ec;
    if (fs::create_directories(path, ec) && !ec) return path;
  }
  return Status::IOError("cannot create temp dir with prefix " + prefix);
}

}  // namespace sstreaming
