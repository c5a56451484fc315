// The aggregate's checkpoint bytes, pinned: tests/golden/agg_state/ holds
// the checkpoint a windowed update-mode aggregate wrote when each group's
// state was still a boxed Row, encoded with EncodeRow. The query computes
// count(*), count, sum, min, max and avg over int64, float64, timestamp and
// string columns whose values include nulls, NaN, -0.0 and int64 sums that
// wrap around, on 2 partitions x 2 state shards with a snapshot every 2
// epochs, and a watermark that evicts closed windows.
//
// RewritesGoldenStateTree runs the same epochs into a fresh checkpoint and
// requires the state tree (every .delta, .snapshot and SHARDS file) to be
// byte-identical to the golden one, file by file. RestoresGoldenCheckpoint
// restarts the query from a copy of the golden checkpoint and requires the
// output of the epochs after the restart to be that of an uninterrupted run.
//
// To rewrite the golden tree on purpose, run this test with
// SSTREAMING_WRITE_AGG_GOLDEN=1 from a build that still passes, and say so.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "logical/dataframe.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kSec = 1000000;
constexpr int kEpochs = 8;
constexpr int kRestartAfter = 5;

std::string GoldenDir() {
  return std::string(SSTREAMING_SOURCE_DIR) + "/tests/golden/agg_state";
}

SchemaPtr EventSchema() {
  return Schema::Make({{"g", TypeId::kString, true},
                       {"t", TypeId::kTimestamp, false},
                       {"i", TypeId::kInt64, true},
                       {"d", TypeId::kFloat64, true},
                       {"s", TypeId::kString, true}});
}

// Epoch e's rows: deterministic, with nulls, NaN, -0.0 and 0.0, the int64
// extremes, and event times that move the watermark past early windows.
std::vector<Row> EpochRows(int e) {
  const double doubles[] = {0.0, -0.0, std::numeric_limits<double>::quiet_NaN(),
                            1.25, -7.5, 1e300};
  const int64_t ints[] = {std::numeric_limits<int64_t>::max(), 5, -3,
                          std::numeric_limits<int64_t>::min(), 1};
  std::vector<Row> rows;
  for (int r = 0; r < 24; ++r) {
    const int k = e * 31 + r * 7;
    Row row;
    row.push_back(k % 5 == 0 ? Value::Null()
                             : Value::Str(std::string(1, 'a' + k % 3)));
    row.push_back(Value::Timestamp((e * 8 + r % 12) * kSec));
    row.push_back(k % 6 == 0 ? Value::Null() : Value::Int64(ints[k % 5]));
    row.push_back(k % 7 == 0 ? Value::Null() : Value::Float64(doubles[k % 6]));
    row.push_back(k % 4 == 0 ? Value::Null()
                             : Value::Str(k % 9 == 0
                                              ? std::string()
                                              : std::string("s") +
                                                    std::to_string(k % 11)));
    rows.push_back(std::move(row));
  }
  return rows;
}

DataFrame Query(SourcePtr source) {
  return DataFrame::ReadStream(std::move(source))
      .WithWatermark("t", 15 * kSec)
      .GroupBy({As(TumblingWindow(Col("t"), 10 * kSec), "window"),
                As(Col("g"), "g")})
      .Agg({CountAll("n"), CountOf(Col("i"), "n_i"), CountOf(Col("s"), "n_s"),
            SumOf(Col("i"), "sum_i"), SumOf(Col("d"), "sum_d"),
            SumOf(Col("t"), "sum_t"), MinOf(Col("i"), "min_i"),
            MaxOf(Col("i"), "max_i"), MinOf(Col("d"), "min_d"),
            MaxOf(Col("d"), "max_d"), MinOf(Col("t"), "min_t"),
            MaxOf(Col("t"), "max_t"), MinOf(Col("s"), "min_s"),
            MaxOf(Col("s"), "max_s"), AvgOf(Col("i"), "avg_i"),
            AvgOf(Col("d"), "avg_d")});
}

QueryOptions Options(const std::string& dir) {
  QueryOptions opts;
  opts.mode = OutputMode::kUpdate;
  opts.checkpoint_dir = dir;
  opts.num_partitions = 2;
  opts.num_state_shards = 2;
  opts.state_options.snapshot_interval = 2;
  return opts;
}

// Starts the query on checkpoint `dir`, adds epochs [first, last] of
// EpochRows to `source` with a trigger after each, and returns the sink's
// rows as encoded bytes.
std::vector<std::string> RunEpochs(const std::string& dir,
                                   const std::shared_ptr<MemoryStream>& source,
                                   int first, int last) {
  auto sink = std::make_shared<MemorySink>();
  auto query = StreamingQuery::Start(Query(source), sink, Options(dir));
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  if (!query.ok()) return {};
  // Recovery first re-runs whatever the log holds past the last commit.
  EXPECT_TRUE((*query)->ProcessAllAvailable().ok());
  std::vector<std::string> out;
  for (int e = first; e <= last; ++e) {
    EXPECT_TRUE(source->AddData(EpochRows(e)).ok());
    EXPECT_TRUE((*query)->ProcessAllAvailable().ok());
  }
  for (const Row& row : sink->Snapshot()) {
    std::string enc;
    EncodeRow(row, &enc);
    out.push_back(std::move(enc));
  }
  (*query)->Stop();
  return out;
}

// Relative path -> bytes of every file under `root`/state.
std::map<std::string, std::string> StateTree(const std::string& root) {
  std::map<std::string, std::string> files;
  const fs::path state = fs::path(root) / "state";
  for (const auto& entry : fs::recursive_directory_iterator(state)) {
    if (!entry.is_regular_file()) continue;
    files[fs::relative(entry.path(), state).string()] =
        ReadFile(entry.path().string()).TakeValue();
  }
  return files;
}

class AggStateGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = MakeTempDir("sstreaming_agg_golden").TakeValue();
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }

  std::string dir_;
};

TEST_F(AggStateGoldenTest, RewritesGoldenStateTree) {
  const std::string ckpt = dir_ + "/ckpt";
  auto source = std::make_shared<MemoryStream>("events", EventSchema(), 2);
  RunEpochs(ckpt, source, 1, kRestartAfter);
  const std::map<std::string, std::string> written = StateTree(ckpt);
  if (std::getenv("SSTREAMING_WRITE_AGG_GOLDEN") != nullptr) {
    fs::remove_all(GoldenDir());
    fs::copy(ckpt, GoldenDir(), fs::copy_options::recursive);
    fs::remove_all(GoldenDir() + "/_history");  // wall-clock event log
    GTEST_SKIP() << "wrote " << GoldenDir();
  }
  const std::map<std::string, std::string> golden = StateTree(GoldenDir());
  ASSERT_FALSE(golden.empty());
  std::vector<std::string> written_names;
  std::vector<std::string> golden_names;
  for (const auto& [name, bytes] : written) written_names.push_back(name);
  for (const auto& [name, bytes] : golden) golden_names.push_back(name);
  ASSERT_EQ(written_names, golden_names);
  for (const auto& [name, bytes] : golden) {
    EXPECT_EQ(written.at(name), bytes) << name;
  }
}

TEST_F(AggStateGoldenTest, RestoresGoldenCheckpoint) {
  // An uninterrupted run of every epoch.
  auto straight = std::make_shared<MemoryStream>("events", EventSchema(), 2);
  const std::vector<std::string> want =
      RunEpochs(dir_ + "/straight", straight, 1, kEpochs);
  ASSERT_FALSE(want.empty());

  // The golden checkpoint, restarted over a source that holds the first
  // epochs' data, then fed the rest.
  const std::string ckpt = dir_ + "/restored";
  fs::copy(GoldenDir(), ckpt, fs::copy_options::recursive);
  auto source = std::make_shared<MemoryStream>("events", EventSchema(), 2);
  for (int e = 1; e <= kRestartAfter; ++e) {
    ASSERT_TRUE(source->AddData(EpochRows(e)).ok());
  }
  const std::vector<std::string> got =
      RunEpochs(ckpt, source, kRestartAfter + 1, kEpochs);
  // The restarted sink starts empty: it holds the groups the later epochs
  // touched, each as the uninterrupted run last upserted it.
  ASSERT_FALSE(got.empty());
  for (const std::string& row : got) {
    EXPECT_NE(std::find(want.begin(), want.end(), row), want.end());
  }
}

}  // namespace
}  // namespace sstreaming
