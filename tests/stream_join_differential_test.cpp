// Randomized differential: a stream-stream join's output, epoch by epoch,
// against a nested-loop join over the input prefix written here. Each case
// draws, from one seeded Random, multi-epoch input for both sides keyed by
// an int64, string or float64 column with NULLs, hot keys and (float64)
// -0.0, 0.0 and NaN, and runs it as an inner, left-outer and right-outer
// join, with a USING key and with explicit keys, the right columns named
// like left ones coming out renamed `<name>_r`. Every run shape runs each case: 1 and 3 state shards,
// on the inline scheduler (inline grain) and on an 8-thread pool over 2
// partitions (split grain), with one crash mid-run (an injected
// `state.shard.append` failure) and a restart that replays the failed epoch
// from the write-ahead log.
//
// No side ever evicts: the inner join has no watermark, and the outer joins
// (which need one, SS1004) delay it past every event time. So each epoch's
// expected rows are the matched pairs with at least one row from that
// epoch, for every join type. Keys match when neither is NULL and their
// encoded bytes are equal: the stream-stream join's documented key rule,
// under which -0.0 never meets 0.0 (JoinTest.NumericKeysMatchAcrossTypes).
// A failure names the case's seed, join and run shape.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "connectors/memory.h"
#include "exec/streaming_query.h"
#include "runtime/scheduler.h"
#include "storage/fs.h"
#include "testing/failpoints.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;
constexpr int kEpochs = 6;

/// Each committed epoch's rows, by epoch id. A recovery replay may commit an
/// epoch again; it must deliver the same rows.
class EpochSink : public Sink {
 public:
  bool SupportsMode(OutputMode mode) const override {
    return mode == OutputMode::kAppend;
  }
  Status CommitEpoch(int64_t epoch, OutputMode, int,
                     const std::vector<RecordBatchPtr>& batches) override {
    std::vector<Row> rows;
    for (const RecordBatchPtr& batch : batches) {
      for (Row& row : batch->ToRows()) rows.push_back(std::move(row));
    }
    auto it = epochs_.find(epoch);
    if (it != epochs_.end() && Encoded(it->second) != Encoded(rows)) {
      ++redelivery_mismatches_;
    }
    epochs_[epoch] = std::move(rows);
    return Status::OK();
  }

  static std::multiset<std::string> Encoded(const std::vector<Row>& rows) {
    std::multiset<std::string> out;
    for (const Row& row : rows) {
      std::string enc;
      EncodeRow(row, &enc);
      out.insert(std::move(enc));
    }
    return out;
  }

  const std::map<int64_t, std::vector<Row>>& epochs() const {
    return epochs_;
  }
  int redelivery_mismatches() const { return redelivery_mismatches_; }

 private:
  std::map<int64_t, std::vector<Row>> epochs_;
  int redelivery_mismatches_ = 0;
};

/// A random key of `type`: NULL one time in ten, a hot key three times in
/// ten, else one of a small domain, so keys repeat within and across
/// epochs. Doubles include -0.0, 0.0 and NaN (one NaN bit pattern).
Value RandomKey(Random* rng, TypeId type) {
  if (rng->OneIn(0.1)) return Value::Null();
  const bool hot = rng->OneIn(0.3);
  const int64_t n = hot ? 1 : static_cast<int64_t>(rng->Uniform(6));
  switch (type) {
    case TypeId::kInt64:
      return Value::Int64(n);
    case TypeId::kString:
      return Value::Str(std::string(1 + static_cast<size_t>(n), 'k'));
    default: {
      const double domain[] = {-0.0, 1.5,
                               std::numeric_limits<double>::quiet_NaN(), 0.0,
                               -3.0, 4.0};
      return Value::Float64(domain[n]);
    }
  }
}

/// Rows (k, v, t): a random key, a unique id and an event time in epoch e.
std::vector<Row> RandomRows(Random* rng, TypeId key_type, int e,
                            int64_t* next_id) {
  std::vector<Row> rows;
  const int n = static_cast<int>(rng->Uniform(25));
  for (int i = 0; i < n; ++i) {
    rows.push_back({RandomKey(rng, key_type), Value::Int64((*next_id)++),
                    Value::Timestamp((e * 10 + static_cast<int64_t>(
                                                   rng->Uniform(10))) *
                                     kSec)});
  }
  return rows;
}

bool KeysMatch(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  std::string x;
  std::string y;
  a.EncodeTo(&x);
  b.EncodeTo(&y);
  return x == y;
}

/// The joined row of `l` and `r`: every left column, then every right
/// column but the key when the key is a USING key.
Row Joined(const Row& l, const Row& r, bool using_key) {
  Row out = l;
  for (size_t i = using_key ? 1 : 0; i < r.size(); ++i) out.push_back(r[i]);
  return out;
}

/// The pairs of `left` x `right` that match on column 0.
void NestedLoop(const std::vector<Row>& left, const std::vector<Row>& right,
                bool using_key, std::vector<Row>* out) {
  for (const Row& l : left) {
    for (const Row& r : right) {
      if (KeysMatch(l[0], r[0])) out->push_back(Joined(l, r, using_key));
    }
  }
}

struct RunShape {
  int shards;
  bool pool;
};

struct Case {
  TypeId key_type;
  bool using_key;
  JoinType type;
};

std::string Describe(const Case& c, const RunShape& shape) {
  return std::string(TypeName(c.key_type)) + " key, " +
         (c.using_key ? "USING" : "explicit keys") + ", " +
         JoinTypeName(c.type) + ", " + std::to_string(shape.shards) +
         " shards, " + (shape.pool ? "8-thread pool" : "inline");
}

/// Runs one case on one run shape and compares every epoch's output with
/// the nested-loop join. The inputs come from `seed`, so every run shape
/// sees the same rows. Counts into `crashes` the runs whose injected
/// failure fired (an epoch with fewer state appends than the armed hit
/// runs through).
void RunCase(uint64_t seed, const Case& c, const RunShape& shape,
             TaskScheduler* pool, int* crashes) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ": " + Describe(c, shape));
  Random rng(seed);
  // Explicit keys name the right key `rk`: a same-named key pair is one
  // output column, like a USING key. The other right columns come out
  // renamed `v_r` and `t_r` either way.
  auto schema = [&](const char* key) {
    return Schema::Make({{key, c.key_type, true},
                         {"v", TypeId::kInt64, false},
                         {"t", TypeId::kTimestamp, false}});
  };
  auto left = std::make_shared<MemoryStream>("left", schema("k"), 2);
  auto right = std::make_shared<MemoryStream>(
      "right", schema(c.using_key ? "k" : "rk"), 2);
  DataFrame ls = DataFrame::ReadStream(left);
  DataFrame rs = DataFrame::ReadStream(right);
  if (c.type != JoinType::kInner) {
    // A delay past every event time: declared, never evicting.
    ls = ls.WithWatermark("t", 1000000 * kSec);
    rs = rs.WithWatermark("t", 1000000 * kSec);
  }
  DataFrame df = c.using_key ? ls.Join(rs, {"k"}, c.type)
                             : ls.Join(rs, {Col("k")}, {Col("rk")}, c.type);

  auto dir = MakeTempDir("stream_join_diff");
  ASSERT_TRUE(dir.ok());
  auto sink = std::make_shared<EpochSink>();
  QueryOptions opts;
  opts.mode = OutputMode::kAppend;
  opts.num_partitions = 2;
  opts.num_state_shards = shape.shards;
  opts.checkpoint_dir = *dir;
  // Sparse state checkpoints: the restart restores shards and replays the
  // epochs after the last one from the log.
  opts.state_checkpoint_interval = 2;
  opts.enable_tracing = false;
  opts.scheduler = shape.pool ? pool : nullptr;
  auto query = StreamingQuery::Start(df, sink, opts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  const int crash_epoch = 1 + static_cast<int>(rng.Uniform(kEpochs - 2));
  std::vector<Row> left_prefix;
  std::vector<Row> right_prefix;
  int64_t next_id = 0;
  int64_t seen_epoch = -1;
  for (int e = 0; e < kEpochs; ++e) {
    std::vector<Row> lrows = RandomRows(&rng, c.key_type, e, &next_id);
    std::vector<Row> rrows = RandomRows(&rng, c.key_type, e, &next_id);
    if (!lrows.empty()) {
      ASSERT_TRUE(left->AddData(lrows).ok());
    }
    if (!rrows.empty()) {
      ASSERT_TRUE(right->AddData(rrows).ok());
    }
    if (e == crash_epoch) {
      // Fail one state append of this epoch, then restart: the epoch is
      // replayed from the log into the same sink.
      FailpointSpec spec;
      spec.hit = 1 + static_cast<int>(rng.Uniform(8));
      ASSERT_TRUE(
          Failpoints::Instance().Arm("state.shard.append", spec).ok());
      if (!(*query)->ProcessAllAvailable().ok()) ++*crashes;
      Failpoints::Instance().DisarmAll();
      query->reset();
      query = StreamingQuery::Start(df, sink, opts);
      ASSERT_TRUE(query.ok()) << query.status().ToString();
    }
    Status st = (*query)->ProcessAllAvailable();
    ASSERT_TRUE(st.ok()) << st.ToString();

    // This epoch's pairs: its left rows against the right prefix including
    // its own right rows, and the earlier left rows against its right rows.
    std::vector<Row> want;
    right_prefix.insert(right_prefix.end(), rrows.begin(), rrows.end());
    NestedLoop(lrows, right_prefix, c.using_key, &want);
    NestedLoop(left_prefix, rrows, c.using_key, &want);
    left_prefix.insert(left_prefix.end(), lrows.begin(), lrows.end());

    std::vector<Row> got;
    for (const auto& [epoch, rows] : sink->epochs()) {
      if (epoch <= seen_epoch) continue;
      got.insert(got.end(), rows.begin(), rows.end());
      seen_epoch = epoch;
    }
    ASSERT_EQ(EpochSink::Encoded(got), EpochSink::Encoded(want))
        << "epoch " << e << ": " << got.size() << " rows, expected "
        << want.size();
  }
  EXPECT_EQ(sink->redelivery_mismatches(), 0);
  (*query)->Stop();
  query->reset();
  RemoveDirRecursive(*dir).ok();
}

class StreamJoinDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { Failpoints::Instance().DisarmAll(); }
};

TEST_P(StreamJoinDifferentialTest, EpochOutputMatchesNestedLoopOverPrefix) {
  PoolScheduler pool(8);
  const RunShape shapes[] = {{1, false}, {3, false}, {1, true}, {3, true}};
  Random cases(static_cast<uint64_t>(GetParam()));
  int crashes = 0;
  for (TypeId key_type : {TypeId::kInt64, TypeId::kString, TypeId::kFloat64}) {
    for (bool using_key : {true, false}) {
      for (JoinType type :
           {JoinType::kInner, JoinType::kLeftOuter, JoinType::kRightOuter}) {
        const uint64_t seed = cases.Next();
        for (const RunShape& shape : shapes) {
          RunCase(seed, {key_type, using_key, type}, shape, &pool, &crashes);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(crashes, 0) << "no injected failure fired";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamJoinDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sstreaming
