#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "connectors/bus_connectors.h"
#include "connectors/file_connectors.h"
#include "connectors/memory.h"
#include "connectors/rate_source.h"
#include "storage/fs.h"

namespace sstreaming {
namespace {

SchemaPtr TwoColSchema() {
  return Schema::Make(
      {{"k", TypeId::kString, true}, {"v", TypeId::kInt64, true}});
}

TEST(MemoryStreamTest, RoundRobinContinuesAcrossCalls) {
  MemoryStream s("m", TwoColSchema(), 3);
  auto row = [](int64_t v) { return Row{Value::Str("k"), Value::Int64(v)}; };
  ASSERT_TRUE(s.AddData({row(0), row(1)}).ok());
  ASSERT_TRUE(s.AddData({row(2), row(3), row(4), row(5)}).ok());
  EXPECT_EQ(*s.LatestOffsets(), (std::vector<int64_t>{2, 2, 2}));
  for (int p = 0; p < 3; ++p) {
    auto batch = s.ReadPartition(p, 0, 2);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ((*batch)->RowAt(0)[1], Value::Int64(p));
    EXPECT_EQ((*batch)->RowAt(1)[1], Value::Int64(p + 3));
  }
}

TEST(MemoryStreamTest, AddDataChecksTypesAgainstTheSchema) {
  MemoryStream s("m",
                 Schema::Make({{"x", TypeId::kFloat64, true},
                               {"t", TypeId::kTimestamp, true}}),
                 1);
  // Widening int64 -> float64 and int64 -> timestamp, as RecordBatch::FromRows.
  ASSERT_TRUE(s.AddData({{Value::Int64(2), Value::Int64(5)}}).ok());
  EXPECT_EQ(s.AddData({{Value::Float64(1.0), Value::Int64(1)},
                       {Value::Str("no"), Value::Null()}})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*s.LatestOffsets())[0], 1);
  auto batch = s.ReadPartition(0, 0, 1);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)->RowAt(0)[0], Value::Float64(2.0));
  EXPECT_EQ((*batch)->RowAt(0)[1], Value::Timestamp(5));
}

TEST(MemoryStreamTest, RoundRobinAcrossPartitions) {
  MemoryStream s("m", TwoColSchema(), 2);
  ASSERT_TRUE(s.AddData({{Value::Str("a"), Value::Int64(1)},
                         {Value::Str("b"), Value::Int64(2)},
                         {Value::Str("c"), Value::Int64(3)}})
                  .ok());
  auto offsets = s.LatestOffsets();
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ((*offsets)[0], 2);
  EXPECT_EQ((*offsets)[1], 1);
  auto batch = s.ReadPartition(0, 0, 2);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)->num_rows(), 2);
  EXPECT_EQ((*batch)->RowAt(0)[0], Value::Str("a"));
  EXPECT_EQ((*batch)->RowAt(1)[0], Value::Str("c"));
}

// MemoryStream keeps its ingest stamps in the PartitionLog runs: rows
// added before a clock is set are undated, and each AddData stamps its
// rows alike.
TEST(MemoryStreamTest, OldestIngestMicrosOverRuns) {
  MemoryStream s("m", TwoColSchema(), 1);
  auto rows = [](int n) {
    return std::vector<Row>(n, Row{Value::Str("k"), Value::Int64(1)});
  };
  ASSERT_TRUE(s.AddData(rows(2)).ok());  // [0, 2) undated
  ManualClock clock(500);
  s.set_ingest_clock(&clock);
  ASSERT_TRUE(s.AddData(rows(3)).ok());  // [2, 5) at 500
  ASSERT_TRUE(s.AddData(rows(1)).ok());  // [5, 6) at 500: the same run
  clock.AdvanceMicros(-300);
  ASSERT_TRUE(s.AddData(rows(2)).ok());  // [6, 8) at 200
  EXPECT_EQ(s.OldestIngestMicros(0, 0, 2), 0);
  EXPECT_EQ(s.OldestIngestMicros(0, 0, 3), 500);
  EXPECT_EQ(s.OldestIngestMicros(0, 4, 6), 500);
  EXPECT_EQ(s.OldestIngestMicros(0, 3, 7), 200);
  EXPECT_EQ(s.OldestIngestMicros(0, 7, 100), 200);  // clamped end
  EXPECT_EQ(s.OldestIngestMicros(0, 8, 9), 0);      // past the end
  EXPECT_EQ(s.OldestIngestMicros(0, 3, 3), 0);  // empty range
  EXPECT_EQ(s.OldestIngestMicros(1, 0, 8), 0);  // no such partition
}

TEST(MemoryStreamTest, ArityChecked) {
  MemoryStream s("m", TwoColSchema(), 1);
  EXPECT_FALSE(s.AddData({{Value::Str("a")}}).ok());
}

TEST(MemorySinkTest, AppendIdempotentByEpoch) {
  MemorySink sink;
  auto batch = RecordBatch::FromRows(TwoColSchema(),
                                     {{Value::Str("a"), Value::Int64(1)}})
                   .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kAppend, 0, {batch}).ok());
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kAppend, 0, {batch}).ok());
  EXPECT_EQ(sink.Snapshot().size(), 1u) << "re-commit must not duplicate";
}

TEST(MemorySinkTest, UpdateUpsertsByKey) {
  MemorySink sink;
  auto b1 = RecordBatch::FromRows(TwoColSchema(),
                                  {{Value::Str("a"), Value::Int64(1)},
                                   {Value::Str("b"), Value::Int64(1)}})
                .TakeValue();
  auto b2 = RecordBatch::FromRows(TwoColSchema(),
                                  {{Value::Str("a"), Value::Int64(5)}})
                .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kUpdate, 1, {b1}).ok());
  ASSERT_TRUE(sink.CommitEpoch(2, OutputMode::kUpdate, 1, {b2}).ok());
  auto rows = sink.SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Value::Int64(5));  // a upserted
  EXPECT_EQ(rows[1][1], Value::Int64(1));  // b unchanged
}

TEST(MemorySinkTest, UpdateRequiresKeys) {
  MemorySink sink;
  auto b = RecordBatch::FromRows(TwoColSchema(),
                                 {{Value::Str("a"), Value::Int64(1)}})
               .TakeValue();
  EXPECT_FALSE(sink.CommitEpoch(1, OutputMode::kUpdate, 0, {b}).ok());
}

TEST(MemorySinkTest, CompleteReplacesTable) {
  MemorySink sink;
  auto b1 = RecordBatch::FromRows(TwoColSchema(),
                                  {{Value::Str("a"), Value::Int64(1)},
                                   {Value::Str("b"), Value::Int64(2)}})
                .TakeValue();
  auto b2 = RecordBatch::FromRows(TwoColSchema(),
                                  {{Value::Str("a"), Value::Int64(9)}})
                .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kComplete, 0, {b1}).ok());
  ASSERT_TRUE(sink.CommitEpoch(2, OutputMode::kComplete, 0, {b2}).ok());
  EXPECT_EQ(sink.Snapshot().size(), 1u);
  // Stale re-commit of epoch 1 (recovery) does not clobber epoch 2.
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kComplete, 0, {b1}).ok());
  EXPECT_EQ(sink.Snapshot().size(), 1u);
  EXPECT_EQ(sink.last_committed_epoch(), 2);
}

TEST(MemorySinkTest, UpdateIgnoresStaleRecommit) {
  MemorySink sink;
  auto b1 = RecordBatch::FromRows(TwoColSchema(),
                                  {{Value::Str("a"), Value::Int64(1)},
                                   {Value::Str("b"), Value::Int64(2)}})
                .TakeValue();
  auto b2 = RecordBatch::FromRows(TwoColSchema(),
                                  {{Value::Str("a"), Value::Int64(9)}})
                .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kUpdate, 1, {b1}).ok());
  ASSERT_TRUE(sink.CommitEpoch(2, OutputMode::kUpdate, 1, {b2}).ok());
  // Stale re-commit of epoch 1 (recovery) must not roll "a" back to 1: the
  // table would then match no prefix of the epoch sequence.
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kUpdate, 1, {b1}).ok());
  auto rows = sink.SortedSnapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], Value::Int64(9));  // a keeps its epoch-2 value
  EXPECT_EQ(rows[1][1], Value::Int64(2));
  EXPECT_EQ(sink.last_committed_epoch(), 2);
}

// Randomized differential check of the update-mode table against a trivial
// reference: a std::map keyed by the encoded key bytes plus the keys' first-
// insertion order. Two nullable key columns (string, int64) over ~160k key
// combinations; >=100k distinct keys arrive over many epochs, so the index
// grows through several power-of-two boundaries. Some batches are selection
// views over decoy rows (the PhysIndex path) and some epochs are re-committed.
TEST(MemorySinkTest, UpdateTableMatchesReference) {
  const uint64_t seed = 20261017;  // fixed: rerun with this seed to debug
  std::cout << "[ property ] seed=" << seed << std::endl;
  RecordProperty("seed", std::to_string(seed));
  Random rng(seed);

  SchemaPtr schema = Schema::Make({{"user", TypeId::kString, true},
                                   {"slot", TypeId::kInt64, true},
                                   {"count", TypeId::kInt64, true},
                                   {"note", TypeId::kString, true}});
  constexpr int kKeyDomain = 400;
  auto random_row = [&](int64_t epoch) {
    Row row;
    uint64_t u = rng.Uniform(kKeyDomain + 1);
    row.push_back(u == kKeyDomain ? Value::Null()
                                  : Value::Str(std::to_string(u)));
    uint64_t k = rng.Uniform(kKeyDomain + 1);
    row.push_back(k == kKeyDomain
                      ? Value::Null()
                      : Value::Int64(static_cast<int64_t>(k) - 200));
    row.push_back(rng.OneIn(0.05) ? Value::Null()
                                  : Value::Int64(static_cast<int64_t>(
                                        rng.Uniform(1000000))));
    row.push_back(Value::Str(std::to_string(epoch)));
    return row;
  };
  auto encode_key = [](const Row& row) {
    std::string key;
    row[0].EncodeTo(&key);
    row[1].EncodeTo(&key);
    return key;
  };

  std::map<std::string, Row> reference;
  std::vector<std::string> first_inserted;
  auto apply_to_reference = [&](const RecordBatch& batch) {
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      Row row = batch.RowAt(i);
      std::string key = encode_key(row);
      auto [it, inserted] = reference.insert_or_assign(key, std::move(row));
      if (inserted) first_inserted.push_back(it->first);
    }
  };
  MemorySink sink;
  auto expect_matches = [&](int64_t epoch) {
    std::vector<Row> rows = sink.Snapshot();
    ASSERT_EQ(rows.size(), first_inserted.size()) << "epoch " << epoch;
    for (size_t j = 0; j < rows.size(); ++j) {
      std::string got;
      std::string want;
      EncodeRow(rows[j], &got);
      EncodeRow(reference.at(first_inserted[j]), &want);
      ASSERT_EQ(got, want) << "epoch " << epoch << " row " << j;
    }
  };

  constexpr int64_t kEpochs = 60;
  for (int64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    std::vector<RecordBatchPtr> batches;
    const int num_batches = 1 + static_cast<int>(rng.Uniform(3));
    for (int b = 0; b < num_batches; ++b) {
      const int64_t n = 500 + static_cast<int64_t>(rng.Uniform(2000));
      std::vector<Row> rows;
      for (int64_t i = 0; i < n; ++i) rows.push_back(random_row(epoch));
      if (!rng.OneIn(0.5)) {
        batches.push_back(RecordBatch::FromRows(schema, rows).TakeValue());
        continue;
      }
      // Selection view: interleave decoy rows that must never reach the
      // table, and select only the real rows, in their original order.
      std::vector<Row> physical;
      std::vector<int32_t> selected;
      for (Row& row : rows) {
        while (rng.OneIn(0.3)) {
          physical.push_back({Value::Str("decoy"), Value::Int64(-1),
                              Value::Int64(-1), Value::Str("decoy")});
        }
        selected.push_back(static_cast<int32_t>(physical.size()));
        physical.push_back(std::move(row));
      }
      auto base = RecordBatch::FromRows(schema, physical).TakeValue();
      batches.push_back(RecordBatch::MakeView(
          base, SelectionVector::FromVector(std::move(selected))));
    }
    ASSERT_TRUE(sink.CommitEpoch(epoch, OutputMode::kUpdate, 2, batches).ok());
    for (const auto& b : batches) apply_to_reference(*b);
    if (rng.OneIn(0.2)) {  // recovery re-delivers the same epoch
      ASSERT_TRUE(
          sink.CommitEpoch(epoch, OutputMode::kUpdate, 2, batches).ok());
    }
    if (epoch % 10 == 0 || epoch == kEpochs) expect_matches(epoch);
  }
  EXPECT_GE(reference.size(), 100000u);
}

// Seeded differential check of update mode against the simplest possible
// model: the rows in first-insertion order plus a map from encoded key bytes
// to row index. Three key columns (float64, string, int64) draw nulls, NaN,
// -0.0 and 0.0 (distinct keys: key identity is the encoded bytes), and empty
// strings. Epochs are re-committed stale or as duplicates with different
// rows (both ignored), and some commits carry a batch of another arity,
// which must be rejected whole with nothing applied.
TEST(MemorySinkTest, UpdateModeMatchesVectorModel) {
  const uint64_t seed = 20261018;  // fixed: rerun with this seed to debug
  RecordProperty("seed", std::to_string(seed));
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"x", TypeId::kFloat64, true},
                                   {"s", TypeId::kString, true},
                                   {"k", TypeId::kInt64, true},
                                   {"count", TypeId::kInt64, true},
                                   {"note", TypeId::kString, true}});
  SchemaPtr wider = Schema::Make({{"x", TypeId::kFloat64, true},
                                  {"s", TypeId::kString, true},
                                  {"k", TypeId::kInt64, true},
                                  {"count", TypeId::kInt64, true},
                                  {"note", TypeId::kString, true},
                                  {"extra", TypeId::kInt64, true}});
  constexpr int kKeyColumns = 3;
  const Value kDoubles[] = {Value::Null(),        Value::Float64(std::nan("")),
                            Value::Float64(-0.0), Value::Float64(0.0),
                            Value::Float64(1.5),  Value::Float64(-2.25)};
  const Value kStrings[] = {Value::Null(), Value::Str(""), Value::Str("a"),
                            Value::Str("b"), Value::Str("a\0b")};
  auto random_row = [&](int64_t epoch) {
    return Row{kDoubles[rng.Uniform(6)], kStrings[rng.Uniform(5)],
               rng.OneIn(0.1) ? Value::Null()
                              : Value::Int64(static_cast<int64_t>(
                                    rng.Uniform(40)) - 20),
               Value::Int64(static_cast<int64_t>(rng.Uniform(1000))),
               rng.OneIn(0.1) ? Value::Null()
                              : Value::Str(std::to_string(epoch))};
  };
  auto random_batches = [&](int64_t epoch) {
    std::vector<RecordBatchPtr> batches;
    for (int b = 0, n = 1 + static_cast<int>(rng.Uniform(3)); b < n; ++b) {
      std::vector<Row> rows;
      for (int i = 0, m = static_cast<int>(rng.Uniform(60)); i < m; ++i) {
        rows.push_back(random_row(epoch));
      }
      batches.push_back(RecordBatch::FromRows(schema, rows).TakeValue());
    }
    return batches;
  };

  // The model.
  std::vector<Row> model_rows;
  std::unordered_map<std::string, size_t> model_index;
  int64_t model_last_epoch = -1;
  auto model_commit = [&](int64_t epoch,
                          const std::vector<RecordBatchPtr>& batches) {
    if (epoch <= model_last_epoch) return;  // stale or duplicate
    model_last_epoch = epoch;
    for (const RecordBatchPtr& b : batches) {
      for (int64_t i = 0; i < b->num_rows(); ++i) {
        Row row = b->RowAt(i);
        std::string key;
        for (int c = 0; c < kKeyColumns; ++c) row[c].EncodeTo(&key);
        auto [it, inserted] = model_index.try_emplace(key, model_rows.size());
        if (inserted) {
          model_rows.push_back(std::move(row));
        } else {
          model_rows[it->second] = std::move(row);
        }
      }
    }
  };

  MemorySink sink;
  auto expect_matches = [&](const std::string& where) {
    std::vector<Row> got = sink.Snapshot();
    ASSERT_EQ(got.size(), model_rows.size()) << where;
    for (size_t j = 0; j < got.size(); ++j) {
      std::string got_bytes;
      std::string want_bytes;
      EncodeRow(got[j], &got_bytes);
      EncodeRow(model_rows[j], &want_bytes);
      ASSERT_EQ(got_bytes, want_bytes) << where << " row " << j;
    }
    EXPECT_EQ(sink.last_committed_epoch(), model_last_epoch) << where;
  };

  int rejected = 0;
  int ignored = 0;
  for (int64_t epoch = 1; epoch <= 200; ++epoch) {
    const std::string where = "epoch " + std::to_string(epoch);
    if (rng.OneIn(0.1)) {
      // A batch of another arity rides with well-formed ones.
      std::vector<RecordBatchPtr> batches = random_batches(epoch);
      Row row = random_row(epoch);
      row.push_back(Value::Int64(1));
      batches.insert(batches.begin() + static_cast<std::ptrdiff_t>(
                                           rng.Uniform(batches.size() + 1)),
                     RecordBatch::FromRows(wider, {row}).TakeValue());
      Status st = sink.CommitEpoch(epoch, OutputMode::kUpdate, kKeyColumns,
                                   batches);
      ASSERT_TRUE(st.IsInvalidArgument()) << where << ": " << st.ToString();
      ++rejected;
      expect_matches(where + " (rejected)");
    }
    std::vector<RecordBatchPtr> batches = random_batches(epoch);
    ASSERT_TRUE(
        sink.CommitEpoch(epoch, OutputMode::kUpdate, kKeyColumns, batches)
            .ok());
    model_commit(epoch, batches);
    if (rng.OneIn(0.2)) {
      // Recovery re-delivers this epoch or an older one; a re-delivery
      // must change nothing even when its rows differ.
      const int64_t again = epoch - static_cast<int64_t>(rng.Uniform(3));
      std::vector<RecordBatchPtr> redelivered = random_batches(again);
      ASSERT_TRUE(sink.CommitEpoch(again, OutputMode::kUpdate, kKeyColumns,
                                   redelivered)
                      .ok());
      model_commit(again, redelivered);
      ++ignored;
    }
    expect_matches(where);
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(ignored, 0);
  // Most of the 6 x 5 x 41 key combinations have been inserted.
  EXPECT_GT(model_rows.size(), 900u);
}

// The vector model again, over BOOL and TIMESTAMP key columns and a STRING
// value that keys overwrite with null and with a string again, many times
// each: the typed table's null-aware overwrite must show every value the
// model holds. Some batches are selection views over decoy rows.
TEST(MemorySinkTest, UpdateModeMatchesVectorModelOverBoolAndTimestampKeys) {
  const uint64_t seed = 20261019;  // fixed: rerun with this seed to debug
  RecordProperty("seed", std::to_string(seed));
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"flag", TypeId::kBool, true},
                                   {"at", TypeId::kTimestamp, true},
                                   {"note", TypeId::kString, true},
                                   {"count", TypeId::kInt64, true}});
  constexpr int kKeyColumns = 2;
  auto random_row = [&](int64_t epoch) {
    const uint64_t f = rng.Uniform(3);
    return Row{f == 2 ? Value::Null() : Value::Bool(f == 1),
               rng.OneIn(0.1) ? Value::Null()
                              : Value::Timestamp(static_cast<int64_t>(
                                    rng.Uniform(8)) - 4),
               rng.OneIn(0.4) ? Value::Null()
                              : Value::Str(std::string(
                                    static_cast<size_t>(rng.Uniform(4)),
                                    static_cast<char>('a' + epoch % 26))),
               Value::Int64(static_cast<int64_t>(rng.Uniform(1000)))};
  };

  std::vector<Row> model_rows;
  std::unordered_map<std::string, size_t> model_index;
  int to_null = 0;
  int from_null = 0;
  MemorySink sink;
  for (int64_t epoch = 1; epoch <= 150; ++epoch) {
    std::vector<RecordBatchPtr> batches;
    for (int b = 0, n = 1 + static_cast<int>(rng.Uniform(3)); b < n; ++b) {
      std::vector<Row> rows;
      for (int i = 0, m = static_cast<int>(rng.Uniform(30)); i < m; ++i) {
        rows.push_back(random_row(epoch));
      }
      if (rng.OneIn(0.5)) {
        batches.push_back(RecordBatch::FromRows(schema, rows).TakeValue());
        continue;
      }
      std::vector<Row> physical;
      std::vector<int32_t> selected;
      for (Row& row : rows) {
        if (rng.OneIn(0.3)) physical.push_back(random_row(epoch));  // decoy
        selected.push_back(static_cast<int32_t>(physical.size()));
        physical.push_back(std::move(row));
      }
      batches.push_back(RecordBatch::MakeView(
          RecordBatch::FromRows(schema, physical).TakeValue(),
          SelectionVector::FromVector(std::move(selected))));
    }
    ASSERT_TRUE(
        sink.CommitEpoch(epoch, OutputMode::kUpdate, kKeyColumns, batches)
            .ok());
    for (const RecordBatchPtr& b : batches) {
      for (int64_t i = 0; i < b->num_rows(); ++i) {
        Row row = b->RowAt(i);
        std::string key;
        for (int c = 0; c < kKeyColumns; ++c) row[c].EncodeTo(&key);
        auto [it, inserted] = model_index.try_emplace(key, model_rows.size());
        if (inserted) {
          model_rows.push_back(std::move(row));
          continue;
        }
        Row& old = model_rows[it->second];
        to_null += !old[2].is_null() && row[2].is_null() ? 1 : 0;
        from_null += old[2].is_null() && !row[2].is_null() ? 1 : 0;
        old = std::move(row);
      }
    }
    std::vector<Row> got = sink.Snapshot();
    ASSERT_EQ(got.size(), model_rows.size()) << "epoch " << epoch;
    for (size_t j = 0; j < got.size(); ++j) {
      std::string got_bytes;
      std::string want_bytes;
      EncodeRow(got[j], &got_bytes);
      EncodeRow(model_rows[j], &want_bytes);
      ASSERT_EQ(got_bytes, want_bytes) << "epoch " << epoch << " row " << j;
    }
  }
  EXPECT_EQ(model_rows.size(), 3u * 9u);  // every key combination
  EXPECT_GT(to_null, 50);
  EXPECT_GT(from_null, 50);
}

// The table's column types come from its first batch. A null-typed batch
// column writes nulls into a column of any type, a table column that held
// only nulls takes the first real type it meets, and any other mismatch
// rejects the whole commit: nothing is applied and the epoch is not taken.
TEST(MemorySinkTest, UpdateColumnTypesAreCheckedWhole) {
  auto make = [](std::vector<TypeId> types, const std::vector<Row>& rows) {
    std::vector<Field> fields;
    for (TypeId type : types) {
      fields.push_back({std::string(1, static_cast<char>('a' + fields.size())),
                        type, true});
    }
    return RecordBatch::FromRows(Schema::Make(fields), rows).TakeValue();
  };
  constexpr TypeId kI = TypeId::kInt64;
  constexpr TypeId kS = TypeId::kString;
  constexpr TypeId kN = TypeId::kNull;
  auto rows_of = [](const MemorySink& sink) {
    std::string bytes;
    for (const Row& row : sink.Snapshot()) EncodeRow(row, &bytes);
    return bytes;
  };

  MemorySink sink;
  // Epoch 1 creates the value column null-typed.
  ASSERT_TRUE(
      sink.CommitEpoch(1, OutputMode::kUpdate, 1,
                       {make({kI, kN}, {{Value::Int64(1), Value::Null()}})})
          .ok());
  // Epoch 2: the value column becomes a string column; a null-typed batch
  // in the same commit still fits, and so does a null-typed key column.
  ASSERT_TRUE(
      sink.CommitEpoch(
              2, OutputMode::kUpdate, 1,
              {make({kI, kN}, {{Value::Int64(3), Value::Null()}}),
               make({kI, kS}, {{Value::Int64(2), Value::Str("x")},
                               {Value::Int64(3), Value::Str("y")}}),
               make({kN, kS}, {{Value::Null(), Value::Str("z")}})})
          .ok());
  // Epoch 3: a null-typed column overwrites a string with null.
  ASSERT_TRUE(
      sink.CommitEpoch(3, OutputMode::kUpdate, 1,
                       {make({kI, kN}, {{Value::Int64(2), Value::Null()}})})
          .ok());
  const std::vector<Row> want = {{Value::Int64(1), Value::Null()},
                                 {Value::Int64(3), Value::Str("y")},
                                 {Value::Int64(2), Value::Null()},
                                 {Value::Null(), Value::Str("z")}};
  ASSERT_EQ(sink.Snapshot(), want);
  const std::string before = rows_of(sink);

  // Rejected whole: a good batch rides with one whose value column is
  // int64, or whose key column is a timestamp (same storage, other type).
  for (const std::vector<RecordBatchPtr>& batches :
       {std::vector<RecordBatchPtr>{
            make({kI, kS}, {{Value::Int64(1), Value::Str("new")}}),
            make({kI, kI}, {{Value::Int64(4), Value::Int64(4)}})},
        std::vector<RecordBatchPtr>{
            make({kI, kS}, {{Value::Int64(1), Value::Str("new")}}),
            make({TypeId::kTimestamp, kS},
                 {{Value::Timestamp(1), Value::Str("t")}})}}) {
    Status st = sink.CommitEpoch(4, OutputMode::kUpdate, 1, batches);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(rows_of(sink), before);
    EXPECT_EQ(sink.last_committed_epoch(), 3);
  }
  ASSERT_TRUE(
      sink.CommitEpoch(4, OutputMode::kUpdate, 1,
                       {make({kI, kS}, {{Value::Int64(1), Value::Str("new")}})})
          .ok());
  EXPECT_EQ(sink.Snapshot()[0][1], Value::Str("new"));

  // On an empty table the first batch of a commit sets the types the rest
  // are checked against, a null-typed column included: the third batch
  // disagrees with the second, so the table stays empty.
  MemorySink fresh;
  Status st = fresh.CommitEpoch(
      1, OutputMode::kUpdate, 1,
      {make({kI, kN}, {{Value::Int64(1), Value::Null()}}),
       make({kI, kS}, {{Value::Int64(2), Value::Str("s")}}),
       make({kI, TypeId::kFloat64}, {{Value::Int64(3), Value::Float64(1)}})});
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_TRUE(fresh.Snapshot().empty());
  EXPECT_EQ(fresh.last_committed_epoch(), -1);
}

// Seeded differential of the update table against a row-at-a-time
// reference: a vector of rows in first-insertion order whose key identity is
// the key cells' encoded bytes, upserted one boxed row at a time. Each shape
// of table runs many commits: all-int64 tables (int64 and timestamp keys,
// the upsert's one-kind loop) and mixes of float64, string and bool (the
// all-kinds loop), with one- and two-column keys. Cells draw nulls, NaN,
// -0.0 and 0.0 and repeat keys within a batch; a batch column is sometimes
// null-typed (all null), a value column stays null-typed until a later
// commit gives it a type, a batch of another type for a column (e.g. a
// timestamp for an int64 key) must reject its whole commit, and stale
// epochs are re-committed. Every commit's outcome and the final Snapshot(),
// in order and byte for byte, must match the reference.
TEST(MemorySinkTest, UpsertMatchesRowReferenceOverEveryKindMix) {
  struct Shape {
    std::vector<TypeId> types;
    int num_keys;
  };
  const std::vector<Shape> shapes = {
      {{TypeId::kInt64, TypeId::kInt64}, 1},
      {{TypeId::kInt64, TypeId::kTimestamp, TypeId::kInt64}, 2},
      {{TypeId::kTimestamp, TypeId::kInt64, TypeId::kInt64}, 1},
      {{TypeId::kFloat64, TypeId::kInt64}, 1},
      {{TypeId::kString, TypeId::kInt64, TypeId::kString}, 2},
      {{TypeId::kBool, TypeId::kFloat64, TypeId::kFloat64, TypeId::kBool}, 2},
  };
  Random rng(20261020);
  auto random_cell = [&](TypeId type) {
    if (rng.OneIn(0.1)) return Value::Null();
    const double doubles[] = {0.0, -0.0, std::nan(""), 1.5, -2.25};
    switch (type) {
      case TypeId::kInt64:
        return Value::Int64(static_cast<int64_t>(rng.Uniform(60)) - 30);
      case TypeId::kTimestamp:
        return Value::Timestamp(static_cast<int64_t>(rng.Uniform(60)));
      case TypeId::kFloat64:
        return Value::Float64(doubles[rng.Uniform(5)]);
      case TypeId::kString:
        return Value::Str(std::string(rng.Uniform(3), 'a'));
      case TypeId::kBool:
        return Value::Bool(rng.OneIn(0.5));
      case TypeId::kNull:
        break;
    }
    return Value::Null();
  };
  for (size_t shape_index = 0; shape_index < shapes.size(); ++shape_index) {
    const Shape& shape = shapes[shape_index];
    SCOPED_TRACE(std::string("shape ") + std::to_string(shape_index));
    const size_t arity = shape.types.size();
    MemorySink sink;
    // The reference: rows, key bytes -> row, column types, last epoch.
    std::vector<Row> rows;
    std::map<std::string, size_t> index;
    std::vector<TypeId> table_types;
    int64_t last_epoch = -1;
    // The last value column starts null-typed and gets its type later.
    const int64_t typed_from = 1 + static_cast<int64_t>(rng.Uniform(8));
    for (int64_t step = 1; step <= 80; ++step) {
      const int64_t epoch = rng.OneIn(0.15) ? step - 1 - rng.Uniform(3) : step;
      std::vector<RecordBatchPtr> batches;
      for (int b = 0, nb = 1 + static_cast<int>(rng.Uniform(3)); b < nb;
           ++b) {
        std::vector<Field> fields;
        for (size_t c = 0; c < arity; ++c) {
          TypeId type = shape.types[c];
          if (c + 1 == arity && step < typed_from) type = TypeId::kNull;
          if (rng.OneIn(0.05)) type = TypeId::kNull;  // an all-null column
          if (rng.OneIn(0.01)) {
            // A column of the other int64-backed type: rejected whole.
            type = type == TypeId::kInt64 ? TypeId::kTimestamp
                                          : TypeId::kInt64;
          }
          fields.push_back({std::string("c") + std::to_string(c), type, true});
        }
        std::vector<Row> batch_rows;
        for (int i = 0, n = static_cast<int>(rng.Uniform(40)); i < n; ++i) {
          Row row;
          for (const Field& f : fields) row.push_back(random_cell(f.type));
          batch_rows.push_back(std::move(row));
          if (rng.OneIn(0.1)) {  // the key again in the same batch
            Row again = batch_rows.back();
            for (size_t c = shape.num_keys; c < arity; ++c) {
              again[c] = random_cell(fields[c].type);
            }
            batch_rows.push_back(std::move(again));
          }
        }
        batches.push_back(
            RecordBatch::FromRows(Schema::Make(fields), batch_rows)
                .TakeValue());
      }
      // The reference's verdict: every batch's column types fit the
      // table's (a null-typed column fits any, an untyped table column
      // takes the first type), or the whole commit is rejected.
      std::vector<TypeId> types = table_types;
      bool fits = true;
      for (const RecordBatchPtr& b : batches) {
        if (types.empty()) types.assign(arity, TypeId::kNull);
        for (size_t c = 0; c < arity; ++c) {
          const TypeId got = b->column(static_cast<int>(c))->type();
          if (got == TypeId::kNull || got == types[c]) continue;
          if (types[c] == TypeId::kNull) {
            types[c] = got;
          } else {
            fits = false;
          }
        }
      }
      Status st =
          sink.CommitEpoch(epoch, OutputMode::kUpdate, shape.num_keys, batches);
      ASSERT_EQ(st.ok(), fits) << "step " << step << ": " << st.ToString();
      if (!fits) continue;
      if (epoch > last_epoch) {
        for (const RecordBatchPtr& b : batches) {
          for (int64_t i = 0; i < b->num_rows(); ++i) {
            Row row = b->RowAt(i);
            std::string key;
            for (int c = 0; c < shape.num_keys; ++c) row[c].EncodeTo(&key);
            auto [it, inserted] = index.emplace(key, rows.size());
            if (inserted) {
              rows.push_back(std::move(row));
            } else {
              rows[it->second] = std::move(row);
            }
          }
        }
        last_epoch = epoch;
      }
      table_types = types;
      ASSERT_EQ(sink.last_committed_epoch(), last_epoch);
    }
    const std::vector<Row> got = sink.Snapshot();
    ASSERT_EQ(got.size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      std::string got_bytes;
      std::string want_bytes;
      EncodeRow(got[r], &got_bytes);
      // A cell boxes with its column's type: an int64 stored under a
      // timestamp column reads back as a timestamp, and so on.
      Row want = rows[r];
      for (size_t c = 0; c < arity; ++c) {
        if (!want[c].is_null() && table_types[c] == TypeId::kTimestamp) {
          want[c] = Value::Timestamp(want[c].int64_value());
        }
      }
      EncodeRow(want, &want_bytes);
      ASSERT_EQ(got_bytes, want_bytes) << "row " << r;
    }
    EXPECT_GE(rows.size(), 5u);  // the key domain of one float64 key is 6
  }
}

TEST(BusConnectorsTest, SourceReadsTopic) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("in", 2).ok());
  ASSERT_TRUE(bus.Append("in", 0, {Value::Str("x"), Value::Int64(1)}).ok());
  ASSERT_TRUE(bus.Append("in", 1, {Value::Str("y"), Value::Int64(2)}).ok());
  BusSource source(&bus, "in", TwoColSchema());
  EXPECT_EQ(source.num_partitions(), 2);
  auto offsets = source.LatestOffsets();
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ((*offsets)[0], 1);
  auto batch = source.ReadPartition(1, 0, 1);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ((*batch)->RowAt(0)[0], Value::Str("y"));
}

TEST(BusConnectorsTest, SinkWritesAndSuppressesRecommit) {
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("out", 2).ok());
  BusSink sink(&bus, "out");
  auto b = RecordBatch::FromRows(TwoColSchema(),
                                 {{Value::Str("a"), Value::Int64(1)},
                                  {Value::Str("b"), Value::Int64(2)}})
               .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kAppend, 0, {b}).ok());
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kAppend, 0, {b}).ok());
  EXPECT_EQ(*bus.TotalRecords("out"), 2);
}

// The columnar sink must route every row exactly as HashRow over the boxed
// row would, including nulls, NaN, -0.0, integral doubles (which hash like
// the equal int64) and strings, and for batches that are selection views.
TEST(BusConnectorsTest, SinkPartitionsRowsLikeHashRow) {
  SchemaPtr schema = Schema::Make({{"s", TypeId::kString, true},
                                   {"i", TypeId::kInt64, true},
                                   {"d", TypeId::kFloat64, true},
                                   {"t", TypeId::kTimestamp, true}});
  Random rng(7);
  std::vector<Row> rows;
  for (int i = 0; i < 400; ++i) {
    const double doubles[] = {std::nan(""), -0.0, 0.0, 3.0, 2.5};
    rows.push_back(
        {rng.OneIn(0.2) ? Value::Null()
                        : Value::Str(std::string(rng.Uniform(5), 'a' + i % 7)),
         rng.OneIn(0.2) ? Value::Null() : Value::Int64(i % 13),
         rng.OneIn(0.2) ? Value::Null() : Value::Float64(doubles[i % 5]),
         rng.OneIn(0.2) ? Value::Null() : Value::Timestamp(i)});
  }
  auto plain = RecordBatch::FromRows(
                   schema, std::vector<Row>(rows.begin(), rows.begin() + 300))
                   .TakeValue();
  auto tail = RecordBatch::FromRows(
                  schema, std::vector<Row>(rows.begin() + 300, rows.end()))
                  .TakeValue();
  std::vector<int32_t> odd;
  for (int32_t i = 1; i < 100; i += 2) odd.push_back(i);
  auto view = RecordBatch::MakeView(tail, SelectionVector::FromVector(odd));

  constexpr int kPartitions = 5;
  MessageBus bus;
  ASSERT_TRUE(bus.CreateTopic("out", kPartitions).ok());
  BusSink sink(&bus, "out");
  ASSERT_TRUE(sink.CommitEpoch(0, OutputMode::kAppend, 0, {plain, view}).ok());

  // Compared as sorted encodings: Value ordering is not total over NaN.
  auto encode = [](const Row& row) {
    std::string bytes;
    EncodeRow(row, &bytes);
    return bytes;
  };
  std::vector<std::string> expected;
  for (int i = 0; i < 300; ++i) expected.push_back(encode(rows[i]));
  for (int32_t i : odd) {
    expected.push_back(encode(rows[300 + static_cast<size_t>(i)]));
  }
  std::vector<std::string> written;
  for (int p = 0; p < kPartitions; ++p) {
    auto out = bus.Read("out", p, 0, *bus.EndOffset("out", p));
    ASSERT_TRUE(out.ok());
    for (const Row& row : *out) {
      EXPECT_EQ(HashRow(row) % kPartitions, static_cast<uint64_t>(p))
          << RowToString(row);
      written.push_back(encode(row));
    }
  }
  std::sort(written.begin(), written.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(written, expected);
}

class FileConnectorsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("sstreaming_fileconn_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { RemoveDirRecursive(dir_).ok(); }
  std::string dir_;
};

TEST_F(FileConnectorsTest, ParseLine) {
  auto schema = TwoColSchema();
  auto row = JsonFileSource::ParseLine(*schema, R"({"k":"a","v":3})");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0], Value::Str("a"));
  EXPECT_EQ((*row)[1], Value::Int64(3));
  // Missing and mistyped fields become NULL, not errors (paper §7.2).
  row = JsonFileSource::ParseLine(*schema, R"({"k":"a","v":"oops"})");
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*row)[1].is_null());
  row = JsonFileSource::ParseLine(*schema, R"({"other":1})");
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*row)[0].is_null());
  // Whole-line garbage is an error.
  EXPECT_FALSE(JsonFileSource::ParseLine(*schema, "not json").ok());
}

TEST_F(FileConnectorsTest, SourceOffsetsSpanFiles) {
  ASSERT_TRUE(EnsureDir(dir_ + "/in").ok());
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/in/01.jsonl",
                              "{\"k\":\"a\",\"v\":1}\n{\"k\":\"b\",\"v\":2}\n")
                  .ok());
  ASSERT_TRUE(
      WriteFileAtomic(dir_ + "/in/02.jsonl", "{\"k\":\"c\",\"v\":3}\n").ok());
  JsonFileSource source(dir_ + "/in", TwoColSchema());
  auto offsets = source.LatestOffsets();
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ((*offsets)[0], 3);
  auto batch = source.ReadPartition(0, 1, 3);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ((*batch)->num_rows(), 2);
  EXPECT_EQ((*batch)->RowAt(0)[0], Value::Str("b"));
  EXPECT_EQ((*batch)->RowAt(1)[0], Value::Str("c"));
  // New files extend the stream; old offsets stay valid (replayability).
  ASSERT_TRUE(
      WriteFileAtomic(dir_ + "/in/03.jsonl", "{\"k\":\"d\",\"v\":4}\n").ok());
  EXPECT_EQ((*source.LatestOffsets())[0], 4);
  auto again = source.ReadPartition(0, 1, 3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->RowAt(0)[0], Value::Str("b"));
}

TEST_F(FileConnectorsTest, SinkWritesEpochFilesIdempotently) {
  JsonFileSink sink(dir_ + "/out");
  auto schema = TwoColSchema();
  auto b = RecordBatch::FromRows(schema, {{Value::Str("a"), Value::Int64(1)}})
               .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(3, OutputMode::kAppend, 0, {b}).ok());
  ASSERT_TRUE(sink.CommitEpoch(3, OutputMode::kAppend, 0, {b}).ok());
  auto rows = sink.ReadAll(*schema);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  auto epochs = sink.ListEpochs();
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(*epochs, std::vector<int64_t>{3});
}

TEST_F(FileConnectorsTest, SinkCompleteModeKeepsOneFile) {
  JsonFileSink sink(dir_ + "/out");
  auto schema = TwoColSchema();
  auto b1 = RecordBatch::FromRows(schema,
                                  {{Value::Str("a"), Value::Int64(1)}})
                .TakeValue();
  auto b2 = RecordBatch::FromRows(schema,
                                  {{Value::Str("a"), Value::Int64(2)},
                                   {Value::Str("b"), Value::Int64(3)}})
                .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(1, OutputMode::kComplete, 0, {b1}).ok());
  ASSERT_TRUE(sink.CommitEpoch(2, OutputMode::kComplete, 0, {b2}).ok());
  auto epochs = sink.ListEpochs();
  ASSERT_TRUE(epochs.ok());
  EXPECT_EQ(*epochs, std::vector<int64_t>{2});
  auto rows = sink.ReadEpoch(*schema, 2);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(FileConnectorsTest, SinkRollbackRemovesEpochs) {
  JsonFileSink sink(dir_ + "/out");
  auto schema = TwoColSchema();
  for (int64_t e = 1; e <= 4; ++e) {
    auto b = RecordBatch::FromRows(schema,
                                   {{Value::Str("x"), Value::Int64(e)}})
                 .TakeValue();
    ASSERT_TRUE(sink.CommitEpoch(e, OutputMode::kAppend, 0, {b}).ok());
  }
  ASSERT_TRUE(sink.RemoveEpochsAfter(2).ok());
  EXPECT_EQ(*sink.ListEpochs(), (std::vector<int64_t>{1, 2}));
}

TEST(RateSourceTest, DeterministicAndReplayable) {
  ManualClock clock(0);
  RateSource source("rate", 1000, 2, &clock);
  EXPECT_EQ((*source.LatestOffsets())[0], 0);
  clock.AdvanceMillis(100);  // 100ms at 1000 rows/s = 100 rows
  auto offsets = source.LatestOffsets();
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ((*offsets)[0] + (*offsets)[1], 100);
  auto b1 = source.ReadPartition(0, 10, 20);
  auto b2 = source.ReadPartition(0, 10, 20);
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  ASSERT_EQ((*b1)->num_rows(), 10);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(CompareRows((*b1)->RowAt(i), (*b2)->RowAt(i)), 0);
  }
  // Values are globally unique across partitions.
  EXPECT_EQ((*b1)->RowAt(0)[0], Value::Int64(20));  // offset 10 * 2 parts + 0
}

TEST(RateSourceTest, TimestampsTrackProductionTime) {
  ManualClock clock(0);
  RateSource source("rate", 100, 1, &clock);
  // Record 50 is produced at t = 50/100 s = 500ms.
  EXPECT_EQ(source.TimestampFor(0, 50), 500000);
}

TEST(ForeachSinkTest, CallbackReceivesRows) {
  std::vector<Row> seen;
  int64_t seen_epoch = -1;
  ForeachSink sink([&](int64_t epoch, OutputMode,
                       const std::vector<Row>& rows) -> Status {
    seen_epoch = epoch;
    seen.insert(seen.end(), rows.begin(), rows.end());
    return Status::OK();
  });
  auto b = RecordBatch::FromRows(TwoColSchema(),
                                 {{Value::Str("a"), Value::Int64(1)}})
               .TakeValue();
  ASSERT_TRUE(sink.CommitEpoch(7, OutputMode::kAppend, 0, {b}).ok());
  EXPECT_EQ(seen_epoch, 7);
  ASSERT_EQ(seen.size(), 1u);
}

}  // namespace
}  // namespace sstreaming
