#include "types/record_batch.h"

#include <gtest/gtest.h>

namespace sstreaming {
namespace {

SchemaPtr TestSchema() {
  return Schema::Make({{"id", TypeId::kInt64, false},
                       {"name", TypeId::kString, true},
                       {"score", TypeId::kFloat64, true}});
}

RecordBatchPtr TestBatch() {
  auto r = RecordBatch::FromRows(
      TestSchema(),
      {{Value::Int64(1), Value::Str("a"), Value::Float64(1.0)},
       {Value::Int64(2), Value::Null(), Value::Float64(2.0)},
       {Value::Int64(3), Value::Str("c"), Value::Null()}});
  return r.TakeValue();
}

TEST(RecordBatchTest, FromRowsAndRowAt) {
  RecordBatchPtr b = TestBatch();
  EXPECT_EQ(b->num_rows(), 3);
  EXPECT_EQ(b->num_columns(), 3);
  Row r1 = b->RowAt(1);
  EXPECT_EQ(r1[0], Value::Int64(2));
  EXPECT_TRUE(r1[1].is_null());
}

TEST(RecordBatchTest, FromRowsRejectsBadArity) {
  auto r = RecordBatch::FromRows(TestSchema(), {{Value::Int64(1)}});
  EXPECT_FALSE(r.ok());
}

TEST(RecordBatchTest, FromRowsRejectsBadType) {
  auto r = RecordBatch::FromRows(
      TestSchema(), {{Value::Str("oops"), Value::Str("a"), Value::Null()}});
  EXPECT_FALSE(r.ok());
}

TEST(RecordBatchTest, EmptyBatch) {
  RecordBatchPtr b = RecordBatch::Empty(TestSchema());
  EXPECT_EQ(b->num_rows(), 0);
  EXPECT_EQ(b->num_columns(), 3);
}

TEST(RecordBatchTest, FilterKeepsMaskedRows) {
  RecordBatchPtr b = TestBatch();
  RecordBatchPtr f = b->Filter({1, 0, 1});
  EXPECT_EQ(f->num_rows(), 2);
  EXPECT_EQ(f->RowAt(0)[0], Value::Int64(1));
  EXPECT_EQ(f->RowAt(1)[0], Value::Int64(3));
  EXPECT_TRUE(f->RowAt(1)[2].is_null());
}

TEST(RecordBatchTest, SelectColumnsReordersSchema) {
  RecordBatchPtr b = TestBatch();
  RecordBatchPtr p = b->SelectColumns({2, 0});
  EXPECT_EQ(p->schema()->field(0).name, "score");
  EXPECT_EQ(p->schema()->field(1).name, "id");
  EXPECT_EQ(p->RowAt(0)[1], Value::Int64(1));
}

TEST(RecordBatchTest, Slice) {
  RecordBatchPtr b = TestBatch();
  RecordBatchPtr s = b->Slice(1, 2);
  EXPECT_EQ(s->num_rows(), 2);
  EXPECT_EQ(s->RowAt(0)[0], Value::Int64(2));
}

TEST(RecordBatchTest, ConcatMergesBatches) {
  RecordBatchPtr b = TestBatch();
  RecordBatchPtr merged = RecordBatch::Concat(TestSchema(), {b, b});
  EXPECT_EQ(merged->num_rows(), 6);
  EXPECT_EQ(merged->RowAt(3)[0], Value::Int64(1));
}

TEST(RecordBatchTest, SliceOfViewUsesLogicalRows) {
  RecordBatchPtr view =
      RecordBatch::MakeView(TestBatch(), SelectionVector::FromVector({2, 0}));
  RecordBatchPtr s = view->Slice(1, 1);
  ASSERT_EQ(s->num_rows(), 1);
  EXPECT_FALSE(s->has_selection());
  EXPECT_EQ(s->RowAt(0)[0], Value::Int64(1));
}

TEST(RecordBatchTest, ConcatMixesPlainBatchesAndViews) {
  RecordBatchPtr b = TestBatch();
  b->set_ingest_micros(50);
  RecordBatchPtr view =
      RecordBatch::MakeView(TestBatch(), SelectionVector::FromVector({2, 1}));
  view->set_ingest_micros(20);
  RecordBatchPtr merged = RecordBatch::Concat(TestSchema(), {b, view, b});
  std::vector<Row> expected = b->ToRows();
  for (const Row& r : view->ToRows()) expected.push_back(r);
  for (const Row& r : b->ToRows()) expected.push_back(r);
  ASSERT_EQ(merged->num_rows(), 8);
  for (int64_t i = 0; i < merged->num_rows(); ++i) {
    EXPECT_EQ(CompareRows(merged->RowAt(i),
                          expected[static_cast<size_t>(i)]),
              0)
        << "row " << i;
  }
  EXPECT_EQ(merged->column(1)->null_count(), 3);
  EXPECT_EQ(merged->ingest_micros(), 20);
}

// A view of a view over a batch with nulls in every column: the second
// view's indices are logical rows of the first, composed onto storage.
// Gather, Materialize, Filter and Concat all read the logical rows, through
// one typed gather per column.
TEST(RecordBatchTest, GatherMaterializeFilterAndConcatOverViewOfView) {
  auto base = RecordBatch::FromRows(
                  TestSchema(),
                  {{Value::Int64(10), Value::Str("a"), Value::Float64(1.0)},
                   {Value::Int64(11), Value::Null(), Value::Float64(-0.0)},
                   {Value::Int64(12), Value::Str(std::string(40, 'c')),
                    Value::Null()},
                   {Value::Int64(13), Value::Str(""), Value::Float64(3.5)},
                   {Value::Int64(14), Value::Str("e"), Value::Float64(4.0)}})
                  .TakeValue();
  base->set_ingest_micros(70);
  RecordBatchPtr outer =
      RecordBatch::MakeView(base, SelectionVector::FromVector({4, 2, 1, 3}));
  RecordBatchPtr view =
      RecordBatch::MakeView(outer, SelectionVector::FromVector({3, 1, 2}));
  // Logical rows of `view`: base rows 3, 2, 1.
  const std::vector<Row> base_rows = base->ToRows();
  const std::vector<Row> expected = {base_rows[3], base_rows[2],
                                     base_rows[1]};
  auto expect_rows = [](const RecordBatch& got, const std::vector<Row>& want) {
    ASSERT_EQ(got.num_rows(), static_cast<int64_t>(want.size()));
    EXPECT_FALSE(got.has_selection());
    for (int64_t i = 0; i < got.num_rows(); ++i) {
      EXPECT_EQ(CompareRows(got.RowAt(i), want[static_cast<size_t>(i)]), 0)
          << "row " << i;
    }
  };

  RecordBatchPtr compact = RecordBatch::Materialize(view);
  expect_rows(*compact, expected);
  EXPECT_EQ(compact->column(1)->null_count(), 1);
  EXPECT_EQ(compact->column(2)->null_count(), 1);
  EXPECT_EQ(compact->ingest_micros(), 70);

  RecordBatchPtr gathered = view->Gather({2, 0, 0, 1});
  expect_rows(*gathered,
              {expected[2], expected[0], expected[0], expected[1]});
  EXPECT_EQ(gathered->ApproxBytes(),
            compact->Gather({2, 0, 0, 1})->ApproxBytes());
  EXPECT_EQ(view->Gather({})->num_rows(), 0);

  RecordBatchPtr filtered = view->Filter({0, 1, 1});
  expect_rows(*filtered, {expected[1], expected[2]});

  RecordBatchPtr merged = RecordBatch::Concat(TestSchema(), {view, base, view});
  std::vector<Row> want = expected;
  want.insert(want.end(), base_rows.begin(), base_rows.end());
  want.insert(want.end(), expected.begin(), expected.end());
  expect_rows(*merged, want);
  EXPECT_EQ(merged->column(1)->null_count(), 3);
  EXPECT_EQ(merged->column(2)->null_count(), 3);
}

TEST(RecordBatchTest, ConcatEmptyInput) {
  RecordBatchPtr merged = RecordBatch::Concat(TestSchema(), {});
  EXPECT_EQ(merged->num_rows(), 0);
}

TEST(RecordBatchTest, ToRowsRoundTrip) {
  RecordBatchPtr b = TestBatch();
  auto rows = b->ToRows();
  auto rebuilt = RecordBatch::FromRows(TestSchema(), rows);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ((*rebuilt)->num_rows(), b->num_rows());
  for (int64_t i = 0; i < b->num_rows(); ++i) {
    EXPECT_EQ(CompareRows((*rebuilt)->RowAt(i), b->RowAt(i)), 0);
  }
}

}  // namespace
}  // namespace sstreaming
