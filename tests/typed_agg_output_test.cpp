// The stateful aggregate writes its output as typed columns: group keys are
// appended from the key columns (update mode) or decoded from the state-key
// bytes straight into their columns (stored groups), and the finals are
// appended as typed cells from each group's record. These seeded cases check
// that output against a boxed oracle (agg_oracle.h) that keeps each group's
// key and state as encoded rows and builds every output row from DecodeRow +
// FinalizeAggState, then
// boxes the rows with RecordBatch::FromRows. Column types and every cell
// (type byte and bits, so NaN and -0.0 count) must match, on every output
// mode and in batch, windowed or not, on the inline grain (InlineScheduler,
// two partitions) and the split grain (4-thread PoolScheduler, one
// partition).

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agg_oracle.h"
#include "common/random.h"
#include "expr/aggregate.h"
#include "expr/expression.h"
#include "physical/stateful_ops.h"
#include "runtime/scheduler.h"

namespace sstreaming {
namespace {

constexpr int64_t kSec = 1000000;

SchemaPtr InputSchema() {
  return Schema::Make({{"i", TypeId::kInt64, true},
                       {"d", TypeId::kFloat64, true},
                       {"t", TypeId::kTimestamp, true},
                       {"s", TypeId::kString, true},
                       {"b", TypeId::kBool, true},
                       {"x", TypeId::kInt64, true},
                       {"y", TypeId::kFloat64, true}});
}

/// Seeded input: small key domains (so groups repeat), nulls everywhere,
/// and NaN / -0.0 / 0.0 among the doubles.
RecordBatchPtr RandomInput(Random* rng, int64_t rows, int64_t t0) {
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(rows));
  const double doubles[] = {0.0, -0.0, 1.5, -2.25,
                            std::numeric_limits<double>::quiet_NaN()};
  auto maybe_null = [&](Value v) {
    return rng->OneIn(0.08) ? Value::Null() : v;
  };
  for (int64_t r = 0; r < rows; ++r) {
    out.push_back({
        maybe_null(Value::Int64(static_cast<int64_t>(rng->Uniform(12)) - 3)),
        maybe_null(Value::Float64(doubles[rng->Uniform(5)])),
        maybe_null(Value::Timestamp(
            t0 + static_cast<int64_t>(rng->Uniform(30 * kSec)))),
        maybe_null(Value::Str(
            rng->OneIn(0.1) ? std::string()
                            : std::string("s") +
                                  std::to_string(rng->Uniform(7)))),
        maybe_null(Value::Bool(rng->OneIn(0.5))),
        maybe_null(Value::Int64(static_cast<int64_t>(rng->Uniform(100)) - 50)),
        maybe_null(Value::Float64(rng->OneIn(0.05)
                                      ? doubles[rng->Uniform(5)]
                                      : rng->NextDouble() * 10 - 5)),
    });
  }
  return RecordBatch::FromRows(InputSchema(), out).TakeValue();
}

/// A fixed list of batches (one per partition) as the aggregate's child.
class BatchesExec : public PhysOp {
 public:
  explicit BatchesExec(SchemaPtr schema) : PhysOp(0, std::move(schema), {}) {}
  std::string name() const override { return "Batches"; }
  Result<std::vector<RecordBatchPtr>> ExecuteImpl(ExecContext*) override {
    return batches;
  }
  std::vector<RecordBatchPtr> batches;
};

struct KeySpec {
  std::string column;
  int64_t window_size = 0;  // > 0: window(column, size, slide)
  int64_t window_slide = 0;
};

struct Case {
  std::string name;
  std::vector<KeySpec> keys;
};

std::vector<AggSpec> Aggregates() {
  return {CountOf(Col("x"), "cnt_x"), CountAll("cnt"),
          SumOf(Col("x"), "sum_x"),   SumOf(Col("y"), "sum_y"),
          MinOf(Col("y"), "min_y"),   MaxOf(Col("y"), "max_y"),
          MinOf(Col("s"), "min_s"),   MaxOf(Col("i"), "max_i"),
          AvgOf(Col("x"), "avg_x"),   AvgOf(Col("y"), "avg_y")};
}

/// The aggregate under test plus everything the oracle needs to mirror it.
struct Plan {
  std::shared_ptr<BatchesExec> child;
  std::shared_ptr<StatefulAggExec> agg;
  SchemaPtr out_schema;
  std::vector<ExprPtr> key_exprs;  // resolved; window keys: the time column
  std::vector<AggSpec> specs;      // resolved
  int window_index = -1;
  const WindowExpr* window = nullptr;
};

/// Builds the aggregate for `c`. `override_key_type` (when not kNull)
/// replaces the declared type of the first scalar key's output column.
Plan MakePlan(const Case& c, TypeId override_key_type = TypeId::kNull) {
  Plan plan;
  SchemaPtr in = InputSchema();
  plan.child = std::make_shared<BatchesExec>(in);
  std::vector<Field> fields;
  std::vector<NamedExpr> groups;
  bool overridden = false;
  for (size_t g = 0; g < c.keys.size(); ++g) {
    const KeySpec& k = c.keys[g];
    if (k.window_size > 0) {
      ExprPtr w = Window(Col(k.column), k.window_size, k.window_slide)
                      ->Resolve(*in)
                      .TakeValue();
      plan.window_index = static_cast<int>(g);
      plan.window = static_cast<const WindowExpr*>(w.get());
      plan.key_exprs.push_back(plan.window->time());
      groups.push_back({w, "window"});
      fields.push_back({"window_start", TypeId::kTimestamp, false});
      fields.push_back({"window_end", TypeId::kTimestamp, false});
      continue;
    }
    ExprPtr e = Col(k.column)->Resolve(*in).TakeValue();
    plan.key_exprs.push_back(e);
    groups.push_back({e, k.column});
    TypeId type = e->type();
    if (override_key_type != TypeId::kNull && !overridden) {
      type = override_key_type;
      overridden = true;
    }
    fields.push_back({k.column, type, true});
  }
  for (AggSpec spec : Aggregates()) {
    TypeId arg_type = TypeId::kNull;
    if (spec.arg != nullptr) {
      spec.arg = spec.arg->Resolve(*in).TakeValue();
      arg_type = spec.arg->type();
    }
    fields.push_back(
        {spec.name, AggOutputType(spec.func, arg_type).TakeValue(), true});
    plan.specs.push_back(std::move(spec));
  }
  plan.out_schema = Schema::Make(fields);
  plan.agg = std::make_shared<StatefulAggExec>(
      7, plan.child, plan.out_schema, std::move(groups), plan.specs);
  return plan;
}

/// The boxed oracle: per partition, encoded key -> encoded state.
class Oracle {
 public:
  Oracle(const Plan& plan, size_t partitions)
      : plan_(plan), groups_(partitions) {}

  /// Folds one epoch of partition p and returns its expected output rows.
  std::vector<Row> Epoch(size_t p, const RecordBatch& input, OutputMode mode,
                         bool is_batch, int64_t watermark) {
    std::map<std::string, std::string>& groups = groups_[p];
    const bool windowed = plan_.window != nullptr;
    const int64_t size = windowed ? plan_.window->size_micros() : 0;
    auto closed = [&](int64_t wstart) {
      return windowed && watermark != INT64_MIN && wstart + size <= watermark;
    };
    std::set<std::string> touched;
    for (int64_t r = 0; r < input.num_rows(); ++r) {
      const Row row = input.RowAt(r);
      std::vector<int64_t> starts{0};
      if (windowed) {
        const Value t =
            plan_.key_exprs[static_cast<size_t>(plan_.window_index)]
                ->EvalRow(row)
                .TakeValue();
        if (t.is_null()) continue;
        starts.clear();
        plan_.window->EnumerateWindowStarts(t.int64_value(), &starts);
      }
      Row args;
      for (const AggSpec& spec : plan_.specs) {
        args.push_back(spec.arg == nullptr
                           ? Value::Null()
                           : spec.arg->EvalRow(row).TakeValue());
      }
      for (int64_t wstart : starts) {
        if (closed(wstart)) continue;
        Row key;
        for (size_t g = 0; g < plan_.key_exprs.size(); ++g) {
          key.push_back(static_cast<int>(g) == plan_.window_index
                            ? Value::Timestamp(wstart)
                            : plan_.key_exprs[g]->EvalRow(row).TakeValue());
        }
        std::string enc;
        EncodeRow(key, &enc);
        auto it = groups.find(enc);
        Row state = it == groups.end() ? InitAggState(plan_.specs)
                                       : DecodeRow(it->second).TakeValue();
        UpdateAggState(plan_.specs, args, &state);
        std::string bytes;
        EncodeRow(state, &bytes);
        groups[enc] = std::move(bytes);
        touched.insert(enc);
      }
    }
    std::vector<Row> out;
    if (is_batch) {
      for (const auto& [k, v] : groups) out.push_back(OutputRow(k, v));
      return out;
    }
    if (windowed && watermark != INT64_MIN) {
      for (auto it = groups.begin(); it != groups.end();) {
        const Row key = DecodeRow(it->first).TakeValue();
        if (!closed(key[static_cast<size_t>(plan_.window_index)]
                        .int64_value())) {
          ++it;
          continue;
        }
        if (mode == OutputMode::kAppend) {
          out.push_back(OutputRow(it->first, it->second));
        }
        it = groups.erase(it);
      }
    }
    if (mode == OutputMode::kUpdate) {
      for (const std::string& k : touched) {
        out.push_back(OutputRow(k, groups.at(k)));
      }
    } else if (mode == OutputMode::kComplete) {
      for (const auto& [k, v] : groups) out.push_back(OutputRow(k, v));
    }
    return out;
  }

 private:
  Row OutputRow(const std::string& enc_key, const std::string& enc_state) {
    Row row = DecodeRow(enc_key).TakeValue();
    if (plan_.window != nullptr) {
      const auto start = row.begin() + plan_.window_index;
      row.insert(start + 1, Value::Timestamp(start->int64_value() +
                                             plan_.window->size_micros()));
    }
    const Row finals =
        FinalizeAggState(plan_.specs, DecodeRow(enc_state).TakeValue());
    row.insert(row.end(), finals.begin(), finals.end());
    return row;
  }

  const Plan& plan_;
  std::vector<std::map<std::string, std::string>> groups_;
};

/// Each row of `batch` as encoded bytes (type byte and bits per cell),
/// sorted: a multiset that ignores row order only.
std::vector<std::string> EncodedRows(const RecordBatch& batch) {
  std::vector<std::string> rows;
  for (int64_t r = 0; r < batch.num_rows(); ++r) {
    std::string enc;
    EncodeRow(batch.RowAt(r), &enc);
    rows.push_back(std::move(enc));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct Grain {
  std::string name;
  int threads;  // 0 = InlineScheduler
  size_t partitions;
};

void RunCase(const Case& c, OutputMode mode, bool is_batch,
             const Grain& grain, uint64_t seed) {
  SCOPED_TRACE(c.name + " / " + grain.name + " / " +
               (is_batch ? std::string("batch")
                         : std::to_string(static_cast<int>(mode))));
  Plan plan = MakePlan(c);
  Oracle oracle(plan, grain.partitions);
  InlineScheduler inline_scheduler;
  std::unique_ptr<PoolScheduler> pool;
  TaskScheduler* scheduler = &inline_scheduler;
  if (grain.threads > 0) {
    pool = std::make_unique<PoolScheduler>(grain.threads);
    scheduler = pool.get();
  }
  StateManager state("", 0, ShardedStateStore::Options());
  Random rng(seed);
  // The second epoch is big enough to route in several chunks on the
  // split grain (>= 4096 rows in its one partition) and in several slices
  // on the inline grain (> 1024 rows in each of its two partitions).
  const int64_t big = grain.threads > 0 ? 4200 : 2600;
  const std::vector<int64_t> epoch_rows =
      is_batch ? std::vector<int64_t>{big}
               : std::vector<int64_t>{300, big, 200, 200};
  for (size_t e = 0; e < epoch_rows.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e + 1));
    plan.child->batches.clear();
    for (size_t p = 0; p < grain.partitions; ++p) {
      plan.child->batches.push_back(RandomInput(
          &rng, epoch_rows[e] / static_cast<int64_t>(grain.partitions),
          static_cast<int64_t>(e) * 12 * kSec));
    }
    ExecContext ctx;
    ctx.epoch = static_cast<int64_t>(e) + 1;
    ctx.mode = mode;
    ctx.is_batch = is_batch;
    ctx.scheduler = scheduler;
    ctx.state = &state;
    // From the second epoch on, the watermark closes older windows.
    ctx.watermark_micros =
        e == 0 ? INT64_MIN : static_cast<int64_t>(e) * 12 * kSec;
    auto out = plan.agg->Execute(&ctx);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->size(), grain.partitions);
    for (size_t p = 0; p < grain.partitions; ++p) {
      const RecordBatch& actual = *(*out)[p];
      ASSERT_EQ(actual.num_columns(), plan.out_schema->num_fields());
      for (int col = 0; col < actual.num_columns(); ++col) {
        EXPECT_EQ(actual.column(col)->type(), plan.out_schema->field(col).type)
            << plan.out_schema->field(col).name;
      }
      const std::vector<Row> want_rows =
          oracle.Epoch(p, *plan.child->batches[p], mode, is_batch,
                       ctx.watermark_micros);
      auto want = RecordBatch::FromRows(plan.out_schema, want_rows);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(EncodedRows(actual), EncodedRows(**want)) << "partition " << p;
    }
  }
}

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      {"int64", {{"i"}}},
      {"double", {{"d"}}},
      {"timestamp", {{"t"}}},
      {"string", {{"s"}}},
      {"bool", {{"b"}}},
      {"multi", {{"s"}, {"i"}, {"b"}, {"d"}}},
      {"tumbling_window", {{"t", 10 * kSec, 10 * kSec}, {"s"}}},
      // The window key after variable-width keys: the closed-window test
      // must skip them in the key bytes.
      {"sliding_window_last", {{"s"}, {"b"}, {"t", 10 * kSec, 5 * kSec}}},
  };
  return cases;
}

class TypedAggOutputTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TypedAggOutputTest, MatchesBoxedOracle) {
  const Case& c = Cases()[GetParam()];
  const std::vector<Grain> grains = {{"inline", 0, 2}, {"split", 4, 1}};
  uint64_t seed = 100 * GetParam();
  for (const Grain& grain : grains) {
    for (OutputMode mode :
         {OutputMode::kUpdate, OutputMode::kAppend, OutputMode::kComplete}) {
      RunCase(c, mode, /*is_batch=*/false, grain, ++seed);
    }
    RunCase(c, OutputMode::kComplete, /*is_batch=*/true, grain, ++seed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Keys, TypedAggOutputTest, ::testing::Range<size_t>(0, Cases().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return Cases()[info.param].name;
    });

TEST(TypedAggOutputRejectTest, MismatchedKeyTypeIsInvalidArgument) {
  // A key whose encoded type does not fit its declared output column is
  // rejected, never written into a mis-typed column.
  struct Mismatch {
    std::string column;
    TypeId declared;
  };
  for (const Mismatch& m : {Mismatch{"i", TypeId::kString},
                            Mismatch{"b", TypeId::kInt64},
                            Mismatch{"s", TypeId::kFloat64}}) {
    SCOPED_TRACE(m.column);
    Plan plan = MakePlan(Case{"mismatch", {{m.column}}}, m.declared);
    InlineScheduler scheduler;
    StateManager state("", 0, ShardedStateStore::Options());
    Random rng(5);
    plan.child->batches = {RandomInput(&rng, 50, 0)};
    ExecContext ctx;
    ctx.epoch = 1;
    ctx.mode = OutputMode::kUpdate;
    ctx.scheduler = &scheduler;
    ctx.state = &state;
    auto out = plan.agg->Execute(&ctx);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
        << out.status().ToString();
  }
}

}  // namespace
}  // namespace sstreaming
