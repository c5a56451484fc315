#ifndef SSTREAMING_EXPR_AGGREGATE_H_
#define SSTREAMING_EXPR_AGGREGATE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expression.h"
#include "types/record_batch.h"
#include "types/row.h"
#include "types/schema.h"

namespace sstreaming {

/// Supported aggregate functions (paper §4.1 uses count and avg; windowed
/// counts drive the Yahoo! benchmark).
enum class AggFunc { kCount, kCountAll, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc func);

/// One aggregate in an Aggregate plan node: a function over an argument
/// expression (null for count(*)), with an output column name.
struct AggSpec {
  AggFunc func;
  ExprPtr arg;       // nullptr for kCountAll
  std::string name;  // output column name

  std::string ToString() const;
};

AggSpec CountAll(std::string name = "count");
AggSpec CountOf(ExprPtr arg, std::string name = "count");
AggSpec SumOf(ExprPtr arg, std::string name = "sum");
AggSpec MinOf(ExprPtr arg, std::string name = "min");
AggSpec MaxOf(ExprPtr arg, std::string name = "max");
AggSpec AvgOf(ExprPtr arg, std::string name = "avg");

/// Output type of an aggregate given its (resolved) argument type.
Result<TypeId> AggOutputType(AggFunc func, TypeId arg_type);

/// Number of state slots an aggregate keeps (avg keeps sum+count, the rest
/// keep one slot). Aggregation state for a key is the concatenation of each
/// spec's slots — a plain Row, so it round-trips through the state store's
/// row codec unchanged.
int AggStateArity(AggFunc func);

/// Initial (empty) state for a list of specs.
Row InitAggState(const std::vector<AggSpec>& specs);

/// Folds one input into the state. `args` holds the evaluated argument per
/// spec (entry ignored for kCountAll).
void UpdateAggState(const std::vector<AggSpec>& specs, const Row& args,
                    Row* state);

/// Merges `other` into `state` (for partial aggregation across partitions).
void MergeAggState(const std::vector<AggSpec>& specs, const Row& other,
                   Row* state);

/// Produces the final output values (one per spec) from a state row.
Row FinalizeAggState(const std::vector<AggSpec>& specs, const Row& state);

/// Appends FinalizeAggState's values, typed, to columns [first, first +
/// specs.size()) of `out` — one cell per spec, no output Row.
Status AppendFinalAggState(const std::vector<AggSpec>& specs, const Row& state,
                           int first, BatchBuilder* out);

}  // namespace sstreaming

#endif  // SSTREAMING_EXPR_AGGREGATE_H_
