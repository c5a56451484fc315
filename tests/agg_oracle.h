#ifndef SSTREAMING_TESTS_AGG_ORACLE_H_
#define SSTREAMING_TESTS_AGG_ORACLE_H_

// The boxed reference of the aggregate state: a group's state as a Row of
// Values (each spec's AggStateArity slots), updated one argument Row at a
// time. The engine folds typed records (AggRecords); the tests hold its
// kernels, its codec and its finals to this reference.

#include <cstdint>
#include <vector>

#include "expr/aggregate.h"
#include "types/row.h"

namespace sstreaming {

/// Initial (empty) state for a list of specs: counts 0, values null.
inline Row InitAggState(const std::vector<AggSpec>& specs) {
  Row state;
  for (const AggSpec& s : specs) {
    switch (s.func) {
      case AggFunc::kCount:
      case AggFunc::kCountAll:
        state.push_back(Value::Int64(0));
        break;
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
        state.push_back(Value::Null());
        break;
      case AggFunc::kAvg:
        state.push_back(Value::Null());   // running sum
        state.push_back(Value::Int64(0));  // running count
        break;
    }
  }
  return state;
}

/// A sum plus one value: a null sum takes the value (a timestamp as int64),
/// a float64 on either side makes the sum float64, int64 sums wrap around.
inline Value AddToSum(const Value& sum, const Value& v) {
  if (sum.is_null()) {
    if (v.type() == TypeId::kTimestamp) return Value::Int64(v.int64_value());
    return v;
  }
  if (sum.type() == TypeId::kFloat64 || v.type() == TypeId::kFloat64) {
    return Value::Float64(sum.AsDouble() + v.AsDouble());
  }
  return Value::Int64(static_cast<int64_t>(
      static_cast<uint64_t>(sum.int64_value()) +
      static_cast<uint64_t>(v.int64_value())));
}

/// Folds one input into the state. `args` holds the evaluated argument per
/// spec (entry ignored for kCountAll).
inline void UpdateAggState(const std::vector<AggSpec>& specs, const Row& args,
                           Row* state) {
  size_t slot = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const Value& v = args[i];
    Value& cell = (*state)[slot];
    switch (specs[i].func) {
      case AggFunc::kCountAll:
        cell = Value::Int64(cell.int64_value() + 1);
        break;
      case AggFunc::kCount:
        if (!v.is_null()) cell = Value::Int64(cell.int64_value() + 1);
        break;
      case AggFunc::kSum:
        if (!v.is_null()) cell = AddToSum(cell, v);
        break;
      case AggFunc::kMin:
        if (!v.is_null() && (cell.is_null() || v.Compare(cell) < 0)) cell = v;
        break;
      case AggFunc::kMax:
        if (!v.is_null() && (cell.is_null() || v.Compare(cell) > 0)) cell = v;
        break;
      case AggFunc::kAvg:
        if (!v.is_null()) {
          cell = AddToSum(cell, v);
          Value& count = (*state)[slot + 1];
          count = Value::Int64(count.int64_value() + 1);
        }
        break;
    }
    slot += static_cast<size_t>(AggStateArity(specs[i].func));
  }
}

/// The final output values (one per spec) of a state row.
inline Row FinalizeAggState(const std::vector<AggSpec>& specs,
                            const Row& state) {
  Row out;
  size_t slot = 0;
  for (const AggSpec& s : specs) {
    if (s.func == AggFunc::kAvg) {
      const int64_t count = state[slot + 1].int64_value();
      out.push_back(count == 0 || state[slot].is_null()
                        ? Value::Null()
                        : Value::Float64(state[slot].AsDouble() /
                                         static_cast<double>(count)));
    } else {
      out.push_back(state[slot]);
    }
    slot += static_cast<size_t>(AggStateArity(s.func));
  }
  return out;
}

}  // namespace sstreaming

#endif  // SSTREAMING_TESTS_AGG_ORACLE_H_
