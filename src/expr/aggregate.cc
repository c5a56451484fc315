#include "expr/aggregate.h"

#include "common/logging.h"

namespace sstreaming {

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kCountAll:
      return "count(*)";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

std::string AggSpec::ToString() const {
  std::string out = AggFuncName(func);
  if (func != AggFunc::kCountAll) {
    out += "(";
    out += arg ? arg->ToString() : "?";
    out += ")";
  }
  out += " AS " + name;
  return out;
}

AggSpec CountAll(std::string name) {
  return AggSpec{AggFunc::kCountAll, nullptr, std::move(name)};
}
AggSpec CountOf(ExprPtr arg, std::string name) {
  return AggSpec{AggFunc::kCount, std::move(arg), std::move(name)};
}
AggSpec SumOf(ExprPtr arg, std::string name) {
  return AggSpec{AggFunc::kSum, std::move(arg), std::move(name)};
}
AggSpec MinOf(ExprPtr arg, std::string name) {
  return AggSpec{AggFunc::kMin, std::move(arg), std::move(name)};
}
AggSpec MaxOf(ExprPtr arg, std::string name) {
  return AggSpec{AggFunc::kMax, std::move(arg), std::move(name)};
}
AggSpec AvgOf(ExprPtr arg, std::string name) {
  return AggSpec{AggFunc::kAvg, std::move(arg), std::move(name)};
}

Result<TypeId> AggOutputType(AggFunc func, TypeId arg_type) {
  switch (func) {
    case AggFunc::kCount:
    case AggFunc::kCountAll:
      return TypeId::kInt64;
    case AggFunc::kSum:
      if (!IsNumeric(arg_type)) {
        return Status::AnalysisError("sum() requires a numeric argument");
      }
      return arg_type == TypeId::kFloat64 ? TypeId::kFloat64 : TypeId::kInt64;
    case AggFunc::kAvg:
      if (!IsNumeric(arg_type)) {
        return Status::AnalysisError("avg() requires a numeric argument");
      }
      return TypeId::kFloat64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg_type;
  }
  return Status::Internal("bad agg func");
}

int AggStateArity(AggFunc func) { return func == AggFunc::kAvg ? 2 : 1; }

Row InitAggState(const std::vector<AggSpec>& specs) {
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

namespace {

// sum accumulation preserving int64 sums for int-typed inputs.
Value AddToSum(const Value& sum, const Value& v) {
  if (sum.is_null()) {
    // Normalize timestamps to int64 so sums have a consistent type.
    if (v.type() == TypeId::kTimestamp) return Value::Int64(v.int64_value());
    return v;
  }
  if (sum.type() == TypeId::kFloat64 || v.type() == TypeId::kFloat64) {
    return Value::Float64(sum.AsDouble() + v.AsDouble());
  }
  return Value::Int64(sum.int64_value() + v.int64_value());
}

}  // namespace

void UpdateAggState(const std::vector<AggSpec>& specs, const Row& args,
                    Row* state) {
  size_t slot = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const AggSpec& s = specs[i];
    const Value& v = args[i];
    switch (s.func) {
      case AggFunc::kCountAll:
        (*state)[slot] = Value::Int64((*state)[slot].int64_value() + 1);
        break;
      case AggFunc::kCount:
        if (!v.is_null()) {
          (*state)[slot] = Value::Int64((*state)[slot].int64_value() + 1);
        }
        break;
      case AggFunc::kSum:
        if (!v.is_null()) (*state)[slot] = AddToSum((*state)[slot], v);
        break;
      case AggFunc::kMin:
        if (!v.is_null() &&
            ((*state)[slot].is_null() || v.Compare((*state)[slot]) < 0)) {
          (*state)[slot] = v;
        }
        break;
      case AggFunc::kMax:
        if (!v.is_null() &&
            ((*state)[slot].is_null() || v.Compare((*state)[slot]) > 0)) {
          (*state)[slot] = v;
        }
        break;
      case AggFunc::kAvg:
        if (!v.is_null()) {
          (*state)[slot] = AddToSum((*state)[slot], v);
          (*state)[slot + 1] =
              Value::Int64((*state)[slot + 1].int64_value() + 1);
        }
        break;
    }
    slot += static_cast<size_t>(AggStateArity(s.func));
  }
}

void MergeAggState(const std::vector<AggSpec>& specs, const Row& other,
                   Row* state) {
  size_t slot = 0;
  for (const AggSpec& s : specs) {
    switch (s.func) {
      case AggFunc::kCount:
      case AggFunc::kCountAll:
        (*state)[slot] = Value::Int64((*state)[slot].int64_value() +
                                      other[slot].int64_value());
        break;
      case AggFunc::kSum:
        if (!other[slot].is_null()) {
          (*state)[slot] = AddToSum((*state)[slot], other[slot]);
        }
        break;
      case AggFunc::kMin:
        if (!other[slot].is_null() &&
            ((*state)[slot].is_null() ||
             other[slot].Compare((*state)[slot]) < 0)) {
          (*state)[slot] = other[slot];
        }
        break;
      case AggFunc::kMax:
        if (!other[slot].is_null() &&
            ((*state)[slot].is_null() ||
             other[slot].Compare((*state)[slot]) > 0)) {
          (*state)[slot] = other[slot];
        }
        break;
      case AggFunc::kAvg:
        if (!other[slot].is_null()) {
          (*state)[slot] = AddToSum((*state)[slot], other[slot]);
        }
        (*state)[slot + 1] = Value::Int64((*state)[slot + 1].int64_value() +
                                          other[slot + 1].int64_value());
        break;
    }
    slot += static_cast<size_t>(AggStateArity(s.func));
  }
}

Row FinalizeAggState(const std::vector<AggSpec>& specs, const Row& state) {
  Row out;
  out.reserve(specs.size());
  size_t slot = 0;
  for (const AggSpec& s : specs) {
    switch (s.func) {
      case AggFunc::kCount:
      case AggFunc::kCountAll:
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
        out.push_back(state[slot]);
        break;
      case AggFunc::kAvg: {
        int64_t count = state[slot + 1].int64_value();
        if (count == 0 || state[slot].is_null()) {
          out.push_back(Value::Null());
        } else {
          out.push_back(Value::Float64(state[slot].AsDouble() /
                                       static_cast<double>(count)));
        }
        break;
      }
    }
    slot += static_cast<size_t>(AggStateArity(s.func));
  }
  return out;
}

Status AppendFinalAggState(const std::vector<AggSpec>& specs, const Row& state,
                           int first, BatchBuilder* out) {
  size_t slot = 0;
  int col = first;
  for (const AggSpec& s : specs) {
    if (s.func == AggFunc::kAvg) {
      const int64_t count = state[slot + 1].int64_value();
      if (count == 0 || state[slot].is_null()) {
        out->column(col).AppendNull();
      } else {
        out->column(col).AppendFloat64(state[slot].AsDouble() /
                                       static_cast<double>(count));
      }
    } else {
      SS_RETURN_IF_ERROR(out->AppendCell(col, state[slot]));
    }
    ++col;
    slot += static_cast<size_t>(AggStateArity(s.func));
  }
  return Status::OK();
}

}  // namespace sstreaming
