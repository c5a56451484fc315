#include "types/value.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace sstreaming {

Value Value::Bool(bool v) {
  Value out;
  out.type_ = TypeId::kBool;
  out.data_ = v;
  return out;
}

Value Value::Int64(int64_t v) {
  Value out;
  out.type_ = TypeId::kInt64;
  out.data_ = v;
  return out;
}

Value Value::Float64(double v) {
  Value out;
  out.type_ = TypeId::kFloat64;
  out.data_ = v;
  return out;
}

Value Value::Str(std::string v) {
  Value out;
  out.type_ = TypeId::kString;
  out.data_ = std::move(v);
  return out;
}

Value Value::Timestamp(int64_t micros) {
  Value out;
  out.type_ = TypeId::kTimestamp;
  out.data_ = micros;
  return out;
}

double Value::AsDouble() const {
  SS_DCHECK(IsNumeric(type_));
  if (type_ == TypeId::kFloat64) return float64_value();
  return static_cast<double>(int64_value());
}

int Value::Compare(const Value& other) const {
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  const bool lhs_num = IsNumeric(type_);
  const bool rhs_num = IsNumeric(other.type_);
  if (lhs_num && rhs_num) {
    if (type_ == TypeId::kFloat64 || other.type_ == TypeId::kFloat64) {
      double a = AsDouble();
      double b = other.AsDouble();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    int64_t a = int64_value();
    int64_t b = other.int64_value();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case TypeId::kBool: {
      int a = bool_value() ? 1 : 0;
      int b = other.bool_value() ? 1 : 0;
      return a - b;
    }
    case TypeId::kString: {
      int c = string_value().compare(other.string_value());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;
  }
}

int SqlCompare(const Value& a, const Value& b) {
  auto is_nan = [](const Value& v) {
    return v.type() == TypeId::kFloat64 && std::isnan(v.float64_value());
  };
  const bool a_nan = is_nan(a);
  const bool b_nan = is_nan(b);
  if ((a_nan || b_nan) && IsNumeric(a.type()) && IsNumeric(b.type())) {
    return static_cast<int>(a_nan) - static_cast<int>(b_nan);
  }
  return a.Compare(b);
}

uint64_t Value::Hash() const {
  switch (type_) {
    case TypeId::kNull:
      return kNullHash;
    case TypeId::kBool:
      return HashMix(1, bool_value() ? 1 : 0);
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return HashMix(2, static_cast<uint64_t>(int64_value()));
    case TypeId::kFloat64:
      return HashFloat64(float64_value());
    case TypeId::kString:
      return HashBytes(string_value().data(), string_value().size(), 4);
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case TypeId::kNull:
      return "null";
    case TypeId::kBool:
      return bool_value() ? "true" : "false";
    case TypeId::kInt64:
      return std::to_string(int64_value());
    case TypeId::kTimestamp:
      return std::to_string(int64_value()) + "us";
    case TypeId::kFloat64: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", float64_value());
      return buf;
    }
    case TypeId::kString:
      return string_value();
  }
  return "?";
}

void Value::EncodeTo(std::string* out) const {
  out->push_back(static_cast<char>(type_));
  switch (type_) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      out->push_back(bool_value() ? 1 : 0);
      break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      PutFixed64(out, static_cast<uint64_t>(int64_value()));
      break;
    case TypeId::kFloat64: {
      uint64_t bits;
      double d = float64_value();
      std::memcpy(&bits, &d, 8);
      PutFixed64(out, bits);
      break;
    }
    case TypeId::kString:
      PutFixed64(out, string_value().size());
      out->append(string_value());
      break;
  }
}

Status ReadEncodedValue(std::string_view data, size_t* pos,
                        EncodedValue* out) {
  if (*pos >= data.size()) {
    return Status::InvalidArgument("value decode: truncated type byte");
  }
  out->type = static_cast<TypeId>(data[(*pos)++]);
  auto fixed64 = [&]() { return GetFixed64(data, pos, &out->bits); };
  switch (out->type) {
    case TypeId::kNull:
      return Status::OK();
    case TypeId::kBool:
      if (*pos >= data.size()) {
        return Status::InvalidArgument("value decode: truncated bool");
      }
      out->bits = data[(*pos)++] != 0 ? 1 : 0;
      return Status::OK();
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      if (!fixed64()) {
        return Status::InvalidArgument("value decode: truncated int64");
      }
      return Status::OK();
    case TypeId::kFloat64:
      if (!fixed64()) {
        return Status::InvalidArgument("value decode: truncated float64");
      }
      return Status::OK();
    case TypeId::kString:
      if (!fixed64()) {
        return Status::InvalidArgument("value decode: truncated string size");
      }
      if (data.size() - *pos < out->bits) {
        return Status::InvalidArgument("value decode: truncated string body");
      }
      out->str = data.substr(*pos, out->bits);
      *pos += out->bits;
      return Status::OK();
  }
  return Status::InvalidArgument("value decode: bad type byte");
}

void PutFixed64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool GetFixed64(std::string_view data, size_t* pos, uint64_t* v) {
  if (*pos + 8 > data.size()) return false;
  std::memcpy(v, data.data() + *pos, 8);
  *pos += 8;
  return true;
}

Result<Value> Value::DecodeFrom(const std::string& data, size_t* pos) {
  EncodedValue v;
  SS_RETURN_IF_ERROR(ReadEncodedValue(data, pos, &v));
  switch (v.type) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
      return Value::Bool(v.bits != 0);
    case TypeId::kInt64:
      return Value::Int64(static_cast<int64_t>(v.bits));
    case TypeId::kTimestamp:
      return Value::Timestamp(static_cast<int64_t>(v.bits));
    case TypeId::kFloat64: {
      double d;
      std::memcpy(&d, &v.bits, 8);
      return Value::Float64(d);
    }
    case TypeId::kString:
      return Value::Str(std::string(v.str));
  }
  return Value::Null();
}

}  // namespace sstreaming
