#ifndef SSTREAMING_TYPES_VALUE_H_
#define SSTREAMING_TYPES_VALUE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/status.h"
#include "types/data_type.h"

namespace sstreaming {

/// A boxed scalar. Used at row granularity (record-at-a-time baselines,
/// state serialization, test assertions); the vectorized execution path works
/// on typed Columns and never boxes per value in inner loops.
class Value {
 public:
  /// The null value (untyped null; compatible with every column type).
  Value() : type_(TypeId::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool v);
  static Value Int64(int64_t v);
  static Value Float64(double v);
  static Value Str(std::string v);
  static Value Timestamp(int64_t micros);

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  /// Typed accessors. Preconditions: matching type (timestamp shares the
  /// int64 accessor), not null.
  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int64_value() const { return std::get<int64_t>(data_); }
  double float64_value() const { return std::get<double>(data_); }
  const std::string& string_value() const {
    return std::get<std::string>(data_);
  }

  /// Numeric value as double (int64/timestamp are widened). Precondition:
  /// IsNumeric(type()).
  double AsDouble() const;

  /// Total-order comparison: null sorts first; numerics compare by value
  /// across int64/float64/timestamp; strings lexicographically; bools
  /// false<true. Comparing string against numeric is an ordering by TypeId
  /// (stable, but queries should not rely on it).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable 64-bit hash (used for shuffle partitioning and hash aggregation).
  uint64_t Hash() const;

  std::string ToString() const;

  /// Binary serialization (state store format): 1 type byte + payload.
  void EncodeTo(std::string* out) const;
  /// Decodes a value from data[*pos...]; advances *pos.
  static Result<Value> DecodeFrom(const std::string& data, size_t* pos);

 private:
  TypeId type_;
  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

/// SQL's three-way order of two values, behind both comparison operators,
/// ORDER BY and the row order (CompareRows): Value::Compare (nulls first,
/// numbers by value), except that NaN equals NaN and sorts above every
/// other number, as in Spark SQL. So it is a strict weak order over nulls
/// and numbers, which Value::Compare is not once a NaN is present.
/// Value::Compare, which still orders aggregate min/max state, lets NaN
/// tie with every number.
int SqlCompare(const Value& a, const Value& b);

/// One value of the state codec (Value::EncodeTo), read in place: the type
/// byte, then the payload bits of a bool, int64, timestamp or float64, or
/// the bytes of a string.
struct EncodedValue {
  TypeId type = TypeId::kNull;
  uint64_t bits = 0;
  std::string_view str;
};

/// Reads the value at data[*pos] without boxing it and advances *pos past
/// it; a truncated or unknown value is InvalidArgument. The one decoder of
/// the codec: Value::DecodeFrom boxes its result, BatchBuilder::AppendEncoded
/// appends it to a typed column.
Status ReadEncodedValue(std::string_view data, size_t* pos, EncodedValue* out);

/// The codecs' fixed-width integer (values, state records, state files):
/// 8 bytes in host order. GetFixed64 reads it at data[*pos] and advances
/// *pos past it; false when fewer than 8 bytes remain.
void PutFixed64(std::string* out, uint64_t v);
bool GetFixed64(std::string_view data, size_t* pos, uint64_t* v);

/// FNV-1a style mix used by Value::Hash and the columnar hash kernels; kept
/// here so row and column hashing agree (required: both sides of a shuffle
/// must agree on partitioning). Inline: every hash kernel calls it per row.
inline uint64_t HashMix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return h;
}
/// Value::Hash of a null.
inline constexpr uint64_t kNullHash = 0x5D1F00D5ULL;
/// Value::Hash of a float64: an integral double hashes like the equal int64
/// so 3.0 and 3 agree (Compare treats them as equal, so Hash must too); any
/// other double (NaN included) hashes its bits. The range check keeps NaN
/// and out-of-range values out of the undefined cast.
inline uint64_t HashFloat64(double d) {
  if (d >= -0x1p63 && d < 0x1p63) {
    const auto as_int = static_cast<int64_t>(d);
    if (static_cast<double>(as_int) == d) {
      return HashMix(2, static_cast<uint64_t>(as_int));
    }
  }
  return HashMix(2, std::bit_cast<uint64_t>(d));
}
/// 64-bit FNV-1a, offset basis xor `seed`; seed 0 is StateStore::HashKey.
inline uint64_t HashBytes(const void* data, size_t n, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace sstreaming

#endif  // SSTREAMING_TYPES_VALUE_H_
