#ifndef SSTREAMING_TYPES_COLUMN_H_
#define SSTREAMING_TYPES_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "types/data_type.h"
#include "types/value.h"

namespace sstreaming {

/// A typed, nullable column of values — the unit of vectorized execution.
/// Values are stored unboxed in contiguous arrays (the C++ analogue of
/// Spark's Tungsten binary format): int64/timestamp share an int64 array,
/// float64 a double array, and so on. Validity is a parallel byte vector
/// (1 = present).
class Column {
 public:
  explicit Column(TypeId type) : type_(type) {}

  static std::shared_ptr<Column> Make(TypeId type) {
    return std::make_shared<Column>(type);
  }

  TypeId type() const { return type_; }
  int64_t size() const { return static_cast<int64_t>(validity_.size()); }
  bool IsNull(int64_t i) const { return validity_[static_cast<size_t>(i)] == 0; }
  bool has_nulls() const { return null_count_ > 0; }
  int64_t null_count() const { return null_count_; }

  // --- Unboxed accessors (precondition: !IsNull(i), matching type) ---
  bool BoolAt(int64_t i) const { return bools_[static_cast<size_t>(i)] != 0; }
  int64_t Int64At(int64_t i) const { return ints_[static_cast<size_t>(i)]; }
  double Float64At(int64_t i) const { return doubles_[static_cast<size_t>(i)]; }
  const std::string& StringAt(int64_t i) const {
    return strings_[static_cast<size_t>(i)];
  }

  /// Numeric value widened to double. Precondition: numeric type, non-null.
  double NumericAt(int64_t i) const {
    return type_ == TypeId::kFloat64 ? Float64At(i)
                                     : static_cast<double>(Int64At(i));
  }

  /// Boxes the value at i (null-aware). Not for inner loops.
  Value ValueAt(int64_t i) const;

  // --- Builders ---
  void AppendNull();
  void AppendNulls(int64_t n);
  void AppendBool(bool v);
  void AppendInt64(int64_t v);
  void AppendFloat64(double v);
  void AppendString(std::string v);
  /// Appends a boxed value; the value's type must match (or be null).
  void AppendValue(const Value& v);
  void Reserve(int64_t n);

  /// Stable per-row hash, mixed into `hashes` (callers pre-size `hashes`
  /// and chain calls across key columns). Must agree with Value::Hash.
  void HashInto(std::vector<uint64_t>* hashes) const;

  /// Appends value i of `src` to this column with matching physical type
  /// (no boxing) — the gather kernel used by shuffle and joins.
  void AppendFrom(const Column& src, int64_t i);

  /// Overwrites value i with value j of `src` (null-aware, no boxing),
  /// keeping null_count() and ApproxBytes() exact. A non-null source value
  /// must have this column's physical type.
  void SetFrom(int64_t i, const Column& src, int64_t j);

  /// True when value i and value j of `other` encode to the same bytes
  /// (EncodeValueTo): both null, or the same TypeId with the same bits or
  /// bytes. So NaNs match bitwise, -0.0 and 0.0 differ, and so do an int64
  /// and a timestamp of the same number.
  bool ValueEquals(int64_t i, const Column& other, int64_t j) const;

  /// Appends values [start, start+length) of `src` with one bulk copy per
  /// storage array — the range kernel behind bus reads, Slice and Concat.
  /// Same result as AppendFrom over the range; a source of another physical
  /// type (e.g. an all-null kNull column) takes that per-value path.
  void AppendRange(const Column& src, int64_t start, int64_t length);

  /// Serializes value i exactly as Value::EncodeTo would (byte-identical),
  /// without boxing — used to build state-store keys from columns.
  void EncodeValueTo(int64_t i, std::string* out) const;

  /// Cache hint for value i: loads its validity byte and its payload slot.
  void PrefetchValue(int64_t i) const {
    const size_t k = static_cast<size_t>(i);
    __builtin_prefetch(validity_.data() + k);
    switch (PhysicalKindOf(type_)) {
      case PhysicalKind::kBool:
        __builtin_prefetch(bools_.data() + k);
        break;
      case PhysicalKind::kInt64:
        __builtin_prefetch(ints_.data() + k);
        break;
      case PhysicalKind::kFloat64:
        __builtin_prefetch(doubles_.data() + k);
        break;
      case PhysicalKind::kString:
        __builtin_prefetch(strings_.data() + k);
        break;
      case PhysicalKind::kNone:
        break;
    }
  }

  /// Approximate in-memory footprint of the column's payload in bytes.
  /// O(1): string character counts are maintained incrementally on append,
  /// so memory accounting never re-walks the data (§7.4 monitoring).
  int64_t ApproxBytes() const {
    return static_cast<int64_t>(validity_.size() + bools_.size() +
                                ints_.size() * sizeof(int64_t) +
                                doubles_.size() * sizeof(double) +
                                strings_.size() * sizeof(std::string)) +
           string_bytes_;
  }

  /// Raw storage access for fused kernels.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<uint8_t>& bools() const { return bools_; }
  const std::vector<uint8_t>& validity() const { return validity_; }

 private:
  TypeId type_;
  int64_t null_count_ = 0;
  int64_t string_bytes_ = 0;  // sum of strings_[i].size()
  std::vector<uint8_t> validity_;
  std::vector<uint8_t> bools_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

using ColumnPtr = std::shared_ptr<Column>;

}  // namespace sstreaming

#endif  // SSTREAMING_TYPES_COLUMN_H_
